"""Tracing from outside the program: spans around canpencil's public functions.

`Tracer.install` replaces each named function at every name where callers
look it up: a module-level function is rebound in every `canpencil.*`
module that imported it by name (for example `census.roots`), and a method
is replaced on its class.  Each call then records a span (id, name, start,
end, parent id, op id) and adds to per-name call counts and self time, the
span's duration minus the time its traced children took.  `FieldSpec`
scalar operations are counted only, since a clock read costs as much as
the operation.  `uninstall` puts every original back.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter
from typing import Callable, Dict, List, Optional

#: module -> names, with methods written Class.method
SPAN_TARGETS: Dict[str, List[str]] = {
    "census": ["run_census", "node_census", "branch_disjointness", "quasi_smooth_sweep"],
    "binform": ["roots", "BinForm.__mul__", "BinForm.evaluate", "gcd", "divexact", "divides",
                "parse_binform", "format_binform"],
    "sections": ["GradedSection.validate", "section_terms_from_dict"],
    "family": ["SurfaceEquations.load", "generate_member", "bidouble_cross_check"],
    "chow": ["surface_invariants", "adjunction_check"],
    "relalg": ["random_sigma_data", "tau_of", "lifting_annihilator", "LiftingCertificate.verify",
               "s6prime_matrix", "mat_mul", "example_verify"],
    "cli": ["main"],
}
SPAN_NAMES = [f"{mod}.{name}" for mod, names in SPAN_TARGETS.items() for name in names]

FIELD_OPS = ("add", "sub", "mul", "neg", "inv", "normalize")

#: counts computed from call arguments and results, not measured by a clock
COMPUTED_COUNTS = ("census.sweep.base_points", "census.sweep.fiber_pairs",
                   "census.sweep.singular_points", "binform.roots.residues")

#: spans kept for the dump; later spans still count towards calls and self time
MAX_SPANS = 400_000
COLUMNS = ("id", "name", "start", "end", "parent", "op")


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _observe_sweep(counts, args, kwargs, result) -> None:
    p = _arg(args, kwargs, 1, "p")
    counts["census.sweep.base_points"] += p + 1
    counts["census.sweep.fiber_pairs"] += (p + 1) * p * p
    counts["census.sweep.singular_points"] += len(result)


def _observe_roots(counts, args, kwargs, result) -> None:
    counts["binform.roots.residues"] += _arg(args, kwargs, 0, "form").field.p


OBSERVERS: Dict[str, Callable] = {
    "census.quasi_smooth_sweep": _observe_sweep,
    "binform.roots": _observe_roots,
}


class Tracer:
    def __init__(self):
        self.op = -1  # op id stamped on new spans; -1 marks set-up
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        self.counts = dict.fromkeys(COMPUTED_COUNTS, 0)
        self.field_ops = {"fp": 0, "qq": 0}
        self.missing: List[str] = []  # targets the tree no longer has
        self._stack: list = []  # [span id, traced child time] per open span
        self._next_id = 0
        self._undo: list = []
        self._name_ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.span_cols = {col: array(code) for col, code in zip(COLUMNS, "qHddqq")}
        self.dropped = 0

    # -- aggregates -----------------------------------------------------

    def reset(self) -> None:
        """Zero the aggregates; recorded spans are kept."""
        for d in (self.calls, self.self_s, self.counts, self.field_ops):
            for k in d:
                d[k] = 0

    # -- wrappers -------------------------------------------------------

    def _span(self, name: str, fn: Callable) -> Callable:
        tracer = self
        stack = self._stack
        calls, self_s = self.calls, self.self_s
        observe = OBSERVERS.get(name)
        name_id = self._name_ids[name]
        ids, names, starts, ends, parents, ops = (self.span_cols[col] for col in COLUMNS)

        def traced(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id = sid + 1
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                parent = -1
                if stack:
                    stack[-1][1] += dur
                    parent = stack[-1][0]
                calls[name] += 1
                self_s[name] += dur - frame[1]
                if len(ids) < MAX_SPANS:
                    ids.append(sid)
                    names.append(name_id)
                    starts.append(t0)
                    ends.append(t1)
                    parents.append(parent)
                    ops.append(tracer.op)
                else:
                    tracer.dropped += 1
            if observe is not None:
                observe(tracer.counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _field_counter(self, fn: Callable) -> Callable:
        counts = self.field_ops

        def counted(field, *args):
            counts["qq" if field.p is None else "fp"] += 1
            return fn(field, *args)

        counted.__wrapped__ = fn
        return counted

    # -- installation ---------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "canpencil" or n.startswith("canpencil."))]
        for modname, names in SPAN_TARGETS.items():
            mod = sys.modules[f"canpencil.{modname}"]
            for qual in names:
                name = f"{modname}.{qual}"
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    cls = getattr(mod, cls_name, None)
                    raw = getattr(cls, "__dict__", {}).get(attr)
                    if raw is None:
                        self.missing.append(name)
                    elif isinstance(raw, staticmethod):
                        self._set(cls, attr, staticmethod(self._span(name, raw.__func__)))
                    else:
                        self._set(cls, attr, self._span(name, raw))
                    continue
                orig = getattr(mod, qual, None)
                if orig is None:
                    self.missing.append(name)
                    continue
                wrapped = self._span(name, orig)
                for m in mods:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            self._set(m, attr, wrapped)
        field_spec = getattr(sys.modules["canpencil.fields"], "FieldSpec", None)
        for op in FIELD_OPS:
            raw = getattr(field_spec, "__dict__", {}).get(op)
            if callable(raw):
                self._set(field_spec, op, self._field_counter(raw))
            else:
                self.missing.append(f"fields.FieldSpec.{op}")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- output ---------------------------------------------------------

    def write_spans(self, path: str, meta: Optional[dict] = None) -> int:
        """Write one JSON line of metadata, then one line per span; returns the span count."""
        cols = [self.span_cols[col] for col in COLUMNS]
        with open(path, "w") as fh:
            head = dict(meta or {}, names=SPAN_NAMES, dropped=self.dropped, columns=COLUMNS)
            fh.write(json.dumps(head) + "\n")
            for row in zip(*cols):
                fh.write("[%d,%d,%.9f,%.9f,%d,%d]\n" % row)
        return len(cols[0])
