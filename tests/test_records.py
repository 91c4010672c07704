"""The frozen records: construction, defaults, refusals, immutability, equality, order and repr.

Each record is built in the forms `src/`, `scripts/` and `tests/` use
(positional, keyword, mixed, with and without defaults), and its fields
are listed here in their positional order.  Two records are equal, with
equal hashes, exactly when they are of one class with equal fields; a
record with an unhashable field is unhashable.  Every record, binary
form and section copies, deep-copies and pickles to an equal one.
Importing the package loads no dataclass code generator.
"""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from canpencil.binform import BinForm
from canpencil.census import NodeRecord, SingularReport
from canpencil.family import (
    BranchData,
    DegreeTable,
    SurfaceEquations,
    _member_bundle,
    generate_member,
)
from canpencil.fields import QQ, FieldSpec
from canpencil.relalg import (
    ExampleReport,
    LiftingCertificate,
    SigmaTwoData,
    YPoly,
    example_verify,
    lifting_annihilator,
    split_type,
)
from canpencil.sections import BundleData

F101 = FieldSpec(101)


def _member():
    return generate_member(2, 0, QQ, seed=6)


def _sigma():
    t0, t1 = BinForm.t0(QQ), BinForm.t1(QQ)
    return SigmaTwoData(5, 1, 1, t0, t1**3, t1**6, t0**8, BinForm.zero(QQ))


def _node():
    return NodeRecord(((3, 1), (0, 0, 1, 0)), 1, 5)


#: class -> (its fields in positional order, a factory of field values, another value per field)
RECORDS = {
    NodeRecord: (("point", "multiplicity", "hessian_det"),
                 lambda: (((3, 1), (0, 0, 1, 0)), 1, 5),
                 (((1, 0), (0, 0, 1, 0)), 2, 0)),
    SingularReport: (("p_nodes", "p_sweep", "nodes", "node_bound", "branch_hits",
                      "cone_singularities", "timings"),
                     lambda: (11, None, (_node(),), 2, [((3, 1), (0, 0, 1, 0))], [],
                              {"nodes_s": 0.5}),
                     (13, 17, (), 4, [], [((1, 0), (0, 0, 1, 0))], {})),
    DegreeTable: (("pg", "theta", "q_x", "q_y", "g"), lambda: (2, 0, 3, 2, {(0, 0, 3): 6}),
                  (3, 1, 4, 5, {})),
    SurfaceEquations: (("bundle", "field", "Q", "G"),
                       lambda: (lambda m: (m.bundle, m.field, m.Q, m.G))(_member()),
                       (lambda m: (BundleData(2, 1), F101, m.G, m.Q))(_member())),
    BranchData: (("base_r", "d1", "d2", "d3", "source"),
                 lambda: (1, (1, 5), (3, 3), (1, 1), "table row"),
                 (2, (1, 4), (3, 6), (1, 0), "explicit construction")),
    FieldSpec: (("p",), lambda: (101,), (103,)),
    SigmaTwoData: (("pg", "theta", "alpha", "f0", "f1", "g0", "g1", "g2"),
                   lambda: tuple(getattr(_sigma(), f) for f in
                                 ("pg", "theta", "alpha", "f0", "f1", "g0", "g1", "g2")),
                   (6, 2, 0, BinForm.one(QQ), BinForm.t0(QQ), BinForm.t1(QQ),
                    BinForm.t0(QQ)**2, BinForm.one(QQ))),
    LiftingCertificate: (("data", "solutions"),
                         lambda: (_sigma(), lifting_annihilator(_sigma()).solutions),
                         (SigmaTwoData(6, 2, 0, *[BinForm.one(QQ)] * 5), ())),
    ExampleReport: (("key", "checks", "details"),
                    lambda: ((1, 1, 15, 5), {"tau": True}, {"split_type": (4, 5, 6)}),
                    ((1, 2, 12, 4), {}, {})),
    BundleData: (("pg", "theta"), lambda: (2, 0), (5, 6)),
}

CLASSES = pytest.mark.parametrize("cls", list(RECORDS), ids=lambda c: c.__name__)


def _build(cls):
    names, values, _ = RECORDS[cls]
    return cls(*values())


def _hashable(values) -> bool:
    try:
        hash(tuple(values))
    except TypeError:
        return False
    return True


@CLASSES
def test_construction_forms_agree(cls):
    names, values, _ = RECORDS[cls]
    args = values()
    built = [
        cls(*args),
        cls(**dict(zip(names, args))),
        cls(*args[:1], **dict(zip(names[1:], args[1:]))),
        cls(*args[:-1], **{names[-1]: args[-1]}),
    ]
    for rec in built:
        assert [getattr(rec, n) for n in names] == list(args)
        assert rec == built[0]


@CLASSES
def test_arity_is_checked(cls):
    names, values, _ = RECORDS[cls]
    args = values()
    with pytest.raises(TypeError):
        cls(*args, None)
    with pytest.raises(TypeError):
        cls(*args, **{names[0]: args[0]})
    with pytest.raises(TypeError):
        cls(*args, not_a_field=1)
    if cls not in (FieldSpec, BranchData):  # the two records with a default
        with pytest.raises(TypeError):
            cls(*args[:-1])


def test_defaults():
    assert FieldSpec() == QQ and FieldSpec().p is None and FieldSpec(None) == QQ
    assert FieldSpec(p=101) == F101
    data = BranchData(1, (1, 5), (3, 3), (1, 1))
    assert data.source == "table row"
    assert data == BranchData(1, (1, 5), (3, 3), (1, 1), source="table row")
    assert BranchData(1, (1, 5), (3, 3), (1, 1), "explicit construction") != data


@CLASSES
def test_fields_cannot_be_assigned(cls):
    names, _, other = RECORDS[cls]
    rec = _build(cls)
    for name, value in zip(names, other):
        with pytest.raises(AttributeError):
            setattr(rec, name, value)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    with pytest.raises(AttributeError):
        rec.not_a_field = 1
    assert rec == _build(cls)


@CLASSES
def test_equality_and_hash_go_by_value(cls):
    names, values, other = RECORDS[cls]
    a, b = cls(*values()), cls(*values())
    assert a == b and not a != b
    if _hashable(values()):
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)
    for i in range(len(names)):
        args = list(values())
        args[i] = other[i]
        changed = cls(*args)
        assert changed != a and not changed == a


def test_records_of_different_classes_never_compare_equal():
    records = [_build(cls) for cls in RECORDS]
    for i, a in enumerate(records):
        for j, b in enumerate(records):
            assert (a == b) is (i == j)
        names = RECORDS[type(a)][0]
        fields = tuple(getattr(a, n) for n in names)
        assert a != fields and fields != a
    # equal field values in two classes
    assert BundleData(5, 2) != FieldSpec(5)
    same = [cls(2, 0) for cls in (BundleData, LiftingCertificate)]
    assert [a == b for a in same for b in same] == [a is b for a in same for b in same]


@CLASSES
def test_copy_and_pickle_rebuild_an_equal_record(cls):
    rec = _build(cls)
    assert copy.copy(rec) == rec and type(copy.copy(rec)) is cls
    assert copy.deepcopy(rec) == rec and type(copy.deepcopy(rec)) is cls
    assert pickle.loads(pickle.dumps(rec)) == rec


def test_forms_and_sections_copy_and_pickle():
    member = _member()
    forms = (BinForm.one(QQ), BinForm.t0(QQ)**3 * BinForm.constant(QQ, Fraction(2, 3)),
             (BinForm.t0(F101) - BinForm.t1(F101).scale(7))**2)
    for obj in (member.Q, member.G, *forms):
        for back in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
            assert back == obj and type(back) is type(obj)


class SlotlessPoly(YPoly):
    """A subclass that declares no field of its own."""

    __slots__ = ()


@pytest.mark.parametrize("cls", [SlotlessPoly, YPoly], ids=lambda c: c.__name__)
def test_a_subclass_with_empty_slots_keeps_its_base_fields(cls):
    one, t0 = BinForm.one(QQ), BinForm.t0(QQ)
    poly = cls(QQ, {(1, 0, 0): one})
    assert cls._fields == ("field", "terms") and not hasattr(poly, "__dict__")
    assert poly == cls(QQ, {(1, 0, 0): one})
    assert poly != cls(QQ, {(0, 1, 0): t0}) and poly != cls(F101, {})
    other = YPoly if cls is SlotlessPoly else SlotlessPoly
    assert poly != other(QQ, {(1, 0, 0): one})
    for back in (copy.copy(poly), copy.deepcopy(poly), pickle.loads(pickle.dumps(poly))):
        assert back == poly and type(back) is cls
    assert repr(poly) == "YPoly([1]*y^(1, 0, 0))"  # the fields, by YPoly's own repr


@CLASSES
def test_repr_names_class_and_fields(cls):
    names, values, _ = RECORDS[cls]
    rec = _build(cls)
    body = ", ".join(f"{n}={v!r}" for n, v in zip(names, values()))
    assert repr(rec) == f"{cls.__name__}({body})"


def test_split_type_prints_as_a_plain_tuple():
    # `example` prints each detail with str(), so the splitting degrees read "(d0, d1, d2)"
    assert split_type(5, 1, 1) == (8, 10, 12) and type(split_type(5, 1, 1)) is tuple
    split = example_verify((1, 1, 15, 5)).details["split_type"]
    assert type(split) is tuple and str(split) == "(8, 10, 12)"


def test_wps_points_sort_by_base_then_fiber():
    # a census point is the tuple (base, fiber), written as {"base": [...], "fiber": [...]}
    points = [((3, 1), (1, 0, 0, 0)), ((1, 0), (0, 0, 1, 0)), ((0, 1), (1, 2, 0, 0)),
              ((0, 1), (0, 1, 5, 2)), ((3, 1), (0, 0, 1, 1))]
    assert sorted(points) == [points[3], points[2], points[1], points[4], points[0]]
    report = SingularReport(11, 11, (NodeRecord(points[1], 1, 5),), 2, points[:1],
                            sorted(points), {})
    doc = report.to_json_dict()
    assert doc["nodes"][0]["point"] == {"base": [1, 0], "fiber": [0, 0, 1, 0]}
    assert doc["branch_hits"] == [{"point": {"base": [3, 1], "fiber": [1, 0, 0, 0]},
                                   "branch_value": 0}]
    assert [(q["base"], q["fiber"]) for q in doc["cone_singularities"]] == [
        ([0, 1], [0, 1, 5, 2]), ([0, 1], [1, 2, 0, 0]), ([1, 0], [0, 0, 1, 0]),
        ([3, 1], [0, 0, 1, 1]), ([3, 1], [1, 0, 0, 0])]


@pytest.mark.parametrize("p, message", [
    (4, "prime modulus must satisfy 5 <= p < 2**31, got 4"),
    (3, "prime modulus must satisfy 5 <= p < 2**31, got 3"),
    (-7, "prime modulus must satisfy 5 <= p < 2**31, got -7"),
    (2**31, "prime modulus must satisfy 5 <= p < 2**31, got 2147483648"),
    (True, "prime modulus must satisfy 5 <= p < 2**31, got True"),
    (101.0, "prime modulus must satisfy 5 <= p < 2**31, got 101.0"),
    ("101", "prime modulus must satisfy 5 <= p < 2**31, got '101'"),
    (9, "9 is not prime"),
    (2**31 - 3, "2147483645 is not prime"),
], ids=repr)
def test_field_spec_refusals(p, message):
    with pytest.raises(ValueError) as info:
        FieldSpec(p)
    assert str(info.value) == message
    with pytest.raises(ValueError) as info:
        FieldSpec(p=p)
    assert str(info.value) == message


def test_field_spec_bounds_admit_primes():
    assert FieldSpec(5).p == 5 and FieldSpec(2**31 - 1).p == 2**31 - 1


@pytest.mark.parametrize("pg, theta, message", [
    (1, 0, "p_g >= 2 required"),
    (-3, 9, "p_g >= 2 required"),
    (2, -1, "theta must lie in [0, 6]"),
    (2, 7, "theta must lie in [0, 6]"),
])
def test_bundle_and_family_range_refusals(pg, theta, message):
    for build in (lambda: BundleData(pg, theta), lambda: BundleData(pg=pg, theta=theta),
                  lambda: _member_bundle(pg, theta)):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message


def test_family_params_refuse_pg_above_the_member_bound():
    # a bare bundle takes any p_g; a family member's bundle stops at PG_MAX = 1000
    assert BundleData(1001, 0).pg == 1001 and _member_bundle(1000, 6).pg == 1000
    for build in (lambda: _member_bundle(1001, 0),
                  lambda: generate_member(1001, 0, QQ, seed=1)):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == "p_g must be at most 1000 for a family member, got 1001"


@pytest.mark.parametrize("args, message", [
    ((-1, (1, 4), (3, 3), (1, 1)), "Hirzebruch index must be non-negative"),
    ((1, (-1, 2), (3, 3), (1, 1)), "branch class (-1, 2) is not effective on F_1"),
    ((0, (1, 4), (3, -2), (1, 1)), "branch class (3, -2) is not effective on F_0"),
    ((2, (1, 4), (3, 3), (0, -1), "explicit construction"),
     "branch class (0, -1) is not effective on F_2"),
])
def test_branch_data_effectivity(args, message):
    with pytest.raises(ValueError) as info:
        BranchData(*args)
    assert str(info.value) == message


def test_the_package_import_loads_no_code_generator():
    # -S: the package and the stdlib modules it imports, not what a site .pth loads at start-up
    code = "import sys, canpencil.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), check=True)
    assert proc.stdout == "[]\n"
