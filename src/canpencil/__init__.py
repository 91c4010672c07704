"""Exact-arithmetic toolkit for surfaces with a canonical genus-2 pencil.

Subpackage map:

- :mod:`canpencil.fields`, :mod:`canpencil.binform` -- exact scalars and
  binary forms on the base line, with the literal parser;
- :mod:`canpencil.sections` -- the sections of the weighted bundle
  P(1:1:2:3) over P^1 as checked records, with their JSON bodies, and
  the one sparse polynomial ring, which :mod:`canpencil.relalg` uses;
- :mod:`canpencil.chow` -- intersection numbers and surface invariants;
- :mod:`canpencil.family` -- degree tables, seeded members, bidouble-cover
  branch data, genus feasibility;
- :mod:`canpencil.relalg` -- the conic-bundle multiplication data, tau,
  annihilator certificates, and the exceptional families;
- :mod:`canpencil.census` -- finite-field node census and smoothness sweep;
- :mod:`canpencil.cli` -- the command-line interface.
"""

from .fields import QQ, FieldSpec
from .binform import BinForm, parse_binform

__all__ = ["QQ", "FieldSpec", "BinForm", "parse_binform"]
__version__ = "0.1.0"
