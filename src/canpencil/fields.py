"""Exact coefficient fields: the rationals and prime fields F_p.

Every computation in this package is exact.  Rational scalars are
`fractions.Fraction` values; prime-field scalars are canonical residues
stored as plain ints in ``[0, p)``.  A :class:`FieldSpec` names the field
and provides one-scalar-at-a-time arithmetic.  Hot polynomial code does
not call it per scalar: `BinForm` ring operations, division and root
finding branch on ``field.p`` once per operation (an int for F_p, None
for QQ) and then work on plain ints mod p or on Fractions directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Scalar = Union[int, Fraction]

#: smallest admissible prime modulus; 2 and 3 are excluded because the
#: fiber variables carry weights 2 and 3, which must stay invertible
PRIME_MIN = 5
PRIME_MAX = 2**31


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 3.2e18."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Either the rationals or a prime field F_p with 5 <= p < 2**31."""

    kind: str  # "rationals" | "prime_field"
    p: int | None = None

    def __post_init__(self):
        if self.kind == "rationals":
            if self.p is not None:
                raise ValueError("rationals carry no modulus")
        elif self.kind == "prime_field":
            p = self.p
            if not isinstance(p, int) or not (PRIME_MIN <= p < PRIME_MAX):
                raise ValueError(f"prime modulus must satisfy {PRIME_MIN} <= p < 2**31, got {p!r}")
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
        else:
            raise ValueError(f"unknown field kind {self.kind!r}")

    # -- constructors -------------------------------------------------

    @staticmethod
    def rationals() -> "FieldSpec":
        return FieldSpec("rationals")

    @staticmethod
    def prime_field(p: int) -> "FieldSpec":
        return FieldSpec("prime_field", p)

    # -- predicates ----------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.kind == "rationals"

    @property
    def is_prime_field(self) -> bool:
        return self.kind == "prime_field"

    # -- arithmetic on canonical scalars -------------------------------

    @property
    def zero(self) -> Scalar:
        return 0 if self.is_prime_field else Fraction(0)

    @property
    def one(self) -> Scalar:
        return 1 if self.is_prime_field else Fraction(1)

    def normalize(self, v) -> Scalar:
        """Coerce an int / Fraction into the canonical scalar form."""
        if self.is_rational:
            return Fraction(v)
        if isinstance(v, Fraction):
            den = v.denominator % self.p
            if den == 0:
                raise ZeroDivisionError(f"denominator {v.denominator} not invertible mod {self.p}")
            return v.numerator * pow(den, -1, self.p) % self.p
        return int(v) % self.p

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        return (a + b) % self.p if self.is_prime_field else a + b

    def sub(self, a: Scalar, b: Scalar) -> Scalar:
        return (a - b) % self.p if self.is_prime_field else a - b

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        return (a * b) % self.p if self.is_prime_field else a * b

    def neg(self, a: Scalar) -> Scalar:
        return (-a) % self.p if self.is_prime_field else -a

    def inv(self, a: Scalar) -> Scalar:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p) if self.is_prime_field else 1 / a

    def div(self, a: Scalar, b: Scalar) -> Scalar:
        return self.mul(a, self.inv(b))

    def random_element(self, rng) -> Scalar:
        """Uniform residue over F_p; small bounded integer over the rationals."""
        if self.is_prime_field:
            return rng.randrange(self.p)
        return Fraction(rng.randint(-9, 9))

    # -- serialization --------------------------------------------------

    def to_json(self) -> dict:
        if self.is_rational:
            return {"kind": "rationals"}
        return {"kind": "prime_field", "p": self.p}

    @staticmethod
    def from_json(d: dict) -> "FieldSpec":
        if d.get("kind") == "rationals":
            return FieldSpec.rationals()
        if d.get("kind") == "prime_field":
            return FieldSpec.prime_field(int(d["p"]))
        raise ValueError(f"bad field descriptor {d!r}")

    def __str__(self) -> str:
        return "QQ" if self.is_rational else f"F{self.p}"


QQ = FieldSpec.rationals()
