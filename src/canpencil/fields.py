"""Exact coefficient fields: the rationals and prime fields F_p.

Every computation in this package is exact.  Rational scalars are
`fractions.Fraction` values; prime-field scalars are canonical residues
stored as plain ints in ``[0, p)``.  A :class:`FieldSpec` names the field,
coerces values into it (`normalize`) and provides one-scalar-at-a-time
arithmetic, which the tests use as a per-scalar reference.  Polynomial
code does not call it per scalar: a `BinForm` stores integer numerators
over one denominator (residues over 1 for F_p), its operations branch on
``field.p`` (an int for F_p, None for QQ) once, and the chart kernel in
`binform` works on ints mod p, or over Z for QQ.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

Scalar = Union[int, Fraction]
_setattr = object.__setattr__  # the setter a record's own guard does not block

#: smallest admissible prime modulus; 2 and 3 are excluded because the
#: fiber variables carry weights 2 and 3, which must stay invertible
PRIME_MIN = 5
PRIME_MAX = 2**31


def json_int(value, name: str) -> int:
    """`value` if it is a JSON integer (a bool is not one), else a ValueError naming `name`."""
    if type(value) is not int:
        raise ValueError(f"{name} must be a JSON integer, not {type(value).__name__}")
    return value


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 3.2e18, after trial division up to 37.

    The bases (2, 7, 61) decide every n < 4 759 123 141, the least strong
    pseudoprime to all three (Jaeschke, Math. Comp. 61, 1993), so every
    modulus below 2**31; from there on the bases are the primes up to 37.
    """
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 7, 61) if n < 4_759_123_141 else (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (0, 1, n - 1):  # 0 only at n = 61, itself a base
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _bad_modulus(p) -> ValueError:
    return ValueError(f"prime modulus must satisfy {PRIME_MIN} <= p < 2**31, got {p!r}")


class Record:
    """Immutable record of the fields its `__slots__` name, in order; ``==``, hash and repr by value.

    Never equal to another class's record; those built or compared on every op have direct methods.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs or len(args) != len(names):
            if len(args) + len(kwargs) != len(names) or not kwargs.keys() <= set(names[len(args):]):
                raise TypeError(f"{type(self).__name__} takes the fields {', '.join(names)}")
            args += tuple(map(kwargs.__getitem__, names[len(args):]))
        for name, value in zip(names, args):
            _setattr(self, name, value)

    def __setattr__(self, *a):  # immutability guard
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):  # (class, fields): what pickle and copy rebuild from, and == and hash read
        return type(self), tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        return type(other) is type(self) and self.__reduce__() == other.__reduce__()

    def __hash__(self):
        return hash(self.__reduce__()[1])

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class FieldSpec(Record):
    """The rationals (p is None) or a prime field F_p with 5 <= p < 2**31."""

    __slots__ = ("p",)
    __hash__ = Record.__hash__  # a class that defines __eq__ names its hash

    def __init__(self, p: int | None = None):
        if p is not None and not (isinstance(p, int) and PRIME_MIN <= p < PRIME_MAX):
            raise _bad_modulus(p)
        if p is not None and not is_prime(p):
            raise ValueError(f"{p} is not prime")
        _setattr(self, "p", p)

    def __eq__(self, other):
        return type(other) is FieldSpec and self.p == other.p

    # -- constructors -------------------------------------------------

    @staticmethod
    def rationals() -> "FieldSpec":
        return FieldSpec()

    @staticmethod
    def prime_field(p: int) -> "FieldSpec":
        if p is None:  # FieldSpec(None) is the rationals
            raise _bad_modulus(p)
        return FieldSpec(p)

    # -- predicates ----------------------------------------------------

    @property
    def kind(self) -> str:
        return "rationals" if self.p is None else "prime_field"

    @property
    def is_rational(self) -> bool:
        return self.p is None

    @property
    def is_prime_field(self) -> bool:
        return self.p is not None

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
        return pow(a, -1, self.p) if self.is_prime_field else Fraction(1) / a

    # -- serialization --------------------------------------------------

    def to_json(self) -> dict:
        return {"kind": self.kind} if self.is_rational else {"kind": self.kind, "p": self.p}

    @staticmethod
    def from_json(d: dict) -> "FieldSpec":
        """The field `to_json` describes; a malformed descriptor is a ValueError."""
        if d.get("kind") == "rationals":
            if "p" in d:
                raise ValueError("a rationals descriptor carries no key 'p'")
            return FieldSpec.rationals()
        if d.get("kind") == "prime_field":
            if "p" not in d:
                raise ValueError("missing key 'p' in the prime-field descriptor")
            return FieldSpec.prime_field(json_int(d["p"], "field 'p'"))
        raise ValueError(f"bad field descriptor {d!r}")

    def __str__(self) -> str:
        return "QQ" if self.is_rational else f"F{self.p}"


QQ = FieldSpec.rationals()
