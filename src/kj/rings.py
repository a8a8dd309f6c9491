"""Exact coefficient rings: integers, rationals, Q(sqrt2), and odd prime fields.

Elements are plain Python objects supporting ``+ - *`` and ``==``; a small
ring adapter carries the constants, the coercion from the integers and the
one field division (``Ring.div``) the matrix code needs. An element of Q is a
plain ``int`` while it is an integer and a ``Fraction`` only once a division
leaves Z; the two mix exactly and print alike.
Q(sqrt2) is implemented as the quadratic field Q[t]/(t^2 - 2), never as a
float, so half-integer powers of two are exact. kj itself computes over Q
and carries powers of sqrt2 as integer exponents (``half_power_sign``);
Q(sqrt2) is there for ``--ring Qsqrt2`` and for library callers.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import PDValidationError

__all__ = [
    "QSqrt2",
    "GFElement",
    "Ring",
    "ZZ",
    "QQ",
    "QSQRT2",
    "GF",
    "half_power_of_two",
    "half_power_sign",
]


@dataclass(frozen=True)
class QSqrt2:
    """Element a + b*sqrt2 of the field Q(sqrt2), with a, b rational."""

    a: Fraction
    b: Fraction

    @staticmethod
    def of(a, b=0) -> "QSqrt2":
        return QSqrt2(Fraction(a), Fraction(b))

    def __add__(self, other):
        other = _coerce_qs2(other)
        if other is NotImplemented:
            return NotImplemented
        return QSqrt2(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __neg__(self):
        return QSqrt2(-self.a, -self.b)

    def __sub__(self, other):
        other = _coerce_qs2(other)
        if other is NotImplemented:
            return NotImplemented
        return QSqrt2(self.a - other.a, self.b - other.b)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _coerce_qs2(other)
        if other is NotImplemented:
            return NotImplemented
        # (a + b s)(c + d s) = ac + 2bd + (ad + bc) s,  s^2 = 2
        return QSqrt2(
            self.a * other.a + 2 * self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QSqrt2":
        # conjugate / norm; the norm a^2 - 2 b^2 vanishes only at 0
        norm = self.a * self.a - 2 * self.b * self.b
        if norm == 0:
            raise ZeroDivisionError("inverse of zero in Q(sqrt2)")
        return QSqrt2(self.a / norm, -self.b / norm)

    def __truediv__(self, other):
        other = _coerce_qs2(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return _coerce_qs2(other) * self.inverse()

    def __eq__(self, other):
        other = _coerce_qs2(other)
        if other is NotImplemented:
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.a, self.b))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def conjugate(self) -> "QSqrt2":
        return QSqrt2(self.a, -self.b)

    def __repr__(self):
        if self.b == 0:
            return str(self.a)
        if self.a == 0:
            return f"{self.b}*sqrt2"
        return f"{self.a} + {self.b}*sqrt2"


def _coerce_qs2(x):
    if isinstance(x, QSqrt2):
        return x
    if isinstance(x, (int, Fraction)):
        return QSqrt2(Fraction(x), Fraction(0))
    return NotImplemented


def half_power_of_two(k: int) -> QSqrt2:
    """Exact 2**(k/2) in Q(sqrt2) for any integer k (possibly negative)."""
    m, r = divmod(k, 2)
    base = Fraction(2) ** m
    if r == 0:
        return QSqrt2(base, Fraction(0))
    return QSqrt2(Fraction(0), base)


def half_power_sign(r: Fraction, k: int) -> int | None:
    """The sign s with r == s * 2**(k/2), or None; always None for odd k,
    where 2**(k/2) is irrational. The rational form of ``half_power_of_two``."""
    if k % 2:
        return None
    power = Fraction(2) ** (k // 2)
    if r == power:
        return 1
    if r == -power:
        return -1
    return None


class GFElement:
    """Element of the prime field F_p."""

    __slots__ = ("v", "p")

    def __init__(self, v: int, p: int):
        self.v = v % p
        self.p = p

    def _lift(self, other):
        if isinstance(other, GFElement):
            if other.p != self.p:
                raise ValueError("mixed characteristics")
            return other
        if isinstance(other, int):
            return GFElement(other, self.p)
        return None

    def __add__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else GFElement(self.v + o.v, self.p)

    __radd__ = __add__

    def __neg__(self):
        return GFElement(-self.v, self.p)

    def __sub__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else GFElement(self.v - o.v, self.p)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else GFElement(self.v * o.v, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if o.v == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return GFElement(self.v * pow(o.v, self.p - 2, self.p), self.p)

    def __eq__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else self.v == o.v

    def __hash__(self):
        return hash((self.v, self.p))

    def __bool__(self):
        return self.v != 0

    def __repr__(self):
        return f"{self.v}"


class Ring:
    """Adapter bundling the constants and coercions for one coefficient ring."""

    def __init__(self, name: str, zero, one, from_int, is_field: bool, char: int,
                 div=operator.truediv):
        self.name = name
        self.zero = zero
        self.one = one
        self.from_int = from_int
        self.is_field = is_field
        self.characteristic = char
        # div(a, b) = a / b, the only division of field elements in kj
        self.div = div

    def is_zero(self, x) -> bool:
        return x == self.zero

    def __repr__(self):
        return f"Ring({self.name})"


def _q_div(a, b):
    """a / b in Q, an ``int`` whenever the quotient is an integer."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        if not r:
            return q
    x = Fraction(a, b)
    return x.numerator if x.denominator == 1 else x


# Z is no field and has no division: int / int would be a float
# operator.index refuses a Fraction or a float instead of truncating it
ZZ = Ring("Z", 0, 1, operator.index, is_field=False, char=0, div=None)
QQ = Ring("Q", 0, 1, operator.index, is_field=True, char=0, div=_q_div)
QSQRT2 = Ring(
    "Q(sqrt2)",
    QSqrt2.of(0),
    QSqrt2.of(1),
    lambda n: QSqrt2.of(operator.index(n)),
    is_field=True,
    char=0,
)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


_gf_cache: dict[int, Ring] = {}

# primes are found by trial division, which takes milliseconds below this
MAX_PRIME = 2**31


def GF(p: int) -> Ring:
    """The prime field F_p, for p < 2^31. Lee theory additionally requires p odd."""
    if p in _gf_cache:
        return _gf_cache[p]
    if p >= MAX_PRIME:
        raise PDValidationError(f"{p} is too large: the field size must be below 2^31")
    if not _is_prime(p):
        raise PDValidationError(f"{p} is not prime")
    ring = Ring(
        f"F{p}",
        GFElement(0, p),
        GFElement(1, p),
        lambda n, p=p: GFElement(operator.index(n), p),
        is_field=True,
        char=p,
    )
    _gf_cache[p] = ring
    return ring
