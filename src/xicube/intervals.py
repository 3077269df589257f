"""Closed intervals with exact rational endpoints.

Every real quantity in the package travels as one of these; callers compare
intervals, never midpoints.  An interval holds its endpoints as integers
over one positive denominator, ``integers = (num_lo, num_hi, den)``, left
unreduced: :func:`~xicube.realctx.approx_error`,
:func:`~xicube.realctx.delta_of` and :meth:`~xicube.realctx.RealContext.power`
build one with :meth:`Interval.over` from the cell's integers over D^k.
The reduced `Fraction` views ``lo`` and ``hi`` are built on first read and
then cached, so an enclosure that an escalation throws away is never
reduced.  Equality and :meth:`Interval.strictly_less` cross-multiply the
integers, or compare the numerators when the denominators are equal, and
:meth:`Interval.is_point` compares the ends; they go by value, so an
interval built from integers equals the one built from `Fraction`s of the
same value.  Comparison helpers return ``True``/``False`` only when the
answer is certain for *all* pairs of values in the operands, and ``None``
when the intervals overlap, so that callers can escalate precision instead
of guessing.
"""

from __future__ import annotations

from fractions import Fraction

HALF = Fraction(1, 2)


class Interval:
    # _lo and _hi cache the reduced ends of integers
    __slots__ = ("integers", "_lo", "_hi")

    def __init__(self, lo, hi=None):
        lo = Fraction(lo)
        hi = lo if hi is None else Fraction(hi)
        if hi < lo:
            raise ValueError(f"empty interval [{lo}, {hi}]")
        self._lo, self._hi = lo, hi
        p, q, r, s = lo.numerator, lo.denominator, hi.numerator, hi.denominator
        self.integers = (p, r, q) if q == s else (p * s, r * q, q * s)

    @classmethod
    def over(cls, num_lo: int, num_hi: int, den: int) -> "Interval":
        """[num_lo, num_hi] / den for integers with den > 0, reduced only when read."""
        if not (num_lo <= num_hi and den > 0):
            raise ValueError(f"not an interval: [{num_lo}, {num_hi}] / {den}")
        iv = object.__new__(cls)
        iv._lo = iv._hi = None
        iv.integers = (num_lo, num_hi, den)
        return iv

    @property
    def lo(self) -> Fraction:
        if self._lo is None:
            self._lo = Fraction(self.integers[0], self.integers[2])
        return self._lo

    @property
    def hi(self) -> Fraction:
        if self._hi is None:
            self._hi = Fraction(self.integers[1], self.integers[2])
        return self._hi

    def __repr__(self):
        return f"Interval({self.lo}, {self.hi})"

    def __eq__(self, other):
        if not isinstance(other, Interval):
            return False
        (a_lo, a_hi, a_den), (b_lo, b_hi, b_den) = self.integers, other.integers
        if a_den == b_den:
            return a_lo == b_lo and a_hi == b_hi
        return a_lo * b_den == b_lo * a_den and a_hi * b_den == b_hi * a_den

    def __hash__(self):
        return hash((self.lo, self.hi))

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def __add__(self, other) -> "Interval":
        if not isinstance(other, Interval):
            other = Interval(other)
        return Interval(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __sub__(self, other) -> "Interval":
        if not isinstance(other, Interval):
            other = Interval(other)
        return Interval(self.lo - other.hi, self.hi - other.lo)

    def __rsub__(self, other) -> "Interval":
        return Interval(other) - self

    def __mul__(self, other) -> "Interval":
        if not isinstance(other, Interval):
            other = Fraction(other)
            if other >= 0:
                return Interval(self.lo * other, self.hi * other)
            return Interval(self.hi * other, self.lo * other)
        products = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return Interval(min(products), max(products))

    __rmul__ = __mul__

    def __abs__(self) -> "Interval":
        if self.integers[0] >= 0:
            return self
        if self.integers[1] <= 0:
            return -self
        return Interval(0, max(-self.lo, self.hi))

    def is_point(self) -> bool:
        return self.integers[0] == self.integers[1]

    def strictly_less(self, other) -> bool | None:
        """True if every value here is < every value there; None if unresolved."""
        if not isinstance(other, Interval):
            other = Interval(other)
        (a_lo, a_hi, a_den), (b_lo, b_hi, b_den) = self.integers, other.integers
        if a_den != b_den:  # two enclosures over one D^3 take no product
            a_lo, a_hi, b_lo, b_hi = a_lo * b_den, a_hi * b_den, b_lo * a_den, b_hi * a_den
        if a_hi < b_lo:
            return True
        if a_lo > b_hi:
            return False
        if a_lo == a_hi and b_lo == b_hi:
            return False  # exact equality, resolvable without escalation
        return None
