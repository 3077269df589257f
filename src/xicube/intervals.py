"""Closed intervals with exact rational endpoints.

Every real quantity in the package travels as one of these; callers compare
intervals, never midpoints.  Comparison helpers return ``True``/``False``
only when the answer is certain for *all* pairs of values in the operands,
and ``None`` when the intervals overlap, so that callers can escalate
precision instead of guessing.
"""

from __future__ import annotations

from fractions import Fraction

HALF = Fraction(1, 2)


class Interval:
    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi=None):
        lo = Fraction(lo)
        hi = lo if hi is None else Fraction(hi)
        if hi < lo:
            raise ValueError(f"empty interval [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    def __repr__(self):
        return f"Interval({self.lo}, {self.hi})"

    def __eq__(self, other):
        return isinstance(other, Interval) and self.lo == other.lo and self.hi == other.hi

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
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return -self
        return Interval(0, max(-self.lo, self.hi))

    def max_with(self, other: "Interval") -> "Interval":
        return Interval(max(self.lo, other.lo), max(self.hi, other.hi))

    def is_point(self) -> bool:
        return self.lo == self.hi

    def strictly_less(self, other) -> bool | None:
        """True if every value here is < every value there; None if unresolved."""
        if not isinstance(other, Interval):
            other = Interval(other)
        if self.hi < other.lo:
            return True
        if self.lo > other.hi:
            return False
        if self.is_point() and other.is_point():
            return False  # exact equality, resolvable without escalation
        return None
