"""Closed intervals with exact rational endpoints: the record the report reads.

An interval holds its endpoints as integers over one positive denominator,
``integers = (num_lo, num_hi, den)``, left unreduced:
:func:`~xicube.realctx.approx_error`, :func:`~xicube.realctx.delta_of` and
:meth:`~xicube.realctx.RealContext.power` build one with
:meth:`Interval.over` from the exact rung of the context, integers over its
scale.  The reduced `Fraction` views ``lo`` and ``hi`` are built on first
read and then cached, so an enclosure that an escalation throws away is
never reduced.  Equality cross-multiplies the integers, or compares the
numerators when the denominators are equal; it goes by value, so an
interval built from integers equals the one built from `Fraction`s of the
same value.  Integer enclosures at one scale have one comparison rule,
`_fixed_less`: the search applies it to rung integers, and
:meth:`Interval.strictly_less` applies it after the same cross-multiplying.
It returns ``True`` or ``False`` only when the answer is certain for *all*
pairs of values in the operands, and ``None`` when the intervals overlap,
so that callers can escalate precision instead of guessing.  The package
computes on rungs, not on intervals; the `Fraction` interval arithmetic of
the reference paths lives in tests/oracle.py.
"""

from __future__ import annotations

from fractions import Fraction


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

    def strictly_less(self, other) -> bool | None:
        """True if every value here is < every value there; None if unresolved."""
        if not isinstance(other, Interval):
            other = Interval(other)
        (a_lo, a_hi, a_den), (b_lo, b_hi, b_den) = self.integers, other.integers
        if a_den != b_den:  # two enclosures over one scale take no product
            a_lo, a_hi, b_lo, b_hi = a_lo * b_den, a_hi * b_den, b_lo * a_den, b_hi * a_den
        return _fixed_less((a_lo, a_hi), (b_lo, b_hi))


def _fixed_less(a: tuple[int, int], b: tuple[int, int]) -> bool | None:
    """The comparison rule on integer enclosures a = (lo, hi) and b at one scale.

    True when a lies below b, False when it lies above b or both are one
    equal point, None when they overlap otherwise: the caller escalates.
    """
    if a[1] < b[0]:
        return True
    if a[0] > b[1]:
        return False
    if a[0] == a[1] == b[0] == b[1]:
        return False
    return None
