"""The integer form of Interval against the Fraction form of the same value.

An interval built by Interval.over from integers over one denominator must
read, compare and hash exactly as the one built from reduced Fractions, and
an enclosure that is only compared must never be reduced.
"""

from fractions import Fraction

import pytest
from conftest import ROOT2
from hypothesis import given
from hypothesis import strategies as st
from oracle import HALF, FractionInterval

from xicube import PrecisionError, RealContext, approx_error, intervals
from xicube.intervals import Interval

NEGATIVE_QUARTIC = "alg:x^4-6*x^2+x+9 in [-50873/24109,-130986/62075]"


@st.composite
def both_forms(draw):
    """(integer form, Fraction form, (lo, hi)) of one interval.

    Numerators of either sign, point intervals, and denominators that share
    a factor with the numerators, so that reading reduces them.
    """
    shared = draw(st.sampled_from([1, 2, 3, 6, 2**64, 3**40]))
    den = shared * draw(st.integers(1, 10**6))
    lo = shared * draw(st.integers(-10**30, 10**30))
    hi = lo if draw(st.booleans()) else lo + shared * draw(st.integers(0, 10**30))
    value = Fraction(lo, den), Fraction(hi, den)
    return Interval.over(lo, hi, den), Interval(*value), value


def _reference_less(a, b):
    """strictly_less on (lo, hi) Fraction pairs, by its definition."""
    if a[1] < b[0]:
        return True
    if a[0] > b[1]:
        return False
    if a[0] == a[1] and b[0] == b[1]:
        return False
    return None


@given(a=both_forms(), b=both_forms())
def test_integer_form_agrees_with_the_fraction_form(a, b):
    (a_int, a_frac, a_val), (b_int, b_frac, b_val) = a, b
    assert (a_int.lo, a_int.hi) == a_val
    assert (a_int.lo.denominator, a_int.hi.denominator) == (a_val[0].denominator,
                                                            a_val[1].denominator)
    assert a_int == a_frac and a_frac == a_int
    assert hash(a_int) == hash(a_frac)
    assert FractionInterval.of(a_int).is_point() == FractionInterval.of(a_frac).is_point() == (
        a_val[0] == a_val[1])
    assert (a_int == b_int) == (a_int == b_frac) == (a_val == b_val)
    want = _reference_less(a_val, b_val)
    for x in (a_int, a_frac):
        for y in (b_int, b_frac):
            assert x.strictly_less(y) is want
    for bound in (b_val[0], HALF, 0):  # a plain number is a point interval
        assert a_int.strictly_less(bound) is _reference_less(a_val, (bound, bound))


@st.composite
def ends_over_one_denominator(draw):
    """(lo, hi) numerators, small ones often, so that ends tie and intervals overlap."""
    end = st.integers(-4, 4) | st.integers(-2**80, 2**80)
    lo, hi = sorted((draw(end), draw(end)))
    return (lo, lo) if draw(st.booleans()) else (lo, hi)


@given(den=st.integers(1, 2**70), a=ends_over_one_denominator(),
       b=ends_over_one_denominator(), scale=st.integers(2, 2**40))
def test_equal_denominators_compare_as_the_cross_multiplied_form(den, a, b, scale):
    # over one denominator the numerators are compared; the same value of b
    # over den * scale takes the cross-multiplied path; both agree with Fraction
    a_int, b_int = Interval.over(*a, den), Interval.over(*b, den)
    b_other = Interval.over(b[0] * scale, b[1] * scale, den * scale)
    a_val, b_val = (Fraction(a[0], den), Fraction(a[1], den)), (Fraction(b[0], den),
                                                              Fraction(b[1], den))
    for x, y, want in ((a_int, b_int, _reference_less(a_val, b_val)),
                       (a_int, b_other, _reference_less(a_val, b_val)),
                       (b_int, a_int, _reference_less(b_val, a_val)),
                       (b_other, a_int, _reference_less(b_val, a_val))):
        assert x.strictly_less(y) is want
        assert (x == y) is (y == x) is (a_val == b_val)


def test_integer_form_rejects_what_is_not_an_interval():
    for ints in ((2, 1, 3), (1, 2, 0), (1, 2, -3)):
        with pytest.raises(ValueError):
            Interval.over(*ints)


@pytest.mark.parametrize("spec", [ROOT2, NEGATIVE_QUARTIC])
def test_exact_tie_reduces_no_endpoint(monkeypatch, spec):
    # L(x) < L(x) escalates through 7 precision levels to 8192 bits; every
    # enclosure is compared and thrown away, so none is read as a Fraction
    ctx = RealContext(spec, max_bits=8192)
    reads = []

    def counted(*args):
        reads.append(args)
        return Fraction(*args)

    monkeypatch.setattr(intervals, "Fraction", counted)
    x = (1, 0, 0)
    with pytest.raises(PrecisionError, match="at 8192 bits"):
        ctx.decide(lambda bits: approx_error(x, ctx, bits).strictly_less(
            approx_error(x, ctx, bits)), what=f"tie L{x} < L{x}")
    assert reads == []
    approx_error(x, ctx, 8192).lo  # a read is counted
    assert len(reads) == 1
