"""The integer dyadic log layer against the mpmath interval oracle.

Every step is correctly rounded, and so are mpmath's arithmetic and, away
from 1, its logs; so endpoints, decimal strings and diagnostics must equal
the oracle's, not just come close.
"""

from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from mpmath import libmp

import oracle
import xicube.search as search
from xicube import rigor
from xicube.intervals import Interval
from xicube.search import prop8_decide


def _oracle_interval(x) -> Interval:
    a, b = x._mpi_
    return Interval(Fraction(*libmp.to_rational(a)), Fraction(*libmp.to_rational(b)))


fractions = st.builds(Fraction, st.integers(-10**40, 10**40), st.integers(1, 10**40))
positive = st.builds(Fraction, st.integers(1, 10**40), st.integers(1, 10**40))


@st.composite
def intervals(draw, lo=fractions):
    a = draw(lo)
    return Interval(a, a + draw(st.builds(Fraction, st.integers(0, 10**20),
                                          st.integers(1, 10**40))))


@given(st.integers(1, 1 << 256), st.sampled_from([53, 64]))
@example(1, 64)
@example(2, 53)
@example((1 << 64) + 1, 64)
def test_log_of_integer_matches_oracle(n, prec):
    ours = rigor.evaluate(lambda: rigor.log_abs(n), prec)
    ref = oracle.evaluate(lambda: oracle.log_abs(n), prec)
    assert ours.to_interval() == _oracle_interval(ref)


def _check_log_endpoints(man, exp, prec):
    """Our floor and ceiling of ln(man 2^exp): grid neighbours around a
    reference at 4x the precision.

    This is checked against a reference rather than against mpmath's own
    directed logs, which add 20 guard bits with no proven bound: near 1 they
    are off by an ulp, and mpf_log(1 + 2^-35, 53, ceiling) = 2^-35 - 2^-71
    even lies below the true value.
    """
    x = libmp.from_man_exp(man, exp)
    ref = [Fraction(*libmp.to_rational(libmp.mpf_log(x, 4 * prec, r))) for r in "fc"]
    down, up = rigor._log_bounds(man, exp, prec)
    ours = [rigor._to_fraction(down), rigor._to_fraction(up)]
    if ref == [0, 0]:
        assert ours == [0, 0]
        return
    assert ours[0] <= ref[0] and ref[1] <= ours[1]
    assert rigor._to_fraction(rigor._round(down[0] + 1, down[1], prec, rigor.CEILING)) == ours[1]


@given(intervals(positive), st.sampled_from([53, 64]))
@example(Interval(1, Fraction(34359738369, 34359738368)), 53)
def test_log_of_hull_is_correctly_rounded(interval, prec):
    hull = rigor._hull(prec, interval)
    ctx = oracle._context(prec)
    assert hull.to_interval() == _oracle_interval(oracle._hull(ctx, interval))
    for man, exp in (hull.lo, hull.hi):
        _check_log_endpoints(man, exp, prec)


def _exact_round(x: Fraction, prec: int, mode: int) -> Fraction:
    if not x:
        return x
    e = abs(x).numerator.bit_length() - abs(x).denominator.bit_length()
    e += abs(x) >= Fraction(2) ** (e + 1)
    e -= abs(x) < Fraction(2) ** e
    q = x / Fraction(2) ** (e + 1 - prec)
    down = q.numerator // q.denominator
    if mode == rigor.FLOOR:
        r = down
    elif mode == rigor.CEILING:
        r = -(-q.numerator // q.denominator)
    else:
        r = down + (q - down > Fraction(1, 2) or q - down == Fraction(1, 2) and down % 2)
    return r * Fraction(2) ** (e + 1 - prec)


dyadic_pairs = st.tuples(st.integers(-(1 << 70), 1 << 70), st.integers(-200, 200))


@given(dyadic_pairs, dyadic_pairs, st.sampled_from([2, 3, 53, 64]),
       st.sampled_from([rigor.FLOOR, rigor.CEILING, rigor.NEAREST]))
def test_add_and_div_round_exact_results(a, b, prec, mode):
    # exponent gaps up to 400 bits take the sticky-bit route of _add
    x, y = rigor._to_fraction(a), rigor._to_fraction(b)
    assert rigor._to_fraction(rigor._add(a, b, prec, mode)) == _exact_round(x + y, prec, mode)
    if y:
        assert rigor._to_fraction(rigor._div(a, b, prec, mode)) == _exact_round(x / y, prec, mode)


@given(fractions, fractions, st.sampled_from([53, 64]))
def test_arithmetic_matches_oracle(a, b, prec):
    def build(mod):
        x, y = mod.rational(a), mod.rational(b)
        d = x - x  # of both signs when x is inexact
        out = [x + y, x - y, x * y, x**2, 2 * x, 6 - x, -x, x * 3 - y, d * y, d * d, d**2]
        if b:
            out.append(x / y)
            out.append(d / y)
        return out

    ours = rigor.evaluate(lambda: build(rigor), prec)
    ref = oracle.evaluate(lambda: build(oracle), prec)
    assert [x.to_interval() for x in ours] == [_oracle_interval(x) for x in ref]


@given(intervals(), st.sampled_from([12, 15]))
@example(Interval(Fraction(999999999999999, 10**15)), 12)
@example(Interval(Fraction(-123456789, 10**16)), 15)
@example(Interval(10**20 + 1), 15)
def test_decimal_matches_oracle(interval, digits):
    assert rigor.decimal(interval, digits) == oracle.decimal(interval, digits)


nonzero = st.integers(-10**30, 10**30).filter(bool)


@given(nonzero, st.integers(2, 10**30), st.booleans())
@example(1, 2, False)
@example(-7, 7, True)
def test_log_ratio_matches_oracle(num, den, negate):
    den = -den if negate else den
    assert rigor.log_ratio(num, den) == oracle.log_ratio(num, den)


@st.composite
def errors(draw):
    """Tight enclosures below 1/2, where the error of a minimal point lies."""
    lo = Fraction(draw(st.integers(1, 10**20)), draw(st.integers(2 * 10**20 + 1, 10**40)))
    return Interval(lo, lo * (1 + Fraction(draw(st.integers(0, 10**6)), 10**30)))


@given(errors(), st.integers(2, 10**12))
def test_lambda_hat_matches_oracle(err, x_next):
    assert rigor.lambda_hat(err, x_next) == oracle.lambda_hat(err, x_next)


@contextmanager
def oracle_logs():
    """`search` taking its log helpers from the oracle."""
    with mock.patch.multiple(search, log_abs=oracle.log_abs, rational=oracle.rational,
                             evaluate=oracle.evaluate, decide_sign=oracle.decide_sign,
                             mid_str=oracle.mid_str):
        yield


@given(nonzero, nonzero, nonzero, st.integers(3, 10**30),
       st.builds(Fraction, st.integers(0, 60), st.integers(1, 10)))
@example(1000, 1, 1, 5, Fraction(1, 10))
@example(10, 100, 1000, 11, Fraction(0))
@example(10, 100, 1000, 3, Fraction(0))
# near ties that escalate past 64 bits
@example(10, 100, 1000, 10, Fraction(1, 10**30))
@example(7, 49, 343, 7, Fraction(1, 2**200))
def test_prop8_matches_oracle(t, f, sv, q, eps):
    ours = prop8_decide(t, f, sv, q, eps)
    with oracle_logs():
        assert prop8_decide(t, f, sv, q, eps) == ours


@st.composite
def dyadics(draw):
    if draw(st.booleans()):
        # a run of nines, to carry through ...999 when rounded
        digits = "9" * draw(st.integers(8, 20)) + str(draw(st.integers(0, 10**6)))
        x = libmp.from_str(f"{digits}e{draw(st.integers(-60, 40))}",
                           draw(st.integers(53, 200)), libmp.round_floor)
        man, exp = libmp.to_man_exp(x)
    else:
        man = draw(st.integers(1, 1 << 200))
        # beyond 2^+-3500 to_digits_exp scales by a power of ten first
        exp = draw(st.one_of(st.integers(-3400, 3300), st.integers(-10**5, 10**5)))
    return -man if draw(st.booleans()) else man, exp


@given(dyadics(), st.integers(1, 30))
@example((1, -24), 15)                       # 5.96046447753906e-8
@example((100000000000000000000, 0), 15)     # 1.0e+20
@example((-(1 << 60) + 1, -60), 15)          # -1.0
@example((999999999999999999, 0), 12)        # 1.0e+18
def test_to_str_matches_mpmath(d, dps):
    man, exp = d
    assert rigor._to_str(man, exp, dps) == libmp.to_str(libmp.from_man_exp(man, exp), dps)


def test_log_contains_oracle_at_16384_bits():
    prec = 16384
    for n in (3, 10**30 + 7):
        ours = rigor.evaluate(lambda: rigor.log_abs(n), prec)
        ref = _oracle_interval(oracle.evaluate(lambda: oracle.log_abs(n), prec + 64))
        got = ours.to_interval()
        assert got.lo <= ref.lo and ref.hi <= got.hi
        # correctly rounded: the two endpoints are neighbours on the 16384-bit grid
        man, exp = ours.lo
        assert man.bit_length() == prec and got.width == Fraction(2) ** exp


def test_log_of_one_is_exact_zero():
    assert rigor.log_abs(1).to_interval() == Interval(0)
    assert rigor.log_abs(-1).to_interval() == Interval(0)


def test_division_by_an_enclosure_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        rigor.log_abs(7) / rigor.log_abs(1)
