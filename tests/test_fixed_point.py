"""The integer fast paths of the real layer against the exact paths they replace.

Hypothesis draws irreducible quartics and quintics with an isolating
interval (small coefficients, |xi| near 1, |xi| near 30, coefficients near
2^64; any real root, so negative ones too) and decimal literals.  A verdict
of the integer test must equal the exact probe's verdict at the same
precision; when the integer test leaves a question open, the public decision
must still equal the exact escalation's, a PrecisionError included.
"""

from fractions import Fraction

import pytest
import sympy
from conftest import QUARTIC, ROOT2, pi_prefix_spec
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from oracle import (HALF, bisect_cell, brute_force_minimal_points, exact_nearest,
                    linear_scan_minimal_points, mid)

from xicube import PrecisionError, RealContext, minimal_sequence
from xicube.intervals import Interval
from xicube.intervals import _fixed_less
from xicube.minimal import _err_less
from xicube.realctx import AlgebraicXi, DecimalXi, approx_error, scaled_error

MAX_BITS = 768  # a low ceiling keeps the undecidable ties cheap
# a coarse base precision leaves many questions to escalation
precisions = st.sampled_from([8, 24, 192])
SLOW = settings(suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])


def _isolating_intervals(coeffs):
    """Rational isolating intervals of the real roots; [] unless irreducible."""
    poly = sympy.Poly(list(reversed(coeffs)), sympy.Symbol("x"))
    if not poly.is_irreducible:
        return []
    return [(Fraction(int(a.p), int(a.q)), Fraction(int(b.p), int(b.q)))
            for (a, b), _mult in poly.intervals()]


@st.composite
def algebraic_xi(draw):
    """An irreducible quartic or quintic (ascending coefficients) and one real root."""
    deg = draw(st.sampled_from([4, 5]))
    kind = draw(st.sampled_from(["small", "near_one", "large", "huge"]))
    if kind == "small":
        coeffs = [draw(st.integers(-9, 9)) for _ in range(deg)] + [draw(st.integers(1, 5))]
    elif kind == "near_one":
        # N*x^deg + b*x - (N + c): a root within about c/N of 1
        n = draw(st.integers(10**3, 10**6))
        coeffs = ([-(n + draw(st.integers(1, 50))), draw(st.integers(-2, 2))]
                  + [0] * (deg - 2) + [n])
    elif kind == "large":
        # x^deg - A*x^(deg-1) + small terms: a root close to A
        coeffs = ([draw(st.integers(1, 9)) * draw(st.sampled_from([-1, 1]))]
                  + [draw(st.integers(-9, 9)) for _ in range(deg - 2)]
                  + [-draw(st.integers(20, 40)), 1])
    else:
        coeffs = [draw(st.integers(2**63, 2**64)) * draw(st.sampled_from([-1, 1]))
                  for _ in range(deg + 1)]
    roots = _isolating_intervals(coeffs)
    assume(roots)
    lo, hi = draw(st.sampled_from(roots))
    return AlgebraicXi(tuple(coeffs), lo, hi)


@st.composite
def decimal_xi(draw, min_digits=1):
    sign = draw(st.sampled_from(["", "-"]))
    whole = draw(st.integers(0, 30))
    digits = draw(st.integers(min_digits, 40))
    frac = draw(st.integers(0, 10**digits - 1))
    return DecimalXi(f"{sign}{whole}.{frac:0{digits}d}")


xi_specs = st.one_of(algebraic_xi(), decimal_xi())


def _outcome(decision):
    try:
        return decision()
    except PrecisionError:
        return PrecisionError


def _approx(ctx) -> float:
    return float(mid(ctx.power(1))), float(mid(ctx.power(3)))


@st.composite
def near_triple(draw, ctx):
    """A triple close to the curve, so that its error is close to others'."""
    x0 = draw(st.integers(-3000, 3000))
    xi, xi3 = _approx(ctx)
    return (x0, round(x0 * xi) + draw(st.integers(-1, 1)),
            round(x0 * xi3) + draw(st.integers(-1, 1)))


@SLOW
@given(spec=xi_specs, bits=precisions, m=st.integers(-10**6, 10**6),
       k=st.sampled_from([1, 3]))
@example(spec=DecimalXi("0.5"), bits=192, m=1, k=1)  # straddles 1/2 for good
# rounded at 8 and 16 bits, the exact cell from 32; 50 * 2.17 = 108.5 is a cell end
@example(spec=DecimalXi("2.17"), bits=8, m=50, k=1)
def test_integer_rounding_matches_exact_probe(spec, bits, m, k):
    ctx = RealContext(spec, bits, MAX_BITS)
    fixed = ctx._nearest_fixed(m, k, ctx.precision_bits)
    if fixed is not None:
        assert exact_nearest(ctx, m, k, ctx.precision_bits) == fixed
    assert _outcome(lambda: ctx.nearest_to_multiple(m, k)) == _outcome(
        lambda: ctx.decide(lambda bits: exact_nearest(ctx, m, k, bits)))


@SLOW
@given(spec=xi_specs, bits=precisions, data=st.data())
def test_integer_error_comparisons_match_exact_probe(spec, bits, data):
    ctx = RealContext(spec, bits, MAX_BITS)
    x = data.draw(near_triple(ctx))
    y = x if data.draw(st.booleans()) else data.draw(near_triple(ctx))  # exact ties too
    ex, ey = scaled_error(x, ctx.rung()), scaled_error(y, ctx.rung())

    def exact_less(b):
        return approx_error(x, ctx, b).strictly_less(approx_error(y, ctx, b))

    def exact_half(b):
        return approx_error(x, ctx, b).strictly_less(Interval(HALF))

    fixed = _fixed_less(ex, ey)
    if fixed is not None:
        assert exact_less(bits) == fixed
    half = ctx.rung()[0] >> 1  # 1/2 at the rung's scale
    fixed = _fixed_less(ex, (half, half))
    if fixed is not None:
        assert exact_half(bits) == fixed
    assert _outcome(lambda: _err_less(ctx, x, y, ex, ey)) == _outcome(
        lambda: ctx.decide(exact_less))
    assert _outcome(lambda: _err_less(ctx, x, None, ex, (half, half))) == _outcome(
        lambda: ctx.decide(exact_half))


@settings(SLOW, max_examples=25)
@given(spec=st.one_of(algebraic_xi(), decimal_xi(min_digits=25)), bits=precisions)
@example(spec=DecimalXi("0.0000000000000000000000025"), bits=192)  # widths dominate the box
def test_scan_matches_brute_force_at_200(spec, bits):
    ctx = RealContext(spec, bits, MAX_BITS)
    try:
        want = brute_force_minimal_points(ctx, 200)
    except PrecisionError:
        assume(False)  # a literal too short to rank its own triples
    assert [p.point for p in minimal_sequence(ctx, 200)] == want


@SLOW
@given(spec=st.one_of(algebraic_xi(), decimal_xi(min_digits=25)), bits=precisions)
def test_lattice_search_matches_linear_scan_at_20000(spec, bits):
    # the scan may abort on a candidate the search never visits, but the
    # search must return wherever the scan does
    new = _outcome(lambda: minimal_sequence(RealContext(spec, bits, MAX_BITS), 20_000))
    old = _outcome(lambda: linear_scan_minimal_points(RealContext(spec, bits, MAX_BITS), 20_000))
    if old is not PrecisionError:
        assert new == old


@pytest.mark.parametrize("spec", [ROOT2, QUARTIC, pi_prefix_spec(30)])
def test_scan_decides_on_integer_enclosures_alone(spec, monkeypatch):
    # at 8 bits nearly every decision escalates; none may compare Intervals
    want = [p.point for p in minimal_sequence(RealContext(spec), 2000)]

    def forbidden(self, other):
        raise AssertionError("the scan compared Intervals")

    monkeypatch.setattr(Interval, "strictly_less", forbidden)
    ctx = RealContext(spec, precision_bits=8, max_bits=MAX_BITS)
    assert [p.point for p in minimal_sequence(ctx, 2000)] == want


def _check_cells(ctx, depths, lo, hi):
    """Cells of ctx at the depths bisection of [lo, hi] to 2^-bits reaches."""
    cells = {}
    for bits in depths:
        bound = Fraction(1, 1 << bits)
        lo, hi = bisect_cell(ctx._isolating_poly, lo, hi, bound)
        depth = ((ctx._hi - ctx._lo) / (hi - lo)).numerator.bit_length() - 1
        cells[depth] = (lo, hi)
        assert _cell(ctx, depth) == (lo, hi), bits
    for depth, want in cells.items():  # read back off the deepest cell
        assert _cell(ctx, depth) == want, depth


def _cell(ctx, depth):
    step = (ctx._hi - ctx._lo) / (1 << depth)
    j = ctx._cell(depth)
    return ctx._lo + j * step, ctx._lo + (j + 1) * step


@SLOW
@given(spec=algebraic_xi())
def test_refined_cells_match_bisection(spec):
    ctx = RealContext(spec)
    _check_cells(ctx, (192, 1536), ctx._lo, ctx._hi)


@settings(SLOW, max_examples=3)
@given(spec=algebraic_xi())
def test_deep_refined_cells_match_bisection(spec):
    # the oracle takes seconds per 8192-bit cell, so few examples go this deep
    ctx = RealContext(spec)
    _check_cells(ctx, (1536,), ctx._lo, ctx._hi)
    _check_cells(ctx, (8192,), ctx._lo, ctx._hi)
