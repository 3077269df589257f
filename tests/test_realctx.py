import os
import subprocess
import sys
import warnings
from collections import Counter
from fractions import Fraction

import pytest
import sympy
from conftest import QUARTIC, ROOT2, cube_root_product_spec
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from mpmath import mp
from oracle import (FractionInterval, _analyze_by_factoring, bisect_cell, cell_powers,
                    fraction_approx_error, fraction_delta_of, fraction_powers, fraction_scaled,
                    fraction_sign, mid)

import xicube
from xicube import (PrecisionError, RealContext, approx_error, delta_of, minimal_sequence,
                    parse_xi_spec, realctx, sup_norm)
from xicube.errors import UsageError
from xicube.linalg import _lll
from xicube.realctx import (DEFAULT_MAX_BITS, MAX_DEGREE, AlgebraicXi, DecimalXi, _cell_powers,
                            _eval_sign, _halved, _root_cell, scaled_error)


def test_parse_specs():
    spec = parse_xi_spec("alg:x^4-2 in [1,2]")
    assert isinstance(spec, AlgebraicXi)
    assert spec.coeffs == (-2, 0, 0, 0, 1)
    assert (spec.lo, spec.hi) == (1, 2)
    spec = parse_xi_spec("dec:3.14")
    assert isinstance(spec, DecimalXi)
    assert parse_xi_spec("alg:x^4-x-1 in [1.2,1.3]").lo == Fraction("1.2")
    assert parse_xi_spec("alg:2*x^4 - 3 in [1,3/2]").coeffs == (-3, 0, 0, 0, 2)
    assert parse_xi_spec("alg:x**4-2 in [1,2]").coeffs == (-2, 0, 0, 0, 1)
    assert parse_xi_spec("alg:1/2*x^2-1 in [1,2]").coeffs == (-2, 0, 1)
    assert parse_xi_spec("alg:x^2+x^2-8 in [1,3]").coeffs == (-8, 0, 2)


@pytest.mark.parametrize("bad", [
    "x^4-2", "alg:x^4-2", "alg:x^4-2 in [2,1]", "dec:abc", "alg:x^0+1 in [0,1]",
    "alg:x^2-y in [0,1]", "alg:(x-1)*(x+1) in [0,2]", "alg:2x in [-1,1]",
    "alg:x^-1 in [0,1]", f"alg:x^{MAX_DEGREE + 1}-2 in [1,2]", "alg:x^4-2 in [1/0,2]",
    "alg:x^4-2 in [a,2]",
])
def test_parse_rejects(bad):
    with pytest.raises(UsageError):
        parse_xi_spec(bad)


@st.composite
def hostile_quartics_and_quintics(draw):
    """Degree 4 or 5, zero and unit coefficients among huge ones, either sign."""
    coeff = st.sampled_from((0, 1, -1)) | st.integers(-2**64, 2**64)
    coeffs = draw(st.lists(coeff, min_size=4, max_size=5))
    coeffs.append(draw(st.integers(-2**64, 2**64).filter(bool)))
    lo = draw(st.fractions(-40, 40, max_denominator=10**6))
    hi = lo + draw(st.fractions(Fraction(1, 10**6), 5, max_denominator=10**6))
    return AlgebraicXi(tuple(coeffs), lo, hi)


@given(hostile_quartics_and_quintics())
def test_described_spec_parses_back(spec):
    # and with a constant term past the 4300-digit int-string limit
    big = spec._replace(coeffs=(10**4400 + 7,) + spec.coeffs[1:])
    for s in (spec, big):
        assert parse_xi_spec(s.describe()) == s


def test_parse_evaluates_nothing(monkeypatch):
    calls = []
    monkeypatch.setattr(os, "getpid", lambda: calls.append("getpid") or 1)
    with pytest.raises(ValueError, match="cannot parse"):
        parse_xi_spec("alg:x+__import__('os').getpid()*0 in [-1,1]")
    assert calls == []


def test_isolating_interval_validation():
    with pytest.raises(ValueError, match="2 real roots"):
        RealContext("alg:x^4-5*x^2+6 in [1,2]")  # sqrt2 and sqrt3 both inside
    with pytest.raises(ValueError, match="endpoint"):
        RealContext("alg:x^4-16 in [2,3]")


@pytest.mark.parametrize("spec,why", [
    ("alg:x-3 in [2,4]", "rational"),
    ("alg:x^2-2 in [1,2]", "quadratic"),
    ("alg:x^3-2 in [1,2]", "relation"),
    ("alg:x^4-5*x^2+6 in [1.2,1.5]", "quadratic"),  # reducible, root is sqrt2
])
def test_dependence_detected(spec, why):
    ctx = RealContext(spec)
    assert ctx.dependent
    assert why in ctx.dependence_reason


# root2, quartic and the hostile shapes: |xi| near 1, a negative root,
# 2^64 coefficients, x^2 - n and a depressed cubic; then sqrt2 + sqrt3 and
# (x^2 - 2)(x^2 - 3)
CERTIFIED_SPECS = [
    "alg:x^4-2 in [1,2]", "alg:x^4-x-1 in [1.2,1.3]",
    "alg:27611*x^4-3*x-27571 in [68595/68618,14912/14917]",
    "alg:x^4-6*x^2+x+9 in [-50873/24109,-130986/62075]",
    "alg:-14465187152556298013*x^6+16479465693567928261*x^5"
    "-13701134117992671164*x^4+15995611396881135256*x^3+17320784888099683705*x^2"
    "-12243072578608432099*x+18256623104515805912 in [-111951/119842,-8186/8763]",
    "alg:x^2-12 in [121635/35113,140452/40545]",
    "alg:x^3+7*x-1 in [5372/37713,5717/40135]",
    "alg:x^4-10*x^2+1 in [3,4]", "alg:x^4-5*x^2+6 in [1.2,1.5]",
]


def test_certified_specs_do_not_import_sympy():
    # the certified specs and a reducible polynomial of degree 41
    specs = [*CERTIFIED_SPECS, cube_root_product_spec(38)]
    code = ("import sys\nfrom xicube import RealContext\n"
            f"for spec in {specs!r}:\n    RealContext(spec)\n"
            "print('sympy' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(xicube.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "False"


def test_huge_isolating_endpoint_is_clipped_to_the_cauchy_bound():
    # every root of x^4 - 2 lies in (-3, 3), so [1, 10^1000] is searched as
    # [1, 3]; a grid and a first precision sized to 10^1000 take minutes
    code = ("from xicube import RealContext, minimal_sequence\n"
            f"ctx = RealContext('alg:x^4-2 in [1,{10**1000}]')\n"
            "print(((ctx._lo, ctx._hi), [p.point for p in minimal_sequence(ctx, 10**5)]))\n")
    src = os.path.dirname(os.path.dirname(xicube.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    points = [p.point for p in minimal_sequence(RealContext(ROOT2), 10**5)]
    assert out.stdout.strip() == repr(((Fraction(1), Fraction(3)), points))


def test_clipped_negative_interval_keeps_the_root():
    ctx = RealContext(f"alg:x^4-2 in [-{10**50},-1]")
    assert (ctx._lo, ctx._hi) == (-3, -1)
    want = minimal_sequence(RealContext("alg:x^4-2 in [-2,-1]"), 10**4)
    assert [p.point for p in minimal_sequence(ctx, 10**4)] == [p.point for p in want]


@pytest.mark.parametrize("spec", CERTIFIED_SPECS)
def test_specs_inside_their_cauchy_bound_keep_their_interval(spec):
    # the grid, and so every enclosure and output byte, is the unclipped one
    ctx = RealContext(spec)
    assert (ctx._lo, ctx._hi) == (ctx.spec.lo, ctx.spec.hi)


def test_reducible_spec_of_degree_41_settles_on_few_reductions(monkeypatch):
    # (x^3 - 2) * q with 2^64 coefficients: the relation x^3 - 2 is found
    # without factoring the polynomial
    bits = []

    def counted(rows, h=None):
        bits.append(rows[0][-1].bit_length() - 1)  # row 0 is (1, 0, ..., 0 | 2^s)
        return _lll(rows, h)

    monkeypatch.setattr(realctx, "_lll", counted)
    ctx = RealContext(cube_root_product_spec(38))
    assert "a*x^3+b*x+c" in ctx.dependence_reason
    assert 1 <= len(bits) <= 6 and max(bits) <= 1024, bits


def test_large_root_settles_on_one_reduction(monkeypatch):
    # xi near 10^20: the enclosures of 2^s * xi^j are about 10^60 wide, and
    # the first precision takes that into account
    bits = []

    def counted(rows, h=None):
        bits.append(rows[0][-1].bit_length() - 1)
        return _lll(rows, h)

    monkeypatch.setattr(realctx, "_lll", counted)
    assert not RealContext(f"alg:x^4-{10**80 + 1} in [{10**20 - 1},{10**20 + 1}]").dependent
    assert len(bits) == 1, bits


def test_certificate_stops_at_the_ceiling():
    # xi near 10^20 needs about 1900 bits: below that ceiling the
    # certificate doubles its precision up to it, and stops there
    spec = f"alg:x^4-{10**80 + 1} in [{10**20 - 1},{10**20 + 1}]"
    assert not RealContext(spec).dependent
    with pytest.raises(PrecisionError, match=r"independence of 1, xi, xi\^3 undecidable"):
        RealContext(spec, max_bits=1024)


@st.composite
def factored_spec(draw):
    """A product of random integer factors of degree 1-5, repeats included,
    with an interval around one of its real roots from sympy's isolation:
    its isolating interval, or that one widened, which may take in other
    roots or put one on an endpoint."""
    x = sympy.Symbol("x")
    poly = sympy.Poly(1, x)
    for _ in range(draw(st.integers(1, 3))):
        deg = draw(st.integers(1, 5))
        coeffs = [draw(st.integers(-9, 9)) for _ in range(deg)]
        coeffs.append(draw(st.sampled_from([-1, 1])) * draw(st.integers(1, 6)))
        poly *= sympy.Poly(list(reversed(coeffs)), x) ** draw(st.integers(1, 2))
    roots = poly.intervals()
    assume(roots)
    (a, b), _mult = draw(st.sampled_from(roots))
    pad = draw(st.sampled_from([Fraction(0), Fraction(1, 7), Fraction(1)]))
    lo, hi = Fraction(int(a.p), int(a.q)) - pad, Fraction(int(b.p), int(b.q)) + pad
    assume(lo < hi)
    return AlgebraicXi(tuple(int(c) for c in reversed(poly.all_coeffs())), lo, hi)


def _context_analysis(spec):
    ctx = RealContext(spec)
    return ctx._isolating_poly, ctx.dependence_reason


def _analysis(analyze, spec):
    """(None, isolating polynomial, reason), or (error message, None, None)."""
    try:
        poly, reason = analyze(spec)
    except ValueError as exc:
        return str(exc), None, None
    return None, poly, reason


def _grid(lo, hi):
    """Integers (p, w, q) with [lo, hi] = [p, p + w] / q."""
    p = lo.numerator * hi.denominator
    return p, hi.numerator * lo.denominator - p, lo.denominator * hi.denominator


@settings(suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(spec=factored_spec())
def test_integer_analysis_matches_factoring(spec):
    error, poly, reason = _analysis(_context_analysis, spec)
    want_error, want_poly, want_reason = _analysis(_analyze_by_factoring, spec)
    assert (error, reason) == (want_error, want_reason)
    if error is None:
        for k in (192, 1536):
            cells = [_root_cell(p, _eval_sign(p, spec.lo), *_grid(spec.lo, spec.hi), k)
                     for p in (poly, want_poly)]
            assert cells[0] == cells[1], k


@pytest.mark.parametrize("poly, squarefree", [
    ("x^8-4*x^4+4", (-2, 0, 0, 0, 1)),  # (x^4 - 2)^2
    ("x^9-3*x^8-4*x^5+12*x^4+4*x-12", (6, -2, 0, 0, -3, 1)),  # (x^4 - 2)^2 (x - 3)
])
def test_repeated_factor_gives_the_squarefree_part(ctx_root2, poly, squarefree):
    # the Sturm sequence of the spec's polynomial ends in gcd(f, f'), the
    # squared factor x^4 - 2, which the isolating polynomial is divided by
    ctx = RealContext(f"alg:{poly} in [1,2]")
    assert ctx._isolating_poly == squarefree
    for bits in (64, 192, 1536):
        assert ctx.exact_rung(bits) == ctx_root2.exact_rung(bits), bits
    assert minimal_sequence(ctx, 10**5) == minimal_sequence(ctx_root2, 10**5)


def test_independent_quartics(ctx_root2, ctx_quartic):
    assert not ctx_root2.dependent
    assert not ctx_quartic.dependent
    # cubic with nonzero x^2 coefficient keeps 1, xi, xi^3 independent
    assert not RealContext("alg:x^3-x^2-1 in [1,2]").dependent
    # sqrt2 + sqrt3: irreducible, though it splits into degrees <= 2 mod every prime
    assert not RealContext("alg:x^4-10*x^2+1 in [3,4]").dependent


@st.composite
def core_spec(draw, kinds=("negative", "near_one", "below_one", "above_ten", "dec")):
    """An alg: spec of degree 4-6 with a negative, near-1, below-1 or above-10
    root, or with coefficients near 2^64 ("huge"), or a decimal literal (-0.0
    included; "short_dec" for one of 1-6 digits)."""
    kind = draw(st.sampled_from(kinds))
    if kind == "dec":
        sign, whole = draw(st.sampled_from(["", "-"])), draw(st.integers(0, 30))
        digits = draw(st.integers(1, 40))
        frac = draw(st.integers(0, 10**digits - 1))
        return draw(st.sampled_from([f"dec:{sign}{whole}.{frac:0{digits}d}", "dec:-0.0"]))
    if kind == "short_dec":
        sign = draw(st.sampled_from(["", "-"]))
        digits = draw(st.text("0123456789", min_size=1, max_size=6))
        point = draw(st.integers(1, len(digits)))
        return f"dec:{sign}{digits[:point]}" + (f".{digits[point:]}" if digits[point:] else "")
    deg = draw(st.integers(4, 6))
    small = [draw(st.integers(-9, 9)) for _ in range(deg - 1)]
    if kind == "huge":
        coeffs = [draw(st.integers(2**63, 2**64)) * draw(st.sampled_from([-1, 1]))
                  for _ in range(deg + 1)]
        accept = lambda r: True
    elif kind == "near_one":
        n = draw(st.integers(10**3, 10**6))  # N*x^deg + b*x - (N + c): a root near 1
        coeffs = ([-(n + draw(st.integers(1, 50))), draw(st.integers(-2, 2))]
                  + [0] * (deg - 2) + [n])
        accept = lambda r: abs(r - 1) < Fraction(1, 10)
    elif kind == "below_one":  # ... + B*x -+ 1: a root near +-1/B
        coeffs = ([draw(st.sampled_from([-1, 1])), draw(st.integers(10, 1000))] + small[1:]
                  + [draw(st.integers(1, 5))])
        accept = lambda r: 0 < abs(r) < 1
        if draw(st.booleans()):  # an interval around 0, so coarse cells hold 0 inside
            lo, hi = (Fraction(sign, draw(st.integers(2, 9))) for sign in (-1, 1))
            poly = sympy.Poly(list(reversed(coeffs)), sympy.Symbol("x"))
            assume(poly.count_roots(lo, hi) == 1 and _eval_sign(coeffs, lo) * _eval_sign(coeffs, hi))
            return AlgebraicXi(tuple(coeffs), lo, hi).describe()
    elif kind == "above_ten":  # x^deg - A*x^(deg-1) + ...: a root near A
        coeffs = small + [-draw(st.integers(11, 40)), 1]
        accept = lambda r: abs(r) > 10
    else:
        coeffs = small + [draw(st.integers(1, 9)), draw(st.integers(1, 5))]
        accept = lambda r: r < 0
    poly = sympy.Poly(list(reversed(coeffs)), sympy.Symbol("x"))
    roots = [(Fraction(int(a.p), int(a.q)), Fraction(int(b.p), int(b.q)))
             for (a, b), _mult in poly.sqf_part().intervals()]
    roots = [(lo, hi) for lo, hi in roots if accept((lo + hi) / 2)
             and _eval_sign(coeffs, lo) and _eval_sign(coeffs, hi)]
    assume(roots)
    lo, hi = draw(st.sampled_from(roots))
    return AlgebraicXi(tuple(coeffs), lo, hi).describe()


# the hostile near-1 and negative specs of bench/workloads.py, seeds 1 to 3
HOSTILE_TIE_SPECS = [
    "alg:27611*x^4-3*x-27571 in [68595/68618,14912/14917]",
    "alg:x^4-6*x^2+x+9 in [-50873/24109,-130986/62075]",
    "alg:17412*x^4-x-17399 in [29007/29012,40610/40617]",
    "alg:x^4-4*x^3+3*x^2+5*x-8 in [-21536/17571,-74325/60641]",
    "alg:41190*x^4+x-41111 in [174846/174931,172789/172873]",
    "alg:x^4-2*x^3-5*x^2+7*x+1 in [-99509/48940,-83871/41249]",
]


def _hostile_examples(test):
    for spec in HOSTILE_TIE_SPECS:
        test = example(spec=spec, levels=[4, 24, 192, 1536, 8192], x0=1, offsets=(0, 0))(test)
    return test


@settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow,
                                                  HealthCheck.filter_too_much])
@_hostile_examples
@given(spec=core_spec(), levels=st.permutations([4, 24, 192, 1536, 8192]),
       x0=st.integers(-3000, 3000), offsets=st.tuples(*[st.integers(-2, 2)] * 2))
def test_integer_powers_match_the_fraction_oracle(spec, levels, x0, offsets):
    ctx, reference = RealContext(spec), RealContext(spec)
    xi, cube = (float(mid(ctx.power(k, 64))) for k in (1, 3))
    points = [(x0, round(x0 * xi) + offsets[0], round(x0 * xi**3) + offsets[1]),
              (0, 1, 0), (1, 0, 0)]
    for bits in levels:
        powers = fraction_powers(reference, bits)
        for k in (1, 2, 3):
            assert ctx.power(k, bits) == powers[k - 1], (k, bits)
            assert ctx.rung(bits)[k] == fraction_scaled(reference, k, bits), (k, bits)
        for x in points:
            assert approx_error(x, ctx, bits) == fraction_approx_error(x, reference, bits)
            assert delta_of(x, ctx, bits) == fraction_delta_of(x, reference, bits)
    bits = ctx.precision_bits
    assert (ctx.power(3), ctx.rung()[3], approx_error(points[0], ctx)) == (
        fraction_powers(reference, bits)[2], fraction_scaled(reference, 3, bits),
        fraction_approx_error(points[0], reference, bits))


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@example(spec="dec:2.5", x0=1, offsets=(0, 0))
@example(spec=HOSTILE_TIE_SPECS[0], x0=1, offsets=(0, 0))  # near 1
@example(spec=HOSTILE_TIE_SPECS[1], x0=-7, offsets=(1, -1))  # negative
@given(spec=core_spec(kinds=("near_one", "negative", "huge", "short_dec")),
       x0=st.integers(-3000, 3000), offsets=st.tuples(*[st.integers(-1, 1)] * 2))
def test_every_rung_contains_the_exact_rung(spec, x0, offsets):
    # the ladder from 8 to 8192 bits: rung(bits) is exact_rung(bits) itself
    # exactly when the latter's scale is at most 2^bits, and otherwise has
    # scale 2^bits and holds it for each power; a literal's exact rung is one
    # object, so it lies inside every rung; and the error enclosure on a rung
    # holds approx_error, the one on the exact rung
    ctx = RealContext(spec)
    xi, cube = (float(mid(ctx.power(k, 64))) for k in (1, 3))
    points = [(x0, round(x0 * xi) + offsets[0], round(x0 * cube) + offsets[1]),
              (0, 1, 0), (1, 0, 0)]
    literal = ctx.exact_rung(8) if isinstance(ctx.spec, DecimalXi) else None
    for bits in (8 << i for i in range(11)):
        exact, rung = ctx.exact_rung(bits), ctx.rung(bits)
        assert literal is None or exact is literal
        assert (rung is exact) == (exact[0] <= 1 << bits), bits
        assert rung is exact or rung[0] == 1 << bits
        scale = rung[0]
        for k in (1, 2, 3):
            (lo, hi), (e_lo, e_hi) = rung[k], exact[k]
            assert lo * exact[0] <= e_lo * scale and e_hi * scale <= hi * exact[0], (k, bits)
        for x in points:
            lo, hi = scaled_error(x, rung)
            num_lo, num_hi, den = approx_error(x, ctx, bits).integers
            assert lo * den <= num_lo * scale and num_hi * scale <= hi * den, (x, bits)


def _count_evaluations(monkeypatch):
    """Count realctx's searches, homogenizations and evaluations, the last two by depth.

    A key (name, "full") counts the calls on f homogenized to Q = den *
    2^(k + GUARD_BITS) of the _root_cell call running, the search's own
    grid; (name, "coarse") counts those on any coarser homogenization.
    """
    counts = Counter()
    full = []  # the full-depth forms so far, kept alive so that `is` finds them
    running = {}
    real = {name: getattr(realctx, name)
            for name in ("_root_cell", "_homogenized", "_horner", "_value")}

    def root_cell(coeffs, sign_lo, start, width, den, k):
        counts["_root_cell"] += 1
        running["q"] = den << (k + realctx.GUARD_BITS)
        return real["_root_cell"](coeffs, sign_lo, start, width, den, k)

    def homogenized(coeffs, q):
        h = real["_homogenized"](coeffs, q)
        if q == running.get("q"):
            full.append(h)
        counts["_homogenized", "full" if q == running.get("q") else "coarse"] += 1
        return h

    def evaluation(name):
        def counted(poly, t):
            counts[name, "full" if any(poly is h for h in full) else "coarse"] += 1
            return real[name](poly, t)
        return counted

    monkeypatch.setattr(realctx, "_root_cell", root_cell)
    monkeypatch.setattr(realctx, "_homogenized", homogenized)
    for name in ("_horner", "_value"):
        monkeypatch.setattr(realctx, name, evaluation(name))
    return counts


def test_one_newton_search_per_level(monkeypatch):
    # an exact tie escalated from 192 to 8192 bits: 7 precision levels.  Per
    # level one search, whose first Newton step runs on the parent cell's
    # grid and whose guess two full-depth sign evaluations certify, and one
    # full-size build of the cell's powers (one a^2, one a^3), the deeper
    # cells being halves of it
    ctx = RealContext(ROOT2, max_bits=8192)
    counts = _count_evaluations(monkeypatch)
    powers_built = []
    real_powers = realctx._cell_powers
    monkeypatch.setattr(realctx, "_cell_powers",
                        lambda *args: powers_built.append(args) or real_powers(*args))
    x = (1, 0, 0)
    with pytest.raises(PrecisionError, match="at 8192 bits"):
        ctx.decide(lambda bits: approx_error(x, ctx, bits).strictly_less(
            approx_error(x, ctx, bits)), what=f"tie L{x} < L{x}")
    assert counts["_root_cell"] <= 7, counts
    assert counts["_horner", "full"] + counts["_value", "full"] <= 3 * 7, counts
    assert counts["_homogenized", "full"] == counts["_root_cell"], counts
    assert len(powers_built) <= 7


# degree 64, a root 2^63 + eps with eps = xi^-63 just under 2^-3969: its
# cells are the middle ones down to depth 3969, and Newton must find the
# offset past it
NARROW = ("alg:x^64-9223372036854775808*x^63-1 in "
          "[9223372036854775807,9223372036854775809]")


def test_degree_64_root_cells_match_bisection():
    # Fraction bisection is too slow to walk 3969 levels at degree 64, so
    # past depth 192 it starts from the depth-3968 cell [2^63, 2^63 + 2^-3967],
    # whose ends the oracle's own signs check
    spec = parse_xi_spec(NARROW)
    coeffs, grid, sign_lo = spec.coeffs, _grid(spec.lo, spec.hi), _eval_sign(spec.coeffs, spec.lo)
    deep_lo = Fraction(1 << 63)
    deep_hi = deep_lo + Fraction(1, 1 << 3967)
    assert fraction_sign(coeffs, deep_lo) == -fraction_sign(coeffs, deep_hi) == sign_lo
    for lo, hi, depths in [(spec.lo, spec.hi, (8, 64, 192)),
                           (deep_lo, deep_hi, (3970, 3972, 3976))]:
        for k in depths:
            step = (spec.hi - spec.lo) / (1 << k)
            lo, hi = bisect_cell(coeffs, lo, hi, step)
            assert _root_cell(coeffs, sign_lo, *grid, k) == (lo - spec.lo) / step, k


def test_one_homogenization_per_degree_64_root_cell(monkeypatch):
    """_root_cell homogenizes once at full depth, and evaluates there only its probes.

    Newton's first step from the middle of the bracket, on the grid of 2
    steps, lands within a cell of the narrow spec's root, and the probes
    j + 1 and j certify its guess.  Later steps, which a search from a
    coarse cell may need, each take a coarser homogenization of their own.
    """
    spec = parse_xi_spec(NARROW)
    grid, sign_lo = _grid(spec.lo, spec.hi), _eval_sign(spec.coeffs, spec.lo)
    counts = _count_evaluations(monkeypatch)
    for k in (8, 192, 3976, 4200):
        counts.clear()
        realctx._root_cell(spec.coeffs, sign_lo, *grid, k)
        depth = k + realctx.GUARD_BITS
        assert counts["_homogenized", "full"] == 1, (k, counts)
        assert counts["_homogenized", "coarse"] <= depth.bit_length() + 1, (k, counts)
        assert counts["_horner", "full"] == 0 and counts["_value", "full"] <= 2, (k, counts)


def _ladder_bracket(coeffs, lo, hi, d0):
    """(start, width, den, cell): the depth-d0 cell of [lo, hi] holding the root (bisect_cell)."""
    width_bound = (hi - lo) / (1 << d0)
    cell = bisect_cell(coeffs, lo, hi, width_bound)
    den = cell[0].denominator * cell[1].denominator * width_bound.denominator
    return int(cell[0] * den), int(width_bound * den), den, cell


def _oracle_index(coeffs, cell, k):
    """Index of the depth-k cell of `cell` around the root, by Fraction bisection."""
    step = (cell[1] - cell[0]) / (1 << k)
    return (bisect_cell(coeffs, cell[0], cell[1], step)[0] - cell[0]) / step


# 4^82 x^2 - (p^2 - 1), p = 2^82 - 3: its root sqrt(p^2 - 1) / 2^82 lies
# about 2^-83 of a depth-82 cell below the cell boundary p / 2^82 on [1, 2],
# and Newton's iterates, from either side of this convex function, above it
BOUNDARY = (1 - ((1 << 82) - 3) ** 2, 0, 1 << 164)


@pytest.mark.parametrize("d0", [40, 76])
def test_a_guess_across_a_cell_boundary_falls_back_to_the_cell_the_signs_define(
        monkeypatch, d0):
    k = 82 - d0
    start, width, den, cell = _ladder_bracket(BOUNDARY, Fraction(1), Fraction(2), d0)
    sign_lo = fraction_sign(BOUNDARY, cell[0])
    counts = _count_evaluations(monkeypatch)
    got = realctx._root_cell(BOUNDARY, sign_lo, start, width, den, k)
    assert got == _oracle_index(BOUNDARY, cell, k)
    assert counts["_value", "full"] > 2, counts  # the first guess missed


@pytest.mark.parametrize("scale", [2, 3])
@pytest.mark.parametrize("first_only", [True, False])
def test_newton_steps_that_miss_fall_back_to_the_cell_the_signs_define(
        monkeypatch, scale, first_only):
    # slopes scaled up make each step fall short: on the first step only,
    # its guess misses and the later steps mend it; on every step, Newton
    # crawls, and the full-depth step and bisection end the search
    coeffs = parse_xi_spec(QUARTIC).coeffs
    real_horner = realctx._horner
    steps = Counter()

    def short_steps(poly, t):
        value, slope = real_horner(poly, t)
        steps["taken"] += 1
        return value, slope * scale if steps["taken"] == 1 or not first_only else slope

    monkeypatch.setattr(realctx, "_horner", short_steps)
    for d0, k in [(0, 60), (30, 32), (100, 102)]:
        steps.clear()
        start, width, den, cell = _ladder_bracket(coeffs, Fraction(6, 5), Fraction(13, 10), d0)
        sign_lo = fraction_sign(coeffs, cell[0])
        got = _root_cell(coeffs, sign_lo, start, width, den, k)
        assert got == _oracle_index(coeffs, cell, k), (d0, k)


@st.composite
def ladder_brackets(draw):
    """A squarefree integer polynomial of degree 2 to 8, an isolating interval of one of
    its real roots, the depth d0 of a parent cell and a depth k <= d0 + 2 below it."""
    deg = draw(st.integers(2, 8))
    coeffs = [draw(st.integers(-30, 30)) for _ in range(deg)] + [draw(st.integers(1, 9))]
    poly = sympy.Poly(list(reversed(coeffs)), sympy.Symbol("x")).sqf_part()
    roots = [(Fraction(int(a.p), int(a.q)), Fraction(int(b.p), int(b.q)))
             for (a, b), _mult in poly.intervals()]
    coeffs = [int(c) for c in reversed(poly.all_coeffs())]
    roots = [(lo, hi) for lo, hi in roots
             if lo < hi and fraction_sign(coeffs, lo) and fraction_sign(coeffs, hi)]
    assume(roots)
    lo, hi = draw(st.sampled_from(roots))
    d0 = draw(st.integers(0, 160))
    return tuple(coeffs), lo, hi, d0, draw(st.integers(1, d0 + 2))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow,
                                                                 HealthCheck.filter_too_much])
@given(ladder_brackets())
def test_root_cells_on_ladder_brackets_match_bisection(case):
    coeffs, lo, hi, d0, k = case
    start, width, den, cell = _ladder_bracket(coeffs, lo, hi, d0)
    sign_lo = fraction_sign(coeffs, cell[0])
    assert _root_cell(coeffs, sign_lo, start, width, den, k) == _oracle_index(coeffs, cell, k)


@given(coeffs=st.lists(st.integers(-2**70, 2**70), min_size=1, max_size=9),
       q=st.integers(1, 10**6), z=st.integers(0, 400))
def test_homogenized_matches_its_definition(coeffs, q, z):
    q <<= z  # as on a root-cell grid, a power of 2 times a small number
    n = len(coeffs) - 1
    assert realctx._homogenized(coeffs, q) == [c * q ** (n - i) for i, c in enumerate(coeffs)]


@st.composite
def cells(draw):
    """(a, w) for a negative, zero-ended, straddling or positive cell [a, a + w]."""
    kind = draw(st.sampled_from(["negative", "zero_lo", "zero_hi", "straddling", "positive"]))
    w = draw(st.integers(1 + (kind == "straddling"), 1 << 70))
    far = draw(st.integers(0, 1 << 300))
    a = {"negative": -far - w, "zero_lo": 0, "zero_hi": -w,
         "straddling": -1 - far % (w - 1) if w > 1 else 0, "positive": far}[kind]
    return a, w


@given(cell=cells(), den=st.integers(1, 1 << 80), r=st.integers(0, 1))
def test_cell_powers_match_the_min_max_reference(cell, den, r):
    a, w = cell
    dens = (den, den**2, den**3)
    assert _cell_powers(a, a + w, dens) == cell_powers(a, a + w, den)
    half = 2 * a + r * w
    assert _halved(_cell_powers(a, a + w, dens), r) == cell_powers(half, half + w, 2 * den)


def test_enclosure_width_contract(ctx_root2):
    for bits in (32, 100, 256):
        cube = FractionInterval.of(ctx_root2.power(3, bits))
        scale = max(Fraction(1), abs(cube).hi)
        for k in (1, 2, 3):
            width = FractionInterval.of(ctx_root2.power(k, bits)).width
            assert width <= Fraction(1, 1 << bits) * scale


def test_delta_examples(ctx_root2):
    assert FractionInterval.of(delta_of((0, 0, 1), ctx_root2)).is_point()
    assert delta_of((0, 0, 1), ctx_root2).lo == 1
    iv = delta_of((1, 0, 0), ctx_root2)  # 2*xi^3
    with mp.workdps(45):
        ref = 2 * mp.mpf(2) ** (mp.mpf(3) / 4)
        assert abs(Fraction(str(ref)) - mid(iv)) < Fraction(1, 10**40)
    iv = delta_of((1, 1, 2), ctx_root2)
    with mp.workdps(45):
        ref = 2 * mp.mpf(2) ** (mp.mpf(3) / 4) - 3 * mp.sqrt(2) + 2
        assert abs(Fraction(str(ref)) - mid(iv)) < Fraction(1, 10**40)
    assert abs(mid(iv) - Fraction("1.1209")) < Fraction(1, 10**3)


def test_l_norm_examples(ctx_root2):
    err, norm = approx_error((1, 1, 2), ctx_root2), sup_norm((1, 1, 2))
    assert norm == 2
    assert abs(mid(err) - Fraction("0.31821")) < Fraction(1, 10**5)
    err, norm = approx_error((0, 1, 0), ctx_root2), sup_norm((0, 1, 0))
    assert (err.lo, err.hi, norm) == (1, 1, 1)
    err, norm = approx_error((4, 5, 7), ctx_root2), sup_norm((4, 5, 7))
    assert norm == 7
    assert abs(mid(err) - Fraction("0.27283")) < Fraction(1, 10**5)


def test_nearest_multiples(ctx_root2):
    assert ctx_root2.nearest_to_multiple(1, 1) == 1
    assert ctx_root2.nearest_to_multiple(1, 3) == 2
    assert ctx_root2.nearest_to_multiple(4, 1) == 5
    assert ctx_root2.nearest_to_multiple(4, 3) == 7


def test_decimal_interval_semantics():
    ctx = RealContext("dec:1.25")
    iv = ctx.power(1)
    assert (iv.lo, iv.hi) == (Fraction("1.25"), Fraction("1.26"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ctx.warn_if_assumed()
    assert any("assumed" in str(w.message) for w in caught)


@pytest.mark.parametrize("digits,lo,hi", [
    ("-0.0", "-1/10", "0"), ("-0", "-1", "0"),
    ("0.0", "0", "1/10"), ("-0.05", "-6/100", "-5/100"),
])
def test_decimal_literal_side_follows_its_sign(digits, lo, hi):
    # a truncated negative number lies below its literal, even when that reads 0
    ctx = RealContext(f"dec:{digits}")
    lo, hi = Fraction(lo), Fraction(hi)
    assert (ctx.power(1).lo, ctx.power(1).hi) == (lo, hi)
    assert (ctx.power(3).lo, ctx.power(3).hi) == (lo**3, hi**3)


@pytest.mark.parametrize("spec", [ROOT2, QUARTIC])
def test_enclosures_do_not_depend_on_call_history(spec):
    after_cube = RealContext(spec)
    after_cube.power(3)
    escalated = RealContext(spec)
    escalated.rung(1536)
    for bits in (192, 384, 768):
        for k in (1, 2, 3):
            fresh = RealContext(spec)
            want = fresh.power(k, bits), fresh.rung(bits)[k]
            for ctx in (after_cube, escalated):
                assert (ctx.power(k, bits), ctx.rung(bits)[k]) == want, (k, bits)


def test_decimal_rounding_contract():
    # the literal's interval decides the round; one pinned just above 1/2 rounds up
    ctx = RealContext("dec:0.500000001")
    assert ctx.nearest_to_multiple(1, 1) == 1
    assert ctx.nearest_to_multiple(1, 3) == 0
    # an exact 0.5 literal starts on the tie: finer rounding of its interval
    # never lifts it off, so escalation stops at the ceiling
    with pytest.raises(PrecisionError):
        RealContext("dec:0.5").nearest_to_multiple(1, 1)


def test_precision_ceiling_abort():
    # at an 8-bit ceiling the enclosure of 30000*xi spans many integers,
    # so the rounding can never be certified and the context must abort
    ctx = RealContext("alg:x^4-2 in [1,2]", precision_bits=8, max_bits=8)
    with pytest.raises(PrecisionError):
        ctx.nearest_to_multiple(30000, 1)


def test_exact_tie_stops_at_the_default_ceiling():
    # L(x) < L(x) is never settled, so escalation climbs to the default
    # ceiling and must stop there with an error naming it
    ctx = RealContext("alg:x^4-2 in [1,2]")
    assert ctx.max_bits == DEFAULT_MAX_BITS == 65536
    x = (1, 0, 0)
    with pytest.raises(PrecisionError, match="at 65536 bits"):
        ctx.decide(lambda bits: approx_error(x, ctx, bits).strictly_less(
            approx_error(x, ctx, bits)), what=f"tie L{x} < L{x}")


def test_context_pickles(ctx_root2):
    import pickle

    clone = pickle.loads(pickle.dumps(ctx_root2))
    assert clone.nearest_to_multiple(4, 3) == 7
