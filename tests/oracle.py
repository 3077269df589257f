"""Independent brute-force baselines for the test suite.

Ring oracle: the truncated substitution engine.  It expands an element to
Q[q, S, T, U, V] under y -> x + q*y, keeping q-degrees below the bound, and
takes J-valuations and J-subspaces from the q-coefficients of the image.
The package's (T, A, B) route must agree with it.

Linear-algebra oracle: back-substitution and Gauss-Jordan in Fractions,
the exact rational routes that `xicube.linalg` replaced by integer ones,
and the echelon insertion that updates the whole row on every reduction,
which `IntEchelon.insert` replaced by a tail update where it can.

Log-layer oracle: `xicube.rigor` on private mpmath interval contexts, one
per precision (`mpf_log` for the logs, `libmp.to_str` for the decimals),
the engine the integer dyadic one replaced.  The package's outputs must
equal its outputs, except for logs of arguments near 1, where mpmath's
directed log is not always correctly rounded.

The minimal-point oracle examines *every* integer triple with sup-norm up to
the bound (x0 >= 1 by the sign symmetry L(-x) = L(x); x0 = 0 forces L >= 1).
A vectorized float prefilter with a wide safety margin discards triples that
are far from the L < 1/2 region, every survivor is then confirmed or
rejected with exact interval arithmetic, and the record sweep below never
shares logic with the scan under test: no nearest-integer shortcut anywhere.

The linear-scan oracle is the record sweep that the lattice search of
`xicube.minimal` replaced: one nearest-integer candidate per x0, each put to
an integer record test of its own, with its own x0 limit and certified
error, so that a fault in the search's decision code cannot show on both
sides.  It is linear in the bound, so it serves up to about 1e6.

Enclosure oracle: the cell-by-cell `Fraction` loop that the integer powers
of `RealContext` replaced.  Each depth's root cell becomes an `Interval`,
its square and cube are `Interval` products, and the width test compares
`Fraction`s; `approx_error`, `delta_of` and `scaled` follow from those
enclosures by `Interval` arithmetic.  Only the cell index comes from the
context (`_cell`), which the bisection oracle below checks on its own.

Algebraic-analysis oracle: sympy's root count and factorisation over Q of
an `alg:` spec, the route that the integer relation certificate of
`xicube.realctx` replaced.  Its isolating polynomial is xi's minimal
polynomial where the package keeps the squarefree part; both have the same
one root in the interval, so every bisection cell agrees.

Coordinate oracle: the product recursion that the closed form of
`xicube.ring.tab_columns` replaced.  (3F)^m (27 G0)^n is built on the
(b, c) keys of T^a A^b B^c from a cached neighbour times 3F = 4A - T^2 or
27 G0 = T^3 - 3TA - B, with every row of every weight; the F, M, N
products go through the same conversion term by term.
"""

from fractions import Fraction
from math import comb, gcd

import numpy as np
from mpmath import libmp
from mpmath.ctx_iv import MPIntervalContext

from xicube.errors import DependenceError, InvariantViolation, Undecidable, ZeroElement
from xicube.intervals import HALF, Interval
from xicube.linalg import IntEchelon
from xicube.minimal import MinimalPoint, candidate_for
from xicube.realctx import (AlgebraicXi, DecimalXi, _check_endpoints, _dependence_reason,
                            _eval_sign, _root_count_error, approx_error, delta_of, scaled_error)
from xicube.vectors import Vec3, content, sup_norm
from xicube.ring import _expand_monomial, basis_of, expand, mul_keyed, named_element

MARGIN = 1e-6  # far beyond float error for bounds <= a few thousand


def _survivors(ctx, bound):
    xi = float(ctx.power(1).mid)
    xi3 = float(ctx.power(3).mid)
    grid = np.arange(-bound, bound + 1)
    out = []
    for x0 in range(1, bound + 1):
        ok1 = grid[np.abs(grid - x0 * xi) < 0.5 + MARGIN]
        ok2 = grid[np.abs(grid - x0 * xi3) < 0.5 + MARGIN]
        for x1 in ok1:
            for x2 in ok2:
                out.append((x0, int(x1), int(x2)))
    return out


def _less(ctx, make_a, make_b):
    def probe(bits):
        return make_a(bits).strictly_less(make_b(bits))

    return ctx.decide(probe, what="oracle comparison")


def brute_force_minimal_points(ctx, bound):
    """Record sweep over all triples of sup-norm <= bound, exact decisions."""
    cands = []
    for pt in _survivors(ctx, bound):
        norm = max(abs(c) for c in pt)
        if norm <= bound and _less(ctx, lambda b, p=pt: approx_error(p, ctx, b),
                                   lambda b: Interval(HALF)):
            cands.append((norm, pt))
    cands.sort(key=lambda item: item[0])

    records = []
    idx = 0
    while idx < len(cands):
        shell = [pt for n, pt in cands if n == cands[idx][0]]
        best = shell[0]
        for other in shell[1:]:
            if _less(ctx, lambda b, p=other: approx_error(p, ctx, b),
                     lambda b, p=best: approx_error(p, ctx, b)):
                best = other
        if not records or _less(ctx, lambda b, p=best: approx_error(p, ctx, b),
                                lambda b, p=records[-1]: approx_error(p, ctx, b)):
            records.append(best)
        idx += len(shell)
    return records


def _fixed_less(a: tuple[int, int], b: tuple[int, int]) -> bool | None:
    """Interval.strictly_less on integer enclosures (lo, hi)."""
    if a[1] < b[0]:
        return True
    if a[0] > b[1]:
        return False
    if a[0] == a[1] == b[0] == b[1]:
        return False
    return None


def _err_less_than_half(ctx, x: Vec3, ex: tuple[int, int]) -> bool:
    """L(x) < 1/2, given ex = scaled_error(x, ctx)."""
    half = 1 << (ctx.precision_bits - 1)
    verdict = _fixed_less(ex, (half, half))
    if verdict is None:
        verdict = ctx.decide(lambda b: _fixed_less(scaled_error(x, ctx, b),
                                                   (1 << (b - 1),) * 2),
                             what=f"L{x} < 1/2")
    return verdict


def _err_less(ctx, x: Vec3, y: Vec3, ex: tuple[int, int], ey: tuple[int, int]) -> bool:
    """L(x) < L(y), given ex, ey = scaled_error(x, ctx), scaled_error(y, ctx)."""
    verdict = _fixed_less(ex, ey)
    if verdict is None:
        verdict = ctx.decide(lambda b: _fixed_less(scaled_error(x, ctx, b),
                                                   scaled_error(y, ctx, b)),
                             what=f"L{x} < L{y}")
    return verdict


def _x0_limit(ctx, norm_bound: int) -> int:
    # |x2| >= x0*|xi^3| - 1/2, so x0 beyond (norm_bound + 1/2)/|xi^3| cannot fit
    cube = abs(ctx.power(3))
    if cube.lo <= 1:
        return norm_bound
    return min(norm_bound, int(((Interval(norm_bound) + HALF).hi / cube.lo).__floor__()))


def _certified_err(ctx, pt: Vec3, bits: int) -> Interval | None:
    iv = approx_error(pt, ctx, bits)
    return iv if iv.hi < HALF else None


def linear_scan_minimal_points(ctx, norm_bound: int) -> list[MinimalPoint]:
    """All minimal points of sup-norm <= norm_bound, by a sweep over every x0.

    The one-candidate-per-x0 record scan that `minimal.minimal_sequence`
    replaced; it must return the same `MinimalPoint`s.

    Raises DependenceError when 1, xi, xi^3 are provably dependent; decimal
    specs only warn (independence cannot be decided from a literal).
    """
    if norm_bound < 1:
        raise ValueError("norm_bound must be >= 1")
    if ctx.dependent:
        raise DependenceError(
            f"{ctx.describe()}: 1, xi, xi^3 are linearly dependent ({ctx.dependence_reason})"
        )
    ctx.warn_if_assumed()

    limit = _x0_limit(ctx, norm_bound)

    # candidate norms increase strictly with x0 (all three coordinates are
    # nondecreasing and one is strict, for any xi with |xi| != 1), so a
    # single streaming sweep keeps only the current record; the guard turns
    # a violated premise into an abort instead of a wrong sequence
    records: list[tuple[int, Vec3]] = []  # (norm, point)
    record_err = None  # scaled_error of records[-1]
    last_norm = 0
    for x0 in range(1, limit + 1):
        c = candidate_for(x0, ctx)
        n = sup_norm(c)
        if n <= last_norm:
            raise InvariantViolation("candidate norms failed to increase",
                                     {"xi": ctx.describe(), "point": c})
        last_norm = n
        if n > norm_bound:
            continue
        err = scaled_error(c, ctx)
        if records:
            if not _err_less(ctx, c, records[-1][1], err, record_err):
                continue
        elif not _err_less_than_half(ctx, c, err):
            continue
        records.append((n, c))
        record_err = err

    out: list[MinimalPoint] = []
    for idx, (n, pt) in enumerate(records, start=1):
        if content(pt) != 1:
            raise InvariantViolation(
                "minimal point is not primitive",
                {"xi": ctx.describe(), "point": pt, "content": content(pt)},
            )
        err = ctx.decide(lambda bits, p=pt: _certified_err(ctx, p, bits),
                         what=f"certified L{pt}")
        out.append(MinimalPoint(idx, pt, n, err, delta_of(pt, ctx)))
    return out


def _analyze_by_factoring(spec: AlgebraicXi):
    """:func:`_analyze_algebraic` by sympy's root count and factorisation over Q.

    The isolating polynomial it returns is xi's minimal polynomial.
    """
    _check_endpoints(spec)
    import sympy

    x = sympy.Symbol("x")
    poly = sympy.Poly(list(reversed(spec.coeffs)), x, domain="QQ")
    lo, hi = sympy.Rational(spec.lo), sympy.Rational(spec.hi)
    nroots = poly.count_roots(lo, hi)
    if nroots != 1:
        raise _root_count_error(spec, nroots)
    minpoly = next(fac for fac, _mult in poly.factor_list()[1]
                   if fac.degree() >= 1 and fac.count_roots(lo, hi) == 1)
    mp_coeffs = tuple(int(c) for c in sympy.Poly(minpoly, x, domain="ZZ").all_coeffs()[::-1])
    if mp_coeffs[-1] < 0:
        mp_coeffs = tuple(-c for c in mp_coeffs)
    return mp_coeffs, _dependence_reason(mp_coeffs)


def fraction_powers(ctx, bits: int) -> tuple[Interval, Interval, Interval]:
    """Enclosures of xi, xi^2, xi^3 at bits, as Fraction intervals, cell by cell.

    From the fewest halvings of [lo, hi] that leave the cell 2^-bits wide,
    one halving at a time until all three widths are within
    2^-bits * max(1, |xi^3|); a decimal spec has one literal interval.
    """
    if isinstance(ctx.spec, DecimalXi):
        value = Fraction(ctx.spec.digits)
        _, _, frac = ctx.spec.digits.partition(".")
        ulp = Fraction(1, 10 ** len(frac))
        base = (Interval(value - ulp, value) if ctx.spec.digits.startswith("-")
                else Interval(value, value + ulp))
        return base, base * base, base * base * base
    target = Fraction(1, 1 << bits)
    width = ctx._hi - ctx._lo
    depth = (-((-width.numerator << bits) // width.denominator) - 1).bit_length()
    while True:
        step = width / (1 << depth)
        j = ctx._cell(depth)
        base = Interval(ctx._lo + j * step, ctx._lo + (j + 1) * step)
        square = base * base
        cube = square * base
        if max(base.width, square.width, cube.width) <= target * max(Fraction(1), abs(cube).hi):
            return base, square, cube
        depth += 1


def fraction_scaled(ctx, k: int, bits: int) -> tuple[int, int]:
    """floor and ceil of 2^bits times the ends of fraction_powers' xi^k."""
    iv = fraction_powers(ctx, bits)[k - 1]
    return ((iv.lo.numerator << bits) // iv.lo.denominator,
            -((-iv.hi.numerator << bits) // iv.hi.denominator))


def fraction_approx_error(x: Vec3, ctx, bits: int) -> Interval:
    """L(x) = max(|x1 - x0*xi|, |x2 - x0*xi^3|) in Interval arithmetic."""
    xi, _, cube = fraction_powers(ctx, bits)
    return abs(Interval(x[1]) - xi * x[0]).max_with(abs(Interval(x[2]) - cube * x[0]))


def fraction_delta_of(x: Vec3, ctx, bits: int) -> Interval:
    """2*x0*xi^3 - 3*x1*xi^2 + x2 in Interval arithmetic."""
    _, square, cube = fraction_powers(ctx, bits)
    return cube * (2 * x[0]) - square * (3 * x[1]) + Interval(x[2])


def exact_nearest(ctx, m, k, bits):
    """The exact probe for the nearest integer to m * xi^k at one precision.

    Strict containment of the Fraction enclosure in (n - 1/2, n + 1/2);
    None when the enclosure straddles a half-integer.
    """
    iv = ctx.power(k, bits) * m
    n = int((iv.mid + HALF).__floor__())
    return n if n - HALF < iv.lo and iv.hi < n + HALF else None


def bisect_cell(coeffs, sign_lo, lo: Fraction, hi: Fraction, width_bound: Fraction):
    """Halve [lo, hi] around the root of coeffs until its width is <= width_bound.

    Plain Fraction bisection: `RealContext._cell` at the depth it reaches
    must be the same cell, whatever method it uses to find it.
    """
    while hi - lo > width_bound:
        mid = (lo + hi) / 2
        if _eval_sign(coeffs, mid) == sign_lo:
            lo = mid
        else:
            hi = mid
    return lo, hi


def full_row_echelon(rows) -> list[tuple[int, list[int]]]:
    """The (pivot, row) list of `IntEchelon` when every reduction rewrites the whole row."""
    stored: list[tuple[int, list[int]]] = []
    for row in rows:
        r = list(row)
        for pc, prow in stored:
            if r[pc]:
                g = gcd(prow[pc], r[pc])
                a, b = prow[pc] // g, r[pc] // g
                r = [x * a - y * b for x, y in zip(r, prow)]
        pivot = next((c for c, v in enumerate(r) if v), None)
        if pivot is None:
            continue
        g = 0
        for v in r:
            g = gcd(g, v)
        r = [v // g for v in r]
        if r[pivot] < 0:
            r = [-v for v in r]
        stored.append((pivot, r))
        stored.sort(key=lambda item: item[0])
    return stored


def fraction_nullspace(ech: IntEchelon) -> list[list[int]]:
    """Primitive nullspace basis of an echelon form, back-substituted in Fractions.

    One vector per free column f, with v[f] = 1 and the other free columns 0
    before scaling; content-normalized, first nonzero entry positive.
    """
    pivot_cols = {pc for pc, _ in ech.rows}
    out = []
    for f in (c for c in range(ech.ncols) if c not in pivot_cols):
        v = [Fraction(0)] * ech.ncols
        v[f] = Fraction(1)
        for pc, row in reversed(ech.rows):
            s = Fraction(0)
            for c in range(pc + 1, ech.ncols):
                if row[c] and v[c]:
                    s += row[c] * v[c]
            v[pc] = -s / row[pc]
        den = 1
        for x in v:
            den = den * x.denominator // gcd(den, x.denominator)
        ints = [int(x * den) for x in v]
        g = 0
        for x in ints:
            g = gcd(g, x)
        ints = [x // g for x in ints]
        if next(x for x in ints if x) < 0:
            ints = [-x for x in ints]
        out.append(ints)
    return out


def solve_unique(rows, rhs):
    """Gauss-Jordan in Fractions: the unique solution, None, or ValueError."""
    m = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    ncols = len(m[0]) - 1 if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                fac = m[i][c]
                m[i] = [x - fac * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    for i in range(r, len(m)):
        if m[i][-1]:
            return None
    if len(pivots) < ncols:
        raise ValueError("solution is not unique")
    sol = [Fraction(0)] * ncols
    for row_idx, c in enumerate(pivots):
        sol[c] = m[row_idx][-1]
    return sol


def count_lattice_points(ell):
    """tau by direct enumeration."""
    return sum(1 for m in range(ell // 2 + 1) for n in range(ell // 3 + 1)
               if 2 * m + 3 * n <= ell) if ell >= 0 else 0


# -- the truncated substitution engine ---------------------------------------

_pow_cache: dict = {}
_uv_cache: dict = {}
_image_cache: dict = {}


def _gen_power(gen: str, e: int) -> dict:
    """Image of T^e / U^e / V^e under the substitution, exact, untruncated."""
    key = (gen, e)
    hit = _pow_cache.get(key)
    if hit is not None:
        return hit
    out: dict = {}
    if gen == "T":
        # (3S + qT)^e
        for i in range(e + 1):
            out[(i, e - i, i, 0, 0)] = comb(e, i) * 3 ** (e - i)
    elif gen == "U":
        # (3S + 2qT + q^2 U)^e
        for i in range(e + 1):
            for j in range(e - i + 1):
                k = e - i - j
                c = comb(e, i) * comb(e - i, j) * 3**i * 2**j
                out[(j + 2 * k, i, j, k, 0)] = c
    elif gen == "V":
        # (S + qT + q^2 U + q^3 V)^e
        for i in range(e + 1):
            for j in range(e - i + 1):
                for k in range(e - i - j + 1):
                    l = e - i - j - k
                    c = comb(e, i) * comb(e - i, j) * comb(e - i - j, k)
                    out[(j + 2 * k + 3 * l, i, j, k, l)] = c
    else:
        raise ValueError(gen)
    _pow_cache[key] = out
    return out


def _mul_trunc(p: dict, r: dict, qmax: int) -> dict:
    out: dict = {}
    for k1, c1 in p.items():
        q1 = k1[0]
        if q1 > qmax:
            continue
        for k2, c2 in r.items():
            if q1 + k2[0] > qmax:
                continue
            k = tuple(a + b for a, b in zip(k1, k2))
            v = out.get(k, 0) + c1 * c2
            if v:
                out[k] = v
            else:
                out.pop(k, None)
    return out


def _uv_image(c: int, d: int, qmax: int) -> dict:
    key = (c, d, qmax)
    hit = _uv_cache.get(key)
    if hit is None:
        hit = _mul_trunc(_gen_power("U", c), _gen_power("V", d), qmax)
        _uv_cache[key] = hit
    return hit


def rho(p: dict, qmax: int | None = None) -> dict:
    """Apply the substitution to a q-free expanded polynomial.

    With qmax set, monomials of q-degree beyond qmax are dropped.
    """
    total = 0
    for (eq, a, b, c, d) in p:
        if eq:
            raise ValueError("input must be free of q")
        total = max(total, b + 2 * c + 3 * d)
    if qmax is None:
        qmax = total
    out: dict = {}
    for (eq, a, b, c, d), coeff in p.items():
        img = _mul_trunc(_gen_power("T", b), _uv_image(c, d, qmax), qmax)
        for (q1, a1, b1, c1, d1), ic in img.items():
            k = (q1, a1 + a, b1, c1, d1)
            v = out.get(k, 0) + coeff * ic
            if v:
                out[k] = v
            else:
                out.pop(k, None)
    return out


def j_valuation(e) -> int:
    """The lowest power of q in the substituted image."""
    if e.is_zero():
        raise ZeroElement("the zero element has no J-valuation")
    return min(k[0] for k in rho(expand(e)))


def _column_images(ell: int, support: tuple, qmax: int):
    """Per-monomial substituted images, truncated at q-degree qmax.

    The cache keeps the widest truncation seen for each (ell, support).
    """
    key = (ell, support)
    hit = _image_cache.get(key)
    if hit is not None and hit[0] >= qmax:
        if hit[0] == qmax:
            return hit[1]
        return [{k: v for k, v in img.items() if k[0] <= qmax} for img in hit[1]]
    images = [rho(dict(_expand_monomial(ell, m, n)), qmax=qmax) for (m, n) in support]
    _image_cache[key] = (qmax, images)
    return images


def subspace_vectors(ell: int, support, k: int) -> list[list[int]]:
    """Nullspace vectors of the q^0..q^(k-1) coefficient map on the span of support."""
    support = tuple(support)
    ncols = len(support)
    if k <= 0:
        return [[1 if i == j else 0 for i in range(ncols)] for j in range(ncols)]
    images = _column_images(ell, support, qmax=k - 1)
    ech = IntEchelon(ncols)
    for mk in sorted({mk for img in images for mk in img if mk[0] < k}):
        ech.insert([int(img.get(mk, 0)) for img in images])
    return fraction_nullspace(ech)


def general_subspace_dim(cols: list, k: int) -> int:
    """dim of span(cols) ∩ J^(k) for linearly independent columns."""
    keys = sorted({mk for col in cols for mk in col.coeffs})
    indep = IntEchelon(len(cols))
    den = 1
    for col in cols:
        for c in col.coeffs.values():
            den = den * c.denominator // gcd(den, c.denominator)
    for mk in keys:
        indep.insert([int(col.coeffs.get(mk, 0) * den) for col in cols])
    if not indep.full_rank():
        raise InvariantViolation("subspace columns are linearly dependent", {})
    if k <= 0:
        return len(cols)
    images = [rho(expand(col), qmax=k - 1) for col in cols]
    row_keys = sorted({mk for img in images for mk in img if mk[0] < k})
    ech = IntEchelon(len(cols))
    for mk in row_keys:
        row = [Fraction(img.get(mk, 0)) for img in images]
        rden = 1
        for v in row:
            rden = rden * v.denominator // gcd(rden, v.denominator)
        ech.insert([int(v * rden) for v in row])
    return len(fraction_nullspace(ech))


def s_subspace_dim(two_ell: int, k: int) -> int:
    """dim of the degree-2l part of Q[F,M,N] meeting J^(k), by substitution."""
    F, M, N = (named_element(name) for name in "FMN")
    ell = two_ell // 2
    cols = [F ** (ell - 2 * m - 3 * n) * M**m * N**n for (m, n) in basis_of(ell)]
    return general_subspace_dim(cols, k)


# -- (T, A, B) coordinates by the product recursion ---------------------------

# 3F = 4A - T^2 and 27 G0 = T^3 - 3TA - B on T^a A^b B^c, keyed (b, c); the
# power of T is implied by the degree
_3F_TAB = {(0, 0): -1, (1, 0): 4}
_27G0_TAB = {(0, 0): 1, (1, 0): -3, (0, 1): -1}
_tab_cache: dict = {(0, 0): {(0, 0): 1}}


def tab_monomial(m: int, n: int) -> dict:
    """(3F)^m * (27 G0)^n on the (b, c) keys, built from cached neighbours."""
    hit = _tab_cache.get((m, n))
    if hit is None:
        hit = (mul_keyed(tab_monomial(m - 1, n), _3F_TAB) if m
               else mul_keyed(tab_monomial(0, n - 1), _27G0_TAB))
        _tab_cache[(m, n)] = hit
    return hit


def scaled_coordinates(coeffs: dict) -> tuple[dict, int]:
    """3^w times the (T, A, B) coordinates of an integer combination, and w."""
    w = max((m + 3 * n for m, n in coeffs), default=0)
    out: dict = {}
    for (m, n), c in coeffs.items():
        c *= 3 ** (w - m - 3 * n)
        for key, v in tab_monomial(m, n).items():
            out[key] = out.get(key, 0) + c * v
    return {key: v for key, v in out.items() if v}, w


def tab_coordinates(e) -> dict:
    """The element on T^(l-2b-3c) A^b B^c as {(b, c): Fraction}, zeros dropped."""
    den = 1
    for c in e.coeffs.values():
        den = den * c.denominator // gcd(den, c.denominator)
    coords, w = scaled_coordinates({key: int(c * den) for key, c in e.coeffs.items()})
    return {key: Fraction(v, den * 3**w) for key, v in coords.items()}


def support_columns(support) -> list[dict]:
    """Integer (T, A, B) columns of a support's monomials at one scale 3^w, all rows."""
    w = max(m + 3 * n for m, n in support)
    return [scaled_coordinates({(m, n): 3 ** (w - m - 3 * n)})[0] for (m, n) in support]


def recursion_subspace_vectors(ell: int, support, k: int) -> list[list[int]]:
    """Nullspace vectors of the weight-below-k rows of `support_columns`."""
    cols = support_columns(tuple(support))
    ech = IntEchelon(len(cols))
    for b, c in sorted({bc for col in cols for bc in col if 2 * bc[0] + 3 * bc[1] < k}):
        ech.insert([col.get((b, c), 0) for col in cols])
    return fraction_nullspace(ech)


def s_columns(ell: int) -> list[dict]:
    """3^w times the (T, A, B) coordinates of each F^(l-2m-3n) M^m N^n, all rows.

    w is the largest m' + 3n' over the product's (m', n') keys, e + 3m + 6n.
    """
    F, M, N = (named_element(name) for name in "FMN")
    products = [F ** (ell - 2 * m - 3 * n) * M**m * N**n for (m, n) in basis_of(ell)]
    return [scaled_coordinates({key: int(c) for key, c in p.coeffs.items()})[0]
            for p in products]


# -- log layer (mpmath intervals) ----------------------------------------

LOG_PREC = 64
LOG_PREC_CEILING = 1 << 14
DECIMAL_PREC = 80
# mpmath's default precision, the one recorded reports render these at
MID_PREC = 53

_contexts: dict[int, MPIntervalContext] = {}


def _context(prec: int) -> MPIntervalContext:
    ctx = _contexts.get(prec)
    if ctx is None:
        ctx = _contexts[prec] = MPIntervalContext()
        ctx.prec = prec
    return ctx


# the context `log_abs` and `rational` build in: LOG_PREC, or the precision
# of the `evaluate` call in progress
_work = _context(LOG_PREC)


def _int(ctx, n: int):
    """Enclosure of an arbitrary-size integer at the context's precision."""
    return ctx.make_mpf((libmp.from_int(n, ctx.prec, "f"),
                         libmp.from_int(n, ctx.prec, "c")))


def _fraction(ctx, x):
    x = Fraction(x)
    return _int(ctx, x.numerator) / _int(ctx, x.denominator)


def _hull(ctx, interval: Interval):
    return ctx.make_mpf((_fraction(ctx, interval.lo)._mpi_[0],
                         _fraction(ctx, interval.hi)._mpi_[1]))


def log_abs(n: int):
    """Enclosure of log|n| at the working precision."""
    if n == 0:
        raise ValueError("log of zero")
    return _work.ln(_int(_work, abs(n)))


def rational(x):
    """Enclosure of a rational at the working precision."""
    return _fraction(_work, x)


def evaluate(builder, prec: int):
    """`builder()` with `log_abs` and `rational` enclosing at `prec` bits.

    Arithmetic on the enclosures they return stays at that precision.
    """
    global _work
    outer, _work = _work, _context(prec)
    try:
        return builder()
    finally:
        _work = outer


def decide_sign(builder, what: str = "sign") -> int:
    """Certified sign (+1/-1) of a quantity built at escalating precision.

    `builder()` must reconstruct the quantity from exact data through
    `log_abs` and `rational`.  Exact zeros cannot be certified here; the
    caller aborts.
    """
    prec = LOG_PREC
    while True:
        val = evaluate(builder, prec)
        if val.a > 0:
            return 1
        if val.b < 0:
            return -1
        if prec >= LOG_PREC_CEILING:
            raise Undecidable(f"{what} still ambiguous at {prec} bits")
        prec *= 2


def mid_str(x, digits: int = 15, prec: int | None = None) -> str:
    """Decimal of an enclosure's midpoint, rounded to `prec` bits (default x's)."""
    return libmp.to_str(libmp.mpi_mid(x._mpi_, prec or x.ctx.prec), digits)


def decimal(interval: Interval, digits: int = 15) -> str:
    """Decimal rendering of a rational enclosure, at DECIMAL_PREC."""
    return mid_str(_hull(_context(DECIMAL_PREC), interval), digits)


def log_ratio(num: int, den: int) -> str:
    """log|num| / log|den| at LOG_PREC, as the decimal of its midpoint."""
    return mid_str(evaluate(lambda: log_abs(num) / log_abs(den), LOG_PREC))


def lambda_hat(err: Interval, x_next: int) -> tuple[Interval, str]:
    """Enclosure of log(1/L) / log X for a positive enclosure of L, and its mid.

    The enclosure is computed at LOG_PREC; the midpoint is rendered at
    MID_PREC.
    """
    ctx = _context(LOG_PREC)
    lam = -ctx.ln(_hull(ctx, err)) / ctx.ln(_int(ctx, x_next))
    a, b = lam._mpi_
    enclosure = Interval(Fraction(*libmp.to_rational(a)),
                         Fraction(*libmp.to_rational(b)))
    return enclosure, mid_str(lam, prec=MID_PREC)
