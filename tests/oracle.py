"""Independent brute-force baselines for the test suite.

The minimal-point oracle examines *every* integer triple with sup-norm up to
the bound (x0 >= 1 by the sign symmetry L(-x) = L(x); x0 = 0 forces L >= 1).
A vectorized float prefilter with a wide safety margin discards triples that
are far from the L < 1/2 region, every survivor is then confirmed or
rejected with exact interval arithmetic, and the record sweep below never
shares logic with the scan under test: no nearest-integer shortcut anywhere.
"""

from fractions import Fraction

import numpy as np

from xicube.intervals import HALF, Interval
from xicube.realctx import _eval_sign, approx_error

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

    Plain Fraction bisection: `RealContext._refine_base` must end in the
    same cell, whatever method it uses to find it.
    """
    while hi - lo > width_bound:
        mid = (lo + hi) / 2
        if _eval_sign(coeffs, mid) == sign_lo:
            lo = mid
        else:
            hi = mid
    return lo, hi


def count_lattice_points(ell):
    """tau by direct enumeration."""
    return sum(1 for m in range(ell // 2 + 1) for n in range(ell // 3 + 1)
               if 2 * m + 3 * n <= ell) if ell >= 0 else 0
