"""Minimal points for (1, xi, xi^3) and the exact invariants of their pairs.

A minimal point is a record-setter: an integer triple whose approximation
error L(x) = max(|x1 - x0*xi|, |x2 - x0*xi^3|) is smaller than that of every
nonzero triple of smaller sup-norm, with L < 1/2.  The sequence is found one
record at a time by a lattice search, and the argument that it is complete:

* L < 1/2 forces x1 and x2 to be the nearest integers to x0*xi and x0*xi^3,
  so each leading coordinate x0 >= 1 has at most one triple with L < 1/2
  (x0 = 0 gives L >= 1, and L(-x) = L(x)).
* The norms of those triples increase strictly with x0: all three
  coordinates are nondecreasing in x0 and one is strict, for any xi with
  |xi| != 1.  So the minimal points are the records of a sweep over x0,
  each the triple of least x0 > x_i0 with L < L(x_i).  That sweep, one
  candidate per x0, is kept in tests/oracle.py as the reference; here a
  guard turns a violated premise into an abort instead of a wrong sequence.
* The box is a superset.  With S the scale of a rung, a_k and a_k + w_k
  the integer enclosure of S*xi^k, and e_hi the upper end of the
  enclosure of S*L(x_i), every triple with x0 <= Y and L(x) < L(x_i) has
  |x0*a_k - S*x_k| <= e_hi + Y*w_k for k = 1, 3 (x_k is x1 or x2).  Its
  points are decided in ascending x0 and the first that passes is the next
  record.  For the first record L(x_i) reads 1/2, and x0 = 1 passes for
  any irrational xi.
* Minkowski's theorem bounds Y.  The body |x0| <= Y, |x0*xi - x1| <= L(x_i),
  |x0*xi^3 - x2| <= L(x_i) is convex, symmetric and of volume
  8*Y*L(x_i)^2, at least 8 once Y >= 1/L(x_i)^2, so its first successive
  minimum is lambda1 <= 1.  If lambda1 < 1, the point that reaches it lies
  inside the body, so it is not +-x_i, which lies on the boundary.  If
  lambda1 = 1, Minkowski's second theorem (lambda1*lambda2*lambda3 <= 1
  for this volume) gives lambda2 <= 1 as well, and of two independent
  points one is not +-x_i.  Either way some triple other than +-x_i has
  x0 <= Y and L <= L(x_i); the independence of 1, xi, xi^3 makes that
  inequality strict, and its x0 exceeds x_i0 because x_i is a record.  So
  the box with Y = floor(S^2/e_lo^2) + 2, e_lo > 0 the lower end of the
  enclosure of S*L(x_i), holds the next record, unless Y had to be capped
  at `limit`, the largest x0 whose triple can meet the norm bound; when
  e_lo is 0, Y is that cap.  Either way one box per record settles it.

The box is a cube of the lattice (x0*R, (x0*a1 - S*x1)*Y, (x0*a3 - S*x2)*Y),
with the low bits of a_k and S it does not need shifted away, at most S's
zero low bits, and its bounds rounded outward.  Its points come from an
integral LLL reduction (Lenstra, Lenstra & Lovasz, Math. Ann. 261, 1982,
in Cohen's d/lambda form) that starts from the previous box's reduced
basis, and a Fincke-Pohst enumeration (Math. Comp. 44, 1985) of the ball
around the cube, in integers only.  The work is bounded twice.  A box is enumerated only at a precision
where the number of lattice points it should hold, about
4*Y*b1*b3/S^2 with half-widths b_k = e_hi + Y*w_k, is at most 24; and an
enumeration that meets more than BOX_CAP lattice points, as a box around
a nearly rational literal can, is given up.  Either way the precision
doubles, and the ceiling raises PrecisionError.

Each record test compares integer enclosures of S * L at the base
precision, with the current record's enclosure computed once per record.
An integer verdict is final, because the true values lie inside those
enclosures; a comparison they leave open is put again on the same integer
enclosures at escalating precision (RealContext.decide).  Nothing is ever
settled by a midpoint guess.

A literal's last rung is its exact cell, where RealContext.decide stops
(see realctx), so S is an even integer, not always a power of 2.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from math import gcd, isqrt

from .errors import (DependenceError, InvariantViolation, NotInSpan, PrecisionError,
                     UsageError)
from .forms import pair_values
from .intervals import Interval, _fixed_less
from .linalg import _lll
from .realctx import DecimalXi, RealContext, approx_error, delta_of, scaled_error
from .vectors import (Vec3, content, cross, det3, euclid_norm_sq, sup_norm, vadd,
                      vscale)

# bits of the box's scale kept above its x0 range when low bits are shifted away
SHIFT_GUARD = 8
# lattice points one enumeration may meet before it is given up
BOX_CAP = 1 << 17


class MinimalPoint(namedtuple("MinimalPoint", "index point norm err delta")):
    """The `index`-th minimal point (1-based).

    `point` is normalized with x0 >= 1, `norm` is its exact sup-norm, `err`
    an enclosure of L(point) with upper end < 1/2, and `delta` an enclosure
    of the contact form at the point.
    """

    __slots__ = ()


class PairRecord(namedtuple("PairRecord", (
        "i j x_i x_ip1 x_j p q s t u v a b f d2 d3 d6 height_sq "
        "norm_i norm_ip1 norm_j"))):
    """One consecutive pair i < j of the independence set, with exact invariants.

    `height_sq` is the squared Euclidean norm of x_i ^ x_{i+1}.
    """

    __slots__ = ()


def candidate_for(x0: int, ctx: RealContext) -> Vec3:
    """The unique best triple with leading coordinate x0: nearest-integer coords."""
    if x0 < 1:
        raise ValueError("x0 must be >= 1")
    return (x0, ctx.nearest_to_multiple(x0, 1), ctx.nearest_to_multiple(x0, 3))


def _record_error(rung: tuple, prev: Vec3 | None) -> tuple[int, int]:
    """scaled_error(prev, rung), or 1/2 at the rung's scale S before the first record."""
    return scaled_error(prev, rung) if prev else (rung[0] >> 1,) * 2


def _err_less(ctx: RealContext, x: Vec3, y: Vec3 | None, ex: tuple[int, int],
              ey: tuple[int, int]) -> bool:
    """L(x) < L(y) (1/2 for y None), given their enclosures ex, ey at the base precision."""
    verdict = _fixed_less(ex, ey)
    if verdict is None:
        verdict = ctx.decide(lambda b: _fixed_less(scaled_error(x, ctx.rung(b)),
                                                   _record_error(ctx.rung(b), y)),
                             what=f"L{x} < L{y}" if y else f"L{x} < 1/2")
    return verdict


def _x0_limit(ctx: RealContext, norm_bound: int) -> int:
    # |x2| >= x0*|xi^3| - 1/2, so x0 beyond (norm_bound + 1/2)/|xi^3| cannot fit;
    # c <= S * |xi^3| as the enclosure is rounded outward
    scale, _, _, (lo, hi) = ctx.rung()
    c = max(lo, -hi)
    if c <= scale:
        return norm_bound
    return min(norm_bound, (2 * norm_bound + 1) * scale // (2 * c))


def minimal_sequence(ctx: RealContext, norm_bound: int) -> list[MinimalPoint]:
    """All minimal points of sup-norm <= norm_bound, in order.

    Raises DependenceError when 1, xi, xi^3 are provably dependent; decimal
    specs only warn (independence cannot be decided from a literal).
    """
    if norm_bound < 1:
        raise UsageError("norm_bound must be >= 1")
    if ctx.dependent:
        raise DependenceError(
            f"{ctx.describe()}: 1, xi, xi^3 are linearly dependent ({ctx.dependence_reason})"
        )
    ctx.warn_if_assumed()

    limit = _x0_limit(ctx, norm_bound)
    records: list[tuple[int, Vec3]] = []  # (norm, point)
    basis = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]  # reduced from one box to the next
    while True:
        pt = _next_record(ctx, records[-1][1] if records else None, limit,
                          norm_bound, basis)
        if pt is None:
            break
        n = sup_norm(pt)
        if records and n <= records[-1][0]:
            raise InvariantViolation("candidate norms failed to increase", {"point": pt})
        records.append((n, pt))

    out: list[MinimalPoint] = []
    for idx, (n, pt) in enumerate(records, start=1):
        if content(pt) != 1:
            raise InvariantViolation("minimal point is not primitive",
                                     {"point": pt, "content": content(pt)})
        err = ctx.decide(lambda bits, p=pt: _certified_err(ctx, p, bits),
                         what=f"certified L{pt}")
        out.append(MinimalPoint(idx, pt, n, err, delta_of(pt, ctx)))
    return out


def _certified_err(ctx: RealContext, pt: Vec3, bits: int) -> Interval | None:
    iv = approx_error(pt, ctx, bits)
    _, num_hi, den = iv.integers
    return iv if 2 * num_hi < den else None  # hi < 1/2


def _next_record(ctx: RealContext, prev: Vec3 | None, limit: int, norm_bound: int,
                 basis: list[list[int]]) -> Vec3 | None:
    """The record after prev (the first record when prev is None), or None.

    Decides in ascending x0 the points of one box that holds every triple
    with x0 <= Y and L < L(prev) (L < 1/2 for the first).  With Y at
    Minkowski's bound that box holds the next record whenever its x0 is
    at most `limit`, so a box without one ends the sequence.  `basis` is the
    reduced basis of the last box, in coordinates (x0, x1, x2); it is
    updated in place.
    """
    done = prev[0] if prev else 0  # x0 <= done holds no better triple
    if done >= limit:
        return None
    what = f"search box after {prev}" if prev else "first search box"
    boxes = []  # (Y, bits) of every box enumerated

    def search(bits):
        rung = ctx.rung(bits)
        box = _resolved_box(rung, prev, limit)
        if box is None:
            return None
        boxes.append((box[0], bits))
        points = _box_points(rung, box[1], box[0], done, basis)
        if points is None and isinstance(ctx.spec, DecimalXi):
            # a literal's interval, and so the box, is the same at every precision
            raise PrecisionError(f"{what} holds more than {BOX_CAP} lattice points for "
                                 f"{ctx.describe()} at any precision (the literal's "
                                 "last digit is the limit)")
        return points

    points = ctx.decide(search, what=what)
    base = ctx.rung()
    prev_err = _record_error(base, prev)
    decided = 0
    found = None
    for x in points:
        if sup_norm(x) > norm_bound:
            continue
        decided += 1
        if _err_less(ctx, x, prev, scaled_error(x, base), prev_err):
            found = x
            break
    # logging costs milliseconds to import, more than a small run's search; a
    # process that never imported it has no handler that could show the line
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger(__name__).debug(
            "search after %s: next x0 %s; %d box(es) enumerated, the last x0 <= %d "
            "at %d bits, %d lattice points decided",
            prev, found and found[0], len(boxes), *boxes[-1], decided)
    return found


def _resolved_box(rung: tuple, prev: Vec3 | None, limit: int) -> tuple[int, int] | None:
    """(Y, e_hi) when the search box is worth enumerating on a rung, else None.

    e_hi is the upper end of the enclosure of S * L(prev) (S / 2 for the
    first record), S the rung's scale, and Y is _box_size's at that scale.
    """
    scale, (lo1, hi1), _, (lo3, hi3) = rung
    e_lo, e_hi = _record_error(rung, prev)
    size = _box_size(limit, e_lo, e_hi, hi1 - lo1, hi3 - lo3, scale * scale)
    return None if size is None else (size, e_hi)


def _box_size(limit: int, e_lo: int, e_hi: int, w1: int, w3: int,
              scale_sq: int) -> int | None:
    """The box's Y when it is worth enumerating, else None; all at one scale S.

    [e_lo, e_hi] encloses S * L(prev), and w_k is the width of the enclosure
    of S * xi^k, k = 1, 3; scale_sq is S^2.  Y is Minkowski's bound
    S^2 / e_lo^2 + 2, capped at limit, and limit itself when e_lo is 0.
    The box's half-widths are b_k = e_hi + Y*w_k; it is worth enumerating
    when the number of lattice points it should hold, about
    4*Y*b1*b3 / S^2, is at most 24.  A box resolved to Y*w_k <= e_hi with
    e_hi close to e_lo passes: then Y*b1*b3 <= 4*Y*e_hi^2, about
    4*Y*e_lo^2, and Minkowski's Y gives Y*e_lo^2 <= S^2 + 2*e_lo^2 <= 1.5 * S^2.

    Y grows as e_lo / S shrinks, and the count grows with Y, e_hi / S and
    w_k / S; so a box open on enclosures is open on any wider ones.
    """
    size = limit if e_lo == 0 else min(limit, scale_sq // (e_lo * e_lo) + 2)
    if size * (e_hi + size * w1) * (e_hi + size * w3) > 6 * scale_sq:
        return None
    return size


def _box_points(rung: tuple, e_hi: int, size: int, done: int,
                basis: list[list[int]]) -> list[Vec3] | None:
    """The triples with done < x0 <= size and |x0*a_k - S*x_k| <= e_hi + size*w_k.

    On a rung of even scale S, a superset of them, in ascending order: the
    bounds are rounded outward when the low bits of a_k and S are shifted
    away, no more of them than S's zero low bits.  None when the enumeration
    meets more than BOX_CAP lattice points.
    """
    scale, (a1, hi1), _, (a3, hi3) = rung
    b1, b3 = e_hi + size * (hi1 - a1), e_hi + size * (hi3 - a3)
    t = max(0, min(max(b1, b3).bit_length() - size.bit_length() - SHIFT_GUARD,
                   (scale & -scale).bit_length() - 1))
    # x0*(a >> t) - (S >> t)*x differs from (x0*a - S*x) / 2^t by less than x0
    a1, a3, s = a1 >> t, a3 >> t, scale >> t
    b1, b3 = (b1 >> t) + 1 + size, (b3 >> t) + 1 + size
    r = max(b1, b3)
    # in these coordinates the box lies in the cube of half-side r*size
    vecs = [[c0 * r, (c0 * a1 - s * c1) * size, (c0 * a3 - s * c2) * size]
            for c0, c1, c2 in basis]
    d, lam = _lll(vecs, basis)
    out = []
    for met, (c0, c1, c2) in enumerate(_short_vectors(d, lam, 3 * (r * size) ** 2)):
        if met == BOX_CAP:
            return None
        x = tuple(c0 * u + c1 * v + c2 * w for u, v, w in zip(*basis))
        if x[0] < 0:
            x = (-x[0], -x[1], -x[2])
        if (done < x[0] <= size and abs(x[0] * a1 - s * x[1]) <= b1
                and abs(x[0] * a3 - s * x[2]) <= b3):
            out.append(x)
    out.sort()
    return out


def _short_vectors(d: list[int], lam: list[list[int]], radius_sq: int):
    """Coefficients (c0, c1, c2) of the basis vectors with |sum c_i b_i|^2 <= radius_sq.

    Fincke-Pohst on the integral Gram-Schmidt data of _lll: with
    N_i = d[i+1]*c_i + sum_{j>i} lam[j][i]*c_j, the squared length times
    d1*d2*d3 is d2*d3*N_0^2 + d3*N_1^2 + d1*N_2^2, so every bound is an
    integer square root.  One of each pair +-c is given (the first nonzero
    of c2, c1, c0 positive), the zero vector not at all.
    """
    d1, d2, d3 = d[1], d[2], d[3]
    l10, l20, l21 = lam[1][0], lam[2][0], lam[2][1]
    budget = radius_sq * d1 * d2 * d3
    for c2 in range(isqrt(budget // (d1 * d3 * d3)) + 1):
        rest2 = budget - d1 * (d3 * c2) ** 2
        m1 = isqrt(rest2 // d3)
        lo1 = 0 if c2 == 0 else -((m1 + l21 * c2) // d2)
        for c1 in range(lo1, (m1 - l21 * c2) // d2 + 1):
            n1 = d2 * c1 + l21 * c2
            m0 = isqrt((rest2 - d3 * n1 * n1) // (d2 * d3))
            s0 = l10 * c1 + l20 * c2
            lo0 = 1 if c2 == c1 == 0 else -((m0 + s0) // d1)
            for c0 in range(lo0, (m0 - s0) // d1 + 1):
                yield c0, c1, c2


def independence_set(seq: list[MinimalPoint]) -> list[int]:
    """1-based indices i with det(x_{i-1}, x_i, x_{i+1}) != 0."""
    if len(seq) < 3:
        raise ValueError("need at least 3 minimal points")
    out = []
    for i in range(2, len(seq)):
        if det3(seq[i - 2].point, seq[i - 1].point, seq[i].point) != 0:
            out.append(i)
    return out


def _component_ratio(num: Vec3, den: Vec3) -> int:
    """k with num == k*den, or raise NotInSpan."""
    k = None
    for a, b in zip(num, den):
        if b == 0:
            if a != 0:
                raise NotInSpan(f"{num} is not a multiple of {den}")
            continue
        q, r = divmod(a, b)
        if r != 0 or (k is not None and q != k):
            raise NotInSpan(f"{num} is not a multiple of {den}")
        k = q
    if k is None:
        raise NotInSpan("cannot divide by the zero vector")
    return k


def decompose_pair(x_i: Vec3, x_ip1: Vec3, x_j: Vec3) -> tuple[int, int]:
    """Exact (p, q) with x_j = p*x_i + q*x_ip1.

    Uses the cross-product ratios x_i ^ x_j = q*(x_i ^ x_ip1) and
    x_j ^ x_ip1 = p*(x_i ^ x_ip1), then verifies the decomposition exactly.
    """
    base = cross(x_i, x_ip1)
    if base == (0, 0, 0):
        raise NotInSpan("x_i and x_ip1 are linearly dependent")
    q = _component_ratio(cross(x_i, x_j), base)
    p = _component_ratio(cross(x_j, x_ip1), base)
    if vadd(vscale(p, x_i), vscale(q, x_ip1)) != x_j:
        raise NotInSpan(f"{x_j} has no integer decomposition in ({x_i}, {x_ip1})")
    if content(x_j) == 1 and gcd(p, q) != 1:
        raise InvariantViolation("decomposition of a primitive point not coprime",
                                 {"p": p, "q": q, "x_j": x_j})
    return p, q


def pair_record(i: int, j: int, x_i: Vec3, x_ip1: Vec3, x_j: Vec3,
                norm_i: int, norm_ip1: int, norm_j: int) -> PairRecord:
    p, q = decompose_pair(x_i, x_ip1, x_j)
    s, t, u, v = pair_values(x_i, x_j)
    # D2, D3 and D6 share the powers of T, F and S^2 V
    t2, su, sv = t * t, s * u, s * s * v
    t3, sv2 = t2 * t, sv * sv
    a = t2 - 3 * su
    b = t3 - 3 * t * a - 27 * sv
    f = t2 - 4 * su
    f3, tf = f * f * f, t * f
    d2 = f3 + 27 * sv2
    d3 = f3 - 18 * tf * sv - 135 * sv2
    d6 = tf * f3 + 10 * f3 * sv - 11 * tf * tf * sv - 180 * tf * sv2 - t3 * sv2 - 675 * sv2 * sv
    return PairRecord(i, j, x_i, x_ip1, x_j, p, q, s, t, u, v, a, b, f, d2, d3, d6,
                      euclid_norm_sq(cross(x_i, x_ip1)), norm_i, norm_ip1, norm_j)


def build_pair_records(seq: list[MinimalPoint], indep: list[int]) -> list[PairRecord]:
    """One record per consecutive pair of the independence set."""
    out = []
    for i, j in zip(indep, indep[1:]):
        out.append(pair_record(
            i, j, seq[i - 1].point, seq[i].point, seq[j - 1].point,
            seq[i - 1].norm, seq[i].norm, seq[j - 1].norm,
        ))
    for rec, nxt in zip(out, out[1:]):
        if rec.v != nxt.s:
            raise InvariantViolation("V of a pair must equal S of the next pair",
                                     {"pair": (rec.i, rec.j), "next": (nxt.i, nxt.j)})
    return out


def pair_checks(rec: PairRecord) -> dict[str, bool]:
    """The exact divisibility and congruence verdicts for one pair."""
    q = rec.q
    if q == 0:
        return {"coprime_pq": False}
    checks = {
        "coprime_pq": gcd(rec.p, q) == 1,
        "congruence_t": (rec.t - 3 * rec.p * rec.s) % q == 0,
        "congruence_u": (rec.u - 3 * rec.p * rec.p * rec.s) % q == 0,
        "congruence_v": (rec.v - rec.p**3 * rec.s) % q == 0,
        "gcd_sv": gcd(q, rec.s) == gcd(q, rec.v),
        "q2_divides_a": rec.a % q**2 == 0,
        "q3_divides_b": rec.b % q**3 == 0,
        "q2_divides_d2": rec.d2 % q**2 == 0,
        "q3_divides_d3": rec.d3 % q**3 == 0,
        "q6_divides_d6": rec.d6 % q**6 == 0,
        "cross_primitive": content(cross(rec.x_i, rec.x_ip1)) == 1,
        "cross_ratio": cross(rec.x_i, rec.x_j)
        == vscale(q, cross(rec.x_i, rec.x_ip1)),
    }
    if rec.d2 != 0:
        checks["bound_d2"] = abs(q) ** 2 <= abs(rec.d2)
    if rec.d3 != 0:
        checks["bound_d3"] = abs(q) ** 3 <= abs(rec.d3)
    if rec.d6 != 0:
        checks["bound_d6"] = abs(q) ** 6 <= abs(rec.d6)
    return checks
