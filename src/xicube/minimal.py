"""Minimal points for (1, xi, xi^3) and the exact invariants of their pairs.

A minimal point is a record-setter: an integer triple whose approximation
error L(x) = max(|x1 - x0*xi|, |x2 - x0*xi^3|) is smaller than that of every
nonzero triple of smaller sup-norm, with L < 1/2.  Because L < 1/2 forces
x1 and x2 to be the nearest integers to x0*xi and x0*xi^3, it is enough to
scan the one candidate per leading coordinate x0; the test suite checks this
against an exhaustive search over all triples.

The scan decides each candidate on integers: its coordinates by rounding
the scaled enclosures of x0*xi and x0*xi^3 (RealContext.nearest_to_multiple),
and its record test by comparing integer enclosures of 2^bits * L at the base
precision, with the current record's enclosure computed once per record.  An
integer verdict is final, because the true values lie inside those
enclosures; a comparison they leave open is put again on the same integer
enclosures at escalating precision (RealContext.decide).  Nothing is ever
settled by a midpoint guess.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd

from .errors import DependenceError, InvariantViolation, NotInSpan
from .forms import pair_values
from .intervals import HALF, Interval
from .realctx import RealContext, approx_error, delta_of, scaled_error
from .vectors import Vec3, content, cross, det3, euclid_norm_sq, sup_norm, vadd, vscale


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


def _fixed_less(a: tuple[int, int], b: tuple[int, int]) -> bool | None:
    """Interval.strictly_less on integer enclosures (lo, hi)."""
    if a[1] < b[0]:
        return True
    if a[0] > b[1]:
        return False
    if a[0] == a[1] == b[0] == b[1]:
        return False
    return None


def _err_less_than_half(ctx: RealContext, x: Vec3, ex: tuple[int, int]) -> bool:
    """L(x) < 1/2, given ex = scaled_error(x, ctx)."""
    half = 1 << (ctx.precision_bits - 1)
    verdict = _fixed_less(ex, (half, half))
    if verdict is None:
        verdict = ctx.decide(lambda b: _fixed_less(scaled_error(x, ctx, b),
                                                   (1 << (b - 1),) * 2),
                             what=f"L{x} < 1/2")
    return verdict


def _err_less(ctx: RealContext, x: Vec3, y: Vec3, ex: tuple[int, int],
              ey: tuple[int, int]) -> bool:
    """L(x) < L(y), given ex, ey = scaled_error(x, ctx), scaled_error(y, ctx)."""
    verdict = _fixed_less(ex, ey)
    if verdict is None:
        verdict = ctx.decide(lambda b: _fixed_less(scaled_error(x, ctx, b),
                                                   scaled_error(y, ctx, b)),
                             what=f"L{x} < L{y}")
    return verdict


def _x0_limit(ctx: RealContext, norm_bound: int) -> int:
    # |x2| >= x0*|xi^3| - 1/2, so x0 beyond (norm_bound + 1/2)/|xi^3| cannot fit
    cube = abs(ctx.power(3))
    if cube.lo <= 1:
        return norm_bound
    cap = int(((Interval(norm_bound) + HALF).hi / cube.lo).__floor__()) + 1
    return min(norm_bound, cap)


def minimal_sequence(ctx: RealContext, norm_bound: int) -> list[MinimalPoint]:
    """All minimal points of sup-norm <= norm_bound, in order.

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


def _certified_err(ctx: RealContext, pt: Vec3, bits: int) -> Interval | None:
    iv = approx_error(pt, ctx, bits)
    return iv if iv.hi < HALF else None


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
    a = t * t - 3 * s * u
    b = t**3 - 3 * t * a - 27 * s * s * v
    f = t * t - 4 * s * u
    sv = s * s * v
    d2 = f**3 + 27 * sv * sv
    d3 = f**3 - 18 * t * f * sv - 135 * sv * sv
    d6 = (t * f**4 + 10 * f**3 * sv - 11 * t * t * f * f * sv
          - 180 * t * f * sv * sv - t**3 * sv * sv - 675 * sv**3)
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
