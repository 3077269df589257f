"""Linear-algebra searches over supports in the graded ring.

Three kinds of searches live here: the maximal-J-valuation element over an
arbitrary monomial support, the distinguished one-dimensional family on the
degree-(12l+2) triangle supports (valuation 6l+2) together with its parity
certificate, and the dimension theory of the subring generated by F, M, N.
Their J-valuation conditions are exact nullspaces of the (T, A, B)
coordinates of weight below k, the route `xicube.ring` describes.  The
subring's products F^e M^m N^n are built on those coordinates, and their
elimination proves them independent; only the H*P decomposition builds
products on the (m, n) keys (`_fmn_product`).

The inequality test of the exponent study is also here since it consumes
the same pair data the searches predict divisibility for.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import comb, lcm

from .errors import (DecompositionFailure, DimensionMismatch, InvalidEll,
                     InvariantViolation, UsageError)
from .linalg import solve_unique, vec_content
from .minimal import PairRecord
from .rigor import MID_PREC, decide_sign, evaluate, log_abs, mid_str, rational
from .ring import (RingElem, _subspace_vectors, basis_of, dim_profile, mul_keyed,
                   named_element, tab_columns, tab_coordinates)


class SupportSet(namedtuple("SupportSet", "d pairs")):
    """Exponents (m, n) of F^m G0^n in degree d; `pairs` lexicographic, no repeats."""

    __slots__ = ()

    def __new__(cls, d, pairs):
        if not pairs:
            raise UsageError("support must be nonempty")
        for m, n in pairs:
            if m < 0 or n < 0 or 2 * m + 3 * n > d:
                raise UsageError(f"({m},{n}) outside the degree-{d} triangle")
        return super().__new__(cls, d, tuple(sorted(set(pairs))))


class SearchResult(namedtuple("SearchResult", "k_max basis dims")):
    """The top valuation `k_max`, a `basis` there, and `dims`: probed k -> dimension."""

    __slots__ = ()

    @property
    def unique(self) -> bool:
        return len(self.basis) == 1


def maximal_j_element(support: SupportSet) -> SearchResult:
    """Largest k with a nonzero element of the span inside J^(k), with a basis.

    Binary search on k over the dimensions of one weight-ordered
    elimination (`dim_profile`); the probed dimensions are reported.  When
    the top intersection has dimension > 1 the whole basis is returned and
    `unique` is False (no canonical single element exists then).
    """
    d, pairs = support.d, support.pairs
    columns = tab_columns(pairs, d + 2)
    profile = dim_profile(columns, d + 1)[0]
    if profile[d + 1] > 0:
        raise InvariantViolation("nonzero element with valuation beyond its degree",
                                 {"d": d, "support": pairs})
    lo, hi = 0, d + 1  # profile[lo] = |support| > 0, profile[hi] = 0
    dims = {lo: len(pairs), hi: 0}
    while hi - lo > 1:
        mid = (lo + hi) // 2
        dims[mid] = profile[mid]
        lo, hi = (mid, hi) if dims[mid] > 0 else (lo, mid)
    vectors = dim_profile(columns, lo)[1].nullspace()
    basis = [RingElem(d, dict(zip(pairs, vec))) for vec in vectors]
    return SearchResult(lo, basis, dims)


def special_support(ell: int) -> SupportSet:
    """The triangle support of degree 12*ell+2 anchored at (6*ell+1, 0) and (0, 3*ell)."""
    if ell < 1:
        raise InvalidEll(f"the support family needs ell >= 1, got {ell}")
    d = 12 * ell + 2
    pairs = [
        (m, n)
        for (m, n) in basis_of(d)
        if Fraction(m, 6 * ell + 1) + Fraction(n, 3 * ell) >= 1
    ]
    return SupportSet(d, tuple(pairs))


def special_family(ell: int) -> RingElem:
    """The generator of the one-dimensional valuation-(6*ell+2) space on the support.

    Normalized to coprime integer coefficients with the (0, 3*ell) anchor
    positive; both anchor coefficients are checked nonzero.
    """
    support = special_support(ell)
    k = 6 * ell + 2
    vectors = _subspace_vectors(support.d, support.pairs, k)
    if len(vectors) != 1:
        raise DimensionMismatch(
            f"expected a one-dimensional space on E_{ell}, got dimension {len(vectors)}"
        )
    elem = RingElem(support.d, dict(zip(support.pairs, vectors[0])))
    elem = elem.integer_normalized(sign_key=(0, 3 * ell))
    for anchor in ((6 * ell + 1, 0), (0, 3 * ell)):
        if elem.coefficient(*anchor) == 0:
            raise InvariantViolation("vanishing anchor coefficient",
                                     {"ell": ell, "anchor": anchor})
    return elem


# -- the subring generated by F, M, N ----------------------------------------

# F, M and N have integer coefficients, so their products stay in integers
_FMN = {name: {key: int(c) for key, c in named_element(name).coeffs.items()}
        for name in "FMN"}
_fmn_cache: dict[tuple[int, int, int], dict[tuple[int, int], int]] = {}


def _fmn_product(e: int, m: int, n: int) -> dict[tuple[int, int], int]:
    """F^e M^m N^n on the (m, n) keys for `hp_decompose`, one factor times a cached product."""
    key = (e, m, n)
    hit = _fmn_cache.get(key)
    if hit is None:
        if e:
            hit = mul_keyed(_fmn_product(e - 1, m, n), _FMN["F"])
        elif m:
            hit = mul_keyed(_fmn_product(0, m - 1, n), _FMN["M"])
        elif n:
            hit = mul_keyed(_fmn_product(0, 0, n - 1), _FMN["N"])
        else:
            hit = {(0, 0): 1}
        _fmn_cache[key] = hit
    return hit


def _s_columns(ell: int, top: int) -> list[dict[tuple[int, int], int]]:
    """Integer (T, A, B) columns (3F)^(l-2m-3n) (9M)^m (27N)^n, rows of weight <= top.

    Each product is cut at weight top, where its rows need only those of its
    factors; a column's own power of 3 changes no rank.
    """
    powers = []
    for i, name in enumerate("FMN", 1):
        form = {bc: int(v * 3**i) for bc, v in tab_coordinates(named_element(name)).items()}
        powers.append([{(0, 0): 1}])
        for _ in range(ell // i):
            powers[-1].append(mul_keyed(powers[-1][-1], form, top))
    f, m3, n3 = powers
    return [mul_keyed(mul_keyed(f[ell - 2 * m - 3 * n], m3[m], top), n3[n], top)
            for m, n in basis_of(ell)]


def _s_profile(two_ell: int, kmax: int) -> list[int]:
    """The table row to kmax, run on to l+2, where full rank proves the products independent.

    The (T, A, B) coordinates are an injective image of the degree-2l
    elements, and the dimension formula puts full rank at l+2.
    """
    if two_ell < 0 or two_ell % 2:
        raise ValueError("degree must be even and >= 0")
    ell = two_ell // 2
    top = max(kmax, ell + 2)
    dims = dim_profile(_s_columns(ell, top), top)[0]
    if dims[ell + 2]:
        raise InvariantViolation("subspace columns are linearly dependent", {})
    return dims[:kmax + 1]


def s_subspace_dim(two_ell: int, k: int) -> int:
    """dim of the degree-2l part of Q[F,M,N] meeting J^(k).

    Columns are the products F^(l-2m-3n) M^m N^n; the computation is the
    same honest elimination as for the full ring, on their (T, A, B)
    coordinates, and that elimination also certifies them independent.
    """
    k = max(k, 0)
    return _s_profile(two_ell, k)[k]


def s_subspace_dims(two_ell: int) -> list[int]:
    """`s_subspace_dim(two_ell, k)` for k = 0..l+2, from one elimination."""
    return _s_profile(two_ell, two_ell // 2 + 2)


# -- decomposition of the H-multiplied family element -------------------------

def to_fgh(e: RingElem) -> dict[tuple[int, int, int], Fraction]:
    """Rewrite an element of the F/G/H subring on the basis F^f G^g H^h.

    A monomial T^t F^m G0^n lies in the subring iff n >= t with n - t even;
    then g = t and h = (n - t)/2.
    """
    out: dict[tuple[int, int, int], Fraction] = {}
    for (m, n), c in e.coeffs.items():
        t = e.degree - 2 * m - 3 * n
        if n < t or (n - t) % 2:
            raise DecompositionFailure(f"monomial T^{t} F^{m} G0^{n} is outside Q[F,G,H]")
        out[(m, t, (n - t) // 2)] = c
    return out


class HpDecomposition(namedtuple("HpDecomposition", "ell rst a b scale checks")):
    """H*P on the stated products, with its parity certificate.

    `rst` holds the coprime integer triples (r_k, s_k, t_k) for k = 0..ell,
    `a` the coefficient of G^(3l+2) in H*P mod H, `b` that of F^(6l+1) in
    the rescaled P, and `scale` the rescaling applied to the input element.
    """

    __slots__ = ()

    def all_pass(self) -> bool:
        return all(self.checks.values())


def hp_decompose(pl: RingElem, ell: int) -> HpDecomposition:
    """Decompose H*P on the products (F N, F^2 M, M^2) * M^(3k) N^(2l-2k).

    The triple coefficients are rescaled to coprime integers (the scaling is
    reported); all parity congruences against the binomial pattern of
    (G + F^2)^(3l+2) are checked, along with oddness of the G^(3l+2) unit a
    and of the F^(6l+1) anchor b.
    """
    d = 12 * ell + 2
    if pl.degree != d:
        raise ValueError(f"element has degree {pl.degree}, expected {d}")
    h = RingElem(6, {(0, 2): 1})
    hp = h * pl

    cols: list[dict[tuple[int, int], int]] = []
    for k in range(ell + 1):
        m, n = 3 * k, 2 * ell - 2 * k  # the tail M^m N^n
        cols += [_fmn_product(1, m, n + 1), _fmn_product(2, m + 1, n),
                 _fmn_product(0, m + 2, n)]

    keys = sorted({mk for col in cols for mk in col} | set(hp.coeffs))
    rows = [[col.get(mk, 0) for col in cols] for mk in keys]
    rhs = [hp.coeffs.get(mk, Fraction(0)) for mk in keys]
    try:
        sol = solve_unique(rows, rhs)
    except ValueError as exc:
        raise DecompositionFailure(str(exc)) from exc
    if sol is None:
        raise DecompositionFailure("H*P leaves the span of the stated products")

    den = lcm(*(c.denominator for c in sol))
    ints = [int(c * den) for c in sol]
    g = vec_content(ints)
    if g > 1:
        ints = [v // g for v in ints]
    scale = Fraction(den, g)  # > 0, so the input sign convention survives
    rst = [tuple(ints[3 * k: 3 * k + 3]) for k in range(ell + 1)]

    # unit against G^(3l+2): reduce the rescaled H*P modulo H
    fgh = to_fgh(scale * hp)
    mod_h = {key: c for key, c in fgh.items() if key[2] == 0 and c}
    if set(mod_h) != {(0, 3 * ell + 2, 0)}:
        raise DecompositionFailure(f"H*P mod H is not a multiple of G^{3 * ell + 2}")
    a_frac = mod_h[(0, 3 * ell + 2, 0)]
    b_frac = scale * pl.coefficient(6 * ell + 1, 0)
    if a_frac.denominator != 1 or b_frac.denominator != 1:
        raise InvariantViolation("unit or anchor coefficient is not an integer",
                                 {"a": str(a_frac), "b": str(b_frac)})
    a, b = int(a_frac), int(b_frac)

    m = 3 * ell + 2
    checks = {
        "a_odd": a % 2 == 1,
        "b_odd": b % 2 == 1,
        "b_parity": (b - sum(r for r, _s, _t in rst)) % 2 == 0,
        "binomial_sum": sum(comb(m, 3 * k) for k in range(ell + 1)) == (2**m - (-1) ** ell) // 3,
    }
    for k, (r, s, t) in enumerate(rst):
        checks[f"parity_r{k}"] = (r - a * comb(m, 3 * k)) % 2 == 0
        checks[f"parity_s{k}"] = (s - a * comb(m, 3 * k + 1)) % 2 == 0
        checks[f"parity_t{k}"] = (t - a * comb(m, 3 * k + 2)) % 2 == 0
    return HpDecomposition(ell, rst, a, b, scale, checks)


# -- counting and the inequality test -----------------------------------------

def lattice_triangle_count(a, b, c) -> tuple[int, Fraction, Fraction]:
    """|{(m,n) in N^2 : a*m + b*n <= c}| with its two area bounds.

    Returns (count, c^2/(2ab), (a+b+c)^2/(2ab)) and checks the sandwich.
    """
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    if a <= 0 or b <= 0 or c < 0:
        raise ValueError("a, b must be positive and c >= 0")
    count = 0
    m = 0
    while a * m <= c:
        count += int((c - a * m) / b) + 1
        m += 1
    lower = c * c / (2 * a * b)
    upper = (a + b + c) ** 2 / (2 * a * b)
    if not lower <= count <= upper:
        raise InvariantViolation("lattice count escaped its area bounds",
                                 {"a": str(a), "b": str(b), "c": str(c), "count": count})
    return count, lower, upper


def prop8_decide(t: int, f: int, sv: int, q: int, eps) -> tuple[bool, dict]:
    """Rigorously decide log|T^2/F| * log|T^3/G0| >= 6 log^2|T| - (6-eps) log^2|q|.

    All inputs are exact; the decision uses outward-rounded interval logs
    with escalation and raises Undecidable at the ceiling.  Diagnostics are
    the proof's normalized quantities f, s, t, sigma (relative to log|q|).
    """
    eps = Fraction(eps)
    if eps < 0:
        raise ValueError("eps must be >= 0")
    if t == 0 or f == 0 or sv == 0 or q == 0:
        raise ValueError("T, F, S^2V and q must all be nonzero")
    if abs(q) < 3:
        raise ValueError("needs |q| >= 3")

    def logs():
        return [log_abs(v) for v in (t, f, sv, q)]

    def diff():
        lt, lf, lsv, lq = logs()
        lhs = (2 * lt - lf) * (3 * lt - lsv)
        rhs = 6 * lt**2 - (6 - rational(eps)) * lq**2
        return lhs - rhs

    sign = decide_sign(diff, what="pair inequality")
    lt, lf, lsv, lq = evaluate(logs, MID_PREC)
    diag = {
        "f": mid_str(lf / lq),
        "s": mid_str(lsv / lq),
        "t": mid_str(lt / lq),
        "sigma": mid_str((2 * lt / lq - lf / lq) * (3 * lt / lq - lsv / lq)),
    }
    return sign > 0, diag


def prop8_inequality(rec: PairRecord, eps) -> tuple[bool, dict]:
    return prop8_decide(rec.t, rec.f, rec.s * rec.s * rec.v, rec.q, eps)
