"""Exact engine for the graded ring of pair invariants.

The ring in question is Q[T, F, G0] where T is the mixed polarization value,
F = T^2 - 4*S*U the pair discriminant and G0 = S^2*V; it sits inside
Q[S, T, U, V] as the bihomogeneous part of bidegree (2l, l).  Elements are
stored on the monomial basis

    T^(l - 2m - 3n) * F^m * G0^n,    2m + 3n <= l,

with exact rational coefficients and keys ordered lexicographically by (m, n).

The substitution y -> x + q*y acts on the generators by

    S -> S,  T -> 3S + qT,  U -> 3S + 2qT + q^2 U,  V -> S + qT + q^2 U + q^3 V,

and the largest power of q dividing the image of an element is its
J-valuation, the quantity that turns symbolic membership into integer
divisibility on minimal-point pairs.  `expand` and `rho` substitute
exactly; with them the identity suite, and this module before its first
valuation or table, certify rho(A) = q^2 A and rho(B) = q^3 B for
A = (T^2 + 3F)/4 and B = (T^3 - 9TF - 108 G0)/4.  Every sparse sum and
product here, on (m, n), (b, c) or (q, S, T, U, V) keys, is `lin` or `mul`.

Hence the closed form.  Through F = (4A - T^2)/3 and G0 = (T^3 - 3TA - B)/27
an element lies on the monomials T^(l-2b-3c) A^b B^c, which rho maps to
(3S + qT)^(l-2b-3c) q^(2b+3c) A^b B^c.  As S, A, B are algebraically
independent, the J-valuation is the least weight 2b + 3c over that support,
and the subspace cut out by a bound k is the exact nullspace of the
coordinates of weight below k.  With T implicit, (3F)^m (27 G0)^n is
(4A - 1)^m (1 - 3A - B)^n, whose A^b B^c coefficient

    (-1)^c C(n, c) [u^b] (4u - 1)^m (1 - 3u)^(n-c)

is needed for b < (k - 3c)/2 only.  On a subset support one weight-ordered
elimination of those rows (`dim_profile`) gives the dimensions for every k
up to a bound, and the echelon form whose nullspace is the subspace at that
bound.  On the whole of `basis_of(l)` no column is built.  Column (m, n),
3^(w-m-3n) (4A - 1)^m (1 - 3A - B)^n, has its rows (b, c) at c <= n and
b + c <= m + n, so at keys of `basis_of(l)`, and the last of them in the
order (c, b) is (m, n), with the entry (-1)^n 4^m 3^(w-m-3n).  So the
coordinate map of degree l is triangular with a nonzero diagonal, a
bijection onto the keys, and the elements with no coordinate of weight
below k are the preimage of the keys of weight >= k: the dimension counts
those keys (`j_subspace_dims`).  `_certify_closed_form` checks the premises
once per process.  The triangular check on built columns, the truncated
substitution engine and the product recursion for the coordinates are the
references in tests/oracle.py.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, lcm, prod
from operator import add

from .errors import InvariantViolation, ZeroElement
from .forms import pair_values
from .linalg import IntEchelon
from .vectors import Vec3

# monomial keys for expanded polynomials: (e_q, e_S, e_T, e_U, e_V)
ExpandedPoly = dict[tuple[int, int, int, int, int], Fraction]


def tau(ell: int) -> int:
    """Number of pairs (m, n) in N^2 with 2m + 3n <= ell; 0 for negative ell.

    With k = ell - 2m - 3n these are the partitions k + 2m + 3n of ell into
    parts 1, 2 and 3, whose number is the integer nearest (ell + 3)^2 / 12.
    """
    return ((ell + 3) ** 2 + 6) // 12 if ell >= 0 else 0


def basis_of(ell: int) -> list[tuple[int, int]]:
    """All (m, n) with 2m + 3n <= ell, in lexicographic order."""
    if ell < 0:
        raise ValueError("degree must be >= 0")
    return [(m, n) for m in range(ell // 2 + 1) for n in range((ell - 2 * m) // 3 + 1)]


def lin(*terms) -> dict:
    """The sum of s * p over the terms (s, p), p sparse on exponent tuples; zeros dropped."""
    out: dict = {}
    for s, p in terms:
        for key, v in p.items():
            out[key] = out.get(key, 0) + s * v
    return {key: v for key, v in out.items() if v}


def mul(p: dict, r: dict) -> dict:
    """The product of polynomials sparse on exponent tuples of one length; zeros dropped."""
    out: dict = {}
    for k1, c1 in p.items():
        for k2, c2 in r.items():
            k = tuple(map(add, k1, k2))
            out[k] = out.get(k, 0) + c1 * c2
    return {k: v for k, v in out.items() if v}


class RingElem:
    """A homogeneous element of degree `degree`, sparse over the (m, n) basis."""

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree: int, coeffs=None):
        if degree < 0:
            raise ValueError("degree must be >= 0")
        self.degree = degree
        self.coeffs: dict[tuple[int, int], Fraction] = {}
        for (m, n), c in (coeffs or {}).items():
            if 2 * m + 3 * n > degree or m < 0 or n < 0:
                raise ValueError(f"key {(m, n)} invalid in degree {degree}")
            c = Fraction(c)
            if c:
                self.coeffs[(m, n)] = c

    def __repr__(self):
        return f"RingElem({self.serialize()!r})"

    def __eq__(self, other):
        return (isinstance(other, RingElem) and self.degree == other.degree
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.degree, frozenset(self.coeffs.items())))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "RingElem") -> "RingElem":
        if self.degree != other.degree:
            raise ValueError("cannot add elements of different degrees")
        return RingElem(self.degree, lin((1, self.coeffs), (1, other.coeffs)))

    def __sub__(self, other: "RingElem") -> "RingElem":
        return self + (-1) * other

    def __mul__(self, other):
        if isinstance(other, RingElem):
            return RingElem(self.degree + other.degree, mul(self.coeffs, other.coeffs))
        return RingElem(self.degree, lin((Fraction(other), self.coeffs)))

    __rmul__ = __mul__

    def coefficient(self, m: int, n: int) -> Fraction:
        return self.coeffs.get((m, n), Fraction(0))

    def integer_normalized(self, sign_key: tuple[int, int] | None = None) -> "RingElem":
        """Scale to coprime integer coefficients.

        The sign is pinned so the coefficient at `sign_key` is positive, or,
        by default, the first nonzero coefficient in lexicographic key order.
        """
        if self.is_zero():
            return self
        den = lcm(*(c.denominator for c in self.coeffs.values()))
        ints = {k: int(c * den) for k, c in self.coeffs.items()}
        g = gcd(*ints.values())
        if g > 1:
            ints = {k: v // g for k, v in ints.items()}
        if sign_key is None:
            sign_key = min(ints)
        lead = ints.get(sign_key, 0)
        if lead == 0:
            raise ValueError(f"sign key {sign_key} has zero coefficient")
        if lead < 0:
            ints = {k: -v for k, v in ints.items()}
        return RingElem(self.degree, ints)

    def serialize(self) -> str:
        """Textual form 'deg=l; (m,n):num/den; ...' with lexicographic keys."""
        parts = [f"deg={self.degree}"]
        for (m, n) in sorted(self.coeffs):
            c = self.coeffs[(m, n)]
            parts.append(f"({m},{n}):{c.numerator}/{c.denominator}")
        return "; ".join(parts)


_NAMED: dict[str, tuple[int, dict]] = {
    "T": (1, {(0, 0): 1}),
    "F": (2, {(1, 0): 1}),
    "S2V": (3, {(0, 1): 1}),
    # 4A = T^2 + 3F and 4B = T^3 - 9TF - 108*S^2V
    "A": (2, {(0, 0): Fraction(1, 4), (1, 0): Fraction(3, 4)}),
    "B": (3, {(0, 0): Fraction(1, 4), (1, 0): Fraction(-9, 4), (0, 1): -27}),
    "M": (4, {(2, 0): 1, (0, 1): -3}),
    "N": (6, {(3, 0): 1, (1, 1): -18, (0, 2): -135}),
    "D2": (6, {(3, 0): 1, (0, 2): 27}),
    "D3": (6, {(3, 0): 1, (1, 1): -18, (0, 2): -135}),
    "D6": (9, {(4, 0): 1, (3, 1): 10, (2, 1): -11, (1, 2): -180, (0, 2): -1, (0, 3): -675}),
}


def named_element(name: str) -> RingElem:
    """The distinguished elements T, F, S2V, A, B, M, N(=D3), D2, D3, D6."""
    try:
        degree, coeffs = _NAMED[name]
    except KeyError:
        raise ValueError(f"unknown element {name!r}; choose from {sorted(_NAMED)}") from None
    return RingElem(degree, coeffs)


# -- expansion to Q[S,T,U,V] -------------------------------------------------

def _expand_monomial(ell: int, m: int, n: int) -> dict:
    """Expansion of T^(ell-2m-3n) * F^m * G0^n with F -> T^2 - 4SU, G0 -> S^2 V."""
    e = ell - 2 * m - 3 * n
    return {(0, j + 2 * n, e + 2 * (m - j), j, n): comb(m, j) * (-4) ** j for j in range(m + 1)}


def expand(e: RingElem) -> ExpandedPoly:
    """The unique representation of the element in Q[S, T, U, V] (q-free keys)."""
    return lin(*((c, _expand_monomial(e.degree, m, n)) for (m, n), c in e.coeffs.items()))


def shift_q(p: ExpandedPoly, k: int) -> ExpandedPoly:
    """q^k times an expanded polynomial."""
    return mul({(k, 0, 0, 0, 0): 1}, p)


# -- the substitution y -> x + q*y -------------------------------------------

# images of S, T, U, V, keyed (e_q, e_S, e_T, e_U, e_V)
_GEN_IMAGES: tuple[ExpandedPoly, ...] = (
    {(0, 1, 0, 0, 0): 1},
    {(0, 1, 0, 0, 0): 3, (1, 0, 1, 0, 0): 1},
    {(0, 1, 0, 0, 0): 3, (1, 0, 1, 0, 0): 2, (2, 0, 0, 1, 0): 1},
    {(0, 1, 0, 0, 0): 1, (1, 0, 1, 0, 0): 1, (2, 0, 0, 1, 0): 1, (3, 0, 0, 0, 1): 1},
)


def rho(p: ExpandedPoly) -> ExpandedPoly:
    """Apply the substitution to a q-free expanded polynomial, exactly."""
    terms = []
    for key, coeff in p.items():
        if key[0]:
            raise ValueError("input must be free of q")
        img: ExpandedPoly = {(0, 0, 0, 0, 0): 1}
        for gen, e in zip(_GEN_IMAGES, key[1:]):
            for _ in range(e):
                img = mul(img, gen)
        terms.append((coeff, img))
    return lin(*terms)


# -- the (T, A, B) coordinates ------------------------------------------------

_certified = False


def _certify_closed_form() -> None:
    """Check once the premises of the closed form and of the counted tables; else raise.

    rho(A) = q^2 A, rho(B) = q^3 B, 3F = 4A - T^2 and 27 G0 = T^3 - 3TA - B;
    `tab_columns` gives 4A - 1 and 1 - 3A - B for 3F and 27 G0, and
    lowest-weight terms 1, A and B, single monomials, for 3F, 9M and 27N.
    The checks run on the integer multiples 4A, 4B, 3F, 27 G0, 9M and 27N,
    T implicit in their keys; a multiple that is not integral is refused.
    """
    global _certified
    if _certified:
        return
    ints = {}
    for name, s in (("A", 4), ("B", 4), ("F", 3), ("S2V", 27), ("M", 9), ("N", 27)):
        degree, coeffs = _NAMED[name]
        if any((s * c).denominator != 1 for c in coeffs.values()):
            raise InvariantViolation(f"{s} * {name} is not integral", {})
        ints[name] = degree, {key: int(s * c) for key, c in coeffs.items() if c}
    for name, w in (("A", 2), ("B", 3)):
        degree, p = ints[name]
        x = lin(*((c, _expand_monomial(degree, m, n)) for (m, n), c in p.items()))
        if rho(x) != shift_q(x, w):
            raise InvariantViolation(f"rho({name}) is not q^{w} * {name}", {})
    a4, b4, f3, g27 = (ints[name][1] for name in ("A", "B", "F", "S2V"))
    t = {(0, 0): 1}  # so are T^2 and T^3, and TA is A: T is implicit in the keys
    if f3 != lin((1, a4), (-1, t)) or lin((4, g27)) != lin((4, t), (-3, a4), (-1, b4)):
        raise InvariantViolation("3F is not 4A - T^2 or 27 G0 is not T^3 - 3TA - B", {})
    _certified = True  # so that tab_columns does not re-enter this check
    try:
        f3, g27, m9, n27 = (_int_coordinates(*ints[name]) for name in ("F", "S2V", "M", "N"))
    finally:
        _certified = False
    if [{bc: Fraction(v, den) for bc, v in c.items()} for c, den in (f3, g27)] != [
            {(0, 0): -1, (1, 0): 4}, {(0, 0): 1, (1, 0): -3, (0, 1): -1}]:
        raise InvariantViolation("the closed form is not 3F = 4A - 1, 27 G0 = 1 - 3A - B", {})
    for name, (coords, _), key in (("3F", f3, (0, 0)), ("9M", m9, (1, 0)), ("27N", n27, (0, 1))):
        if {bc for bc in coords if 2 * bc[0] + 3 * bc[1] <= 2 * key[0] + 3 * key[1]} != {key}:
            raise InvariantViolation(f"the lowest-weight part of {name} is not one monomial", {})
    _certified = True


def tab_columns(support, k: int) -> list[dict[tuple[int, int], int]]:
    """Integer (T, A, B) columns of a support's monomials, by the closed form, below weight k.

    Column (m, n) is 3^(w-m-3n) (3F)^m (27 G0)^n keyed (b, c), w the largest
    m + 3n of the support; one scale keeps the exact nullspace.
    """
    _certify_closed_form()
    w = max(m + 3 * n for m, n in support)
    top = (k + 1) // 2
    polys = {}  # (m, j) -> u^0..u^(top-1) of (4u-1)^m (1-3u)^j
    f = [1] + [0] * (top - 1)
    for m in range(max(m for m, _ in support) + 1):
        g = polys[m, 0] = f
        for j in range(1, max(n for _, n in support) + 1):
            g = polys[m, j] = [g[0]] + [g[b] - 3 * g[b - 1] for b in range(1, top)]
        f = [-f[0]] + [4 * f[b - 1] - f[b] for b in range(1, top)]
    cols = []
    for m, n in support:
        col = {}
        for c in range(min(n, (k - 1) // 3) + 1):
            coef = (-1) ** c * comb(n, c) * 3 ** (w - m - 3 * n)
            for b, v in enumerate(polys[m, n - c][:(k - 3 * c + 1) // 2]):
                if v:
                    col[b, c] = coef * v
        cols.append(col)
    return cols


def tab_coordinates(e: RingElem) -> dict[tuple[int, int], Fraction]:
    """The element on T^(l-2b-3c) A^b B^c as {(b, c): coefficient}, zeros dropped."""
    if e.is_zero():
        return {}
    den = lcm(*(c.denominator for c in e.coeffs.values()))
    out, scale = _int_coordinates(e.degree, {key: int(c * den) for key, c in e.coeffs.items()})
    return {key: Fraction(v, den * scale) for key, v in out.items()}


def _int_coordinates(degree: int, ints: dict) -> tuple[dict[tuple[int, int], int], int]:
    """The (T, A, B) coordinates of a nonzero integer element times a scale 3^w, and 3^w."""
    cols = tab_columns(list(ints), degree + 1)
    return lin(*zip(ints.values(), cols)), 3 ** max(m + 3 * n for m, n in ints)


def j_valuation(e: RingElem) -> int:
    """The largest k with q^k dividing the substituted image; 0 <= v <= degree.

    It is the least weight 2b + 3c of the (T, A, B) coordinates.
    """
    if e.is_zero():
        raise ZeroElement("the zero element has no J-valuation")
    coords = tab_coordinates(e)
    assert coords, "a nonzero element has nonzero (T, A, B) coordinates"
    return min(2 * b + 3 * c for b, c in coords)


# -- subspaces cut out by a J-valuation bound --------------------------------

def dim_profile(columns: list[dict], kmax: int) -> tuple[list[int], IntEchelon]:
    """Nullity of the rows of weight below k, for every k = 0..kmax, in one pass.

    The rows go into a single echelon form in weight order; before the first
    row of weight w goes in, the rows of weight below every k <= w are in,
    so the nullity `ncols - rank` then is the dimension for those k.  The
    echelon form comes back too, spanning the rows of weight below kmax: its
    nullspace holds the combinations of the columns with J-valuation >= kmax.
    That basis does not depend on the order the rows are inserted in, since
    every echelon form of a row space has the same pivot columns and the
    basis is normalised per free column.
    """
    ech = IntEchelon(len(columns))
    dims: list[int] = []
    for w, b, c in sorted({(2 * b + 3 * c, b, c) for col in columns for b, c in col}):
        while len(dims) <= min(w, kmax):
            dims.append(ech.ncols - ech.rank)
        if len(dims) > kmax or ech.full_rank():
            break
        ech.insert([col.get((b, c), 0) for col in columns])
    return dims + [ech.ncols - ech.rank] * (kmax + 1 - len(dims)), ech


def _subspace_vectors(ell: int, support, k: int) -> list[list[int]]:
    """Nullspace vectors of the weight-below-k coordinates on the span of support.

    The coordinates leave the power of T implicit, so ell is not needed.
    """
    return dim_profile(tab_columns(support, k), k)[1].nullspace()


def j_subspace(ell: int, k: int) -> list[RingElem]:
    """Basis of the degree-ell elements with J-valuation >= k.

    Computed honestly as the exact nullspace of the map sending a coefficient
    vector to its (T, A, B) coordinates of weight 2b + 3c < k; the dimension
    formula tau(ell) - tau(k-1) is checked *against* this output by the
    tests, never assumed by it.
    """
    if ell < 0 or k < 0:
        raise ValueError("ell and k must be >= 0")
    support = tuple(basis_of(ell))
    vectors = _subspace_vectors(ell, support, k)
    return [RingElem(ell, dict(zip(support, vec))) for vec in vectors]


def j_subspace_dims(ell: int) -> list[int]:
    """The dimensions of `j_subspace(ell, k)` for k = 0..ell+2: keys of weight >= k.

    The module docstring proves the count.  The keys of `basis_of(ell)`,
    which rejects a negative ell, are counted by weight in one pass, and the
    row sums those counts from k up.
    """
    keys = basis_of(ell)
    _certify_closed_form()
    row = [0] * (ell + 3)
    for m, n in keys:
        row[2 * m + 3 * n] += 1
    for k in range(ell, -1, -1):
        row[k] += row[k + 1]
    return row


def evaluate(e: RingElem | ExpandedPoly, x: Vec3, y: Vec3):
    """Substitute the four pair values of (x, y) into an element or its expansion.

    The terms are summed as integers over the lcm of the coefficients'
    denominators; the value is an int when it is integral, else a Fraction.
    """
    s, t, u, v = pair_values(x, y)
    poly = expand(e) if isinstance(e, RingElem) else e
    den = lcm(*(coeff.denominator for coeff in poly.values()))
    acc = 0
    for (eq, a, b, c, d), coeff in poly.items():
        if eq:
            raise ValueError("input must be free of q")
        acc += coeff.numerator * (den // coeff.denominator) * prod((s**a, t**b, u**c, v**d))
    q, rem = divmod(acc, den)
    return Fraction(acc, den) if rem else q
