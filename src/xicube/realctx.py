"""Rigorous arithmetic for the target number xi.

A :class:`RealContext` wraps a specification of xi (a decimal literal or an
integer polynomial with an isolating interval) and keeps its enclosures in
one integer form, a rung: a scale S and integers lo_k <= S * xi^k <= hi_k,
k = 1..3, as the tuple (S, (lo_1, hi_1), (lo_2, hi_2), (lo_3, hi_3)).  Per
precision `bits`, :meth:`RealContext.exact_rung` holds the powers of xi's
cell over its denominator D at S = 2 * D^3, with no rounding; a literal's
cell gives the same rung at every bits.  :meth:`RealContext.rung` rounds
it outward to S = 2^bits, unless S <= 2^bits already: then, and only for
a literal's cell, the rung is the cell itself, which rounding could only
widen.  Every decision of the search runs on :meth:`RealContext.rung`, so
on an even S that need not be a power of 2.  Each kind of rung has one
cache.  The rest are views of a rung: :func:`scaled_error` encloses
S * L(x) on either kind, and :func:`approx_error`, :func:`delta_of` and
:meth:`RealContext.power` read the exact rung as `Interval`s over its S.
An integer verdict is final; a question left open is put again at doubled
precision through :meth:`RealContext.decide`, until it is certain or a
configurable ceiling aborts the run instead of guessing, at once when a
literal's rung has become its cell, past which no rung differs.  An
``alg:`` cell is one of the 2^depth equal cells of [lo, hi], clipped first
to the Cauchy bound of the isolating polynomial, found once per level by
an integer Newton iteration from coarse to fine: its steps are evaluated
on grids no finer than their accuracy needs, the first on the grid of the
cell found one level up, and only the exact sign evaluations that certify
the cell, and one step should their guess miss, run at full depth.  A
``dec:`` cell is [a, a + 1] / 10^d.  Every value or sign of a polynomial
at p / q, here and in the exact analysis below, is Horner's rule at p on
its homogenization c_i * q^(n-i).

Spec grammar accepted by :func:`parse_xi_spec`:

* ``dec:<digits>`` -- decimal literal, read as a truncation: the true value
  is only known to lie within one last-digit ulp above the literal.
  Linear independence of 1, xi, xi^3 is *assumed* for these (with a warning).
* ``alg:<polynomial in x> in [a,b]`` -- a real algebraic number given by a
  polynomial and an interval with rational endpoints (``1.2`` or ``6/5``)
  holding exactly one of its real roots, e.g. ``alg:x^4-2 in [1,2]``.  The
  polynomial is a signed sum of monomials ``c``, ``c*x``, ``c*x^e`` or
  ``x``, ``x^e`` (``**`` also accepted), with ``c`` an integer or ``p/q``
  and ``e`` a nonnegative integer up to MAX_DEGREE; monomials of one degree
  add up.  Products, parentheses and names are rejected, and the text is
  never evaluated.

Literals, coefficients and endpoints may be longer than Python's limit on
int-string conversion: specs are parsed and described with it lifted.

Independence of 1, xi, xi^3 for an ``alg:`` spec is decided exactly in
integers.  A Sturm sequence counts the roots in the interval of the
squarefree part g of the polynomial, the isolating polynomial.  LLL on the
rows (e_j | 2^s * xi^j rounded), j = 0..k, then finds xi's minimal
polynomial m if deg m <= k; Mignotte's bound ||m||_1 <= 8 * ||g||_2 for
the factor m of g makes a long first reduced row a proof that there is none.
"""

from __future__ import annotations

import re
import sys
import warnings
from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm

from .errors import PrecisionError, UsageError
from .intervals import Interval
from .linalg import _lll
from .vectors import Vec3

DEFAULT_PRECISION_BITS = 192
DEFAULT_MAX_BITS = 1 << 16
# Newton runs on a grid 2^GUARD_BITS times finer than the cell it must find,
# so its last rounding step rarely lands next to a cell boundary
GUARD_BITS = 32
# A Newton step short of full depth evaluates its point on a grid this many
# bits finer, at least, than the bits its iterate is expected to hold; at
# most twice this below GUARD_BITS / 2, so such a grid stays below depth
COARSE_SLACK_BITS = 8
# Degrees above this are refused at parse time: the exact analysis of an
# alg: spec grows with a high power of the degree.
MAX_DEGREE = 64


class _LongInts:
    """Lifts the int-to-str digit limit (Python 3.11, 3.10.7) inside its block.

    Deep pairs hold integers of more than its default 4300 digits, and so
    may a spec's literal, coefficients and endpoints.
    """

    def __enter__(self):
        self.limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if self.limit:
            sys.set_int_max_str_digits(0)

    def __exit__(self, *exc):
        if self.limit:
            sys.set_int_max_str_digits(self.limit)


class DecimalXi(namedtuple("DecimalXi", "digits")):
    """A decimal literal, kept as its digit string."""

    __slots__ = ()

    def describe(self) -> str:
        return f"dec:{self.digits}"


class AlgebraicXi(namedtuple("AlgebraicXi", "coeffs lo hi")):
    """The one real root in [lo, hi] of the polynomial `coeffs` (ascending degree)."""

    __slots__ = ()

    def describe(self) -> str:
        with _LongInts():
            return f"alg:{_poly_str(self.coeffs)} in [{self.lo},{self.hi}]"


XiSpec = DecimalXi | AlgebraicXi


def _poly_str(coeffs) -> str:
    terms = []
    for e in range(len(coeffs) - 1, -1, -1):
        c = coeffs[e]
        if c == 0:
            continue
        if e == 0:
            t = str(abs(c))
        else:
            t = "" if abs(c) == 1 else f"{abs(c)}*"
            t += "x" if e == 1 else f"x^{e}"
        terms.append(("-" if c < 0 else "+", t))
    if not terms:
        return "0"
    sign, first = terms[0]
    out = ("-" if sign == "-" else "") + first
    for sign, t in terms[1:]:
        out += sign + t
    return out


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except ZeroDivisionError as exc:
        raise UsageError(f"zero denominator in {text.strip()!r}") from exc
    except ValueError as exc:
        raise UsageError(f"bad interval endpoint {text.strip()!r}") from exc


def parse_xi_spec(text: str) -> XiSpec:
    text = text.strip()
    if text.startswith("dec:"):
        digits = text[4:].strip()
        if not re.fullmatch(r"-?\d+(\.\d+)?", digits):
            raise UsageError(f"bad decimal literal {digits!r}")
        return DecimalXi(digits)
    if text.startswith("alg:"):
        m = re.fullmatch(r"alg:(.+?)\s+in\s+\[([^,\]]+),([^,\]]+)\]", text)
        if not m:
            raise UsageError(f"bad algebraic spec {text!r}; expected 'alg:<poly> in [a,b]'")
        with _LongInts():  # coefficients and endpoints of any length
            coeffs = _parse_int_poly(m.group(1))
            lo, hi = _parse_fraction(m.group(2)), _parse_fraction(m.group(3))
            if not lo < hi:
                raise UsageError(f"empty isolating interval [{lo},{hi}]")
        return AlgebraicXi(coeffs, lo, hi)
    raise UsageError(f"xi spec must start with 'dec:' or 'alg:', got {text!r}")


# One signed monomial of the token text that _parse_int_poly builds:
# c, c*x, c*x^e or x, x^e, with c an integer or p/q.
_MONOMIAL = re.compile(r"([+-]) (?:(\d+)(?: / (\d+))?( \* x)?|(x))(?: \^ (\d+))?(?: |$)")


def _parse_int_poly(expr: str) -> tuple[int, ...]:
    """Ascending integer coefficients of a signed sum of monomials in x.

    A monomial is c, c*x, c*x^e or x, x^e (``**`` for ``^`` too), with c an
    integer or p/q and e a nonnegative integer; monomials of one degree add
    up, and the sum is scaled by the lcm of its denominators.  Anything
    else (products, parentheses, names) raises UsageError: the text is
    matched, never evaluated.
    """
    bad = UsageError(f"cannot parse polynomial {expr!r}")
    # whitespace only separates tokens; "**" becomes "^", a missing sign "+"
    tokens = ["^" if t == "**" else t for t in re.findall(r"\d+|\*\*|\S", expr)]
    if tokens[:1] not in (["+"], ["-"]):
        tokens.insert(0, "+")
    text = " ".join(tokens)
    terms: dict[int, Fraction] = {}
    pos = 0
    while pos < len(text):
        m = _MONOMIAL.match(text, pos)
        if m is None:
            raise bad
        sign, num, den, times_x, bare_x, exp = m.groups()
        has_x = bool(times_x or bare_x)
        if (exp and not has_x) or (den and int(den) == 0):
            raise bad
        e = int(exp) if exp else int(has_x)
        if e > MAX_DEGREE:
            raise UsageError(f"polynomial {expr!r} has degree above {MAX_DEGREE}")
        c = Fraction(int(num or 1), int(den or 1))
        terms[e] = terms.get(e, 0) + (c if sign == "+" else -c)
        pos = m.end()
    scale = lcm(*(c.denominator for c in terms.values()))
    out = [0] * (max(terms) + 1)
    for e, c in terms.items():
        out[e] = int(c * scale)
    out = _trim(out)
    if len(out) < 2:
        raise UsageError(f"polynomial {expr!r} must have degree >= 1")
    return tuple(out)


def _homogenized(coeffs, q: int) -> list[int]:
    """Ascending coefficients c_i * q^(n-i) of f = sum c_i x^i: at p they give q^n f(p / q).

    A root-cell grid's q is a small odd number times a large power of 2,
    which comes in by shifts.
    """
    z = (q & -q).bit_length() - 1  # q = odd * 2^z
    odd, n = q >> z, len(coeffs) - 1
    out = list(coeffs)
    odd_pow = 1
    for i in range(n - 1, -1, -1):
        odd_pow *= odd
        out[i] = out[i] * odd_pow << z * (n - i)
    return out


def _horner(poly, t: int) -> tuple[int, int]:
    """(value, derivative) of an ascending integer polynomial at an integer."""
    value = slope = 0
    for c in reversed(poly):
        slope = slope * t + value
        value = value * t + c
    return value, slope


def _value(poly, t: int) -> int:
    """Value of an ascending integer polynomial at an integer."""
    value = 0
    for c in reversed(poly):
        value = value * t + c
    return value


def _eval_sign(coeffs, v: Fraction) -> int:
    """Exact sign of an integer polynomial at a rational point."""
    value = _value(_homogenized(coeffs, v.denominator), v.numerator)
    return (value > 0) - (value < 0)


def _root_cell(coeffs, sign_lo: int, start: int, width: int, den: int, k: int) -> int:
    """Index j of the depth-k bisection cell of [start, start + width] / den holding the root.

    The cell [start + j*w, start + (j+1)*w] / den, w = width / 2^k, whose left
    end has sign sign_lo and whose right end has not.  Exact sign
    evaluations, values only, at cells around a Newton guess certify j, and
    bisection of the integer bracket [0, 2^k] finishes the search whenever
    they do not.  So the cell is the one the signs define, however close the
    guess came.

    Newton's iterates lie on the grid 2^GUARD_BITS times finer than the cells,
    of 2^depth steps, depth = k + GUARD_BITS, but each is evaluated rounded
    down to a grid of 2^d steps no finer than its accuracy needs: point u
    of that grid is x / Q with Q = den * 2^d, x = start * 2^d + u * width,
    and Horner's rule on h, f homogenized to Q, gives h(x) = Q^n f(x / Q), a
    positive multiple of f, with slope width * h'(x) per step.  The step
    from that point is exact, scaled to the fine grid.  The first starts at
    the middle, a point of the grid of 2 steps.  When the bracket is a cell
    found one level up, as on the precision ladder, that one step lands a
    small part of a cell off the root, and the probes j + 1, j certify it.
    Otherwise Newton goes on from coarse to fine: a step that fixed b bits
    leaves about 2b, less the loss its predecessor's step showed, and the
    next is evaluated a few bits finer than that, until the guess is
    expected within 2^-(GUARD_BITS/2) of a cell.  The probes j + 1, j, j + 2,
    j - 1 follow, and only if they miss does one step run at full depth
    before they are tried again.
    """
    depth = k + GUARD_BITS
    top = 1 << depth
    forms = {}  # per grid exponent d: f homogenized to den * 2^d
    bracket = [0, 1 << k]  # the sign at the first cell is sign_lo, at the second it is not

    def form(d):
        if d not in forms:
            forms[d] = _homogenized(coeffs, den << d)
        return forms[d]

    def newton(t, d):
        """Newton's iterate from t rounded down to the grid of 2^d steps; None at a zero slope."""
        shift = depth - d
        u = t >> shift
        value, slope = _horner(form(d), (start << d) + u * width)
        if slope == 0:
            return None
        return (u << shift) - (value << shift) // (slope * width)

    def probe(m):
        if bracket[0] < m < bracket[1]:
            value = _value(form(depth), (start << depth) + (m << GUARD_BITS) * width)
            if (value > 0) - (value < 0) == sign_lo:
                bracket[0] = m
            else:
                bracket[1] = m

    def settled(t, offsets):
        """Probe the cells j + offset, j the guess of t: the root r (in cells) has j < r <= j + 1.

        An iterate off [0, top] guesses the cell at that end.
        """
        j = (min(max(t, 1), top) - 1) >> GUARD_BITS
        for offset in offsets:
            probe(j + offset)
        return bracket[1] - bracket[0] == 1

    t = newton(top >> 1, 1)
    if t is not None and not settled(t, (1, 0)):
        fixed = depth - abs(t - (top >> 1)).bit_length()  # bits the step fixed
        held, d = 2 * fixed, 1  # bits t is expected to hold, grid of the last step
        for _ in range(4 * depth.bit_length() + 16):
            if held >= k + GUARD_BITS // 2 or not 0 <= t <= top:
                break
            if held + COARSE_SLACK_BITS > d:  # a finer grid, still below depth
                d = held + 2 * COARSE_SLACK_BITS
            last, t = t, newton(t, d)
            if t is None:
                break
            now = depth - abs(t - last).bit_length()
            # twice the bits this step fixed, less what it fell short of
            # twice the bits of the step before
            held, fixed = 2 * now - max(0, 2 * fixed - now), now
        if t is not None and not settled(t, (1, 0, 2, -1)) and 0 <= t <= top:
            t = newton(t, depth)
            if t is not None:
                settled(t, (1, 0, 2, -1))
    while bracket[1] - bracket[0] > 1:
        probe(sum(bracket) >> 1)
    return bracket[0]


def _cell_powers(a: int, b: int, dens: tuple[int, int, int]):
    """((den^k, lo, hi) for k = 1..3): the powers of [a, b] / den are [lo, hi] / den^k.

    dens is (den, den^2, den^3).  The bounds are the min and max of all
    endpoint products, as interval multiplication takes them; this build
    makes the two full-size products a^2 and a^3, and _end_powers the rest.
    """
    a2 = a * a
    return _end_powers(a, b - a, a2, a2 * a, dens)


def _end_powers(a: int, w: int, a2: int, a3: int, dens: tuple[int, int, int]):
    """_cell_powers of [a, a + w] / den, given a2 = a^2 and a3 = a^3.

    Off 0 the min and max of the endpoint products are the powers of the
    ends, and (a + w)^2, (a + w)^3 follow from a^2, a^3 by products with
    the width w alone, small next to a on a deep cell.  A cell with
    a < 0 < a + w has |a|, |a + w| < w, so its products are small too.
    """
    b = a + w
    if a < 0 < b:
        square = (a2, a * b, b * b)
        s_lo, s_hi = min(square), max(square)
        cube = (s_lo * a, s_lo * b, s_hi * a, s_hi * b)
        c_lo, c_hi = min(cube), max(cube)
    else:
        b2 = a2 + (2 * a + w) * w
        s_lo, s_hi = (a2, b2) if a >= 0 else (b2, a2)
        c_lo, c_hi = a3, a3 + (3 * a2 + (3 * a + w) * w) * w
    return (dens[0], a, b), (dens[1], s_lo, s_hi), (dens[2], c_lo, c_hi)


def _halved(powers, r: int):
    """_cell_powers of the lower (r = 0) or upper (r = 1) half of the cell of `powers`.

    The half is [a', a' + w] / 2den with a' = 2a + r*w, so a'^2 and a'^3
    follow from a^2 and a^3 by products with w and shifts: no full-size
    product.
    """
    (den, a, b), (den2, s_lo, s_hi), (den3, c_lo, _) = powers
    w = b - a
    if a < 0 < b:  # |a| < w
        a2, a3 = a * a, a**3
    else:  # the powers of the ends: a^2 is the square's low end for a >= 0, else its high end
        a2, a3 = (s_lo if a >= 0 else s_hi), c_lo
    if r:
        a, a2, a3 = 2 * a + w, 4 * a2 + (4 * a + w) * w, 8 * a3 + (12 * a2 + (6 * a + w) * w) * w
    else:
        a, a2, a3 = 2 * a, 4 * a2, 8 * a3
    return _end_powers(a, w, a2, a3, (den << 1, den2 << 2, den3 << 3))


def _exact(powers) -> tuple:
    """The rung (S, (lo_k, hi_k) for k = 1..3) of _cell_powers' powers at S = 2 * D^3.

    xi^k in [lo, hi] / D^k is [2 * D^(3-k) * lo, 2 * D^(3-k) * hi] / S: the same
    values, no rounding, and S / 2 = D^3 is an integer.
    """
    (den, a, b), (den2, s_lo, s_hi), (den3, c_lo, c_hi) = powers
    return (2 * den3, (2 * a * den2, 2 * b * den2), (2 * s_lo * den, 2 * s_hi * den),
            (2 * c_lo, 2 * c_hi))


def _times(m: int, lo: int, hi: int) -> tuple[int, int]:
    """Bounds of m * [lo, hi]."""
    return (m * lo, m * hi) if m >= 0 else (m * hi, m * lo)


def _abs_gap(target: int, m: int, lo: int, hi: int) -> tuple[int, int]:
    """Bounds of |target - m * [lo, hi]|: the ends where the gap keeps one sign, else [0, max]."""
    lo, hi = _times(m, lo, hi)
    lo, hi = target - hi, target - lo
    return (lo, hi) if lo >= 0 else (-hi, -lo) if hi <= 0 else (0, max(-lo, hi))


# -- exact analysis of an alg: spec -------------------------------------------

def _trim(p: list) -> list:
    """Drop zero leading coefficients (the tail of an ascending list)."""
    while p and p[-1] == 0:
        p.pop()
    return p


def _primitive(p: list[int]) -> list[int]:
    """p divided by the gcd of its coefficients (a positive number)."""
    content = gcd(*p)
    return [c // content for c in p] if content > 1 else p


def _derivative(p) -> list[int]:
    return [i * c for i, c in enumerate(p)][1:]


def _prem(a, b) -> list[int]:
    """Remainder of c*a on division by b, for some integer c > 0."""
    a, db = list(a), len(b) - 1
    scale, sign = abs(b[-1]), (b[-1] > 0) - (b[-1] < 0)
    while len(a) > db:
        top, shift = a[-1], len(a) - 1 - db
        a = [scale * c for c in a]
        for i, c in enumerate(b):
            a[shift + i] -= sign * top * c
        _trim(a)
    return a


def _sturm_count(f, lo: Fraction, hi: Fraction) -> tuple[int, list[int]]:
    """Number of distinct roots of f in (lo, hi), neither end a root, and gcd(f, f').

    The sequence f, f', -rem, ... ends in gcd(f, f') up to a constant: the
    zero remainder reads as sign 0 and is dropped.  Divided through by that
    gcd it is the Sturm sequence of f's squarefree part, and the gcd has
    one sign at a point that is no root of f, so the count is that part's.
    """
    seq = [f, _derivative(f)]
    while len(seq[-1]) > 1:
        seq.append(_primitive([-c for c in _prem(seq[-2], seq[-1])]))

    def changes(v):
        signs = [s for s in (_eval_sign(p, v) for p in seq) if s]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    return changes(lo) - changes(hi), seq[-1] or seq[-2]


def _squarefree_part(f, h) -> list[int]:
    """Primitive f / h, h = gcd(f, f') up to a constant, with a positive leading coefficient."""
    if len(h) > 1:  # exact division, integral by Gauss's lemma
        h = _primitive(h)
        quotient = [0] * (len(f) - len(h) + 1)
        rest = list(f)
        for i in range(len(quotient) - 1, -1, -1):
            quotient[i] = rest[i + len(h) - 1] // h[-1]
            for j, c in enumerate(h):
                rest[i + j] -= quotient[i] * c
        f = _primitive(quotient)
    return f if f[-1] > 0 else [-c for c in f]


def _dependence_reason(minpoly) -> str | None:
    """Why 1, xi, xi^3 are Q-dependent, from xi's minimal polynomial; None if not."""
    deg = len(minpoly) - 1
    if deg == 1:
        return "xi is rational"
    if deg == 2:
        # xi^2 = p*xi + q forces xi^3 into the span of 1 and xi
        return "xi is quadratic, so xi^3 lies in the Q-span of 1 and xi"
    if deg == 3 and minpoly[2] == 0:
        return "minimal polynomial a*x^3+b*x+c gives a direct relation on 1, xi, xi^3"
    return None


def _check_endpoints(spec: AlgebraicXi):
    if _eval_sign(spec.coeffs, spec.lo) == 0 or _eval_sign(spec.coeffs, spec.hi) == 0:
        raise UsageError("isolating interval endpoint is a root; shrink the interval")


def _root_count_error(spec: AlgebraicXi, nroots: int) -> UsageError:
    with _LongInts():
        return UsageError(f"interval [{spec.lo},{spec.hi}] contains {nroots} real roots "
                          "of the polynomial, need exactly 1")


def _isolating_polynomial(spec: AlgebraicXi) -> tuple[int, ...]:
    """The squarefree part g of the spec's polynomial; xi is its only root in [lo, hi]."""
    _check_endpoints(spec)
    f = _primitive(list(spec.coeffs))
    nroots, h = _sturm_count(f, spec.lo, spec.hi)
    if nroots != 1:
        raise _root_count_error(spec, nroots)
    return tuple(_squarefree_part(f, h))


def _analyze_algebraic(ctx: RealContext) -> str | None:
    """Why 1, xi, xi^3 are Q-dependent for an alg: context, or None; in integers.

    An integer relation search (Kannan, Lenstra & Lovasz, Math. Comp. 50,
    1988) finds the least k <= 3 for which xi is a root of an integer
    polynomial of degree k, if any: the degree of xi's minimal polynomial m.
    m divides the isolating polynomial g in Z[x], so Mignotte's bound (Math.
    Comp. 28, 1974) gives ||m||_1 <= 2^deg(m) * ||g||_2 <= 8 * ||g||_2.  The
    lattice has the rows (e_j | a_j), j = 0..k, where a_0 = 2^s and a_j is
    the lower end of ctx.rung(s)[j], at most w below 2^s * xi^j.  As
    m(xi) = 0, m's vector (m | sum m_j a_j) has a last entry of size at most
    w * ||m||_1, so its squared length is at most R2 = 64 * ||g||_2^2 * (1 + w^2),
    and LLL with delta = 3/4 gives ||b1||^2 <= 2^k * lambda1^2.  So
    ||b1||^2 > 2^k * R2, an integer comparison, certifies that xi has
    degree > k.  The first s is sized to R2 at w <= max(1, |lo|, |hi|)^3 + 2,
    a bound on every width, since the cell's powers stay within [lo, hi]'s.

    One reduction at k = min(3, deg g - 1) settles the common case: xi has
    degree > k, so g is its minimal polynomial when deg g <= 3.  Otherwise
    k = 1, 2, 3 in turn.  At the first k with a relation, the relations of
    degree <= k are exactly Z*m, so b1 = +-m once s is large enough.  b1 is
    taken for m only when it divides g and changes sign on [lo, hi], which
    identifies m because xi is g's only root there, and a simple one.  A
    short b1 that fails either check doubles s, up to the context's ceiling
    (PrecisionError).
    """
    g = ctx._isolating_poly
    norm_sq = sum(c * c for c in g)
    wide = int(max(1, abs(ctx._lo), abs(ctx._hi)) ** 3) + 2
    at_zero, at_wide = ((64 * norm_sq * (1 + w * w)).bit_length() // 2 for w in (0, wide))

    def start(k):  # s for R2 at the widths' bound; past the ceiling only as far as at w = 0
        return max((k + 1) * (at_zero + k + 8), min((k + 1) * (at_wide + k + 8), ctx.max_bits))

    def reduced(k, s):  # b1's coefficients, and whether ||b1||^2 > 2^k * R2
        enclosures = ctx.rung(s)[1:k + 1]
        width = max((hi - lo for lo, hi in enclosures), default=0)
        rows = [[int(i == j) for i in range(k + 1)] + [a]
                for j, a in enumerate([1 << s] + [lo for lo, _ in enclosures])]
        _lll(rows)
        return rows[0][:-1], sum(c * c for c in rows[0]) > (64 * norm_sq * (1 + width**2)) << k

    top = min(3, len(g) - 2)
    if reduced(top, start(top))[1]:
        return _dependence_reason(g)
    s = 0
    for k in range(1, top + 1):
        s = max(s, start(k))
        while True:
            h, certified = reduced(k, s)
            if certified:
                break
            h = _trim(h)
            if _eval_sign(h, ctx._lo) == -_eval_sign(h, ctx._hi) != 0 and not _prem(g, h):
                return _dependence_reason(h)
            if s >= ctx.max_bits:
                raise PrecisionError(f"independence of 1, xi, xi^3 undecidable for "
                                     f"{ctx.describe()} at {s} bits (ceiling {ctx.max_bits})")
            s = min(2 * s, ctx.max_bits)
    return _dependence_reason(g)


class RealContext:
    """Enclosures of xi, xi^2, xi^3 with escalation-on-demand."""

    def __init__(self, spec, precision_bits: int = DEFAULT_PRECISION_BITS,
                 max_bits: int = DEFAULT_MAX_BITS):
        if isinstance(spec, str):
            spec = parse_xi_spec(spec)
        if precision_bits < 4:
            raise UsageError(f"precision_bits must be >= 4, got {precision_bits}")
        if max_bits < precision_bits:
            raise UsageError(f"max_bits must be >= precision_bits, got {max_bits}")
        self.spec = spec
        self.precision_bits = precision_bits
        self.max_bits = max_bits
        self.dependence_reason: str | None = None
        self.independence_assumed = False
        self._exact_rungs: dict[int, tuple] = {}  # per bits, for an alg: cell
        self._rungs: dict[int, tuple] = {}  # per bits

        if isinstance(spec, DecimalXi):
            whole, _, frac = spec.digits.partition(".")
            # truncation semantics: the literal is a prefix of the true expansion,
            # so its "-" (not the sign of its value: -0.0) says on which side
            with _LongInts():
                low = int(whole + frac) - spec.digits.startswith("-")
            den = 10 ** len(frac)
            # the literal's exact rung, the same at every bits
            self._literal = _exact(_cell_powers(low, low + 1, (den, den * den, den**3)))
            self._isolating_poly = None
            self.independence_assumed = True
        else:
            self._literal = None
            # xi is the only root of _isolating_poly in [lo, hi], a simple one
            g = self._isolating_poly = _isolating_polynomial(spec)
            # every root of g lies in (-bound, bound) (Cauchy's bound), so
            # [lo, hi] clipped to it still isolates xi; the grid and the
            # independence analysis are sized to the clipped interval
            bound = Fraction(1 - (-max(abs(c) for c in g[:-1]) // g[-1]))
            lo = self._lo = max(Fraction(spec.lo), -bound)
            hi = self._hi = min(Fraction(spec.hi), bound)
            p = lo.numerator * hi.denominator  # [lo, hi] = [p, p + w] / q
            self._grid = (p, hi.numerator * lo.denominator - p, lo.denominator * hi.denominator)
            self._sign_lo = _eval_sign(self._isolating_poly, self._lo)
            # deepest cell found: xi is in cell _index of the 2^_depth equal cells of [lo, hi]
            self._depth = self._index = 0
            self.dependence_reason = _analyze_algebraic(self)

    # -- basic properties -------------------------------------------------
    @property
    def dependent(self) -> bool:
        return self.dependence_reason is not None

    def describe(self) -> str:
        return self.spec.describe()

    def warn_if_assumed(self):
        if self.independence_assumed:
            warnings.warn(
                "decimal xi spec: linear independence of 1, xi, xi^3 is assumed, not proved",
                stacklevel=2,
            )

    # -- enclosures --------------------------------------------------------
    def _cell(self, depth: int) -> int:
        """Index j of the cell [lo + j*w, lo + (j+1)*w], w = (hi - lo) / 2^depth, holding xi.

        Cells nest: a coarser one than the deepest found is its index shifted
        right, a deeper one is searched from it and becomes the deepest.
        """
        if depth > self._depth:
            p, w, q = self._grid
            shift = depth - self._depth
            j = _root_cell(self._isolating_poly, self._sign_lo,
                           (p << self._depth) + self._index * w, w, q << self._depth, shift)
            self._depth, self._index = depth, (self._index << shift) + j
        return self._index >> (self._depth - depth)

    def exact_rung(self, bits: int | None = None) -> tuple:
        """The powers of xi's cell at bits (default precision) at scale S = 2 * D^3, unrounded.

        An alg: cell has the fewest halvings of [lo, hi] that leave its three
        powers 2^-bits * max(1, |xi|^3) wide at most, so it depends on bits alone.
        The first cell tried is built with two full-size products, a^2 and
        a^3; each deeper one is its half (_halved), from products with the
        grid width and shifts.  A literal's cell is the same at every bits.
        """
        bits = self.precision_bits if bits is None else bits
        out = self._exact_rungs.get(bits, self._literal)
        if out is None:
            p, w, q = self._grid
            # fewest halvings to width <= 2^-bits: least depth with 2^depth >= w * 2^bits / q
            depth = (-((-w << bits) // q) - 1).bit_length()
            # as 3*xi^2 / max(1, |xi|^3) < 4, the test passes about 2 halvings
            # further at most: one search there, and the coarser cells are shifts
            self._cell(depth + 2)
            a = (p << depth) + self._cell(depth) * w
            powers = _cell_powers(a, a + w, (q << depth, q * q << 2 * depth, q**3 << 3 * depth))
            while True:
                (den, _, _), (den2, s_lo, s_hi), (den3, c_lo, c_hi) = powers
                widest = max(w * den2, (s_hi - s_lo) * den, c_hi - c_lo)
                if widest << bits <= max(den3, -c_lo, c_hi):  # 2^-bits * max(1, |xi^3|)
                    break
                depth += 1
                powers = _halved(powers, self._cell(depth) & 1)
            out = self._exact_rungs[bits] = _exact(powers)
        return out

    def rung(self, bits: int | None = None) -> tuple:
        """exact_rung(bits) rounded outward (floor, ceil) to S = 2^bits; cached per bits.

        The exact rung itself when its S <= 2^bits, which rounding could only
        widen: only a literal's cell, as an alg: cell has S = 2 * (q * 2^depth)^3
        > 2^bits, and from the first such bits on every rung is that one object.
        So S is 2^bits or an even 2 * D^3 below it: a reader takes S from
        rung[0], and shifts it right by at most its 2-adic valuation.
        """
        bits = self.precision_bits if bits is None else bits
        out = self._rungs.get(bits)
        if out is None:
            out = self.exact_rung(bits)
            scale, *powers = out
            if scale > 1 << bits:
                out = (1 << bits, *(((lo << bits) // scale, -((-hi << bits) // scale))
                                    for lo, hi in powers))
            self._rungs[bits] = out
        return out

    def power(self, k: int, bits: int | None = None) -> Interval:
        """Enclosure of xi^k (k in 1..3) with width <= 2^-bits * max(1, |xi|^3).

        The exact rung's, over its scale.
        """
        if k not in (1, 2, 3):
            raise ValueError("only powers 1..3 are served")
        rung = self.exact_rung(bits)
        return Interval.over(*rung[k], rung[0])

    # -- decisions ---------------------------------------------------------
    def decide(self, probe, what: str = "comparison"):
        """Run probe(bits) at escalating precision until it returns non-None.

        The precision doubles from precision_bits up to max_bits; raises
        ceiling_error(what) when probe(max_bits) is still undecided.  It
        raises that error as soon as a probe is open on a literal whose rung
        has become its exact cell (see rung): no later rung differs, so a
        probe that reads xi through rung(bits) or exact_rung(bits) alone
        stays open up to the ceiling.
        """
        bits = self.precision_bits
        while True:
            out = probe(bits)
            if out is not None:
                return out
            if bits >= self.max_bits or (self._literal is not None
                                         and self.rung(bits) is self._literal):
                raise self.ceiling_error(what)
            bits = min(2 * bits, self.max_bits)

    def ceiling_error(self, what: str) -> PrecisionError:
        """The error of a question that max_bits leaves open."""
        note = "; the literal's last digit is the limit" if self._literal is not None else ""
        return PrecisionError(f"{what} undecidable for {self.describe()} at {self.max_bits} "
                              f"bits (ceiling {self.max_bits}{note})")

    def nearest_to_multiple(self, m: int, k: int) -> int:
        """Nearest integer to m * xi^k, certified by strict enclosure containment.

        The rung's integer enclosure decides when it lies strictly between
        two half-integers, at escalating precision through :meth:`decide`.
        """
        return self.decide(lambda bits: self._nearest_fixed(m, k, bits),
                           what=f"rounding of {m}*xi^{k}")

    def _nearest_fixed(self, m: int, k: int, bits: int) -> int | None:
        """Nearest integer to m * xi^k if the rung at bits certifies it.

        m * xi^k lies in [lo, hi] / S; n certifies when 2 * [lo, hi] lies
        strictly inside ((2n - 1) * S, (2n + 1) * S).
        """
        rung = self.rung(bits)
        scale, (lo, hi) = rung[0], _times(m, *rung[k])
        n = (2 * lo + scale) // (2 * scale)
        if (2 * n - 1) * scale < 2 * lo and 2 * hi < (2 * n + 1) * scale:
            return n
        return None


# -- real-valued forms ------------------------------------------------------

def delta_of(x: Vec3, ctx: RealContext, bits: int | None = None) -> Interval:
    """Enclosure of 2*x0*xi^3 - 3*x1*xi^2 + x2 (second-order contact with the curve)."""
    scale, _, square, cube = ctx.exact_rung(bits)
    (c_lo, c_hi), (s_lo, s_hi) = _times(2 * x[0], *cube), _times(3 * x[1], *square)
    return Interval.over(c_lo - s_hi + x[2] * scale, c_hi - s_lo + x[2] * scale, scale)


def approx_error(x: Vec3, ctx: RealContext, bits: int | None = None) -> Interval:
    """Enclosure of L(x) = max(|x1 - x0*xi|, |x2 - x0*xi^3|), on the exact rung."""
    rung = ctx.exact_rung(bits)
    return Interval.over(*scaled_error(x, rung), rung[0])


def scaled_error(x: Vec3, rung: tuple) -> tuple[int, int]:
    """Integers (lo, hi) with lo <= S * L(x) <= hi on a rung of scale S."""
    scale, xi, _, cube = rung
    e1_lo, e1_hi = _abs_gap(x[1] * scale, x[0], *xi)
    e3_lo, e3_hi = _abs_gap(x[2] * scale, x[0], *cube)
    return max(e1_lo, e3_lo), max(e1_hi, e3_hi)
