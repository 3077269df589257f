"""Rigorous arithmetic for the target number xi.

A :class:`RealContext` wraps a specification of xi (a decimal literal or an
integer polynomial with an isolating interval) and keeps one integer form of
its cell's powers: per precision `bits`, xi, xi^2, xi^3 lie in [a, b] / D,
[s_lo, s_hi] / D^2 and [c_lo, c_hi] / D^3.  The rest are views of it:
:meth:`RealContext.scaled` rounds outward to numerators over 2^bits, cached
per (k, bits), on which every decision of the search runs; :func:`approx_error`
and :func:`delta_of` give exact `Interval`s, as :meth:`RealContext.power` does
for the tests' reference paths.  An integer verdict is final; a
question left open is put again at doubled precision through
:meth:`RealContext.decide`, until it is certain or a configurable ceiling
aborts the run instead of guessing.  An ``alg:`` cell is one of the 2^depth
equal cells of [lo, hi], found once per level by an integer Newton iteration
certified by exact sign evaluations; a ``dec:`` cell is [a, a + 1] / 10^d.

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


def _eval_sign(coeffs, v: Fraction) -> int:
    """Exact sign of an integer polynomial at a rational point."""
    p, q = v.numerator, v.denominator
    n = len(coeffs) - 1
    acc = 0
    pk = 1
    for i, c in enumerate(coeffs):
        acc += c * pk * q ** (n - i)
        pk *= p
    return (acc > 0) - (acc < 0)


def _horner(poly, t: int) -> tuple[int, int]:
    """(value, derivative) of an ascending integer polynomial at an integer."""
    value = slope = 0
    for c in reversed(poly):
        slope = slope * t + value
        value = value * t + c
    return value, slope


def _scaled_poly(coeffs, start: int, step: int, den: int) -> list[int]:
    """Ascending coefficients in t of den^n * f((start + step*t) / den)."""
    out = [coeffs[-1]]
    den_pow = 1
    for c in reversed(coeffs[:-1]):
        den_pow *= den
        nxt = [0] * (len(out) + 1)
        for i, a in enumerate(out):
            nxt[i] += a * start
            nxt[i + 1] += a * step
        nxt[0] += c * den_pow
        out = nxt
    return out


def _root_cell(coeffs, sign_lo: int, start: int, width: int, den: int, k: int) -> int:
    """Index j of the depth-k bisection cell of [start, start + width] / den holding the root.

    The cell [start + j*w, start + (j+1)*w] / den, w = width / 2^k, whose left
    end has sign sign_lo and whose right end has not.  An integer Newton
    iteration on the grid 2^GUARD_BITS times finer guesses j; exact sign
    evaluations at the guess and its neighbours certify it, and bisection of
    the integer bracket [0, 2^k] finishes the search whenever they do not.
    """
    depth = k + GUARD_BITS
    # g(t) = (den*2^depth)^n f((start + t*width/2^depth) / den), positive multiple of f
    g = _scaled_poly(coeffs, start << depth, width, den << depth)

    top = 1 << depth
    t = top >> 1
    for _ in range(4 * depth.bit_length() + 16):
        value, slope = _horner(g, t)
        if slope == 0:
            break
        step = value // slope
        t -= step
        if not 0 <= t <= top or -1 <= step <= 1:
            break
    j = (t - 1) >> GUARD_BITS  # guess: the root r (in cells) has j < r <= j + 1

    a, b = 0, 1 << k  # sign at a is sign_lo, at b it is not
    probes = [j - 1, j + 2, j, j + 1]
    while b - a > 1:
        m = probes.pop() if probes else (a + b) >> 1
        if not a < m < b:
            continue
        value, _ = _horner(g, m << GUARD_BITS)
        if (value > 0) - (value < 0) == sign_lo:
            a = m
        else:
            b = m
    return a


def _cell_powers(a: int, b: int, den: int):
    """((den^k, lo, hi) for k = 1..3): the powers of [a, b] / den are [lo, hi] / den^k,
    with the min and max of all endpoint products, as Interval multiplication takes them."""
    square = (a * a, a * b, b * b)
    s_lo, s_hi = min(square), max(square)
    cube = (s_lo * a, s_lo * b, s_hi * a, s_hi * b)
    return (den, a, b), (den * den, s_lo, s_hi), (den**3, min(cube), max(cube))


def _times(m: int, lo: int, hi: int) -> tuple[int, int]:
    """Bounds of m * [lo, hi]."""
    return (m * lo, m * hi) if m >= 0 else (m * hi, m * lo)


def _abs_gap(target: int, m: int, lo: int, hi: int) -> tuple[int, int]:
    """Bounds of |target - m * [lo, hi]|, taken as Interval's abs takes them."""
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


def _squarefree_part(f) -> list[int]:
    """Primitive squarefree part of f, with a positive leading coefficient."""
    f = _primitive(list(f))
    a, b = f, _derivative(f)
    while b:  # primitive remainder sequence: a ends as gcd(f, f') up to a constant
        a, b = b, _primitive(_prem(a, b))
    if len(a) > 1:  # exact division f / gcd(f, f'), integral by Gauss's lemma
        a = _primitive(a)
        quotient = [0] * (len(f) - len(a) + 1)
        rest = list(f)
        for i in range(len(quotient) - 1, -1, -1):
            quotient[i] = rest[i + len(a) - 1] // a[-1]
            for j, c in enumerate(a):
                rest[i + j] -= quotient[i] * c
        f = _primitive(quotient)
    return f if f[-1] > 0 else [-c for c in f]


def _sturm_count(g, lo: Fraction, hi: Fraction) -> int:
    """Number of roots of the squarefree g in (lo, hi); neither end is a root."""
    seq = [g, _derivative(g)]
    while len(seq[-1]) > 1:
        seq.append(_primitive([-c for c in _prem(seq[-2], seq[-1])]))

    def changes(v):
        signs = [s for s in (_eval_sign(p, v) for p in seq) if s]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    return changes(lo) - changes(hi)


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
    g = _squarefree_part(spec.coeffs)
    nroots = _sturm_count(g, spec.lo, spec.hi)
    if nroots != 1:
        raise _root_count_error(spec, nroots)
    return tuple(g)


def _analyze_algebraic(ctx: RealContext) -> str | None:
    """Why 1, xi, xi^3 are Q-dependent for an alg: context, or None; in integers.

    An integer relation search (Kannan, Lenstra & Lovasz, Math. Comp. 50,
    1988) finds the least k <= 3 for which xi is a root of an integer
    polynomial of degree k, if any: the degree of xi's minimal polynomial m.
    m divides the isolating polynomial g in Z[x], so Mignotte's bound (Math.
    Comp. 28, 1974) gives ||m||_1 <= 2^deg(m) * ||g||_2 <= 8 * ||g||_2.  The
    lattice has the rows (e_j | a_j), j = 0..k, where a_0 = 2^s and a_j is
    the lower end of ctx.scaled(j, s), at most w below 2^s * xi^j.  As
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
        enclosures = [ctx.scaled(j, s) for j in range(1, k + 1)]
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
        self._pow_cache: dict[int, tuple] = {}  # per bits: the integer powers of _powers
        self._scaled_cache: dict[tuple[int, int], tuple[int, int]] = {}  # per (k, bits)

        if isinstance(spec, DecimalXi):
            whole, _, frac = spec.digits.partition(".")
            # truncation semantics: the literal is a prefix of the true expansion,
            # so its "-" (not the sign of its value: -0.0) says on which side
            with _LongInts():
                low = int(whole + frac) - spec.digits.startswith("-")
            self._literal = _cell_powers(low, low + 1, 10 ** len(frac))
            self._isolating_poly = None
            self.independence_assumed = True
        else:
            self._literal = None
            # xi is the only root of _isolating_poly in [lo, hi], a simple one
            self._isolating_poly = _isolating_polynomial(spec)
            lo, hi = self._lo, self._hi = Fraction(spec.lo), Fraction(spec.hi)
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

    def _powers(self, bits: int | None) -> tuple:
        """((D^k, lo, hi) for k = 1..3): xi^k in [lo, hi] / D^k at bits (default precision).

        An alg: cell has the fewest halvings of [lo, hi] that leave its three
        powers 2^-bits * max(1, |xi|^3) wide at most, so it depends on bits alone.
        """
        bits = self.precision_bits if bits is None else bits
        out = self._pow_cache.get(bits, self._literal)
        if out is None:
            p, w, q = self._grid
            # fewest halvings to width <= 2^-bits: least depth with 2^depth >= w * 2^bits / q
            depth = (-((-w << bits) // q) - 1).bit_length()
            # as 3*xi^2 / max(1, |xi|^3) < 4, the test passes about 2 halvings
            # further at most: one search there, and the coarser cells are shifts
            self._cell(depth + 2)
            while True:
                a = (p << depth) + self._cell(depth) * w
                out = _cell_powers(a, a + w, q << depth)
                (den, _, _), (den2, s_lo, s_hi), (den3, c_lo, c_hi) = out
                widest = max(w * den2, (s_hi - s_lo) * den, c_hi - c_lo)
                if widest << bits <= max(den3, -c_lo, c_hi):  # 2^-bits * max(1, |xi^3|)
                    break
                depth += 1
            self._pow_cache[bits] = out
        return out

    def _power_ints(self, k: int, bits: int | None) -> tuple[int, int, int]:
        if k not in (1, 2, 3):
            raise ValueError("only powers 1..3 are served")
        return self._powers(bits)[k - 1]

    def power(self, k: int, bits: int | None = None) -> Interval:
        """Enclosure of xi^k (k in 1..3) with width <= 2^-bits * max(1, |xi|^3).

        The exact view of the integer powers.
        """
        den, lo, hi = self._power_ints(k, bits)
        return Interval(Fraction(lo, den), Fraction(hi, den))

    def scaled(self, k: int, bits: int | None = None) -> tuple[int, int]:
        """Integers (lo, hi) with lo <= 2^bits * xi^k <= hi (default precision_bits).

        Rounded outward (floor, ceil) from the integer powers at bits;
        cached per (k, bits).
        """
        bits = self.precision_bits if bits is None else bits
        out = self._scaled_cache.get((k, bits))
        if out is None:
            den, lo, hi = self._power_ints(k, bits)
            out = self._scaled_cache[k, bits] = ((lo << bits) // den, -((-hi << bits) // den))
        return out

    # -- decisions ---------------------------------------------------------
    def decide(self, probe, what: str = "comparison"):
        """Run probe(bits) at escalating precision until it returns non-None.

        Raises PrecisionError when probe(max_bits) is still undecided.
        """
        bits = self.precision_bits
        while True:
            out = probe(bits)
            if out is not None:
                return out
            if bits >= self.max_bits:
                note = ("; the literal's last digit is the limit"
                        if self._isolating_poly is None else "")
                raise PrecisionError(f"{what} undecidable for {self.describe()} at {bits} "
                                     f"bits (ceiling {self.max_bits}{note})")
            bits = min(2 * bits, self.max_bits)

    def nearest_to_multiple(self, m: int, k: int) -> int:
        """Nearest integer to m * xi^k, certified by strict enclosure containment.

        The scaled integer enclosure decides when it lies strictly between
        two half-integers, at escalating precision through :meth:`decide`.
        """
        return self.decide(lambda bits: self._nearest_fixed(m, k, bits),
                           what=f"rounding of {m}*xi^{k}")

    def _nearest_fixed(self, m: int, k: int, bits: int) -> int | None:
        """Nearest integer to m * xi^k if the scaled enclosure at bits certifies it."""
        lo, hi = _times(m, *self.scaled(k, bits))
        half = 1 << (bits - 1)
        n = (lo + half) >> bits
        if (n << bits) - half < lo and hi < (n << bits) + half:
            return n
        return None


# -- real-valued forms ------------------------------------------------------

def delta_of(x: Vec3, ctx: RealContext, bits: int | None = None) -> Interval:
    """Enclosure of 2*x0*xi^3 - 3*x1*xi^2 + x2 (second-order contact with the curve)."""
    (den, _, _), (_, s_lo, s_hi), (den3, c_lo, c_hi) = ctx._powers(bits)
    (c_lo, c_hi), (s_lo, s_hi) = _times(2 * x[0], c_lo, c_hi), _times(3 * x[1], s_lo, s_hi)
    return Interval(Fraction(c_lo - s_hi * den + x[2] * den3, den3),
                    Fraction(c_hi - s_lo * den + x[2] * den3, den3))


def approx_error(x: Vec3, ctx: RealContext, bits: int | None = None) -> Interval:
    """Enclosure of L(x) = max(|x1 - x0*xi|, |x2 - x0*xi^3|)."""
    (den, lo, hi), (den2, _, _), (den3, c_lo, c_hi) = ctx._powers(bits)
    e1_lo, e1_hi = _abs_gap(x[1] * den, x[0], lo, hi)
    e2_lo, e2_hi = _abs_gap(x[2] * den3, x[0], c_lo, c_hi)
    return Interval(Fraction(max(e1_lo * den2, e2_lo), den3),
                    Fraction(max(e1_hi * den2, e2_hi), den3))


def scaled_error(x: Vec3, ctx: RealContext, bits: int | None = None) -> tuple[int, int]:
    """Integers (lo, hi) with lo <= 2^bits * L(x) <= hi (default ctx.precision_bits)."""
    shift = ctx.precision_bits if bits is None else bits
    e1_lo, e1_hi = _abs_gap(x[1] << shift, x[0], *ctx.scaled(1, bits))
    e3_lo, e3_hi = _abs_gap(x[2] << shift, x[0], *ctx.scaled(3, bits))
    return max(e1_lo, e3_lo), max(e1_hi, e3_hi)
