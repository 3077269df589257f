"""Rigorous arithmetic for the target number xi.

A :class:`RealContext` wraps a specification of xi (a decimal literal or an
integer polynomial with an isolating interval) and serves enclosures of xi,
xi^2, xi^3 with exact rational endpoints, plus the same enclosures rounded
outward to integer numerators over 2^bits (:meth:`RealContext.scaled`).
Every decision of the scan (nearest integers, error comparisons) runs on
those scaled integers; an integer verdict is final, because the true value
lies inside the integer enclosure.  A question the base precision leaves
open is put again at doubled precision through :meth:`RealContext.decide`,
until the answer is certain or a configurable ceiling aborts the run
instead of guessing.  The algebraic root itself is refined by an integer
Newton iteration whose cell is certified by exact sign evaluations; a
decimal literal's interval is fixed, and only its integer rounding gets
finer.

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

Independence of 1, xi, xi^3 for an ``alg:`` spec is decided exactly in
integers.  A Sturm sequence counts the roots in the interval of the
squarefree part g of the polynomial, the isolating polynomial.  LLL on the
rows (e_j | 2^s * xi^j rounded), j = 0..k, then finds xi's minimal
polynomial m if deg m <= k; Mignotte's bound ||m||_1 <= 8 * ||g||_2 for
the factor m of g makes a long first reduced row a proof that there is none.
"""

from __future__ import annotations

import re
import warnings
from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm

from .errors import PrecisionError
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


class DecimalXi(namedtuple("DecimalXi", "digits")):
    """A decimal literal, kept as its digit string."""

    __slots__ = ()

    def describe(self) -> str:
        return f"dec:{self.digits}"


class AlgebraicXi(namedtuple("AlgebraicXi", "coeffs lo hi")):
    """The one real root in [lo, hi] of the polynomial `coeffs` (ascending degree)."""

    __slots__ = ()

    def describe(self) -> str:
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
        raise ValueError(f"zero denominator in {text.strip()!r}") from exc


def parse_xi_spec(text: str) -> XiSpec:
    text = text.strip()
    if text.startswith("dec:"):
        digits = text[4:].strip()
        if not re.fullmatch(r"-?\d+(\.\d+)?", digits):
            raise ValueError(f"bad decimal literal {digits!r}")
        return DecimalXi(digits)
    if text.startswith("alg:"):
        m = re.fullmatch(r"alg:(.+?)\s+in\s+\[([^,\]]+),([^,\]]+)\]", text)
        if not m:
            raise ValueError(f"bad algebraic spec {text!r}; expected 'alg:<poly> in [a,b]'")
        coeffs = _parse_int_poly(m.group(1))
        lo, hi = _parse_fraction(m.group(2)), _parse_fraction(m.group(3))
        if not lo < hi:
            raise ValueError(f"empty isolating interval [{lo},{hi}]")
        return AlgebraicXi(coeffs, lo, hi)
    raise ValueError(f"xi spec must start with 'dec:' or 'alg:', got {text!r}")


# One signed monomial of the token text that _parse_int_poly builds:
# c, c*x, c*x^e or x, x^e, with c an integer or p/q.
_MONOMIAL = re.compile(r"([+-]) (?:(\d+)(?: / (\d+))?( \* x)?|(x))(?: \^ (\d+))?(?: |$)")


def _parse_int_poly(expr: str) -> tuple[int, ...]:
    """Ascending integer coefficients of a signed sum of monomials in x.

    A monomial is c, c*x, c*x^e or x, x^e (``**`` for ``^`` too), with c an
    integer or p/q and e a nonnegative integer; monomials of one degree add
    up, and the sum is scaled by the lcm of its denominators.  Anything
    else (products, parentheses, names) raises ValueError: the text is
    matched, never evaluated.
    """
    bad = ValueError(f"cannot parse polynomial {expr!r}")
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
            raise ValueError(f"polynomial {expr!r} has degree above {MAX_DEGREE}")
        c = Fraction(int(num or 1), int(den or 1))
        terms[e] = terms.get(e, 0) + (c if sign == "+" else -c)
        pos = m.end()
    scale = lcm(*(c.denominator for c in terms.values()))
    out = [0] * (max(terms) + 1)
    for e, c in terms.items():
        out[e] = int(c * scale)
    out = _trim(out)
    if len(out) < 2:
        raise ValueError(f"polynomial {expr!r} must have degree >= 1")
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


def _root_cell(coeffs, sign_lo: int, lo: Fraction, hi: Fraction, k: int):
    """The depth-k bisection cell of [lo, hi] that holds the root.

    With w = (hi - lo) / 2^k, returns the cell [lo + j*w, lo + (j+1)*w] whose
    left end has sign sign_lo and whose right end has not: the cell k
    halvings of [lo, hi] end in.  An integer Newton iteration on the grid
    2^GUARD_BITS times finer guesses j; exact sign evaluations at the guess
    and its neighbours certify it, and bisection of the integer bracket
    [0, 2^k] finishes the search whenever they do not.
    """
    q = lo.denominator * hi.denominator
    p = lo.numerator * hi.denominator
    width = hi.numerator * lo.denominator - p
    depth = k + GUARD_BITS
    # g(t) = (q*2^depth)^n f(lo + t*w/2^GUARD_BITS), positive multiple of f
    g = _scaled_poly(coeffs, p << depth, width, q << depth)

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
    return (Fraction((p << k) + a * width, q << k),
            Fraction((p << k) + b * width, q << k))


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
        raise ValueError("isolating interval endpoint is a root; shrink the interval")


def _root_count_error(spec: AlgebraicXi, nroots: int) -> ValueError:
    return ValueError(f"interval [{spec.lo},{spec.hi}] contains {nroots} real roots "
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
    degree > k.

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
    half = (64 * norm_sq).bit_length() // 2

    def reduced(k, s):  # b1's coefficients, and whether ||b1||^2 > 2^k * R2
        enclosures = [ctx.scaled(j, s) for j in range(1, k + 1)]
        width = max((hi - lo for lo, hi in enclosures), default=0)
        rows = [[int(i == j) for i in range(k + 1)] + [a]
                for j, a in enumerate([1 << s] + [lo for lo, _ in enclosures])]
        _lll(rows)
        return rows[0][:-1], sum(c * c for c in rows[0]) > (64 * norm_sq * (1 + width**2)) << k

    top = min(3, len(g) - 2)
    if reduced(top, (top + 1) * (half + top + 8))[1]:
        return _dependence_reason(g)
    s = 0
    for k in range(1, top + 1):
        s = max(s, (k + 1) * (half + k + 8))
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
            raise ValueError(f"precision_bits must be >= 4, got {precision_bits}")
        if max_bits < precision_bits:
            raise ValueError(f"max_bits must be >= precision_bits, got {max_bits}")
        self.spec = spec
        self.precision_bits = precision_bits
        self.max_bits = max_bits
        self.dependence_reason: str | None = None
        self.independence_assumed = False
        self._pow_cache: dict[int, tuple[Interval, Interval, Interval]] = {}
        # keyed k by default and (k, bits) otherwise: the hot path builds no tuple
        self._scaled_cache: dict[int | tuple[int, int], tuple[int, int]] = {}

        if isinstance(spec, DecimalXi):
            value = Fraction(spec.digits)
            frac_digits = len(spec.digits.split(".")[1]) if "." in spec.digits else 0
            ulp = Fraction(1, 10**frac_digits)
            # truncation semantics: the literal is a prefix of the true expansion,
            # so its "-" (not the sign of its value: -0.0) says on which side
            base = (Interval(value - ulp, value) if spec.digits.startswith("-")
                    else Interval(value, value + ulp))
            self._literal_powers = (base, base * base, base * base * base)
            self._isolating_poly = None
            self.independence_assumed = True
        else:
            # xi is the only root of _isolating_poly in [lo, hi], a simple one
            self._isolating_poly = _isolating_polynomial(spec)
            self._lo = Fraction(spec.lo)
            self._hi = Fraction(spec.hi)
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
    def _cell(self, depth: int) -> Interval:
        """The cell of the depth-`depth` dyadic grid of [lo, hi] that holds xi.

        Cells nest: a coarser one than the deepest found is its index shifted
        right, a deeper one is searched from it and becomes the deepest.
        """
        step = (self._hi - self._lo) / (1 << depth)
        if depth > self._depth:
            start = self._cell(self._depth)
            cell_lo, _ = _root_cell(self._isolating_poly, self._sign_lo,
                                    start.lo, start.hi, depth - self._depth)
            self._depth, self._index = depth, int((cell_lo - self._lo) / step)
        j = self._index >> (self._depth - depth)
        return Interval(self._lo + j * step, self._lo + (j + 1) * step)

    def power(self, k: int, bits: int | None = None) -> Interval:
        """Enclosure of xi^k (k in 1..3) with width <= 2^-bits * max(1, |xi|^3).

        It depends on k and bits alone: xi, xi^2, xi^3 at bits are the powers
        of the root cell at the fewest halvings of [lo, hi] that leave it at
        most 2^-bits wide with all three powers within the bound.  A decimal
        spec has one literal interval; more bits only refine its rounding.
        """
        if k not in (1, 2, 3):
            raise ValueError("only powers 1..3 are served")
        if self._isolating_poly is None:
            return self._literal_powers[k - 1]
        bits = self.precision_bits if bits is None else bits
        powers = self._pow_cache.get(bits)
        if powers is None:
            target = Fraction(1, 1 << bits)
            # fewest halvings to width <= target: least depth with 2^depth >= width * 2^bits
            width = self._hi - self._lo
            depth = (-((-width.numerator << bits) // width.denominator) - 1).bit_length()
            while True:
                base = self._cell(depth)
                square = base * base
                cube = square * base
                bound = target * max(Fraction(1), abs(cube).hi)
                if max(base.width, square.width, cube.width) <= bound:
                    break
                depth += 1
            powers = self._pow_cache[bits] = (base, square, cube)
        return powers[k - 1]

    def scaled(self, k: int, bits: int | None = None) -> tuple[int, int]:
        """Integers (lo, hi) with lo <= 2^bits * xi^k <= hi (default precision_bits).

        Rounded outward (floor, ceil) from the exact enclosure power(k, bits);
        cached per k at the default precision and per (k, bits) otherwise.
        """
        key = k if bits is None else (k, bits)
        out = self._scaled_cache.get(key)
        if out is None:
            bits = self.precision_bits if bits is None else bits
            iv = self.power(k, bits)
            out = ((iv.lo.numerator << bits) // iv.lo.denominator,
                   -((-iv.hi.numerator << bits) // iv.hi.denominator))
            self._scaled_cache[key] = out
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

        The scaled integer enclosure at the base precision decides when it
        lies strictly between two half-integers; otherwise the same test is
        put at escalating precision through :meth:`decide`.
        """
        n = self._nearest_fixed(m, k)
        if n is None:
            n = self.decide(lambda bits: self._nearest_fixed(m, k, bits),
                            what=f"rounding of {m}*xi^{k}")
        return n

    def _nearest_fixed(self, m: int, k: int, bits: int | None = None) -> int | None:
        """Nearest integer to m * xi^k if the scaled enclosure at bits certifies it."""
        lo, hi = self.scaled(k, bits)
        bits = self.precision_bits if bits is None else bits
        lo, hi = (m * lo, m * hi) if m >= 0 else (m * hi, m * lo)
        half = 1 << (bits - 1)
        n = (lo + half) >> bits
        if (n << bits) - half < lo and hi < (n << bits) + half:
            return n
        return None


# -- real-valued forms ------------------------------------------------------

def delta_of(x: Vec3, ctx: RealContext, bits: int | None = None) -> Interval:
    """Enclosure of 2*x0*xi^3 - 3*x1*xi^2 + x2 (second-order contact with the curve)."""
    return ctx.power(3, bits) * (2 * x[0]) - ctx.power(2, bits) * (3 * x[1]) + Interval(x[2])


def approx_error(x: Vec3, ctx: RealContext, bits: int | None = None) -> Interval:
    """Enclosure of L(x) = max(|x1 - x0*xi|, |x2 - x0*xi^3|)."""
    e1 = abs(Interval(x[1]) - ctx.power(1, bits) * x[0])
    e2 = abs(Interval(x[2]) - ctx.power(3, bits) * x[0])
    return e1.max_with(e2)


def scaled_error(x: Vec3, ctx: RealContext, bits: int | None = None) -> tuple[int, int]:
    """Integers (lo, hi) with lo <= 2^bits * L(x) <= hi (default ctx.precision_bits)."""
    shift = ctx.precision_bits if bits is None else bits
    err_lo = err_hi = 0
    for k, target in ((1, x[1]), (3, x[2])):
        lo, hi = ctx.scaled(k, bits)
        lo, hi = (x[0] * lo, x[0] * hi) if x[0] >= 0 else (x[0] * hi, x[0] * lo)
        e_lo, e_hi = (target << shift) - hi, (target << shift) - lo
        if e_lo < 0:
            e_lo, e_hi = (-e_hi, -e_lo) if e_hi <= 0 else (0, max(-e_lo, e_hi))
        err_lo, err_hi = max(err_lo, e_lo), max(err_hi, e_hi)
    return err_lo, err_hi
