"""Rigorous arithmetic for the target number xi.

A :class:`RealContext` wraps a specification of xi (a decimal literal or an
integer polynomial with an isolating interval) and serves enclosures of xi,
xi^2, xi^3 with exact rational endpoints, plus the same enclosures rounded
outward to integer numerators over 2^precision_bits
(:meth:`RealContext.scaled`).
Hot decisions (nearest integers, error comparisons) are first tried on those
scaled integers; an integer verdict is final, because the true value lies
inside the integer enclosure.  What the integer test leaves open goes to the
exact interval probe through :meth:`RealContext.decide`, which escalates the
working precision until the answer is certain and aborts at a configurable
ceiling instead of guessing.  The algebraic root itself is refined by an
integer Newton iteration whose cell is certified by exact sign evaluations.

Spec grammar accepted by :func:`parse_xi_spec`:

* ``dec:<digits>`` -- decimal literal, read as a truncation: the true value
  is only known to lie within one last-digit ulp above the literal.
  Linear independence of 1, xi, xi^3 is *assumed* for these (with a warning).
* ``alg:<integer polynomial in x> in [a,b]`` -- a real algebraic number given
  by a polynomial and an isolating interval with rational endpoints, e.g.
  ``alg:x^4-2 in [1,2]``.  Independence is decided exactly from the minimal
  polynomial.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass
from fractions import Fraction

from .errors import PrecisionError
from .intervals import HALF, Interval
from .vectors import Vec3, sup_norm

DEFAULT_PRECISION_BITS = 192
DEFAULT_MAX_BITS = 1 << 16
# Newton runs on a grid 2^GUARD_BITS times finer than the cell it must find,
# so its last rounding step rarely lands next to a cell boundary
GUARD_BITS = 32


@dataclass(frozen=True)
class DecimalXi:
    digits: str

    def describe(self) -> str:
        return f"dec:{self.digits}"


@dataclass(frozen=True)
class AlgebraicXi:
    coeffs: tuple[int, ...]  # ascending degree
    lo: Fraction
    hi: Fraction

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
            t = "" if abs(c) == 1 else str(abs(c))
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
    return Fraction(text.strip())


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


def _parse_int_poly(expr: str) -> tuple[int, ...]:
    """Parse an integer polynomial in x to an ascending coefficient tuple."""
    import math

    import sympy

    x = sympy.Symbol("x")
    try:
        p = sympy.Poly(sympy.sympify(expr.replace("^", "**")), x)
    except (sympy.SympifyError, sympy.PolynomialError) as exc:
        raise ValueError(f"cannot parse polynomial {expr!r}") from exc
    coeffs = p.all_coeffs()[::-1]  # ascending
    den = 1
    for c in coeffs:
        if not c.is_rational:
            raise ValueError(f"non-rational coefficient in {expr!r}")
        d = int(sympy.denom(c))
        den = den * d // math.gcd(den, d)
    out = tuple(int(c * den) for c in coeffs)
    if len(out) < 2 or out[-1] == 0:
        raise ValueError(f"polynomial {expr!r} must have degree >= 1")
    return out


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


def _analyze_algebraic(spec: AlgebraicXi):
    """Validate the isolating interval and extract the minimal polynomial.

    Returns (minpoly ascending coeffs, dependence reason or None).
    """
    import sympy

    x = sympy.Symbol("x")
    poly = sympy.Poly(list(reversed(spec.coeffs)), x, domain="QQ")
    lo, hi = spec.lo, spec.hi
    if _eval_sign(spec.coeffs, lo) == 0 or _eval_sign(spec.coeffs, hi) == 0:
        raise ValueError("isolating interval endpoint is a root; shrink the interval")
    nroots = poly.count_roots(sympy.Rational(lo), sympy.Rational(hi))
    if nroots != 1:
        raise ValueError(
            f"interval [{lo},{hi}] contains {nroots} real roots of the polynomial, need exactly 1"
        )
    minpoly = None
    for fac, _mult in poly.factor_list()[1]:
        if fac.degree() < 1:
            continue
        if fac.count_roots(sympy.Rational(lo), sympy.Rational(hi)) == 1:
            minpoly = fac
            break
    assert minpoly is not None
    mp_coeffs = tuple(int(c) for c in sympy.Poly(minpoly, x, domain="ZZ").all_coeffs()[::-1])
    if mp_coeffs[-1] < 0:
        mp_coeffs = tuple(-c for c in mp_coeffs)

    deg = len(mp_coeffs) - 1
    reason = None
    if deg == 1:
        reason = "xi is rational"
    elif deg == 2:
        # xi^2 = p*xi + q forces xi^3 into the span of 1 and xi
        reason = "xi is quadratic, so xi^3 lies in the Q-span of 1 and xi"
    elif deg == 3 and mp_coeffs[2] == 0:
        reason = "minimal polynomial a*x^3+b*x+c gives a direct relation on 1, xi, xi^3"
    return mp_coeffs, reason


class RealContext:
    """Enclosures of xi, xi^2, xi^3 with escalation-on-demand."""

    def __init__(self, spec, precision_bits: int = DEFAULT_PRECISION_BITS,
                 max_bits: int = DEFAULT_MAX_BITS):
        if isinstance(spec, str):
            spec = parse_xi_spec(spec)
        if precision_bits < 4:
            raise ValueError("precision_bits must be >= 4")
        if max_bits < precision_bits:
            raise ValueError("max_bits must be >= precision_bits")
        self.spec = spec
        self.precision_bits = precision_bits
        self.max_bits = max_bits
        self.dependence_reason: str | None = None
        self.independence_assumed = False
        self._pow_cache: dict[tuple[int, int], Interval] = {}
        self._scaled_cache: dict[int, tuple[int, int]] = {}

        if isinstance(spec, DecimalXi):
            value = Fraction(spec.digits)
            frac_digits = len(spec.digits.split(".")[1]) if "." in spec.digits else 0
            ulp = Fraction(1, 10**frac_digits)
            # truncation semantics: the literal is a prefix of the true expansion
            if value >= 0:
                self._fixed = Interval(value, value + ulp)
            else:
                self._fixed = Interval(value - ulp, value)
            self._minpoly = None
            self.independence_assumed = True
        else:
            self._minpoly, self.dependence_reason = _analyze_algebraic(spec)
            self._lo = Fraction(spec.lo)
            self._hi = Fraction(spec.hi)
            self._sign_lo = _eval_sign(self._minpoly, self._lo)
            if self._sign_lo == _eval_sign(self._minpoly, self._hi):
                # simple real root in the open interval forces a sign change
                raise ValueError("no sign change across the isolating interval")

    # -- basic properties -------------------------------------------------
    @property
    def dependent(self) -> bool:
        return self.dependence_reason is not None

    def describe(self) -> str:
        return self.spec.describe()

    def is_decimal(self) -> bool:
        return self._minpoly is None

    def warn_if_assumed(self):
        if self.independence_assumed:
            warnings.warn(
                "decimal xi spec: linear independence of 1, xi, xi^3 is assumed, not proved",
                stacklevel=2,
            )

    # -- enclosures --------------------------------------------------------
    def _refine_base(self, width_bound: Fraction):
        """Shrink the root's cell by the fewest halvings reaching width_bound."""
        ratio = (self._hi - self._lo) / width_bound
        num, den = ratio.numerator, ratio.denominator
        k = max(0, num.bit_length() - den.bit_length())
        if den << k < num:
            k += 1
        if k:
            self._lo, self._hi = _root_cell(self._minpoly, self._sign_lo,
                                            self._lo, self._hi, k)

    def xi(self, bits: int | None = None) -> Interval:
        return self.power(1, bits)

    def power(self, k: int, bits: int | None = None) -> Interval:
        """Enclosure of xi^k (k in 1..3) with width <= 2^-bits * max(1, |xi|^3).

        Decimal specs return the fixed literal interval regardless of the
        requested precision; escalation on them is impossible by design.
        """
        if k not in (1, 2, 3):
            raise ValueError("only powers 1..3 are served")
        bits = self.precision_bits if bits is None else bits
        if self._minpoly is None:
            base = self._fixed
            if k == 1:
                return base
            return base * base if k == 2 else base * base * base

        key = (k, bits)
        cached = self._pow_cache.get(key)
        if cached is not None:
            return cached
        target = Fraction(1, 1 << bits)
        self._refine_base(target)
        while True:
            base = Interval(self._lo, self._hi)
            cube = base * base * base
            scale = max(Fraction(1), abs(cube).hi)
            iv = {1: base, 2: base * base, 3: cube}[k]
            if iv.width <= target * scale:
                break
            self._refine_base((self._hi - self._lo) / 2)
        self._pow_cache[key] = iv
        return iv

    def scaled(self, k: int) -> tuple[int, int]:
        """Integers (lo, hi) with lo <= 2^bits * xi^k <= hi, bits = precision_bits.

        Rounded outward (floor, ceil) from the exact enclosure power(k) and
        cached per k.
        """
        out = self._scaled_cache.get(k)
        if out is None:
            bits = self.precision_bits
            iv = self.power(k, bits)
            out = ((iv.lo.numerator << bits) // iv.lo.denominator,
                   -((-iv.hi.numerator << bits) // iv.hi.denominator))
            self._scaled_cache[k] = out
        return out

    def refinable_beyond(self, bits: int) -> bool:
        return self._minpoly is not None and bits < self.max_bits

    # -- decisions ---------------------------------------------------------
    def decide(self, probe, what: str = "comparison"):
        """Run probe(bits) at escalating precision until it returns non-None.

        Raises PrecisionError when the ceiling is hit (or immediately for a
        decimal spec, whose enclosure cannot shrink).
        """
        bits = self.precision_bits
        while True:
            out = probe(bits)
            if out is not None:
                return out
            if not self.refinable_beyond(bits):
                raise PrecisionError(
                    f"{what} undecidable for {self.describe()} at {bits} bits "
                    f"(ceiling {self.max_bits}, decimal specs cannot be refined)"
                )
            bits = min(2 * bits, self.max_bits)

    def nearest_to_multiple(self, m: int, k: int) -> int:
        """Nearest integer to m * xi^k, certified by strict interval containment.

        The scaled integer enclosure at the base precision decides when it
        lies strictly between two half-integers; otherwise the exact probe
        decides, escalating through :meth:`decide`.
        """
        n = self._nearest_fixed(m, k)
        if n is not None:
            return n

        def probe(bits):
            iv = self.power(k, bits) * m
            n = int((iv.mid + HALF).__floor__())
            if n - HALF < iv.lo and iv.hi < n + HALF:
                return n
            return None

        return self.decide(probe, what=f"rounding of {m}*xi^{k}")

    def _nearest_fixed(self, m: int, k: int) -> int | None:
        """Nearest integer to m * xi^k if the scaled enclosure certifies it."""
        bits = self.precision_bits
        lo, hi = self.scaled(k)
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


def scaled_error(x: Vec3, ctx: RealContext) -> tuple[int, int]:
    """Integers (lo, hi) with lo <= 2^bits * L(x) <= hi at ctx.precision_bits."""
    bits = ctx.precision_bits
    err_lo = err_hi = 0
    for k, target in ((1, x[1]), (3, x[2])):
        lo, hi = ctx.scaled(k)
        lo, hi = (x[0] * lo, x[0] * hi) if x[0] >= 0 else (x[0] * hi, x[0] * lo)
        e_lo, e_hi = (target << bits) - hi, (target << bits) - lo
        if e_lo < 0:
            e_lo, e_hi = (-e_hi, -e_lo) if e_hi <= 0 else (0, max(-e_lo, e_hi))
        err_lo, err_hi = max(err_lo, e_lo), max(err_hi, e_hi)
    return err_lo, err_hi


def l_norm(x: Vec3, ctx: RealContext, bits: int | None = None) -> tuple[Interval, int]:
    """(enclosure of L(x), sup-norm of x)."""
    return approx_error(x, ctx, bits), sup_norm(x)
