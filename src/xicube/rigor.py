"""Explicit-precision interval logs and decimal renderings, on plain integers.

Only logarithm-flavored quantities are inexact in this package.  They are
built here as outward-rounded intervals (`Enclosure`) whose endpoints are
dyadic numbers ``man * 2**exp``, each rounded to the enclosure's precision,
so every comparison made on them is rigorous.  Every step is correctly
rounded: ``- * /`` and negation round their exact result outward, and
`_log_bounds` gives the correctly rounded floor and ceiling of a logarithm
(an atanh series with a proven truncation bound, retried at a higher
working precision while the bound straddles a rounding boundary, as in
Ziv's method).  An enclosure keeps the precision it was built at, and
each output is computed at a fixed one: logs and log ratios at `LOG_PREC`
(the logs of a run's integers in one `Logs` table, each computed once),
decimal renderings of rational enclosures at `DECIMAL_PREC`, and the
`lambda_hat` midpoints and the pair-inequality diagnostics at `MID_PREC`.
Decimal strings follow mpmath's ``to_str`` digit for digit, so recorded
reports keep their bytes; ``tests/oracle.py`` keeps the mpmath version of
this module as the reference.
"""

from __future__ import annotations

from fractions import Fraction
from math import log

from .errors import Undecidable
from .intervals import Interval

LOG_PREC = 64
LOG_PREC_CEILING = 1 << 14
DECIMAL_PREC = 80
# binary64 (mpmath's default) precision, the one recorded reports render these at
MID_PREC = 53

FLOOR, CEILING, NEAREST = range(3)


def _round(man: int, exp: int, prec: int, mode: int) -> tuple[int, int]:
    """man * 2**exp rounded to `prec` mantissa bits (NEAREST: ties to even)."""
    shift = man.bit_length() - prec
    if shift <= 0:
        return man, exp
    if mode == FLOOR:
        return man >> shift, exp + shift
    if mode == CEILING:
        return -(-man >> shift), exp + shift
    q = man >> shift
    rest = man - (q << shift)
    half = 1 << (shift - 1)
    if rest > half or rest == half and q & 1:
        q += 1
    return q, exp + shift


def _add(a, b, prec: int, mode: int) -> tuple[int, int]:
    """a + b, correctly rounded."""
    (ma, ea), (mb, eb) = a, b
    if not mb:
        return _round(ma, ea, prec, mode)
    if not ma:
        return _round(mb, eb, prec, mode)
    if ea < eb:
        (ma, ea), (mb, eb) = (mb, eb), (ma, ea)
    # below 2**low there is no rounding boundary between a and a + b, nor
    # between a and a +- 2**(low - 1), so a far smaller b is replaced by that
    # sticky bit instead of being shifted into place
    low = min(ea, ea + ma.bit_length() - prec - 4)
    if eb + mb.bit_length() <= low:
        return _round((ma << (ea - low + 1)) + (1 if mb > 0 else -1), low - 1, prec, mode)
    return _round((ma << (ea - eb)) + mb, eb, prec, mode)


def _div(a, b, prec: int, mode: int) -> tuple[int, int]:
    """a / b, correctly rounded: a quotient of at least prec + 3 bits plus a
    sticky bit for a nonzero remainder."""
    (ma, ea), (mb, eb) = a, b
    if not ma:
        return 0, 0
    shift = max(0, prec + 3 + mb.bit_length() - ma.bit_length())
    q, r = divmod(abs(ma) << shift, abs(mb))
    if r:
        q, shift = 2 * q + 1, shift + 1
    return _round(q if (ma < 0) == (mb < 0) else -q, ea - eb - shift, prec, mode)


def _less(a, b) -> bool:
    (ma, ea), (mb, eb) = a, b
    if ea >= eb:
        return ma << (ea - eb) < mb
    return ma < mb << (eb - ea)


def _to_fraction(d) -> Fraction:
    man, exp = d
    return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)


class Enclosure:
    """[lo, hi] with dyadic endpoints (man, exp), rounded outward at `prec` bits.

    The operators are those of the pair inequality, `lambda_hat` and
    `log_ratio`: ``- * /`` and negation.  An int operand of ``-`` or ``*`` is
    enclosed at the same precision first, and a divisor is an enclosure above
    zero; the left enclosure's precision rules a binary step.
    """

    __slots__ = ("lo", "hi", "prec")

    def __init__(self, lo, hi, prec: int):
        self.lo, self.hi, self.prec = lo, hi, prec

    def to_interval(self) -> Interval:
        return Interval(_to_fraction(self.lo), _to_fraction(self.hi))

    def _coerce(self, other) -> "Enclosure":
        return _int(self.prec, other) if isinstance(other, int) else other

    def __sub__(self, other):
        other, p = self._coerce(other), self.prec
        (m, e), (n, f) = other.hi, other.lo
        return Enclosure(_add(self.lo, (-m, e), p, FLOOR),
                         _add(self.hi, (-n, f), p, CEILING), p)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        (m, e), (n, f), p = self.hi, self.lo, self.prec
        return Enclosure(_round(-m, e, p, FLOOR), _round(-n, f, p, CEILING), p)

    def __mul__(self, other):
        other, p = self._coerce(other), self.prec
        prods = [(m * n, e + f) for m, e in (self.lo, self.hi) for n, f in (other.lo, other.hi)]
        lo = hi = prods[0]
        for prod in prods[1:]:
            if _less(prod, lo):
                lo = prod
            if _less(hi, prod):
                hi = prod
        return Enclosure(_round(*lo, p, FLOOR), _round(*hi, p, CEILING), p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        # every divisor is above zero: the log of an integer >= 2 or of
        # |q| >= 3, or a positive denominator
        p = self.prec
        if other.lo[0] <= 0:
            raise ZeroDivisionError("division by an enclosure of zero")
        (a, b), (c, d) = (self.lo, self.hi), (other.lo, other.hi)
        lo_den, hi_den = (d, c) if a[0] >= 0 else (c, d) if b[0] <= 0 else (c, c)
        return Enclosure(_div(a, lo_den, p, FLOOR), _div(b, hi_den, p, CEILING), p)


def _atanh(p: int, q: int, w: int) -> tuple[int, int]:
    """(s, n) with 0 <= atanh(p/q) * 2**w - s < 3 (n + 1), for 0 <= p/q <= 1/3.

    s sums the n nonzero floored terms t_j // (2j + 1), t_j ~ (p/q)**(2j+1) 2**w.
    Every step floors, so t_j never exceeds its exact value.  The factor
    z2 = t_0**2 >> w falls short of (p/q)**2 2**w by under (2 p/q + 1)
    units, so t_(j+1) = t_j z2 >> w falls short of its exact value by under
    e_j (p/q)**2 + (p/q)(2 p/q + 1) + 1 <= e_j / 9 + 14/9, e_j the shortfall
    of t_j; from e_0 < 1 every shortfall stays below 1.75.  So a summand is
    short by under 2.75 and the tail after the last nonzero term is below 2.
    """
    t = (p << w) // q
    z2 = t * t >> w
    s = n = 0
    while t:
        s += t // (2 * n + 1)
        t = t * z2 >> w
        n += 1
    return s, n


_LN2: dict[int, tuple[int, int]] = {}


def _ln2(w: int) -> tuple[int, int]:
    """(l, err) with |l - ln(2) * 2**w| < err, from ln 2 = 2 atanh(1/3)."""
    got = _LN2.get(w)
    if got is None:
        s, n = _atanh(1, 3, w)
        got = _LN2[w] = 2 * s, 6 * (n + 1)
    return got


def _log_bounds(man: int, exp: int, prec: int):
    """Correctly rounded floor and ceiling of ln(man * 2**exp) at `prec` bits.

    With x = y * 2**k, y = man / 2**s in [3/4, 3/2), ln x = k ln 2 +
    2 atanh(z) for z = (y - 1)/(y + 1) in [-1/7, 1/5).  The sum is known to
    within `err` units of 2**-w; while floor or ceiling differ across that
    margin the working precision w grows by half.  Only ln 1 = 0 is exact
    (the log of any other rational is irrational, so on no rounding
    boundary), and every other x ends the loop.
    """
    if man <= 0:
        raise ValueError("log of a nonpositive number")
    s = man.bit_length()
    if 4 * man < 3 << s:
        s -= 1
    k = exp + s
    p, q = man - (1 << s), man + (1 << s)
    if not p and not k:
        return (0, 0), (0, 0)
    # |ln x| >= 2/3 |y - 1| when k = 0, and > 1/4 otherwise: the bits of
    # cancellation below 1 are added to the working precision
    lead = s + 2 - p.bit_length() if p and not k else 2
    w = prec + max(lead, 0) + 2 * prec.bit_length() + 12
    while True:
        t, n = _atanh(abs(p), q, w)
        approx, err = (2 * t if p > 0 else -2 * t), 6 * (n + 1)
        if k:
            g = w + abs(k).bit_length()
            l2, err2 = _ln2(g)
            approx += k * l2 >> (g - w)
            err += (abs(k) * err2 >> (g - w)) + 2
        lo, hi = approx - err, approx + err
        down = _round(lo, -w, prec, FLOOR)
        up = _round(hi, -w, prec, CEILING)
        if down == _round(hi, -w, prec, FLOOR) and up == _round(lo, -w, prec, CEILING):
            return down, up
        w += w // 2


def _ln(x: Enclosure) -> Enclosure:
    """Enclosure of ln x, for x > 0, at x's precision."""
    p = x.prec
    if x.lo == x.hi:  # a point: one log gives both ends
        return Enclosure(*_log_bounds(*x.lo, p), p)
    return Enclosure(_log_bounds(*x.lo, p)[0], _log_bounds(*x.hi, p)[1], p)


def _int(prec: int, n: int) -> Enclosure:
    """Enclosure of an arbitrary-size integer at `prec` bits."""
    return Enclosure(_round(n, 0, prec, FLOOR), _round(n, 0, prec, CEILING), prec)


def _end(prec: int, x: Fraction, mode: int) -> tuple[int, int]:
    """The FLOOR or CEILING end of `_int(prec, num) / _int(prec, den)` for x = num/den."""
    num, den = x.numerator, x.denominator
    return _div(_round(num, 0, prec, mode),
                _round(den, 0, prec, mode if num < 0 else CEILING - mode), prec, mode)


def _fraction(prec: int, x) -> Enclosure:
    x = Fraction(x)
    return Enclosure(_end(prec, x, FLOOR), _end(prec, x, CEILING), prec)


def _hull(prec: int, interval: Interval) -> Enclosure:
    return Enclosure(_end(prec, interval.lo, FLOOR), _end(prec, interval.hi, CEILING), prec)


# the precision `log_abs` and `rational` enclose at: LOG_PREC, or the
# precision of the `evaluate` call in progress
_work = LOG_PREC


def log_abs(n: int) -> Enclosure:
    """Enclosure of log|n| at the working precision."""
    if n == 0:
        raise ValueError("log of zero")
    return _ln(_int(_work, abs(n)))


def rational(x) -> Enclosure:
    """Enclosure of a rational at the working precision."""
    return _fraction(_work, x)


def evaluate(builder, prec: int):
    """`builder()` with `log_abs` and `rational` enclosing at `prec` bits.

    Arithmetic on the enclosures they return stays at that precision.
    """
    global _work
    outer, _work = _work, prec
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
        if val.lo[0] > 0:
            return 1
        if val.hi[0] < 0:
            return -1
        if prec >= LOG_PREC_CEILING:
            raise Undecidable(f"{what} still ambiguous at {prec} bits")
        prec *= 2


# the float mpmath's to_digits_exp converts with
_LOG2_10 = log(10, 2)


def _digits_exp(man: int, exp: int, dps: int) -> tuple[str, str, int]:
    """Sign, digits and decimal exponent of man * 2**exp, man != 0.

    mpmath's ``to_digits_exp``: about `dps` digits, rounded toward zero
    twice (to a binary, then to a decimal fixed point).  Beyond 2**+-3500 the
    value is first scaled by a power of ten, which mpmath rounds and which is
    exact here, so far out a last digit could differ.
    """
    sign = "-" if man < 0 else ""
    man = abs(man)
    bitprec = int(dps * _LOG2_10) + 10
    exponent = 0
    top = exp + man.bit_length()
    if abs(top) > 3500:
        exponent = int(top * 0.30102999566398120)
        if exponent > 0:
            man, exp = _div((man, exp), (10 ** exponent, 0), bitprec, FLOOR)
        else:
            man *= 10 ** -exponent
        top = exp + man.bit_length()
    fixprec = max(bitprec - top, 0)
    fixdps = int(fixprec / _LOG2_10 + 0.5)
    shift = exp + fixprec
    fixed = man << shift if shift >= 0 else man >> -shift
    digits = str(fixed * 10**fixdps >> fixprec)
    return sign, digits, exponent + len(digits) - fixdps - 1


def _to_str(man: int, exp: int, dps: int) -> str:
    """man * 2**exp as mpmath's ``to_str(x, dps)`` writes it.

    Floor to dps + 3 digits, then round half up to dps; fixed point for a
    leading digit at 10**e with min(-(dps // 3), -5) < e < dps, otherwise
    ``d.ddde+N`` / ``d.ddde-N``; trailing zeros stripped.
    """
    if not man:
        return "0.0"
    sign, digits, exponent = _digits_exp(man, exp, dps + 3)
    if len(digits) > dps and digits[dps] in "56789":
        digits = digits[:dps].rstrip("9")
        if digits:
            digits = digits[:-1] + str(int(digits[-1]) + 1)
        else:
            digits, exponent = "1", exponent + 1
    else:
        digits = digits[:dps]
    if min(-(dps // 3), -5) < exponent < dps:
        if exponent < 0:
            digits, split = "0" * -exponent + digits, 1
        else:
            digits, split = digits.ljust(exponent + 1, "0"), exponent + 1
        exponent = 0
    else:
        split = 1
    digits = (digits[:split] + "." + digits[split:]).rstrip("0")
    if digits.endswith("."):
        digits += "0"
    return sign + digits + (f"e{exponent:+d}" if exponent else "")


def mid_str(x: Enclosure, digits: int = 15, prec: int | None = None) -> str:
    """Decimal of an enclosure's midpoint, rounded to `prec` bits (default x's)."""
    man, exp = _add(x.lo, x.hi, prec or x.prec, NEAREST)
    return _to_str(man, exp - 1, digits)


def decimal(interval: Interval, digits: int = 15) -> str:
    """Decimal rendering of a rational enclosure, at DECIMAL_PREC."""
    return mid_str(_hull(DECIMAL_PREC, interval), digits)


class Logs(dict):
    """ln n at LOG_PREC of integers n >= 1, each computed on its first read.

    A table belongs to one run: it holds the logs of the run's norms and of
    its |q|, and every monitor reads them from it.
    """

    __slots__ = ()

    def __missing__(self, n: int) -> Enclosure:
        log = self[n] = _ln(_int(LOG_PREC, n))
        return log

    def ratio(self, num: int, den: int) -> str:
        """log|num| / log|den|, as the decimal of its midpoint."""
        return mid_str(self[abs(num)] / self[abs(den)])


def lambda_hat(err: Interval, log_x: Enclosure) -> tuple[Interval, str]:
    """Enclosure of log(1/L) / log X for a positive enclosure of L, and its mid.

    `log_x` is the LOG_PREC enclosure of log X, as `Logs` holds it; the
    enclosure is computed at LOG_PREC and the midpoint rendered at MID_PREC.
    """
    lam = -_ln(_hull(LOG_PREC, err)) / log_x
    return lam.to_interval(), mid_str(lam, prec=MID_PREC)
