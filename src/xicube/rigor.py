"""Explicit-precision interval logs and decimal renderings.

Only logarithm-flavored quantities go through floating point in this
package.  They are built here, the one module that imports mpmath, as
outward-rounded intervals in private mpmath interval contexts, one per
precision, so every comparison made on them is rigorous and no result
depends on mpmath's process-wide ``iv.prec``.  Each output is computed at a
fixed precision: logs and log ratios at `LOG_PREC`, decimal renderings of
rational enclosures at `DECIMAL_PREC`, and the `lambda_hat` midpoints and
the pair-inequality diagnostics at `MID_PREC`.
"""

from __future__ import annotations

from fractions import Fraction

from mpmath import libmp
from mpmath.ctx_iv import MPIntervalContext

from .errors import Undecidable
from .intervals import Interval

LOG_PREC = 64
LOG_PREC_CEILING = 1 << 14
DECIMAL_PREC = 80
# mpmath's default precision, the one recorded reports render these at
MID_PREC = 53

_contexts: dict[int, MPIntervalContext] = {}


def _context(prec: int) -> MPIntervalContext:
    ctx = _contexts.get(prec)
    if ctx is None:
        ctx = _contexts[prec] = MPIntervalContext()
        ctx.prec = prec
    return ctx


# the context `log_abs` and `rational` build in: LOG_PREC, or the precision
# of the `evaluate` call in progress
_work = _context(LOG_PREC)


def _int(ctx, n: int):
    """Enclosure of an arbitrary-size integer at the context's precision."""
    return ctx.make_mpf((libmp.from_int(n, ctx.prec, "f"),
                         libmp.from_int(n, ctx.prec, "c")))


def _fraction(ctx, x):
    x = Fraction(x)
    return _int(ctx, x.numerator) / _int(ctx, x.denominator)


def _hull(ctx, interval: Interval):
    return ctx.make_mpf((_fraction(ctx, interval.lo)._mpi_[0],
                         _fraction(ctx, interval.hi)._mpi_[1]))


def log_abs(n: int):
    """Enclosure of log|n| at the working precision."""
    if n == 0:
        raise ValueError("log of zero")
    return _work.ln(_int(_work, abs(n)))


def rational(x):
    """Enclosure of a rational at the working precision."""
    return _fraction(_work, x)


def evaluate(builder, prec: int):
    """`builder()` with `log_abs` and `rational` enclosing at `prec` bits.

    Arithmetic on the enclosures they return stays at that precision.
    """
    global _work
    outer, _work = _work, _context(prec)
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
        if val.a > 0:
            return 1
        if val.b < 0:
            return -1
        if prec >= LOG_PREC_CEILING:
            raise Undecidable(f"{what} still ambiguous at {prec} bits")
        prec *= 2


def mid_str(x, digits: int = 15, prec: int | None = None) -> str:
    """Decimal of an enclosure's midpoint, rounded to `prec` bits (default x's)."""
    return libmp.to_str(libmp.mpi_mid(x._mpi_, prec or x.ctx.prec), digits)


def decimal(interval: Interval, digits: int = 15) -> str:
    """Decimal rendering of a rational enclosure, at DECIMAL_PREC."""
    return mid_str(_hull(_context(DECIMAL_PREC), interval), digits)


def log_ratio(num: int, den: int) -> str:
    """log|num| / log|den| at LOG_PREC, as the decimal of its midpoint."""
    return mid_str(evaluate(lambda: log_abs(num) / log_abs(den), LOG_PREC))


def lambda_hat(err: Interval, x_next: int) -> tuple[Interval, str]:
    """Enclosure of log(1/L) / log X for a positive enclosure of L, and its mid.

    The enclosure is computed at LOG_PREC; the midpoint is rendered at
    MID_PREC.
    """
    ctx = _context(LOG_PREC)
    lam = -ctx.ln(_hull(ctx, err)) / ctx.ln(_int(ctx, x_next))
    a, b = lam._mpi_
    enclosure = Interval(Fraction(*libmp.to_rational(a)),
                         Fraction(*libmp.to_rational(b)))
    return enclosure, mid_str(lam, prec=MID_PREC)
