"""High-precision reference constants for the exponent experiments.

These are the thresholds the asymptotic theory attaches to the sequence of
minimal points.  They are reported alongside experiment output for
comparison against the monitored ratio traces; nothing in the exact suites
depends on them.  Each is a quadratic irrational `(a + b*sqrt(n)) / c`, so
its digits come from an integer square root, not from floating point.
"""

from math import isqrt

_DIGITS = 48

# name -> (a, b, n, c) for (a + b*sqrt(n)) / c
_CONSTANTS = {
    # proved upper bound for the uniform exponent: 2*(9 + sqrt(11))/35
    "mu": (18, 2, 11, 35),
    # conjectural optimum the method cannot pass
    "lambda0": (1, 3, 5, 11),
    # threshold for the non-vanishing of the pair discriminant
    "threshold_sqrt13": (5, -1, 13, 2),
    # first bound, from non-vanishing of the cubic alone
    "threshold_sqrt3": (-1, 1, 3, 1),
    # bound when the pair discriminant never dies
    "five_sevenths": (5, 0, 1, 7),
    # growth ratio attached to lambda0
    "beta0": (5, 3, 5, 2),
    # growth ratio attached to mu
    "nu": (2, 1, 11, 1),
}


def _decimal(a: int, b: int, n: int, c: int) -> str:
    """(a + b*sqrt(n)) / c, in [0.1, 10), to _DIGITS significant digits.

    Rounded to nearest from 20 guard digits; trailing zeros are dropped.
    """
    scale = 10 ** (_DIGITS + 20)
    v = (a * scale + b * isqrt(n * scale * scale)) // c  # value * scale
    drop = len(str(v)) - _DIGITS
    s = str((v + 5 * 10 ** (drop - 1)) // 10**drop)
    whole = drop - 20  # 1 for a value above 1, else 0
    return (s[:whole] or "0") + "." + s[whole:].rstrip("0")


def threshold_constants() -> dict[str, str]:
    return {k: _decimal(*form) for k, form in sorted(_CONSTANTS.items())}
