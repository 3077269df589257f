import random
from fractions import Fraction

import pytest
from hypothesis import settings

from xicube import RealContext
from xicube.realctx import AlgebraicXi

settings.register_profile("suite", max_examples=60, deadline=None,
                          derandomize=True)
settings.load_profile("suite")

ROOT2 = "alg:x^4-2 in [1,2]"
QUARTIC = "alg:x^4-x-1 in [1.2,1.3]"


def pi_prefix_spec(fractional_digits: int = 60) -> str:
    """dec: spec holding the truncation of pi to the given fractional digits."""
    from mpmath import mp

    with mp.workdps(fractional_digits + 30):
        scaled = int(mp.floor(mp.pi * mp.mpf(10) ** fractional_digits))
    digits = str(scaled)
    return "dec:" + digits[0] + "." + digits[1:]


def cube_root_product_spec(q_degree: int = 38) -> str:
    """alg: spec of (x^3 - 2) * q in [1.25, 1.26], whose root there is 2^(1/3).

    q is monic of degree q_degree, its other coefficients +-[2^63, 2^64]
    drawn from random.Random(5); the product is formed in integers.
    """
    rng = random.Random(5)
    q = [rng.choice((-1, 1)) * rng.randint(2**63, 2**64) for _ in range(q_degree)] + [1]
    coeffs = [0] * (len(q) + 3)
    for i, c in enumerate(q):
        coeffs[i] -= 2 * c
        coeffs[i + 3] += c
    return AlgebraicXi(tuple(coeffs), Fraction(5, 4), Fraction(63, 50)).describe()


@pytest.fixture(scope="session")
def ctx_root2():
    return RealContext(ROOT2)


@pytest.fixture(scope="session")
def ctx_quartic():
    return RealContext(QUARTIC)


@pytest.fixture(scope="session")
def pi60():
    return pi_prefix_spec(60)
