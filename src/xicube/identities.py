"""The exact identity suite: symbolic checks plus seeded random sampling.

Everything here is zero-tolerance.  The symbolic block verifies the
substitution images and the distinguished-element identities once; the
sampled block replays the multilinear identities on random integer triples
with entries in [-50, 50].
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations

from .errors import UsageError
from .forms import (conjugate_point, coupling_form, cubic_form,
                    pair_discriminant, trilinear_form)
from .ring import (ExpandedPoly, evaluate, expand, j_valuation,
                   named_element, rho, shift_q)
from .vectors import cross, dot

# unit generators as expanded polynomials (q, S, T, U, V)
_S: ExpandedPoly = {(0, 1, 0, 0, 0): Fraction(1)}
_T: ExpandedPoly = {(0, 0, 1, 0, 0): Fraction(1)}
_U: ExpandedPoly = {(0, 0, 0, 1, 0): Fraction(1)}
_V: ExpandedPoly = {(0, 0, 0, 0, 1): Fraction(1)}


def symbolic_checks() -> list[tuple[str, bool]]:
    T, F, S2V = named_element("T"), named_element("F"), named_element("S2V")
    A, B = named_element("A"), named_element("B")
    M, N, D6 = named_element("M"), named_element("N"), named_element("D6")

    out = []
    out.append(("rho(S) = S", rho(_S) == _S))
    out.append(("rho(T) = 3S + qT",
                rho(_T) == {(0, 1, 0, 0, 0): 3, (1, 0, 1, 0, 0): 1}))
    out.append(("rho(U) = 3S + 2qT + q^2 U",
                rho(_U) == {(0, 1, 0, 0, 0): 3, (1, 0, 1, 0, 0): 2, (2, 0, 0, 1, 0): 1}))
    out.append(("rho(V) = S + qT + q^2 U + q^3 V",
                rho(_V) == {(0, 1, 0, 0, 0): 1, (1, 0, 1, 0, 0): 1,
                            (2, 0, 0, 1, 0): 1, (3, 0, 0, 0, 1): 1}))
    ea = expand(A)
    eb = expand(B)
    out.append(("rho(A) = q^2 A", rho(ea) == shift_q(ea, 2)))
    out.append(("rho(B) = q^3 B", rho(eb) == shift_q(eb, 3)))
    out.append(("F = (4A - T^2)/3", 3 * F == 4 * A - T * T))
    out.append(("4A = T^2 + 3F", 4 * A == T * T + 3 * F))
    out.append(("4B = T^3 - 9TF - 108 S2V",
                4 * B == T * T * T - 9 * (T * F) - 108 * S2V))
    out.append(("M^3 - N^2 = 27 S2V D6",
                M * M * M - N * N == 27 * (S2V * D6)))
    out.append(("valuations of T, S2V, A, B",
                j_valuation(T) == 0 and j_valuation(S2V) == 0
                and j_valuation(A) == 2 and j_valuation(B) == 3))
    return out


def _rand_vec(rng: random.Random):
    return tuple(rng.randint(-50, 50) for _ in range(3))


def sampled_checks(samples: int, seed: int) -> list[tuple[str, bool]]:
    rng = random.Random(seed)
    ok_sym = ok_pol = ok_lin = ok_psi = ok_g = ok_cross = ok_eval = True
    F = expand(named_element("F"))  # once, for every sample
    for _ in range(samples):
        x, y, z = _rand_vec(rng), _rand_vec(rng), _rand_vec(rng)
        a, b = rng.randint(-50, 50), rng.randint(-50, 50)

        base = trilinear_form(x, y, z)
        ok_sym &= all(trilinear_form(*perm) == base for perm in permutations((x, y, z)))
        ok_pol &= trilinear_form(x, x, x) == 3 * cubic_form(x)

        mixed = (a**3 * cubic_form(x) + a * a * b * trilinear_form(x, x, y)
                 + a * b * b * trilinear_form(x, y, y) + b**3 * cubic_form(y))
        ok_lin &= cubic_form((a * x[0] + b * y[0], a * x[1] + b * y[1],
                              a * x[2] + b * y[2])) == mixed

        psi = conjugate_point(x, y)
        rhs = (-cubic_form(x) * trilinear_form(x, x, y) * pair_discriminant(x, y)
               - 8 * cubic_form(x) ** 3 * cubic_form(y))
        ok_psi &= cubic_form(psi) == rhs

        ok_g &= coupling_form(x, x, y) == pair_discriminant(x, y)

        c = cross(x, y)
        ok_cross &= dot(c, x) == 0 and dot(c, y) == 0

        ok_eval &= evaluate(F, x, y) == pair_discriminant(x, y)

    return [
        ("trilinear form symmetric in all 6 argument orders", ok_sym),
        ("trilinear form polarizes the cubic (3x)", ok_pol),
        ("multilinear expansion of the cubic at a*x + b*y", ok_lin),
        ("cubic of the conjugate point identity", ok_psi),
        ("three-point form degenerates to the pair discriminant", ok_g),
        ("cross product orthogonal to both factors", ok_cross),
        ("ring evaluation of F matches the direct pair discriminant", ok_eval),
    ]


def run_identity_suite(samples: int, seed: int) -> list[tuple[str, bool]]:
    if samples < 1:
        raise UsageError(f"samples must be >= 1, got {samples}")
    return symbolic_checks() + sampled_checks(samples, seed)
