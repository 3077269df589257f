import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from oracle import count_lattice_points, ring_power

from xicube import (RingElem, ZeroElement, basis_of, evaluate, expand,
                    j_subspace, j_valuation, named_element, rho, tau)
from xicube.forms import cubic_form, pair_discriminant, pair_values
from xicube.ring import lin, mul


def test_tau_examples():
    assert tau(0) == 1
    assert tau(2) == 2
    assert tau(5) == 5
    assert tau(9) == 12
    assert tau(-1) == tau(-7) == 0
    for ell in range(-10, 2001):
        assert tau(ell) == count_lattice_points(ell), ell


def test_basis_examples():
    assert basis_of(0) == [(0, 0)]
    assert basis_of(2) == [(0, 0), (1, 0)]
    assert len(basis_of(6)) == tau(6) == 7
    for ell in range(12):
        assert basis_of(ell) == sorted(basis_of(ell))


def test_expand_examples():
    f = expand(named_element("F"))
    assert f == {(0, 0, 2, 0, 0): 1, (0, 1, 0, 1, 0): -4}
    a = expand(named_element("A"))
    assert a == {(0, 0, 2, 0, 0): 1, (0, 1, 0, 1, 0): -3}
    assert expand(named_element("S2V")) == {(0, 2, 0, 0, 1): 1}


def test_rho_generator_images():
    assert rho({(0, 1, 0, 0, 0): Fraction(1)}) == {(0, 1, 0, 0, 0): 1}
    assert rho({(0, 0, 1, 0, 0): Fraction(1)}) == {(0, 1, 0, 0, 0): 3, (1, 0, 1, 0, 0): 1}
    assert rho({(0, 0, 0, 1, 0): Fraction(1)}) == {
        (0, 1, 0, 0, 0): 3, (1, 0, 1, 0, 0): 2, (2, 0, 0, 1, 0): 1}
    assert rho({(0, 0, 0, 0, 1): Fraction(1)}) == {
        (0, 1, 0, 0, 0): 1, (1, 0, 1, 0, 0): 1, (2, 0, 0, 1, 0): 1, (3, 0, 0, 0, 1): 1}
    with pytest.raises(ValueError):
        rho({(1, 0, 0, 0, 0): Fraction(1)})


def test_rho_eigen_elements():
    for name, val in (("A", 2), ("B", 3)):
        image = rho(expand(named_element(name)))
        shifted = {(eq + val, a, b, c, d): v
                   for (eq, a, b, c, d), v in expand(named_element(name)).items()}
        assert image == shifted


def _random_expanded(rng, nterms=3):
    out = {}
    for _ in range(nterms):
        key = (0, rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2))
        out[key] = out.get(key, 0) + Fraction(rng.randint(-9, 9))
    return {k: v for k, v in out.items() if v}


def test_rho_multiplicative():
    rng = random.Random(5)
    for _ in range(25):
        p, r = _random_expanded(rng), _random_expanded(rng)
        assert rho(mul(p, r)) == mul(rho(p), rho(r))


# small keys and values, so that sums and products often cancel to zero
_VALUES = st.integers(-2, 2) | st.fractions(-2, 2, max_denominator=3)


def _sparse(length):
    return st.dictionaries(st.tuples(*[st.integers(0, 1)] * length), _VALUES, max_size=5)


def _naive_lin(terms):
    keys = {key for _, p in terms for key in p}
    sums = {key: sum(s * p.get(key, 0) for s, p in terms) for key in keys}
    return {key: v for key, v in sums.items() if v}


def _naive_mul(p, r):
    terms = [(tuple(a + b for a, b in zip(k1, k2)), c1 * c2)
             for (k1, c1), (k2, c2) in product(p.items(), r.items())]
    sums = {key: sum(c for k, c in terms if k == key) for key, _ in terms}
    return {key: v for key, v in sums.items() if v}


@given(st.sampled_from([2, 5]).flatmap(lambda n: st.tuples(
    st.lists(st.tuples(_VALUES, _sparse(n)), max_size=4), _sparse(n), _sparse(n))))
@example(([(1, {(1, 0): 1, (0, 1): Fraction(1, 2)}), (-1, {(1, 0): 1, (0, 1): Fraction(1, 2)})],
          {(1, 0): 1, (0, 1): 1}, {(1, 0): 1, (0, 1): -1}))
def test_lin_and_mul_match_their_definitions(case):
    terms, p, r = case
    assert lin(*terms) == _naive_lin(terms)
    assert lin(*terms, (-1, lin(*terms))) == {}
    got = mul(p, r)
    assert got == _naive_mul(p, r) and all(got.values())
    assert mul(p, r) == mul(r, p)
    assert mul(lin((1, p), (-1, p)), r) == {}


def test_named_element_tables():
    d2 = named_element("D2")
    assert d2.degree == 6 and d2.coeffs == {(3, 0): 1, (0, 2): 27}
    d3 = named_element("D3")
    assert d3.coeffs == {(3, 0): 1, (1, 1): -18, (0, 2): -135}
    assert named_element("N") == d3
    d6 = named_element("D6")
    assert d6.degree == 9 and len(d6.coeffs) == 6
    assert d6.coeffs == {(4, 0): 1, (3, 1): 10, (2, 1): -11,
                         (1, 2): -180, (0, 2): -1, (0, 3): -675}
    with pytest.raises(ValueError):
        named_element("Q")


def test_structural_identities():
    T, F, S2V = (named_element(n) for n in ("T", "F", "S2V"))
    A, B, M, N, D6 = (named_element(n) for n in ("A", "B", "M", "N", "D6"))
    assert 3 * F == 4 * A - T * T
    assert 4 * A == T * T + 3 * F
    assert 4 * B == T * T * T - 9 * (T * F) - 108 * S2V
    assert M * M * M - N * N == 27 * (S2V * D6)


def test_j_valuations():
    vals = {"T": 0, "S2V": 0, "A": 2, "B": 3, "M": 2, "D2": 2, "D3": 3, "D6": 6}
    for name, v in vals.items():
        assert j_valuation(named_element(name)) == v
    with pytest.raises(ZeroElement):
        j_valuation(RingElem(4))


def test_valuation_equals_weight_in_alternate_basis():
    # rewriting an element on the products T^(l-2m-3n) A^m B^n and taking
    # min(2m+3n) over the support predicts the valuation independently of
    # the substitution route (A, B scale by q^2, q^3 and powers of 3S+qT
    # always keep a q^0 term)
    from xicube.linalg import solve_unique

    for name in ("T", "F", "S2V", "A", "B", "M", "N", "D2", "D3", "D6"):
        elem = named_element(name)
        T, A, B = named_element("T"), named_element("A"), named_element("B")
        prods = [ring_power(T, elem.degree - 2 * m - 3 * n) * ring_power(A, m) * ring_power(B, n)
                 for (m, n) in basis_of(elem.degree)]
        keys = sorted({k for p in prods for k in p.coeffs} | set(elem.coeffs))
        rows = [[p.coeffs.get(k, Fraction(0)) for p in prods] for k in keys]
        rhs = [elem.coeffs.get(k, Fraction(0)) for k in keys]
        sol = solve_unique(rows, rhs)
        assert sol is not None
        support = [mn for mn, c in zip(basis_of(elem.degree), sol) if c]
        assert min(2 * m + 3 * n for m, n in support) == j_valuation(elem), name


def test_j_valuation_additive():
    rng = random.Random(11)
    names = list("TFAB") + ["S2V", "M", "D2"]
    for _ in range(12):
        p = named_element(rng.choice(names))
        q = named_element(rng.choice(names))
        assert j_valuation(p * q) == j_valuation(p) + j_valuation(q)


def test_j_subspace_dims():
    assert len(j_subspace(6, 2)) == tau(6) - tau(1) == 6
    assert len(j_subspace(5, 0)) == tau(5)
    assert j_subspace(6, 7) == []
    for ell in range(8):
        for k in range(ell + 3):
            assert len(j_subspace(ell, k)) == max(0, tau(ell) - tau(k - 1))


def test_j_subspace_members_verify():
    for elem in j_subspace(6, 3):
        assert j_valuation(elem) >= 3
        assert elem == elem.integer_normalized()


def test_evaluate_examples():
    rng = random.Random(3)
    F, T, D2 = named_element("F"), named_element("T"), named_element("D2")
    for _ in range(20):
        x = tuple(rng.randint(-30, 30) for _ in range(3))
        y = tuple(rng.randint(-30, 30) for _ in range(3))
        assert evaluate(F, x, y) == pair_discriminant(x, y)
        s, v = cubic_form(x), cubic_form(y)
        assert evaluate(D2, x, y) == pair_discriminant(x, y) ** 3 + 27 * (s * s * v) ** 2
        assert evaluate(T, x, x) == 3 * cubic_form(x)


def test_evaluate_refuses_q_terms():
    with pytest.raises(ValueError, match="free of q"):
        evaluate(rho(expand(named_element("F"))), (1, 2, 3), (4, 5, 6))


def _substituted(e, x, y) -> Fraction:
    """e at the pair values of (x, y) in Fractions, on T, F = T^2 - 4SU and G0 = S^2 V."""
    s, t, u, v = pair_values(x, y)
    f, g0 = Fraction(t * t - 4 * s * u), Fraction(s * s * v)
    return sum((c * t ** (e.degree - 2 * m - 3 * n) * f**m * g0**n
                for (m, n), c in e.coeffs.items()), Fraction(0))


def test_evaluate_with_non_integral_coefficients():
    rng = random.Random(5)
    elems = [named_element("A"), named_element("B"), RingElem(4, {})]
    for _ in range(30):
        ell = rng.randint(0, 9)
        elems.append(RingElem(ell, {key: Fraction(rng.randint(-40, 40), rng.randint(1, 12))
                                    for key in basis_of(ell) if rng.random() < 0.7}))
    for e in elems:
        for _ in range(6):
            x = tuple(rng.randint(-20, 20) for _ in range(3))
            y = tuple(rng.randint(-20, 20) for _ in range(3))
            want = _substituted(e, x, y)
            got = evaluate(e, x, y)
            assert got == want and evaluate(expand(e), x, y) == got
            assert type(got) is (int if want.denominator == 1 else Fraction)


def test_serialization_roundtrip():
    assert named_element("D2").serialize() == "deg=6; (0,2):27/1; (3,0):1/1"


def test_specialization_jacobian_rank():
    # images of S, T, U, V at x0 = 0, y0 = 1 stay algebraically independent
    import sympy

    x1, x2, y1, y2 = sympy.symbols("x1 x2 y1 y2")
    s = -x1**3
    t = -3 * x1**2 * y1
    u = x2 - 3 * x1 * y1**2
    v = y2 - y1**3
    jac = sympy.Matrix([[sympy.diff(p, w) for w in (x1, x2, y1, y2)]
                        for p in (s, t, u, v)])
    assert jac.rank() == 4


def test_tau_sandwich():
    for d in range(0, 201):
        t = tau(d)
        assert Fraction(d * d, 12) <= t <= Fraction((d + 5) ** 2, 12)
