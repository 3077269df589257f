from fractions import Fraction
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from xicube import (DecompositionFailure, SupportSet, hp_decompose, maximal_j_element,
                    named_element, s_subspace_dim, special_family, special_support, tau)
from xicube.errors import InvalidEll, Undecidable
from xicube.ring import RingElem, basis_of, j_valuation
from xicube.search import prop8_decide, to_fgh


def test_support_validation():
    with pytest.raises(ValueError):
        SupportSet(6, ())
    with pytest.raises(ValueError):
        SupportSet(6, ((4, 0),))  # 2*4 > 6
    s = SupportSet(6, ((3, 0), (0, 2), (3, 0)))
    assert s.pairs == ((0, 2), (3, 0))


def test_trivial_support_search():
    r = maximal_j_element(SupportSet(5, ((0, 0),)))
    assert r.k_max == 0 and len(r.basis) == 1


def test_rediscover_d2():
    r = maximal_j_element(SupportSet(6, ((3, 0), (0, 2))))
    assert r.k_max == 2 and r.unique
    assert r.basis[0].integer_normalized() == named_element("D2").integer_normalized()


def test_rediscover_d3():
    r = maximal_j_element(SupportSet(6, ((3, 0), (1, 1), (0, 2))))
    assert r.k_max == 3 and r.unique
    assert r.basis[0].integer_normalized() == named_element("D3").integer_normalized()


def test_rediscover_d6():
    d6 = named_element("D6")
    r = maximal_j_element(SupportSet(9, tuple(sorted(d6.coeffs))))
    assert r.k_max == 6 and r.unique
    assert r.basis[0].integer_normalized() == d6.integer_normalized()


def test_full_triangle_search():
    r = maximal_j_element(SupportSet(6, tuple(basis_of(6))))
    assert r.k_max == 6
    assert len(r.basis) == tau(6) - tau(5) == 2


@given(st.sets(st.sampled_from(basis_of(8)), min_size=1, max_size=10))
def test_cardinality_guarantee_random_supports(pairs):
    s = SupportSet(8, tuple(pairs))
    r = maximal_j_element(s)
    for k in range(9):
        if len(s.pairs) > tau(k):
            assert r.k_max >= k + 1
    # every basis element certifies its own valuation independently
    for elem in r.basis:
        assert j_valuation(elem) >= r.k_max


def test_guarantee_from_cardinality():
    # whenever |E| > tau(k), the maximal valuation is at least k+1
    supports = [
        SupportSet(6, ((3, 0), (0, 2))),
        SupportSet(6, ((3, 0), (1, 1), (0, 2))),
        SupportSet(9, tuple(sorted(named_element("D6").coeffs))),
        SupportSet(8, tuple(basis_of(8))),
    ]
    for s in supports:
        r = maximal_j_element(s)
        for k in range(s.d + 1):
            if len(s.pairs) > tau(k):
                assert r.k_max >= k + 1


def test_special_support():
    s = special_support(1)
    assert s.d == 14
    assert (7, 0) in s.pairs and (0, 3) in s.pairs
    cone = {(m, n) for (m, n) in basis_of(14) if m + 2 * n >= 7}
    assert set(s.pairs) == cone | {(0, 3)}
    s = special_support(2)
    assert s.d == 26 and (13, 0) in s.pairs and (0, 6) in s.pairs
    with pytest.raises(InvalidEll):
        special_support(0)


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_special_family(ell):
    p = special_family(ell)
    assert p.degree == 12 * ell + 2
    assert p.coefficient(6 * ell + 1, 0) != 0
    assert p.coefficient(0, 3 * ell) > 0
    ints = [c for c in p.coeffs.values()]
    assert all(c.denominator == 1 for c in ints)
    assert set(p.coeffs) <= set(special_support(ell).pairs)
    assert j_valuation(p) >= 6 * ell + 2


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_hp_decompose(ell):
    dec = hp_decompose(special_family(ell), ell)
    assert all(dec.checks.values()), {k: v for k, v in dec.checks.items() if not v}
    assert dec.a % 2 == 1 and dec.b % 2 == 1
    flat = [v for triple in dec.rst for v in triple]
    from math import gcd
    g = 0
    for v in flat:
        g = gcd(g, v)
    assert g == 1
    m = 3 * ell + 2
    for k, (r, s, t) in enumerate(dec.rst):
        assert (r - dec.a * comb(m, 3 * k)) % 2 == 0
        assert (s - dec.a * comb(m, 3 * k + 1)) % 2 == 0
        assert (t - dec.a * comb(m, 3 * k + 2)) % 2 == 0


def test_special_family_ell5():
    p = special_family(5)  # raises DimensionMismatch unless the space is a line
    assert p.coefficient(31, 0) != 0 and p.coefficient(0, 15) != 0
    assert j_valuation(p) >= 32
    assert all(hp_decompose(p, 5).checks.values())


def test_hp_decompose_rejects_outsiders():
    stray = RingElem(14, {(0, 0): 1})  # T^14 is nowhere near the family
    with pytest.raises(DecompositionFailure):
        hp_decompose(stray, 1)


def test_to_fgh():
    h = RingElem(6, {(0, 2): 1})
    assert to_fgh(h) == {(0, 0, 1): 1}
    g = RingElem(4, {(0, 1): 1})  # T * S^2V
    assert to_fgh(g) == {(0, 1, 0): 1}
    with pytest.raises(DecompositionFailure):
        to_fgh(named_element("T"))


def test_s_subspace_dims():
    assert s_subspace_dim(12, 0) == tau(6) == 7
    assert s_subspace_dim(12, 7) == 0
    assert s_subspace_dim(8, 2) == tau(4) - tau(1) == 3
    # past the row's last cell k = l+2, and before its first
    assert s_subspace_dim(12, 9) == s_subspace_dim(12, 10**6) == 0
    assert s_subspace_dim(12, -1) == s_subspace_dim(12, -10**6) == 7
    assert s_subspace_dim(0, 3) == 0 and s_subspace_dim(0, -2) == 1
    with pytest.raises(ValueError):
        s_subspace_dim(7, 0)


def test_prop8_boundary_cases():
    # |F| = |S^2V| = 1: the left side is the full 6 log^2|T|
    holds, diag = prop8_decide(1000, 1, 1, 5, Fraction(1, 10))
    assert holds
    assert diag == {"f": "0.0", "s": "0.0", "t": "4.29202967422018",
                    "sigma": "110.529112346319"}
    # eps = 0 with F = T^2 and S^2V = T^3: holds iff |q| >= |T|
    holds, diag = prop8_decide(10, 100, 1000, 11, 0)
    assert holds
    assert diag == {"f": "1.92050513557826", "s": "2.88075770336738",
                    "t": "0.960252567789128", "sigma": "0.0"}
    assert not prop8_decide(10, 100, 1000, 3, 0)[0]


def test_prop8_preconditions():
    with pytest.raises(ValueError):
        prop8_decide(0, 1, 1, 5, 1)
    with pytest.raises(ValueError):
        prop8_decide(10, 100, 1000, 2, 1)
    with pytest.raises(ValueError):
        prop8_decide(10, 100, 1000, 5, -1)


def test_prop8_exact_tie_is_undecidable():
    # F = T^2, S^2V = T^3, |q| = |T| and eps = 0 makes both sides equal
    with pytest.raises(Undecidable):
        prop8_decide(5, 25, 125, 5, 0)
