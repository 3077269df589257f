"""The (T, A, B) route against the truncated substitution engine of the oracle."""

import random
from fractions import Fraction

import oracle
import pytest
from hypothesis import given
from hypothesis import strategies as st

from xicube import ring, search
from xicube.errors import InvariantViolation
from xicube.ring import (RingElem, basis_of, dim_profile, j_subspace, j_valuation,
                         named_element, rho, tab_columns, tab_coordinates)
from xicube.search import s_subspace_dim, special_family, special_support


@pytest.mark.parametrize("ell", range(11))
def test_j_subspace_matches_substitution(ell):
    support = basis_of(ell)
    for k in range(ell + 3):
        want = [RingElem(ell, dict(zip(support, vec)))
                for vec in oracle.subspace_vectors(ell, support, k)]
        assert j_subspace(ell, k) == want, (ell, k)


@pytest.mark.parametrize("ell", range(7))
def test_s_subspace_dim_matches_substitution(ell):
    for k in range(ell + 3):
        assert s_subspace_dim(2 * ell, k) == oracle.s_subspace_dim(2 * ell, k), (ell, k)


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_special_family_matches_substitution(ell, monkeypatch):
    fast = special_family(ell)
    monkeypatch.setattr(search, "_subspace_vectors", oracle.subspace_vectors)
    assert special_family(ell) == fast


@st.composite
def ring_elements(draw):
    degree = draw(st.integers(0, 9))
    coeffs = draw(st.dictionaries(st.sampled_from(basis_of(degree)),
                                  st.integers(-9, 9).filter(bool), min_size=1))
    return RingElem(degree, coeffs)


@given(ring_elements())
def test_j_valuation_matches_substitution(elem):
    assert j_valuation(elem) == oracle.j_valuation(elem)


def test_tab_coordinates_of_a_and_b():
    # A and B are single monomials of weight 2 and 3 in their own basis
    assert tab_coordinates(named_element("A")) == {(1, 0): 1}
    assert tab_coordinates(named_element("B")) == {(0, 1): 1}
    assert tab_coordinates(named_element("T")) == {(0, 0): 1}


def test_rho_matches_substitution_engine():
    rng = random.Random(7)
    for _ in range(25):
        poly = {}
        for _ in range(3):
            key = (0,) + tuple(rng.randint(0, 3) for _ in range(4))
            poly[key] = poly.get(key, 0) + Fraction(rng.randint(-9, 9))
        poly = {k: v for k, v in poly.items() if v}
        assert rho(poly) == oracle.rho(poly)


def test_closed_form_refuses_a_wrong_substitution(monkeypatch):
    monkeypatch.setattr(ring, "_certified", False)
    monkeypatch.setattr(ring, "rho", lambda p: p)  # an engine that never shifts q
    with pytest.raises(InvariantViolation, match="rho\\(A\\)"):
        j_valuation(named_element("F"))


def _below(columns, k):
    return [{(b, c): v for (b, c), v in col.items() if 2 * b + 3 * c < k} for col in columns]


@st.composite
def supports_and_bounds(draw):
    d = draw(st.integers(0, 40))
    support = draw(st.lists(st.sampled_from(basis_of(d)), min_size=1, unique=True))
    return support, draw(st.integers(-2, d + 3))


@given(supports_and_bounds())
def test_closed_form_columns_match_the_product_recursion(case):
    support, k = case
    assert tab_columns(support, k) == _below(oracle.support_columns(support), k)


@st.composite
def integer_elements(draw):
    degree = draw(st.integers(0, 24))
    coeffs = draw(st.dictionaries(st.sampled_from(basis_of(degree)),
                                  st.integers(-10**6, 10**6), min_size=1))
    return RingElem(degree, coeffs)


@given(integer_elements())
def test_tab_coordinates_match_the_product_recursion(elem):
    assert tab_coordinates(elem) == oracle.tab_coordinates(elem)


@pytest.mark.parametrize("ell", range(13))
def test_s_columns_match_the_product_recursion(ell):
    # the recursion scales F^e M^m N^n by 3^(e+3m+6n), the closed form by 3^(e+2m+3n)
    want = _below(oracle.s_columns(ell), ell + 3)
    got = [{bc: v * 3 ** (m + 3 * n) for bc, v in col.items()}
           for (m, n), col in zip(basis_of(ell), oracle.s_table_columns(ell, ell + 2))]
    assert got == want


def test_special_family_builds_no_row_of_weight_26_or_more(monkeypatch):
    built = []

    def recording(support, k):
        columns = tab_columns(support, k)
        built.extend(bc for col in columns for bc in col)
        return columns

    monkeypatch.setattr(ring, "tab_columns", recording)
    special_family(4)
    assert max(2 * b + 3 * c for b, c in built) == 25
    assert len(set(built)) == 65  # every row of weight below 26 occurs


def _closed_form_order(pairs):
    return sorted(pairs, key=lambda mn: (mn[1], mn[0]))


def test_special_family_eliminates_in_the_closed_form_order(monkeypatch):
    # the columns go in the order (n, m), and the element is the one of the
    # lexicographic elimination
    orders = []
    real = search._subspace_vectors

    def recording(ell, support, k):
        orders.append(list(support))
        return real(ell, support, k)

    monkeypatch.setattr(search, "_subspace_vectors", recording)
    for ell in range(1, 7):
        pairs, k = special_support(ell).pairs, 6 * ell + 2
        elem = special_family(ell)
        assert orders[-1] == _closed_form_order(pairs), ell
        (vec,) = dim_profile(tab_columns(pairs, k), k)[1].nullspace()
        lexicographic = RingElem(12 * ell + 2, dict(zip(pairs, vec)))
        assert elem == lexicographic.integer_normalized(sign_key=(0, 3 * ell)), ell


@pytest.mark.parametrize("ell, bits, lexicographic_bits", [(4, 52, 67), (5, 61, 88)])
def test_closed_form_order_keeps_the_echelon_entries_short(ell, bits, lexicographic_bits):
    def longest(pairs):
        echelon = dim_profile(tab_columns(pairs, 6 * ell + 2), 6 * ell + 2)[1]
        return max(abs(v).bit_length() for _, row in echelon.rows for v in row)

    pairs = special_support(ell).pairs
    assert longest(_closed_form_order(pairs)) <= bits
    assert longest(pairs) == lexicographic_bits
