"""The weight-ordered elimination that gives every dimension of a table row at once."""

import time

import oracle
import pytest
from hypothesis import given
from hypothesis import strategies as st

from xicube import search
from xicube.errors import InvariantViolation
from xicube.linalg import IntEchelon
from xicube.ring import (RingElem, _subspace_vectors, basis_of, dim_profile,
                         j_subspace, j_subspace_dims, named_element, tab_columns, tau)
from xicube.search import (SupportSet, _fmn_product, maximal_j_element, s_subspace_dim,
                           s_subspace_dims)


def _formula(ell: int) -> list[int]:
    return [max(0, tau(ell) - tau(k - 1)) for k in range(ell + 3)]


@pytest.mark.parametrize("ell", range(15))
def test_j_subspace_dims_count_the_nullspace_bases(ell):
    assert j_subspace_dims(ell) == [len(j_subspace(ell, k)) for k in range(ell + 3)]


@pytest.mark.parametrize("ell", range(10))
def test_s_subspace_dims_match_single_cells(ell):
    assert s_subspace_dims(2 * ell) == [s_subspace_dim(2 * ell, k) for k in range(ell + 3)]


@pytest.mark.parametrize("ell", range(11))
def test_j_subspace_dims_match_substitution(ell):
    support = basis_of(ell)
    assert j_subspace_dims(ell) == [len(oracle.subspace_vectors(ell, support, k))
                                    for k in range(ell + 3)]


def test_dimension_formula_on_deep_tables():
    t0 = time.perf_counter()
    for ell in range(46):
        assert j_subspace_dims(ell) == _formula(ell), f"R_{ell}"
    for ell in range(21):
        assert s_subspace_dims(2 * ell) == _formula(ell), f"S_{2 * ell}"
    print(f"R_0..R_45 and S_0..S_40: {time.perf_counter() - t0:.2f} s")


def test_dims_reject_bad_degrees():
    with pytest.raises(ValueError):
        j_subspace_dims(-1)
    with pytest.raises(ValueError):
        s_subspace_dims(7)


@given(st.integers(0, 4), st.integers(0, 3), st.integers(0, 2))
def test_integer_fmn_product_matches_ring_powers(e, m, n):
    F, M, N = (named_element(name) for name in "FMN")
    assert RingElem(2 * e + 4 * m + 6 * n, _fmn_product(e, m, n)) == F**e * M**m * N**n


_KEYS = [(b, c) for b in range(5) for c in range(4)]


@st.composite
def integer_columns(draw):
    ncols = draw(st.integers(1, 6))
    return [draw(st.dictionaries(st.sampled_from(_KEYS), st.integers(-6, 6).filter(bool),
                                 max_size=8))
            for _ in range(ncols)]


def _lexicographic_nullspace(columns, k):
    ech = IntEchelon(len(columns))
    for key in sorted({bc for col in columns for bc in col if 2 * bc[0] + 3 * bc[1] < k}):
        ech.insert([col.get(key, 0) for col in columns])
    return ech.nullspace()


@given(integer_columns())
def test_weight_order_keeps_the_lexicographic_nullspace(columns):
    kmax = 2 * 4 + 3 * 3 + 1
    profile, _ = dim_profile(columns, kmax)
    assert len(profile) == kmax + 1
    for k in range(kmax + 1):
        prefix, echelon = dim_profile(columns, k)
        vectors = echelon.nullspace()
        assert vectors == _lexicographic_nullspace(columns, k), k
        assert profile[k] == len(vectors) and prefix == profile[:k + 1], k


@st.composite
def supports_and_bounds(draw):
    d = draw(st.integers(0, 14))
    support = draw(st.lists(st.sampled_from(basis_of(d)), min_size=1, unique=True))
    return d, support, draw(st.integers(0, d + 1))


@given(supports_and_bounds())
def test_prefix_of_wider_columns_keeps_the_nullspace(case):
    # maximal_j_element reads its basis off the columns built for its profile
    d, support, k = case
    assert dim_profile(tab_columns(support, d + 2), k)[1].nullspace() == \
        _subspace_vectors(d, support, k)


def test_maximal_j_element_builds_its_columns_once(monkeypatch):
    calls = []

    def counting(support, k):
        calls.append(k)
        return tab_columns(support, k)

    monkeypatch.setattr(search, "tab_columns", counting)
    result = maximal_j_element(SupportSet(9, tuple(named_element("D6").coeffs)))
    assert (result.k_max, len(result.basis), calls) == (6, 1, [11])


@pytest.mark.parametrize("ell", [2, 5])
def test_dependent_s_columns_raise(ell, monkeypatch):
    s_columns = search._s_columns

    def doubled(ell, top):
        columns = s_columns(ell, top)
        return [columns[0]] + columns[:-1]  # the first product twice

    assert s_subspace_dims(2 * ell) == _formula(ell)
    monkeypatch.setattr(search, "_s_columns", doubled)
    for check in (lambda: s_subspace_dims(2 * ell), lambda: s_subspace_dim(2 * ell, 0)):
        with pytest.raises(InvariantViolation, match="linearly dependent"):
            check()
