"""The weight-ordered elimination that gives every dimension of a table row at once."""

import time

import oracle
import pytest
from hypothesis import given
from hypothesis import strategies as st

from xicube.linalg import IntEchelon
from xicube.ring import (RingElem, _low_echelon, basis_of, dim_profile,
                         j_subspace, j_subspace_dims, named_element, tau)
from xicube.search import _fmn_product, s_subspace_dim, s_subspace_dims


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
    profile = dim_profile(columns, kmax)
    assert len(profile) == kmax + 1
    for k in range(kmax + 1):
        vectors = _low_echelon(columns, k).nullspace()
        assert vectors == _lexicographic_nullspace(columns, k), k
        assert profile[k] == len(vectors), k
