"""The weight-ordered elimination on subset supports, and the counted dimension tables."""

import time
from fractions import Fraction

import oracle
import pytest
from hypothesis import given
from hypothesis import strategies as st

from xicube import ring, search
from xicube.errors import InvariantViolation
from xicube.linalg import IntEchelon
from xicube.ring import (RingElem, _subspace_vectors, basis_of, dim_profile, j_subspace,
                         j_subspace_dims, named_element, tab_columns, tau)
from xicube.search import (SupportSet, _hp_products, maximal_j_element, s_subspace_dim,
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


def _fmn_power(e, m, n):
    """F^e M^m N^n by products of ring elements."""
    f, m_, n_ = (named_element(name) for name in "FMN")
    return oracle.ring_power(f, e) * oracle.ring_power(m_, m) * oracle.ring_power(n_, n)


@given(st.integers(0, 4), st.integers(0, 3), st.integers(0, 2))
def test_integer_fmn_product_matches_ring_powers(e, m, n):
    assert RingElem(2 * e + 4 * m + 6 * n, oracle.fmn_product(e, m, n)) == _fmn_power(e, m, n)


@pytest.mark.parametrize("ell", range(1, 5))
def test_power_table_products_match_ring_powers(ell):
    want = []
    for k in range(ell + 1):
        m, n = 3 * k, 2 * ell - 2 * k
        want += [(1, m, n + 1), (2, m + 1, n), (0, m + 2, n)]
    got = _hp_products(ell)
    assert len(got) == len(want) == 3 * ell + 3
    for (e, m, n), product in zip(want, got):
        assert product == oracle.fmn_product(e, m, n), (e, m, n)
        assert RingElem(12 * ell + 8, product) == _fmn_power(e, m, n), (e, m, n)


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
def test_dependent_s_columns_raise(ell):
    keys, columns = basis_of(ell), oracle.s_table_columns(ell, ell)
    order = oracle.TABLES["S"][1]
    assert s_subspace_dims(2 * ell) == oracle.triangular_dims(keys, columns, order, ell + 2) \
        == _formula(ell)
    doubled = [columns[0]] + columns[:-1]  # the first product twice
    with pytest.raises(InvariantViolation, match="not triangular with a nonzero diagonal"):
        oracle.triangular_dims(keys, doubled, order, ell + 2)


TABLE_ROWS = {"R": j_subspace_dims, "S": lambda ell: s_subspace_dims(2 * ell)}


@pytest.mark.parametrize("table, ell", [("R", ell) for ell in range(31)]
                         + [("S", ell) for ell in range(16)])
def test_triangular_count_equals_the_elimination(table, ell):
    build = oracle.TABLES[table][0]
    assert TABLE_ROWS[table](ell) == dim_profile(build(ell), ell + 2)[0] == _formula(ell)


@pytest.mark.parametrize("table, ell", [("R", ell) for ell in range(46)]
                         + [("S", ell) for ell in range(21)])
def test_counted_rows_equal_the_triangular_check(table, ell):
    assert TABLE_ROWS[table](ell) == oracle.triangular_row(table, ell)


def _zeroed_diagonal(keys, columns, order):
    columns[3] = {**columns[3], keys[3]: 0}


def _entry_after_the_diagonal(keys, columns, order):
    first = min(range(len(keys)), key=lambda i: order(keys[i]))
    columns[first] = {**columns[first], max(keys, key=order): 1}


def _repeated_column(keys, columns, order):
    columns[4] = columns[3]


def _row_outside_the_keys(keys, columns, order):
    columns[-1] = {**columns[-1], (0, len(keys)): 1}


@pytest.mark.parametrize("table", oracle.TABLES)
@pytest.mark.parametrize("mutate", [_zeroed_diagonal, _entry_after_the_diagonal,
                                    _repeated_column, _row_outside_the_keys])
def test_mutated_tables_raise(table, mutate):
    build, order = oracle.TABLES[table]
    ell = 9
    keys, columns = basis_of(ell), build(ell)
    assert oracle.triangular_dims(keys, columns, order, ell + 2) == _formula(ell)
    mutate(keys, columns, order)
    with pytest.raises(InvariantViolation, match="not triangular with a nonzero diagonal"):
        oracle.triangular_dims(keys, columns, order, ell + 2)


def test_an_entry_of_equal_weight_raises_on_the_s_table():
    # weight order ties (3, 0) and (0, 2); only the diagonal may sit at weight 6
    build, order = oracle.TABLES["S"]
    keys, columns = basis_of(9), build(9)
    i = keys.index((3, 0))
    columns[i] = {**columns[i], (0, 2): 1}
    with pytest.raises(InvariantViolation, match="not triangular with a nonzero diagonal"):
        oracle.triangular_dims(keys, columns, order, 11)


def _perturbed_a(monkeypatch):
    # 2A still has rho(2A) = q^2 2A, so only 3F = 4A - T^2 can catch it
    degree, coeffs = ring._NAMED["A"]
    monkeypatch.setitem(ring._NAMED, "A", (degree, {key: 2 * c for key, c in coeffs.items()}))


def _half_constant_in_b(monkeypatch):
    # 4B stays integral, but its T^3 term no longer cancels under rho
    degree, coeffs = ring._NAMED["B"]
    monkeypatch.setitem(ring._NAMED, "B", (degree, {**coeffs, (0, 0): Fraction(1, 2)}))


def _doubled_b(monkeypatch):
    # 2B still has rho(2B) = q^3 2B, so only 27 G0 = T^3 - 3TA - B can catch it
    degree, coeffs = ring._NAMED["B"]
    monkeypatch.setitem(ring._NAMED, "B", (degree, {key: 2 * c for key, c in coeffs.items()}))


def _b_term_in_the_closed_form_3f(monkeypatch):
    columns = ring.tab_columns

    def with_b(support, k):
        # the closed form's 3F is the column of F alone
        return [{**col, (0, 1): 1} if key == (1, 0) else col
                for key, col in zip(support, columns(support, k))]

    monkeypatch.setattr(ring, "tab_columns", with_b)


def _second_low_monomial_in_9m(monkeypatch):
    # a T^4 term puts a monomial below 9M's A
    degree, coeffs = ring._NAMED["M"]
    monkeypatch.setitem(ring._NAMED, "M", (degree, {**coeffs, (0, 0): 1}))


def _low_monomial_in_27n(monkeypatch):
    # a T^6 term puts a monomial below 27N's B
    degree, coeffs = ring._NAMED["N"]
    monkeypatch.setitem(ring._NAMED, "N", (degree, {**coeffs, (0, 0): 1}))


def _half_constant_in_n(monkeypatch):
    # 27N is then not integral, a premise of the integer check
    degree, coeffs = ring._NAMED["N"]
    monkeypatch.setitem(ring._NAMED, "N", (degree, {**coeffs, (0, 0): Fraction(1, 2)}))


@pytest.mark.parametrize("table", TABLE_ROWS)
@pytest.mark.parametrize("breaking, message", [
    (_half_constant_in_b, "rho\\(B\\) is not q\\^3 \\* B"),
    (_perturbed_a, "3F is not 4A - T\\^2"),
    (_doubled_b, "27 G0 is not T\\^3 - 3TA - B"),
    (_b_term_in_the_closed_form_3f, "the closed form is not 3F = 4A - 1"),
    (_second_low_monomial_in_9m, "the lowest-weight part of 9M is not one monomial"),
    (_low_monomial_in_27n, "the lowest-weight part of 27N is not one monomial"),
    (_half_constant_in_n, "27 \\* N is not integral"),
])
def test_a_broken_premise_raises(table, breaking, message, monkeypatch):
    monkeypatch.setattr(ring, "_certified", False)
    breaking(monkeypatch)
    with pytest.raises(InvariantViolation, match=message):
        TABLE_ROWS[table](4)
    assert ring._certified is False
    with pytest.raises(InvariantViolation, match=message):
        s_subspace_dim(8, 2)
