"""Integer linear algebra against the Fraction routes of the oracle.

Matrices are drawn up to 12 x 12 with entries up to 2^64 in size, negative
entries, zero rows, repeated rows and rank deficiency by construction: most
rows are small integer combinations of a few base rows.
"""

from fractions import Fraction
from math import gcd

import oracle
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from xicube.linalg import IntEchelon, solve_unique

BIG = 2**64
entries = st.integers(-BIG, BIG) | st.integers(-3, 3)


@st.composite
def matrices(draw, max_size=12):
    """(ncols, rows): base rows mixed with their combinations, zero rows and repeats.

    The rank is at most the number of base rows, which is drawn, and equals
    ncols about half the time.
    """
    ncols = draw(st.integers(1, max_size))
    rank = ncols if draw(st.booleans()) else draw(st.integers(0, ncols))
    base = [draw(st.lists(entries, min_size=ncols, max_size=ncols)) for _ in range(rank)]
    rows = list(base)
    for kind in draw(st.lists(st.sampled_from(("combination", "zero", "repeat")),
                              max_size=max_size - rank)):
        if kind == "zero" or not rows:
            rows.append([0] * ncols)
        elif kind == "repeat":
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            coeffs = draw(st.lists(st.integers(-3, 3), min_size=rank, max_size=rank))
            rows.append([sum(c * b[j] for c, b in zip(coeffs, base)) for j in range(ncols)])
    return ncols, draw(st.permutations(rows))


def _echelon(ncols, rows) -> IntEchelon:
    ech = IntEchelon(ncols)
    for row in rows:
        ech.insert(row)
    return ech


@given(matrices())
@example((3, [[1, 2, 3], [0, 3, 5], [3, 8, 1]]))  # reductions with ratio 1 and not
def test_tail_update_stores_the_full_row_echelon(matrix):
    ncols, rows = matrix
    assert _echelon(ncols, rows).rows == oracle.full_row_echelon(rows)


@given(matrices())
@example((3, [[0, 0, 0], [2, 4, 6], [2, 4, 6]]))
@example((4, [[-BIG, 1, 0, BIG - 1], [3, 0, -BIG, 5]]))
def test_nullspace_matches_fraction_back_substitution(matrix):
    ncols, rows = matrix
    ech = _echelon(ncols, rows)
    basis = ech.nullspace()
    assert basis == oracle.fraction_nullspace(ech)
    assert len(basis) == ncols - ech.rank
    for v in basis:
        assert gcd(*v) == 1
        assert next(x for x in v if x) > 0
        for row in rows:
            assert sum(a * b for a, b in zip(row, v)) == 0


def _outcome(solve, rows, rhs):
    try:
        return solve(rows, rhs)
    except ValueError as exc:
        return ("ValueError", str(exc))


fractions = st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, 6))


@st.composite
def systems(draw):
    """(rows, rhs): consistent with a drawn solution, or with a free rhs."""
    ncols, rows = draw(matrices())
    if draw(st.booleans()):  # scale each row by 1/d, keeping the rank
        rows = [[Fraction(a, d) for a in row]
                for row, d in zip(rows, draw(st.lists(st.integers(1, 6), min_size=len(rows),
                                                      max_size=len(rows))))]
    if draw(st.booleans()):
        x = draw(st.lists(fractions, min_size=ncols, max_size=ncols))
        rhs = [sum(a * b for a, b in zip(row, x)) for row in rows]
    else:
        rhs = draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
    return rows, rhs


@given(systems())
def test_solve_unique_matches_gauss_jordan(system):
    rows, rhs = system
    assert _outcome(solve_unique, rows, rhs) == _outcome(oracle.solve_unique, rows, rhs)


@pytest.mark.parametrize("rows,rhs,want", [
    ([], [], []),
    ([[2, 1], [1, -1]], [3, 0], [1, 1]),
    ([[Fraction(1, 2), 0], [0, Fraction(-1, 3)], [1, 1]], [1, 1, -1], [2, -3]),
    ([[BIG, 1], [1, 0]], [BIG + 1, 1], [1, 1]),
    ([[1, 1], [2, 2]], [1, 3], None),
    ([[0, 0]], [1], None),
    ([[1, 1], [2, 2]], [1, 2], ValueError),
    ([[0, 0]], [0], ValueError),
    # inconsistent only in a row after the n independent ones
    ([[1, 0], [0, 1], [1, 1]], [1, 1, 3], None),
    # tall and consistent, its last two rows checked against the solution
    ([[Fraction(1, 2), 1], [1, Fraction(-1, 3)], [Fraction(3, 2), Fraction(2, 3)],
      [0, Fraction(1, 5)]], [-2, 3, 1, Fraction(-3, 5)], [2, -3]),
    # a pivot in the rhs column at rank 1: inconsistent, though also rank deficient
    ([[1, 0, 0], [1, 0, 0], [0, 1, 0]], [1, 2, 0], None),
])
def test_solve_unique_cases(rows, rhs, want):
    for solve in (solve_unique, oracle.solve_unique):
        if want is ValueError:
            with pytest.raises(ValueError, match="not unique"):
                solve(rows, rhs)
        else:
            assert solve(rows, rhs) == want
