"""Exact linear algebra over Z and Q.

The nullspace routine is the workhorse of every subspace computation in the
package.  Elimination and back-substitution both run on integers: rows are
reduced by cross-multiplication (by the pivot pair over its gcd) with content
reduction, and each pivot is solved for after scaling the partial vector just
enough for the division to be exact (fraction-free, in the manner of
Bareiss).  The one linear solve, `solve_unique`, is the nullspace of the
augmented system, so rationals appear only where its input denominators are
cleared and its solution is returned.  All outputs are deterministic: rows
are processed in the order given, free columns ascend, and each basis vector
is primitive with its first nonzero entry positive.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul


def vec_content(vec) -> int:
    g = 0
    for v in vec:
        g = gcd(g, abs(v))
        if g == 1:
            break
    return g


class IntEchelon:
    """Incremental fraction-free row echelon form with a fixed column count."""

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: list[tuple[int, list[int]]] = []  # (pivot_col, row), pivots ascending

    def insert(self, row) -> bool:
        """Reduce a row against the current basis; keep it if independent."""
        r = list(row)
        assert len(r) == self.ncols
        for pc, prow in self.rows:
            if r[pc]:
                a, b = prow[pc], r[pc]
                g = gcd(a, b)
                a, b = a // g, b // g
                r = [x * a - y * b for x, y in zip(r, prow)]
        pivot = next((c for c, v in enumerate(r) if v), None)
        if pivot is None:
            return False
        g = vec_content(r)
        if g > 1:
            r = [v // g for v in r]
        if r[pivot] < 0:
            r = [-v for v in r]
        self.rows.append((pivot, r))
        self.rows.sort(key=lambda item: item[0])
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)

    def full_rank(self) -> bool:
        return len(self.rows) == self.ncols

    def nullspace(self) -> list[list[int]]:
        """Primitive integer basis of the right nullspace, one vector per free column.

        The vector of free column f has every other free column zero.  Back-
        substitution stays in integers: before solving a pivot row for its
        pivot p > 0, the vector is scaled by p // gcd(s, p), where s is the
        row's sum over the columns already set, so the division is exact.
        The vector starts primitive and each step keeps it so (the scale and
        the new entry -s // gcd(s, p) are coprime), so no content is taken.
        """
        pivot_cols = {pc for pc, _ in self.rows}
        free = [c for c in range(self.ncols) if c not in pivot_cols]
        out = []
        for f in free:
            v = [0] * self.ncols
            v[f] = 1
            for pc, row in reversed(self.rows):
                s = sum(map(mul, row, v))  # row is 0 before pc and v[pc] still 0
                p = row[pc]
                g = gcd(s, p)
                if p != g:
                    scale = p // g
                    v = [x * scale for x in v]
                v[pc] = -s // g
            if next(x for x in v if x) < 0:
                v = [-x for x in v]
            out.append(v)
        return out


def solve_unique(rows, rhs) -> list[Fraction] | None:
    """Solve A*x = rhs exactly when the solution is unique.

    Returns None when the system is inconsistent; raises ValueError when the
    solution space has positive dimension.  The augmented rows [A | rhs],
    cleared of denominators, go through IntEchelon: a pivot in the last
    column means inconsistency, and otherwise the one nullspace vector v
    gives x = -v[:n] / v[n].
    """
    system = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    n = len(system[0]) - 1 if system else 0
    ech = IntEchelon(n + 1)
    for row in system:
        den = lcm(*(v.denominator for v in row))
        ech.insert([v.numerator * (den // v.denominator) for v in row])
    if any(pc == n for pc, _ in ech.rows):
        return None
    if ech.rank < n:
        raise ValueError("solution is not unique")
    (v,) = ech.nullspace()
    return [Fraction(-x, v[n]) for x in v[:n]]
