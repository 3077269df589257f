"""Exact linear algebra over Z and Q.

The nullspace routine is the workhorse of every subspace computation in the
package.  Elimination on integer rows is fraction-free (cross-multiplication
with content reduction), so only the final back-substitution touches
rationals.  All outputs are deterministic: rows are processed in the order
given, free columns ascend, and each basis vector is content-normalized with
its first nonzero entry positive.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


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
        """Primitive integer basis of the right nullspace, one vector per free column."""
        pivot_cols = {pc for pc, _ in self.rows}
        free = [c for c in range(self.ncols) if c not in pivot_cols]
        out = []
        for f in free:
            v: list[Fraction | int] = [Fraction(0)] * self.ncols
            v[f] = Fraction(1)
            for pc, row in reversed(self.rows):
                s = Fraction(0)
                for c in range(pc + 1, self.ncols):
                    if row[c] and v[c]:
                        s += row[c] * v[c]
                v[pc] = -s / row[pc]
            den = 1
            for x in v:
                den = den * x.denominator // gcd(den, x.denominator)
            ints = [int(x * den) for x in v]
            g = vec_content(ints)
            if g > 1:
                ints = [x // g for x in ints]
            first = next(x for x in ints if x)
            if first < 0:
                ints = [-x for x in ints]
            out.append(ints)
        return out


def solve_unique(rows, rhs) -> list[Fraction] | None:
    """Solve A*x = rhs exactly when the solution is unique.

    Returns None when the system is inconsistent; raises ValueError when the
    solution space has positive dimension.
    """
    m = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    ncols = len(m[0]) - 1 if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                fac = m[i][c]
                m[i] = [x - fac * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    for i in range(r, len(m)):
        if m[i][-1]:
            return None
    if len(pivots) < ncols:
        raise ValueError("solution is not unique")
    sol = [Fraction(0)] * ncols
    for row_idx, c in enumerate(pivots):
        sol[c] = m[row_idx][-1]
    return sol
