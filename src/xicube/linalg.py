"""Exact linear algebra over Z and Q.

The nullspace routine is the workhorse of every subspace computation in the
package.  Elimination and back-substitution both run on integers: rows are
reduced by cross-multiplication (by the pivot pair over its gcd) with content
reduction, and each pivot is solved for after scaling the partial vector just
enough for the division to be exact (fraction-free, in the manner of
Bareiss).  A stored row is zero before its pivot, so a reduction whose
multiplier of the incoming row is 1 rewrites only the entries from the pivot
on.  The one linear solve, `solve_unique`, is the nullspace of the augmented
system: it eliminates rows only until every unknown has a pivot, then checks
each remaining row exactly against the one nullspace vector, so rationals
appear only in its input and its solution.  All outputs are deterministic:
rows are processed in the order given, free columns ascend, and each basis
vector is primitive with its first nonzero entry positive.

`_lll`, integral LLL in Cohen's d/lambda form, is the one lattice reduction
of the minimal-point search and of the independence certificate of `realctx`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul


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
            b = r[pc]
            if b:
                a = prow[pc]
                g = gcd(a, b)
                a, b = a // g, b // g
                if a == 1:  # prow is 0 before pc, so r keeps its head
                    r[pc:] = [x - y * b for x, y in zip(r[pc:], prow[pc:])]
                else:
                    r = [x * a - y * b for x, y in zip(r, prow)]
        pivot = next((c for c, v in enumerate(r) if v), None)
        if pivot is None:
            return False
        g = gcd(*r)
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
    """Solve A*x = rhs exactly when the solution is unique; entries int or Fraction.

    Returns None when the system is inconsistent; raises ValueError when the
    solution space has positive dimension.  The augmented rows [A | rhs],
    each cleared of its denominators, go through IntEchelon until its n
    pivots are all unknown columns: a pivot in the last column first means
    inconsistency, and otherwise the one nullspace vector v gives
    x = -v[:n] / v[n].  Each row left over must then vanish on v exactly.
    """
    system = [[*row, b] for row, b in zip(rows, rhs)]
    n = len(system[0]) - 1 if system else 0
    ech = IntEchelon(n + 1)
    used = 0
    while ech.rank < n and used < len(system):
        if ech.insert(_cleared(system[used])) and ech.rows[-1][0] == n:
            return None
        used += 1
    if ech.rank < n:
        raise ValueError("solution is not unique")
    (v,) = ech.nullspace()
    if any(sum(map(mul, _cleared(row), v)) for row in system[used:]):
        return None
    return [Fraction(-x, v[n]) for x in v[:n]]


def _cleared(row) -> list[int]:
    """An int or Fraction row times the lcm of its denominators."""
    den = lcm(*(v.denominator for v in row))
    return [v.numerator * (den // v.denominator) for v in row]


def _lll(b: list[list[int]], h: list[list[int]] | None = None):
    """LLL-reduce the rows of b in place (delta = 3/4), every step mirrored on h if given.

    The rows are linearly independent, of any one length.  The integral
    version of Cohen (A Course in Computational Algebraic Number Theory,
    Algorithm 2.6.7): d[i] is the Gram determinant of the first i rows and
    lam[k][j] = d[j+1] * mu_kj, both integers.  Returns the (d, lam) of the
    reduced basis.
    """
    n = len(b)
    d = [1, sum(map(mul, b[0], b[0]))] + [0] * (n - 1)
    lam = [[0] * n for _ in range(n)]
    k, kmax = 1, 0
    while k < n:
        if k > kmax:  # Gram-Schmidt of the new row
            kmax = k
            for j in range(k + 1):
                u = sum(map(mul, b[k], b[j]))
                for i in range(j):
                    u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
                if j < k:
                    lam[k][j] = u
                else:
                    d[k + 1] = u
        _size_reduce(b, h, d, lam, k, k - 1)
        lk = lam[k][k - 1]
        if 4 * d[k + 1] * d[k - 1] < 3 * d[k] * d[k] - 4 * lk * lk:  # Lovasz fails: swap
            b[k - 1], b[k] = b[k], b[k - 1]
            if h is not None:
                h[k - 1], h[k] = h[k], h[k - 1]
            for j in range(k - 1):
                lam[k - 1][j], lam[k][j] = lam[k][j], lam[k - 1][j]
            dk = (d[k - 1] * d[k + 1] + lk * lk) // d[k]
            for i in range(k + 1, kmax + 1):
                t = lam[i][k]
                lam[i][k] = (d[k + 1] * lam[i][k - 1] - lk * t) // d[k]
                lam[i][k - 1] = (dk * t + lk * lam[i][k]) // d[k + 1]
            d[k] = dk
            k = max(1, k - 1)
        else:
            for j in range(k - 2, -1, -1):
                _size_reduce(b, h, d, lam, k, j)
            k += 1
    return d, lam


def _size_reduce(b, h, d, lam, k: int, j: int):
    """Subtract the multiple of row j from row k that leaves |mu_kj| <= 1/2."""
    dj = d[j + 1]
    if 2 * abs(lam[k][j]) > dj:
        q = (2 * lam[k][j] + dj) // (2 * dj)
        b[k] = [x - q * y for x, y in zip(b[k], b[j])]
        if h is not None:
            h[k] = [x - q * y for x, y in zip(h[k], h[j])]
        lam[k][j] -= q * dj
        for i in range(j):
            lam[k][i] -= q * lam[j][i]
