"""Exact Pluecker coordinates of a row-spanned k-plane in n-space and the
Schubert symbol of the cell containing it, with a Bruhat-minimality
certificate."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .exterior_core import InvalidInputError, SchubertSymbol


class RankDeficientError(ValueError):
    """The matrix rows do not span a k-dimensional subspace."""


def read_matrix(path) -> list:
    """Read an integer matrix: one row per line, entries whitespace-separated."""
    rows = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            try:
                rows.append([int(tok) for tok in line.split()])
            except ValueError:
                raise InvalidInputError(f"non-integer entry in line: {line!r}")
    if not rows:
        raise InvalidInputError("empty matrix file")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise InvalidInputError("rows have unequal lengths")
    return rows


def determinant(matrix) -> int:
    """Exact integer determinant by fraction-free (Bareiss) elimination."""
    a = [list(row) for row in matrix]
    m = len(a)
    if any(len(row) != m for row in a):
        raise InvalidInputError("determinant needs a square matrix")
    if m == 0:
        return 1
    sign = 1
    prev = 1
    for i in range(m - 1):
        if a[i][i] == 0:
            for r in range(i + 1, m):
                if a[r][i] != 0:
                    a[i], a[r] = a[r], a[i]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(i + 1, m):
            for c in range(i + 1, m):
                a[r][c] = (a[r][c] * a[i][i] - a[r][i] * a[i][c]) // prev
            a[r][i] = 0
        prev = a[i][i]
    return sign * a[m - 1][m - 1]


def _pivot_columns(matrix) -> list:
    """The 1-based pivot columns of an exact Gaussian elimination over the
    rationals: column c is a pivot iff the first c columns have greater
    rank than the first c - 1."""
    a = [[Fraction(x) for x in row] for row in matrix]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots = []
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        pivot = next((i for i in range(r, rows) if a[i][c]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = a[r][c]
        for i in range(r + 1, rows):
            if a[i][c]:
                f = a[i][c] / inv
                for j in range(c, cols):
                    a[i][j] -= f * a[r][j]
        pivots.append(c + 1)
    return pivots


def rank(matrix) -> int:
    """Row rank over the rationals: the number of pivot columns."""
    return len(_pivot_columns(matrix))


def minor(matrix, columns) -> int:
    """The k x k minor on the given 1-based column indices."""
    return determinant([[row[c - 1] for c in columns] for row in matrix])


def all_minors(matrix) -> list:
    """(symbol, minor) for every k-subset of columns, in lexicographic order."""
    k = len(matrix)
    n = len(matrix[0])
    return [
        (SchubertSymbol(cols), minor(matrix, cols))
        for cols in combinations(range(1, n + 1), k)
    ]


def schubert_symbol(matrix) -> SchubertSymbol:
    """The symbol (i_1 < ... < i_k) where i_j is the least column index at
    which the rank of the first-i_j-columns submatrix jumps to j: the
    pivot columns of one exact elimination."""
    k = len(matrix)
    pivots = _pivot_columns(matrix)
    if len(pivots) < k:
        raise RankDeficientError(f"matrix rank below k={k}")
    return SchubertSymbol(pivots)


def bruhat_smaller(sym: SchubertSymbol, n: int) -> list:
    """All symbols componentwise <= sym (within 1..n), excluding sym itself."""
    k = len(sym)

    def rec(p, prev):
        if p == k:
            yield ()
            return
        for i in range(prev + 1, sym[p] + 1):
            for rest in rec(p + 1, i):
                yield (i,) + rest

    return [SchubertSymbol(t) for t in rec(0, 0) if t != sym.indices]


def minimality_certificate(matrix, sym=None) -> list:
    """Pairs (smaller symbol, its minor); every minor is zero exactly when
    the detected symbol is the Bruhat-minimal one with nonzero minor."""
    if sym is None:
        sym = schubert_symbol(matrix)
    n = len(matrix[0])
    return [(s, minor(matrix, s.indices)) for s in bruhat_smaller(sym, n)]
