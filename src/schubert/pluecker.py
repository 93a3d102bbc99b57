"""Exact Pluecker coordinates of a row-spanned k-plane in n-space and the
Schubert symbol of the cell containing it, with a Bruhat-minimality
certificate."""

from __future__ import annotations

from itertools import combinations

from .exterior_core import InvalidInputError, SchubertSymbol, as_int


class RankDeficientError(ValueError):
    """The matrix rows do not span a k-dimensional subspace."""


def _width(matrix) -> int:
    """The column count of a matrix with at least one row and rows of equal
    length; InvalidInputError for any other."""
    if not matrix:
        raise InvalidInputError("empty matrix")
    n = len(matrix[0])
    if any(len(row) != n for row in matrix):
        raise InvalidInputError("rows have unequal lengths")
    return n


def read_matrix(path) -> list:
    """Read an integer matrix: one row per line, entries whitespace-separated."""
    rows = []
    try:
        with open(path) as f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                try:
                    rows.append([int(tok) for tok in line.split()])
                except ValueError:
                    raise InvalidInputError(f"non-integer entry in line: {line!r}")
    except UnicodeDecodeError as exc:
        raise InvalidInputError(f"matrix file is not text: {exc}") from None
    _width(rows)
    return rows


def _eliminate(matrix) -> tuple:
    """One fraction-free (Bareiss) elimination with row swaps.

    Returns the 1-based pivot columns (column c is a pivot iff the first c
    columns have greater rank than the first c - 1) and the last pivot,
    signed by the row swaps.  Every entry below the pivot rows stays an
    integer minor of the matrix (Sylvester's identity), so each division is
    exact; for a square matrix of full rank the signed last pivot is the
    determinant."""
    a = [list(row) for row in matrix]
    rows, cols = len(a), _width(a)
    pivots = []
    sign = prev = 1
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        pivot = next((i for i in range(r, rows) if a[i][c]), None)
        if pivot is None:
            continue
        if pivot != r:
            a[r], a[pivot] = a[pivot], a[r]
            sign = -sign
        for i in range(r + 1, rows):
            for j in range(c + 1, cols):
                a[i][j] = (a[i][j] * a[r][c] - a[i][c] * a[r][j]) // prev
        prev = a[r][c]
        pivots.append(c + 1)
    return pivots, sign * prev


def determinant(matrix) -> int:
    """Exact integer determinant: the signed last pivot of _eliminate, or 0
    when the matrix is singular."""
    if any(len(row) != len(matrix) for row in matrix):
        raise InvalidInputError("determinant needs a square matrix")
    if not matrix:
        return 1  # the empty product
    pivots, last = _eliminate(matrix)
    return last if len(pivots) == len(matrix) else 0


def rank(matrix) -> int:
    """Row rank over the rationals: the number of pivot columns."""
    return len(_eliminate(matrix)[0])


def minor(matrix, columns) -> int:
    """The k x k minor on the given 1-based column indices."""
    n = _width(matrix)
    columns = tuple(map(as_int, columns))
    if not all(1 <= c <= n for c in columns):
        raise InvalidInputError(f"columns {columns} not all within 1..{n}")
    return determinant([[row[c - 1] for c in columns] for row in matrix])


def all_minors(matrix) -> list:
    """(symbol, minor) for every k-subset of columns, in lexicographic order."""
    k, n = len(matrix), _width(matrix)
    return [
        (SchubertSymbol(cols), minor(matrix, cols))
        for cols in combinations(range(1, n + 1), k)
    ]


def schubert_symbol(matrix) -> SchubertSymbol:
    """The symbol (i_1 < ... < i_k) where i_j is the least column index at
    which the rank of the first-i_j-columns submatrix jumps to j: the
    pivot columns of one exact elimination."""
    k = len(matrix)
    pivots, _ = _eliminate(matrix)
    if len(pivots) < k:
        raise RankDeficientError(f"matrix rank below k={k}")
    return SchubertSymbol(pivots)


def bruhat_smaller(sym: SchubertSymbol, n: int) -> list:
    """All symbols componentwise <= sym (within 1..n), excluding sym itself."""
    if sym and sym[-1] > n:
        raise InvalidInputError(f"symbol {tuple(sym)} has an index above n={n}")
    level = [()]
    for bound in sym:  # extend every prefix in order, so the result is lexicographic
        level = [t + (i,) for t in level for i in range((t[-1] if t else 0) + 1, bound + 1)]
    return [SchubertSymbol(t) for t in level if t != sym]


def minimality_certificate(matrix, sym=None) -> list:
    """Pairs (smaller symbol, its minor); every minor is zero exactly when
    the detected symbol is the Bruhat-minimal one with nonzero minor."""
    if sym is None:
        sym = schubert_symbol(matrix)
    n = _width(matrix)
    if len(sym) != len(matrix):
        raise InvalidInputError(f"symbol {tuple(sym)} has {len(sym)} indices, not k={len(matrix)}")
    return [(s, minor(matrix, s)) for s in bruhat_smaller(sym, n)]
