"""The recursive Laplace expansion that derivations._laplace replaced, kept
as its reference.

The same Giambelli determinant, entry (row i, col j) = D_{r_j + j - i} with
r = lam reversed and zero padded to k, expanded along the last column of
each minor and memoised on the remaining rows.  Monomials stay descending
part tuples throughout, so it shares no packing or decoding with the
library's subset pass.
"""

from schubert.exterior_core import Partition, accumulate


def laplace_reference(lam: Partition, k: int, width: int) -> dict:
    """{descending parts: c}, the monomials of lam's k x k Giambelli
    determinant whose parts are all <= width."""
    return _minor(tuple(range(1, k + 1)), tuple(reversed(lam.padded(k))), width, {(): {(): 1}})


def _minor(rows: tuple, r: tuple, width: int, memo: dict) -> dict:
    """The minor on these rows (1-indexed) and the first len(rows) columns,
    expanded along its last column."""
    cached = memo.get(rows)
    if cached is None:
        col = len(rows)
        pairs = []
        for pos, i in enumerate(rows):
            s = r[col - 1] + col - i
            if not 0 <= s <= width:
                continue
            sign = -1 if (col - 1 - pos) % 2 else 1
            for mono, c in _minor(rows[:pos] + rows[pos + 1 :], r, width, memo).items():
                if s:
                    mono = tuple(sorted(mono + (s,), reverse=True))
                pairs.append((mono, sign * c))
        cached = memo[rows] = accumulate(pairs)
    return cached
