"""The shift derivation family D_h on the exterior algebra, its inverse
series E_t, the commutative operator ring Z[D], and _laplace, the
Laplace expansion that writes a Giambelli determinant as DPolynomial terms.

Two independent evaluation paths are provided for D_h on a k-vector:
leibniz_d enumerates all compositions of h (most of which cancel) and
pieri_d enumerates only the surviving interleaving symbols.  pieri_d is
the production path; leibniz_d exists as an oracle.  Neither treats h = 0
apart: D_0 = 1 is the one zero composition and the h = 0 row, I -> I.

apply_rows is the loop that applies Pieri rows to flat (index tuple,
q-degree) terms: pieri_d runs it on a k-vector, and
grassmann_contexts.quantum_pieri on a quantum one.  apply_operator
evaluates a polynomial in the D_h as a Horner scheme on the same flat
terms, with the same rows: each group of monomials that share a largest
part h is summed into one vector before D_h's rows are applied to it
once, and a group whose rest is a constant is a leaf, pieri_d(h, v).  The
recursion is a plain function, so a call leaves no reference cycle.

One process-wide, unbounded lru_cache, _row(n, quantum, h, key), owns the
Pieri rule and the quantum wrap rule in every context, infinite,
classical or quantum: a symbol's row for D_h is enumerated once per
process, not once per call.  Its targets are interned through a second
lru_cache, _target, so rows that reach the same (index tuple, q-degree)
share one tuple.  The products of grassmann_contexts key a term by one
int instead, and build their int rows from _row's rows at q-degree 0.
"""

from __future__ import annotations

from functools import lru_cache, partial

from .exterior_core import (
    FreeElement,
    InvalidInputError,
    KVector,
    Partition,
    accumulate,
    as_int,
    as_nonnegative,
    as_partition,
    render_signed_terms,
    signed_sorted,
)


class DPolynomial(FreeElement):
    """Element of Z[D]: ``terms`` maps each monomial, the descending tuple
    of the subscripts of its D factors, to a nonzero integer coefficient.
    The constructor takes Partitions or part tuples and validates them as
    partitions, and ``items()`` gives Partitions; the engine works on
    ``terms`` directly, keyed as _laplace builds them.

    The empty tuple is the identity operator."""

    __slots__ = ()

    def __init__(self, terms=None):
        items = terms.items() if hasattr(terms, "items") else terms or ()
        self.terms = accumulate((as_partition(mono).parts, as_int(c)) for mono, c in items)

    @classmethod
    def identity(cls) -> "DPolynomial":
        return cls._of({(): 1})

    @classmethod
    def generator(cls, h: int) -> "DPolynomial":
        """D_h as an operator polynomial; D_0 is the identity, D_{h<0} = 0."""
        h = as_int(h)
        if h < 0:
            return cls()
        return cls._of({(h,) if h else (): 1})

    @classmethod
    def monomial(cls, mono, coeff: int = 1) -> "DPolynomial":
        return cls({mono: coeff})

    def max_part(self) -> int:
        return max((m[0] for m in self.terms if m), default=0)

    def degree(self) -> int:
        """Largest graded degree |mono| among the terms (-1 if zero)."""
        return max(map(sum, self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        return len(set(map(sum, self.terms))) <= 1

    def items(self):
        """(Partition, int) terms in ascending part order."""
        return [(Partition(m), c) for m, c in sorted(self.terms.items())]

    def __mul__(self, other):
        if isinstance(other, int):
            return self._times(other)
        right = self._coerce(other).terms.items()
        return DPolynomial._of(accumulate(
            (tuple(sorted(m1 + m2, reverse=True)), c1 * c2)
            for m1, c1 in self.terms.items()
            for m2, c2 in right
        ))

    __rmul__ = __mul__

    def __repr__(self):
        return f"DPolynomial({render_dpolynomial(self)!r})"


def _laplace(lam: Partition, k: int, width: int) -> dict:
    """The DPolynomial terms with all parts <= width of lam's Giambelli
    determinant, entry (row i, col j) = D_{r_j + j - i}, r = lam reversed
    and zero padded to k.  Entries above width are skipped as it builds: a
    monomial has a part above width exactly when one of its entries does."""
    return _minor(tuple(range(1, k + 1)), tuple(reversed(lam.padded(k))), width, {(): {(): 1}})


def _minor(rows: tuple, r: tuple, width: int, memo: dict) -> dict:
    """_laplace's minor on these rows (1-indexed) and the first len(rows)
    columns: Laplace expansion along the last column, memoised on the
    remaining rows.  Module-level, so it leaves no reference cycle."""
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


def render_dpolynomial(p: DPolynomial) -> str:
    """Text form like 'D1*D2 - D3'; monomials sorted lexicographically."""
    terms = []
    for mono, c in sorted(p.terms.items()):
        factors = []
        for part in sorted(set(mono)):
            e = mono.count(part)
            factors.append(f"D{part}" if e == 1 else f"D{part}^{e}")
        terms.append((c, factors))
    return render_signed_terms(terms)


def _compositions(h: int, k: int):
    """All tuples of k nonnegative integers summing to h."""
    if k == 0:
        if h == 0:
            yield ()
        return
    if k == 1:
        if h >= 0:
            yield (h,)
        return
    for first in range(h + 1):
        for rest in _compositions(h - first, k - 1):
            yield (first,) + rest


def leibniz_raw_terms(h: int, indices) -> list:
    """Pre-cancellation index lists produced by the generalized Leibniz rule."""
    indices = tuple(indices)
    return [
        tuple(i + s for i, s in zip(indices, shifts))
        for shifts in _compositions(h, len(indices))
    ]


def leibniz_d(h: int, v: KVector) -> KVector:
    """D_h by brute-force composition enumeration followed by normalization.
    D_0 is the identity through its one composition, (0, ..., 0)."""
    h = as_int(h)
    if h < 0:
        raise InvalidInputError("h must be nonnegative")
    return KVector._of(v.degree, accumulate(signed_sorted(
        ((shifted, d), c)
        for (indices, d), c in v.terms.items()
        for shifted in leibniz_raw_terms(h, indices)
    )))


def pieri_symbols(indices, h: int) -> list:
    """The surviving index tuples J: i_1 <= j_1 < i_2 <= j_2 < ... <= i_k <= j_k
    with |J| = |I| + h, all canonical and pairwise distinct.  They are built
    one position at a time: position p < k steps up by at most
    i_{p+1} - 1 - i_p, and the last position takes what is left of h.
    Empty when h < 0, as D_h = 0 there."""
    if h < 0:
        return []
    if not indices:
        return [()] if h == 0 else []
    partial = [((), h)]
    for p in range(len(indices) - 1):
        i = indices[p]
        gap = indices[p + 1] - 1 - i
        partial = [
            (prefix + (i + step,), rem - step)
            for prefix, rem in partial
            for step in range(min(gap, rem) + 1)
        ]
    last = indices[-1]
    return [prefix + (last + rem,) for prefix, rem in partial]


def apply_rows(terms: dict, row) -> dict:
    """Sum each key's coefficient into every target of row(key): the loop
    that applies Pieri rows to tuple-keyed terms.  Targets that total 0
    are dropped."""
    acc = {}
    get = acc.get
    for key, c in terms.items():
        for target in row(key):
            acc[target] = get(target, 0) + c
    return {target: c for target, c in acc.items() if c}


@lru_cache(maxsize=None)
def _target(j: tuple, d: int) -> tuple:
    """The one (j, d) tuple that every cached row holding this target
    shares, so the rows cost one tuple per distinct target."""
    return j, d


@lru_cache(maxsize=None)
def _row(n: int | None, quantum: bool, h: int, key: tuple) -> tuple:
    """The Pieri row of D_h = sigma_h for a flat (index tuple I, q-degree d)
    key, built once per process and holding interned targets, each with
    coefficient 1.  n is None in the infinite context; at rank n, for
    1 <= h <= n-k and I inside [1, n], only the targets with j_k <= n are
    kept, and in quantum mode the wrapped chains
    1 <= j_1 < i_1 <= j_2 < ... <= j_k < i_k with |J| = |I| + h - n follow
    at q-degree d + 1: the interleavings of (1, i_1, ..., i_{k-1}) by
    i_k + h - n - 1 that end below i_k.  (A literal (-1)^(k-1) prefactor on
    the wrapped sum cancels against the sign of moving the wrapped index to
    the front, so the net q-coefficient is +1.)  A row at q-degree d > 0 is
    the row at 0 with every target's degree raised by d."""
    indices, d = key
    if d:
        return tuple(_target(j, e + d) for j, e in _row(n, quantum, h, (indices, 0)))
    row = [_target(j, 0) for j in pieri_symbols(indices, h) if n is None or j[-1] <= n]
    if quantum:
        chains = pieri_symbols((1,) + indices[:-1], indices[-1] + h - n - 1)
        row.extend(_target(j, 1) for j in chains if j[-1] < indices[-1])
    return tuple(row)


def pieri_d(h: int, v: KVector) -> KVector:
    """D_h by cancellation-free Pieri enumeration (production path).
    D_0 is the identity through the h = 0 row, the symbol itself."""
    h = as_int(h)
    if h < 0:
        raise InvalidInputError("h must be nonnegative")
    return KVector._of(v.degree, apply_rows(v.terms, partial(_row, None, False, h)))


def apply_operator(p: DPolynomial, v: KVector) -> KVector:
    """Evaluate an operator polynomial on a k-vector.

    The D_h commute, so p is evaluated as a Horner scheme
    p = c + sum_h D_h * p_h, where p_h holds the other parts of the
    monomials whose largest part is h.  Each p_h v is summed into one flat
    dict before D_h's rows are applied to it once, so terms cancel inside
    the tree, and a symbol's row for D_h is enumerated once per process
    (the shared _row cache).  A constant p_h is a leaf, pieri_d(h, v)
    cached per h for the call and scaled, so pieri_d stays the derivation
    layer a tracer sees under apply_operator."""
    return KVector._of(v.degree, _horner(p.terms.items(), v, {}))


def _horner(monos, v: KVector, leaves: dict) -> dict:
    """Flat terms of the sum of c * D_parts v over these (descending parts,
    c) pairs, sharing the call's per-h leaves.  Module-level: a closure
    that called itself would leave a reference cycle per call."""
    groups = {}
    pairs = []
    for parts, c in monos:
        if parts:
            groups.setdefault(parts[0], []).append((parts[1:], c))
        else:
            pairs.extend((key, c * x) for key, x in v.terms.items())
    for h, inner in groups.items():
        if len(inner) > 1 or inner[0][0]:
            inner_v = _horner(inner, v, leaves)
            pairs.extend(apply_rows(inner_v, partial(_row, None, False, h)).items())
            continue
        if h not in leaves:
            leaves[h] = pieri_d(h, v).terms
        c = inner[0][1]
        pairs.extend((key, c * x) for key, x in leaves[h].items())
    return accumulate(pairs)


def _series_inverse(coeffs: list, max_degree: int) -> list:
    """Coefficients 0..max_degree of the formal inverse of
    1 + c_1 t + ... + c_j t^j for coeffs = [c_1, ..., c_j], in Z[D]:
    E_m = -(c_1 E_{m-1} + ... + c_i E_{m-i}) with i = min(m, j).  Given
    D_1..D_m it gives E_t; given E_1..E_k, D_t = E_t^{-1} on the k-th exterior power."""
    es = [DPolynomial.identity()]
    for m in range(1, max_degree + 1):
        acc = DPolynomial.zero()
        for i, c in enumerate(coeffs[:m], 1):
            acc = acc + c * es[m - i]
        es.append(-acc)
    return es


def inverse_components(max_degree: int) -> list:
    """E_0, ..., E_{max_degree}: coefficients of the formal inverse of
    D_t = 1 + D_1 t + D_2 t^2 + ..., as operator polynomials.

    E_m = -(D_1 E_{m-1} + ... + D_m E_0); each E_m is homogeneous of
    degree m."""
    max_degree = as_nonnegative(max_degree, "max_degree")
    return _series_inverse([DPolynomial.generator(i) for i in range(1, max_degree + 1)], max_degree)


def iterated_d1(m: int, v: KVector) -> KVector:
    """D_1 applied m times."""
    for _ in range(as_nonnegative(m, "m")):
        v = pieri_d(1, v)
    return v
