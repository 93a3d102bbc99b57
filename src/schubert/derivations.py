"""The shift derivation family D_h on the exterior algebra, its inverse
series E_t, the commutative operator ring Z[D], and _laplace, which
writes a Giambelli determinant as DPolynomial terms by a Laplace expansion
run column by column over row subsets, each monomial packed in one int.

pieri_d is the production path; its oracle, leibniz_d, and leibniz_raw_terms
are defined in schur_oracle and only re-exported here.

One function on bit masks, _pieri, owns the Pieri rule (bit i-1 of a mask
is set for each index i).  Its rows fill _ROWS, the one row store of every
context, infinite, classical or quantum, and _apply_sigma is the one loop
that applies them.  KVector terms are keyed by (mask, q-degree) in the
same bits, so pieri_d and apply_operator hand each q-degree's masks to
the rows as they are, and grassmann_contexts.quantum_pieri folds the
q-degree in, mask | d << n; _apply_sigma adds a row's targets into a
dict its caller hands it.  apply_operator runs a Giambelli determinant's
matrix through _laplace's pass with a vector per row subset, and any other
polynomial as a Horner scheme, on each q-degree's masks: each node returns
its own sum, zeros dropped, and a child's sum reaches D_h's rows once.
The recursion is a plain function, so a call leaves no reference cycle.
"""

from __future__ import annotations

from collections import defaultdict

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
)
from .schur_oracle import leibniz_d, leibniz_raw_terms  # noqa: F401


class DPolynomial(FreeElement):
    """Element of Z[D]: ``terms`` maps each monomial, the descending tuple
    of the subscripts of its D factors, to a nonzero integer coefficient.
    The constructor takes Partitions or part tuples and validates them as
    partitions, and ``items()`` gives Partitions; the engine works on
    ``terms`` directly, keyed as _laplace builds them.  ``terms`` is never
    changed in place: giambelli_det's result also records its matrix in
    ``columns``, a slot unset on every other DPolynomial.

    The empty tuple is the identity operator."""

    __slots__ = ("columns",)

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
        return [(Partition._of(m), c) for m, c in sorted(self.terms.items())]

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
    monomial has a part above width exactly when one of its entries does.

    One pass over the columns: after column j, minors maps the bit mask of
    j rows (bit i-1 for row i) to their minor on the first j columns.  Row
    i extends a mask without it by D_{r_j + j - i}, signed by the parity of
    the mask's rows numbered above i.  Each monomial is one int, b bits per
    part's count: D_s adds 1 << s*b, and field 0 (D_0 = 1) is ignored.  The
    full minor's nonzero terms are decoded once, top field first."""
    r, b = lam.padded(k)[::-1], k.bit_length()
    minors = {0: {0: 1}}
    for j in range(1, k + 1):
        top, nxt = r[j - 1] + j, {}
        rows = range(max(1, top - width), min(k, top) + 1)  # 0 <= s = top - i <= width
        for used, monos in minors.items():
            for i in rows:
                if not used >> i - 1 & 1:
                    step, sign = 1 << (top - i) * b, -1 if (used >> i).bit_count() & 1 else 1
                    minor = nxt.setdefault(used | 1 << i - 1, {})
                    get = minor.get
                    for m, c in monos.items():
                        m += step
                        minor[m] = get(m, 0) + sign * c
        minors = nxt
    out = {}
    for m, c in minors.get((1 << k) - 1, {}).items():
        if c:
            parts = ()
            while m >> b:
                s = (m.bit_length() - 1) // b
                e = m >> s * b
                parts, m = parts + (s,) * e, m - (e << s * b)
            out[parts] = c
    return out


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


def _pieri(mask: int, h: int) -> list:
    """The Pieri rule: the masks of the targets J of D_h at the mask of I,
    i_1 <= j_1 < i_2 <= j_2 < ... <= i_k <= j_k with |J| = |I| + h, in
    lexicographic order of J.  The set bits are walked low to high: each
    steps up by at most the gap below the next set bit, and the last takes
    what is left of h, in the same comprehension as the step before it.
    Empty when h < 0, as D_h = 0 there."""
    if h < 0 or not mask:
        return [] if h else [mask]
    partial = [(0, h)]
    low = mask & -mask
    rest = mask ^ low
    while rest:
        up = rest & -rest
        gap = up.bit_length() - low.bit_length() - 1
        rest ^= up
        if not rest:
            return [t | low << s | up << r - s for t, r in partial for s in range(min(gap, r) + 1)]
        partial = [(t | low << s, r - s) for t, r in partial for s in range(min(gap, r) + 1)]
        low = up
    return [low << h]


# Process-wide and unbounded, like the rows: one shared int per row target.
# The rows repeat their targets: the 1,715 Giambelli operators of the 6x6
# box (k <= 6) build 69,501 targets on 7,727 ints, and sharing them takes
# the peak RSS of that pass from 18.7 to 17.1 MB.
_SHARED = {}

# The Pieri rows, built once per process as terms reach them:
# _ROWS[n, quantum][h] (n None in the infinite context) maps a key to the
# keys of its targets, each with coefficient 1.  A key is a mask, and at
# rank n it is mask | d << n, d the q-degree.
_ROWS = defaultdict(lambda: defaultdict(dict))


def _build_row(rows: dict, n: int | None, quantum: bool, h: int, key: int) -> tuple:
    """Store in rows and return the row of D_h at this key.  Infinite, it
    is _pieri's row.  At rank n and q-degree 0 it is that row cut at
    j_k <= n, and in quantum mode the wrapped chains
    1 <= j_1 < i_1 <= j_2 < ... <= j_k < i_k with |J| = |I| + h - n follow
    at q-degree 1: the targets below i_k of D_{i_k + h - n - 1} at
    (1, i_1, ..., i_{k-1}), none when i_1 = 1.  (A literal (-1)^(k-1)
    prefactor on the wrapped sum cancels against the sign of moving the
    wrapped index to the front, so the net q-coefficient is +1.)  At
    d > 0 it is the degree-0 row with d << n added to every target."""
    if n is None:
        row = _pieri(key, h)
    elif key >> n:
        shift = key >> n << n
        base = rows.get(key - shift)
        if base is None:
            base = _build_row(rows, n, quantum, h, key - shift)
        row = [t + shift for t in base]
    else:
        row = [t for t in _pieri(key, h) if not t >> n]
        top = 1 << key.bit_length() - 1
        if quantum and not (key ^ top) & 1:
            wrap = _pieri((key ^ top) | 1, top.bit_length() + h - n - 1)
            row += [t | 1 << n for t in wrap if t < top]
    row = rows[key] = tuple(_SHARED.setdefault(t, t) for t in row)
    return row


def _apply_sigma(terms: dict, rows: dict, n: int | None, quantum: bool, h: int, acc: dict) -> dict:
    """D_h on {key: coefficient} terms, its rows in rows, added into acc
    and returned: one dict get per term, then its coefficient summed into
    every target.  Sums of 0 are kept; a caller with signed terms drops
    them.  A caller that wants D_h alone passes acc = {}."""
    get_row = rows.get
    get = acc.get
    for key, c in terms.items():
        row = get_row(key)
        if row is None:
            row = _build_row(rows, n, quantum, h, key)
        for target in row:
            acc[target] = get(target, 0) + c
    return acc


def _by_degree(terms: dict) -> dict:
    """KVector terms as {q-degree: {mask: coefficient}}."""
    groups = {}
    for (mask, d), c in terms.items():
        groups.setdefault(d, {})[mask] = c
    return groups


def pieri_d(h: int, v: KVector) -> KVector:
    """D_h by cancellation-free Pieri enumeration (production path).
    D_0 is the identity through the h = 0 row, the symbol itself."""
    h = as_int(h)
    if h < 0:
        raise InvalidInputError("h must be nonnegative")
    if not isinstance(v, KVector):
        raise InvalidInputError(f"pieri_d acts on a KVector, not {type(v).__name__}")
    rows, out = _ROWS[None, False][h], {}
    for d, terms in _by_degree(v.terms).items():
        for t, c in _apply_sigma(terms, rows, None, False, h, {}).items():
            if c:
                out[t, d] = c
    return KVector._of(v.degree, out)


def apply_operator(p: DPolynomial, v: KVector) -> KVector:
    """Evaluate an operator polynomial on a k-vector.

    D_h's rows do not depend on the q-degree, so each q-degree's terms go
    through the infinite rows apart, keyed by mask.  A Giambelli
    determinant (p.columns set) is applied by its matrix, _columns' pass
    over row subsets, whose first column reads pieri_d(h, v), cached per h
    for the call, so pieri_d stays the layer a tracer sees under
    apply_operator.  Any other p goes through _horner.  Both return their
    sums with zeros dropped."""
    if not isinstance(p, DPolynomial) or not isinstance(v, KVector):
        raise InvalidInputError("apply_operator takes a DPolynomial and a KVector")
    columns, monos, leaves, out = getattr(p, "columns", None), p.terms.items(), {}, {}
    for d, terms in _by_degree(v.terms).items():
        vec = _horner(monos, terms) if columns is None else _columns(columns, terms, d, v, leaves)
        for mask, c in vec.items():
            out[mask, d] = c
    return KVector._of(v.degree, out)


def _columns(r: tuple, terms: dict, d: int, v: KVector, leaves: dict) -> dict:
    """The determinant with entry (row i, col j) = D_{r_j + j - i} on terms,
    v's part at q-degree d, as {mask: c} with zeros dropped: _laplace's
    pass with a vector per row subset.  The leading columns with r_j = 0
    are skipped: column j has 1 on the diagonal, D_1, D_2, ... above it
    and 0 below, so their only nonzero minor is on the rows 1..j they
    span, and it is 1.  The first other column reads the leaves
    pieri_d(h, v).  A minor's vector is negated once, for the rows of odd
    sign."""
    k, j = len(r), r.count(0) + 1
    if j > k:
        return terms
    top, minors = r[j - 1] + j, {}
    for i in range(j, min(k, top) + 1):
        if top - i not in leaves:
            leaves[top - i] = _by_degree(pieri_d(top - i, v).terms)
        minors[(1 << j - 1) - 1 | 1 << i - 1] = leaves[top - i].get(d, {})
    for j in range(j + 1, k + 1):
        top, nxt = r[j - 1] + j, {}
        for used, vec in minors.items():
            neg = {m: -c for m, c in vec.items()}
            for i in range(1, min(k, top) + 1):
                if not used >> i - 1 & 1:
                    src = neg if (used >> i).bit_count() & 1 else vec
                    acc = nxt.setdefault(used | 1 << i - 1, {})
                    _apply_sigma(src, _ROWS[None, False][top - i], None, False, top - i, acc)
        minors = {used: {m: c for m, c in acc.items() if c} for used, acc in nxt.items()}
    return minors.get((1 << k) - 1, {})


def _horner(monos, terms: dict) -> dict:
    """The sum of c * D_parts over these (descending parts, c) pairs on
    terms, as {mask: c} with zeros dropped.  The D_h commute, so the sum
    is c + sum_h D_h * p_h, p_h the other parts of the pairs whose largest
    part is h: the constant is scaled into the sum, and D_h's rows are
    applied once to p_h's own sum, adding their targets into it, so terms
    cancel inside the tree.  Module-level: a closure that called itself
    would leave a reference cycle per call."""
    groups, out = {}, {}
    for parts, c in monos:
        if parts:
            groups.setdefault(parts[0], []).append((parts[1:], c))
        else:
            out = {mask: c * x for mask, x in terms.items()}
    for h, inner in groups.items():
        _apply_sigma(_horner(inner, terms), _ROWS[None, False][h], None, False, h, out)
    return {mask: c for mask, c in out.items() if c}


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
