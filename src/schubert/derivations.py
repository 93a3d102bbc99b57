"""The shift derivation family D_h on the exterior algebra, its inverse
series E_t, and the commutative operator ring Z[D].

Two independent evaluation paths are provided for D_h on a k-vector:
leibniz_d enumerates all compositions of h (most of which cancel) and
pieri_d enumerates only the surviving interleaving symbols.  pieri_d is
the production path; leibniz_d exists as an oracle.

apply_rows is the one loop that applies Pieri rows.  pieri_d runs it on a
k-vector's flat (index tuple, q-degree) terms, and the products of
grassmann_contexts on their C(n,k) rows.  apply_operator makes one pass
per monomial: pieri_d for the first factor, then apply_rows on one plain
{index tuple: int} component per power of q for each later factor, over
Pieri rows shared by every monomial of the call.
"""

from __future__ import annotations

from itertools import chain

from .exterior_core import (
    InvalidInputError,
    KVector,
    Partition,
    accumulate,
    as_int,
    render_signed_terms,
    signed_sorted,
)


class DPolynomial:
    """Element of Z[D]: a map from monomial (a partition, parts = the
    subscripts of the D factors) to a nonzero integer coefficient.

    The empty partition is the identity operator."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        items = terms.items() if hasattr(terms, "items") else terms or ()
        self.terms = accumulate(
            (mono if isinstance(mono, Partition) else Partition(mono), as_int(c))
            for mono, c in items
        )

    @classmethod
    def _of(cls, terms: dict) -> "DPolynomial":
        """Wrap a {Partition: nonzero int} dict without checking it."""
        out = cls.__new__(cls)
        out.terms = terms
        return out

    @classmethod
    def zero(cls) -> "DPolynomial":
        return cls()

    @classmethod
    def identity(cls) -> "DPolynomial":
        return cls({Partition(): 1})

    @classmethod
    def generator(cls, h: int) -> "DPolynomial":
        """D_h as an operator polynomial; D_0 is the identity, D_{h<0} = 0."""
        if h < 0:
            return cls()
        if h == 0:
            return cls.identity()
        return cls({Partition((h,)): 1})

    @classmethod
    def monomial(cls, mono, coeff: int = 1) -> "DPolynomial":
        return cls({mono: coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def max_part(self) -> int:
        return max((m.parts[0] for m in self.terms if m.parts), default=0)

    def degree(self) -> int:
        """Largest graded degree |mono| among the terms (-1 if zero)."""
        return max((m.weight() for m in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        degrees = {m.weight() for m in self.terms}
        return len(degrees) <= 1

    def items(self):
        return [(m, self.terms[m]) for m in sorted(self.terms, key=lambda p: p.parts)]

    def __add__(self, other):
        if not isinstance(other, DPolynomial):
            raise InvalidInputError("can only add DPolynomials")
        return DPolynomial._of(accumulate(chain(self.terms.items(), other.terms.items())))

    def __sub__(self, other):
        if not isinstance(other, DPolynomial):
            raise InvalidInputError("can only subtract DPolynomials")
        return self + (-other)

    def __neg__(self):
        return self * -1

    def __mul__(self, other):
        if isinstance(other, int):
            return DPolynomial._of({m: c * other for m, c in self.terms.items()} if other else {})
        if not isinstance(other, DPolynomial):
            raise InvalidInputError("can only multiply DPolynomials by DPolynomials or ints")
        return DPolynomial._of(accumulate(
            (Partition(sorted(m1.parts + m2.parts, reverse=True)), c1 * c2)
            for m1, c1 in self.terms.items()
            for m2, c2 in other.terms.items()
        ))

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, DPolynomial) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return f"DPolynomial({render_dpolynomial(self)!r})"


def render_dpolynomial(p: DPolynomial) -> str:
    """Text form like 'D1*D2 - D3'; monomials sorted lexicographically."""
    terms = []
    for mono, c in p.items():
        factors = []
        for part in sorted(set(mono.parts)):
            e = mono.parts.count(part)
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
    """D_h by brute-force composition enumeration followed by normalization."""
    if h < 0:
        raise InvalidInputError("h must be nonnegative")
    if h == 0:
        return v
    if v.degree == 0:
        return KVector.zero(0)
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


def apply_rows(terms: dict, rows: dict, fill) -> dict:
    """Sum each key's coefficient into every target of its row: the one
    loop that applies Pieri rows.  A key missing from rows gets
    rows[key] = fill(key); targets that total 0 are dropped."""
    acc = {}
    get = acc.get
    for key, c in terms.items():
        row = rows.get(key)
        if row is None:
            row = rows[key] = fill(key)
        for target in row:
            acc[target] = get(target, 0) + c
    return {target: c for target, c in acc.items() if c}


def _by_q_degree(terms: dict) -> dict:
    """KVector terms regrouped as {q-degree: {index tuple: int}}."""
    out = {}
    for (indices, d), c in terms.items():
        comp = out.get(d)
        if comp is None:
            comp = out[d] = {}
        comp[indices] = c
    return out


def pieri_d(h: int, v: KVector) -> KVector:
    """D_h by cancellation-free Pieri enumeration (production path)."""
    if h < 0:
        raise InvalidInputError("h must be nonnegative")
    if h == 0:
        return v
    if v.degree == 0:
        return KVector.zero(0)
    return KVector._of(v.degree, apply_rows(
        v.terms, {}, lambda key: [(j, key[1]) for j in pieri_symbols(key[0], h)]
    ))


def apply_operator(p: DPolynomial, v: KVector) -> KVector:
    """Evaluate an operator polynomial on a k-vector.

    Each monomial is applied factor by factor, largest subscript first
    (the order is immaterial mathematically; smallest first enumerates
    more row targets), and its terms stream into one accumulator, so a
    call keeps only per-h first factors and rows.  The first factor is
    pieri_d on v, cached per h: every monomial of a determinant starts
    from one of a few D_h v, and pieri_d stays the derivation layer that a
    tracer or profiler sees under every operator evaluation.  Later
    factors run apply_rows on plain-int {q-degree: {index tuple: int}}
    components, and each symbol's Pieri row for a given h is enumerated
    once per call and shared by every monomial."""
    rows = {}
    firsts = {0: _by_q_degree(v.terms)}  # D_0 is the identity

    def evaluate(parts):
        h, *rest = parts or (0,)
        comps = firsts.get(h)
        if comps is None:
            comps = firsts[h] = _by_q_degree(pieri_d(h, v).terms)
        for h in rest:
            row_h = rows.setdefault(h, {})
            comps = {
                d: apply_rows(comp, row_h, lambda indices, h=h: pieri_symbols(indices, h))
                for d, comp in comps.items()
            }
        return comps

    return KVector._of(v.degree, accumulate(
        ((j, d), c * x)
        for mono, c in p.terms.items()
        for d, comp in evaluate(mono.parts).items()
        for j, x in comp.items()
    ))


def _series_inverse(max_degree: int, top: int) -> list:
    """Coefficients 0..max_degree of the formal inverse of
    1 + D_1 t + ... + D_top t^top: E_m = -(D_1 E_{m-1} + ... + D_j E_{m-j})
    with j = min(m, top)."""
    es = [DPolynomial.identity()]
    for m in range(1, max_degree + 1):
        acc = DPolynomial.zero()
        for i in range(1, min(m, top) + 1):
            acc = acc + DPolynomial.generator(i) * es[m - i]
        es.append(-acc)
    return es


def inverse_components(max_degree: int) -> list:
    """E_0, ..., E_{max_degree}: coefficients of the formal inverse of
    D_t = 1 + D_1 t + D_2 t^2 + ..., as operator polynomials.

    E_m = -(D_1 E_{m-1} + ... + D_m E_0); each E_m is homogeneous of
    degree m."""
    return _series_inverse(max_degree, max_degree)


def iterated_d1(m: int, v: KVector) -> KVector:
    """D_1 applied m times."""
    if m < 0:
        raise InvalidInputError("m must be nonnegative")
    for _ in range(m):
        v = pieri_d(1, v)
    return v
