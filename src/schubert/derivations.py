"""The shift derivation family D_h on the exterior algebra, its inverse
series E_t, and the commutative operator ring Z[D].

Two independent evaluation paths are provided for D_h on a k-vector:
leibniz_d enumerates all compositions of h (most of which cancel) and
pieri_d enumerates only the surviving interleaving symbols.  pieri_d is
the production path; leibniz_d exists as an oracle.

pieri_d and apply_operator regroup a k-vector's terms as one dict of
index tuples per power of q, add plain ints there and flatten the result
back into KVector terms.  Within one apply_operator call the Pieri targets
of a symbol are enumerated once per h and shared by every monomial.
"""

from __future__ import annotations

from itertools import chain

from .exterior_core import (
    InvalidInputError,
    KVector,
    Partition,
    accumulate,
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
            (mono if isinstance(mono, Partition) else Partition(mono), int(c))
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
        return self + (-other)

    def __neg__(self):
        return self * -1

    def __mul__(self, other):
        if isinstance(other, int):
            return DPolynomial._of({m: c * other for m, c in self.terms.items()} if other else {})
        return DPolynomial._of(accumulate(
            (Partition(sorted(m1.parts + m2.parts, reverse=True)), c1 * c2)
            for m1, c1 in self.terms.items()
            for m2, c2 in other.terms.items()
        ))

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

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


def pieri_symbols(indices, h: int):
    """The surviving symbols J: i_1 <= j_1 < i_2 <= j_2 < ... <= i_k <= j_k
    with |J| = |I| + h.  All are canonical and pairwise distinct."""
    yield from _pieri_targets(tuple(indices), h)


def _pieri_targets(indices: tuple, h: int) -> list:
    """The index tuples of pieri_symbols(indices, h), built one position at
    a time: position p < k steps up by at most i_{p+1} - 1 - i_p, and the
    last position takes what is left of h."""
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


def _by_q_degree(terms: dict) -> dict:
    """KVector terms regrouped as {q-degree: {index tuple: int}}."""
    out = {}
    for (indices, d), c in terms.items():
        comp = out.get(d)
        if comp is None:
            comp = out[d] = {}
        comp[indices] = c
    return out


def _shift(h: int, components: dict, targets: dict) -> dict:
    """D_h on {q-degree: {index tuple: int}}.  targets maps an index tuple
    to its Pieri targets for this h and is filled on demand."""
    out = {}
    for e, comp in components.items():
        acc = {}
        get = acc.get
        for indices, c in comp.items():
            js = targets.get(indices)
            if js is None:
                js = targets[indices] = _pieri_targets(indices, h)
            for j in js:
                acc[j] = get(j, 0) + c
        out[e] = {j: c for j, c in acc.items() if c}
    return out


def pieri_d(h: int, v: KVector) -> KVector:
    """D_h by cancellation-free Pieri enumeration (production path)."""
    if h < 0:
        raise InvalidInputError("h must be nonnegative")
    if h == 0:
        return v
    if v.degree == 0:
        return KVector.zero(0)
    shifted = _shift(h, _by_q_degree(v.terms), {})
    return KVector._of(
        v.degree, {(j, d): c for d, comp in shifted.items() for j, c in comp.items()}
    )


def apply_operator(p: DPolynomial, v: KVector) -> KVector:
    """Evaluate an operator polynomial on a k-vector.

    Each monomial is applied factor by factor, largest subscript first
    (the order is immaterial mathematically, fixed for reproducibility).
    The first factor is pieri_d on v, so pieri_d stays the derivation
    layer that a tracer or profiler sees under every operator evaluation.
    Later factors act on plain-int {q-degree: {index tuple: int}}
    components, and each symbol's Pieri targets for a given h are
    enumerated once per call and shared by every monomial.  Monomials
    sharing a leading factor sequence reuse the intermediate components,
    which matters for determinant expansions.  All monomials add their
    integer multiples into one accumulator."""
    targets = {}
    memo = {(): _by_q_degree(v.terms)}

    def evaluate(parts):
        cached = memo.get(parts)
        if cached is None:
            h = parts[-1]
            if len(parts) == 1:
                cached = _by_q_degree(pieri_d(h, v).terms)
            else:
                cached = _shift(h, evaluate(parts[:-1]), targets.setdefault(h, {}))
            memo[parts] = cached
        return cached

    return KVector._of(v.degree, accumulate(
        ((j, d), c * x)
        for mono, c in p.terms.items()
        for d, comp in evaluate(mono.parts).items()
        for j, x in comp.items()
    ))


def inverse_components(max_degree: int) -> list:
    """E_0, ..., E_{max_degree}: coefficients of the formal inverse of
    D_t = 1 + D_1 t + D_2 t^2 + ..., as operator polynomials.

    E_m = -(D_1 E_{m-1} + ... + D_m E_0); each E_m is homogeneous of
    degree m."""
    es = [DPolynomial.identity()]
    for m in range(1, max_degree + 1):
        acc = DPolynomial.zero()
        for i in range(1, m + 1):
            acc = acc + DPolynomial.generator(i) * es[m - i]
        es.append(-acc)
    return es


def iterated_d1(m: int, v: KVector) -> KVector:
    """D_1 applied m times."""
    if m < 0:
        raise InvalidInputError("m must be nonnegative")
    for _ in range(m):
        v = pieri_d(1, v)
    return v
