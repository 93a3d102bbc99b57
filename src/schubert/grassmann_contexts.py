"""Finite-rank quotients of the k-th exterior power: the classical
truncation at rank n and the quantum wrap rule, plus Schubert-class
products and structure tables."""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

# pieri_d is not called here but stays bound: perfbench/selftest.py checks
# that a tracer rebinding pieri_d finds it in this namespace.
from .derivations import apply_operator, pieri_d, pieri_symbols  # noqa: F401
from .exterior_core import (
    InvalidInputError,
    KVector,
    Partition,
    accumulate,
    partition_to_symbol,
    signed_sorted,
    symbol_to_partition,
)
from .giambelli_ring import giambelli_det

INFINITE = "infinite"
CLASSICAL = "classical"
QUANTUM = "quantum"


@dataclass(frozen=True)
class GrassmannContext:
    """Selects which reduction applies after a derivation acts."""

    k: int
    n: int
    mode: str = CLASSICAL

    def __post_init__(self):
        if not 1 <= self.k <= self.n:
            raise InvalidInputError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")
        if self.mode not in (INFINITE, CLASSICAL, QUANTUM):
            raise InvalidInputError(f"unknown mode {self.mode!r}")


def reduce_kvector(v: KVector, ctx: GrassmannContext) -> KVector:
    """Project a k-vector into the context's quotient.

    Classical: delete every term with an index above n.  Quantum: while a
    term's largest index j exceeds n, replace j by j - n, multiply the
    coefficient by (-1)^(k-1) * q, and re-normalize; terms that acquire a
    repeated index die.  (The (-1)^(k-1) is the renaming that makes q the
    geometric deformation parameter, so Gromov-Witten coefficients come out
    nonnegative.)"""
    if v.degree != ctx.k:
        raise InvalidInputError(f"degree {v.degree} does not match context k={ctx.k}")
    if ctx.mode == INFINITE:
        return v
    n, k = ctx.n, ctx.k
    if ctx.mode == CLASSICAL:
        return KVector._of(k, {key: c for key, c in v.terms.items() if key[0][-1] <= n})
    wrap = (-1) ** (k - 1)
    pairs = []
    for (indices, d), c in v.terms.items():
        indices = list(indices)
        while max(indices) > n and len(set(indices)) == k:
            top = max(indices)
            indices[indices.index(top)] = top - n
            d, c = d + 1, c * wrap
        pairs.append(((indices, d), c))
    return KVector._of(k, accumulate(signed_sorted(pairs)))


def quantum_pieri(h: int, v: KVector, ctx: GrassmannContext) -> KVector:
    """Direct quantum Pieri: the classical interleavings that stay inside
    rank n, plus q times the wrapped chains j'_1 < i_1 <= j'_2 < i_2 <= ...
    with |J'| = |I| + h - n.

    Equals reduce_kvector(pieri_d(h, v), ctx) by construction; the two are
    cross-checked in the test suite.  (A literal (-1)^(k-1) prefactor on
    the second sum cancels against the sign of moving the wrapped index to
    the front, so the net q-coefficient is +1.)"""
    if ctx.mode != QUANTUM:
        raise InvalidInputError("quantum_pieri needs a quantum context")
    k, n = ctx.k, ctx.n
    if not 1 <= h <= n - k:
        raise InvalidInputError(f"h={h} outside [1, {n - k}]")
    if v.degree != k:
        raise InvalidInputError("degree mismatch")
    pairs = []
    for (i, d), c in v.terms.items():
        if i[-1] > n:
            raise InvalidInputError(f"symbol {i} has index above n={n}")
        pairs.extend(((j, d), c) for j in pieri_symbols(i, h) if j[-1] <= n)
        pairs.extend(((jp, d + 1), c) for jp in _wrapped_chains(i, sum(i) + h - n))
    return KVector._of(k, accumulate(pairs))


def _wrapped_chains(indices, target):
    """Chains 1 <= j_1 < i_1 <= j_2 < i_2 <= ... <= j_k < i_k summing to target."""
    k = len(indices)
    if target < k:  # minimum possible sum is 1 + i_1 + ... + i_{k-1} >= k
        return

    def rec(p, rem, prefix):
        lo = 1 if p == 0 else indices[p - 1]
        hi = indices[p] - 1
        if p == k - 1:
            if lo <= rem <= hi:
                yield prefix + (rem,)
            return
        for j in range(lo, hi + 1):
            if j > rem:
                break
            yield from rec(p + 1, rem - j, prefix + (j,))

    yield from rec(0, target, ())


def box_partitions(k: int, n: int, max_weight=None) -> list:
    """All partitions in the k x (n-k) box, optionally weight-capped,
    in lexicographic order."""
    if max_weight is not None and max_weight < 0:
        raise InvalidInputError(f"max weight must be nonnegative, got {max_weight}")
    cap = k * (n - k) if max_weight is None else min(max_weight, k * (n - k))
    out = []

    def rec(prefix, prev, remaining):
        out.append(Partition(prefix))
        if len(prefix) == k:
            return
        for part in range(1, min(prev, remaining) + 1):
            rec(prefix + (part,), part, remaining - part)

    rec((), n - k, cap)
    return sorted(out, key=lambda p: p.parts)


def multiply(lam, mu, ctx: GrassmannContext) -> dict:
    """Product of Schubert classes: {(nu, q-degree): coefficient}.

    Applies the Giambelli determinant of mu to e^{I(lam)} (pieri_d computes
    every D_h exactly, so no generator is rewritten in D_1..D_k first),
    then the context reduction."""
    if ctx.mode == INFINITE:
        raise InvalidInputError("multiply needs a classical or quantum context")
    if not isinstance(lam, Partition):
        lam = Partition(lam)
    if not isinstance(mu, Partition):
        mu = Partition(mu)
    for p in (lam, mu):
        if not p.fits_box(ctx.k, ctx.n):
            raise InvalidInputError(
                f"{tuple(p)} outside the {ctx.k}x{ctx.n - ctx.k} box"
            )
    return dict(_multiply_cached(lam, mu, ctx))


@lru_cache(maxsize=None)
def _multiply_cached(lam: Partition, mu: Partition, ctx: GrassmannContext):
    k = ctx.k
    w = apply_operator(giambelli_det(mu, k), KVector.basis(partition_to_symbol(lam, k)))
    w = reduce_kvector(w, ctx)
    return tuple(sorted(((symbol_to_partition(i), d), c) for (i, d), c in w.terms.items()))


def unit_expansion(lam) -> dict:
    """The expansion {(lam, 0): 1} of a single Schubert class."""
    if not isinstance(lam, Partition):
        lam = Partition(lam)
    return {(lam, 0): 1}


def multiply_expansion(expansion: dict, mu, ctx: GrassmannContext) -> dict:
    """Multiply a Z[q]-linear combination of classes by sigma_mu."""
    return accumulate(
        ((rho, d + e), c * c2)
        for (nu, d), c in expansion.items()
        for (rho, e), c2 in multiply(nu, mu, ctx).items()
    )


def poincare_pair(lam, mu, ctx: GrassmannContext) -> int:
    """Coefficient of the point class in the classical product."""
    if ctx.mode != CLASSICAL:
        raise InvalidInputError("poincare_pair needs a classical context")
    top = Partition((ctx.n - ctx.k,) * ctx.k)
    return multiply(lam, mu, ctx).get((top, 0), 0)


@dataclass
class StructureTable:
    """All pairwise Schubert-class products in one context."""

    context: GrassmannContext
    entries: dict  # {(lam, mu): {(nu, d): coeff}}

    def to_json_dict(self) -> dict:
        entries = []
        for (lam, mu) in sorted(self.entries, key=lambda p: (p[0].parts, p[1].parts)):
            terms = [
                {"nu": list(nu), "d": d, "coeff": c}
                for (nu, d), c in sorted(
                    self.entries[(lam, mu)].items(), key=lambda t: (t[0][0].parts, t[0][1])
                )
            ]
            entries.append({"lambda": list(lam), "mu": list(mu), "terms": terms})
        return {
            "context": {
                "k": self.context.k,
                "n": self.context.n,
                "mode": self.context.mode,
            },
            "entries": entries,
        }

    def to_json(self, indent=None) -> str:
        return json.dumps(self.to_json_dict(), indent=indent)


def structure_table(ctx: GrassmannContext, max_weight=None) -> StructureTable:
    """Products of all box-partition pairs with weights up to max_weight,
    iterated in lexicographic order."""
    parts = box_partitions(ctx.k, ctx.n, max_weight)
    entries = {}
    for lam in parts:
        for mu in parts:
            entries[(lam, mu)] = multiply(lam, mu, ctx)
    return StructureTable(ctx, entries)
