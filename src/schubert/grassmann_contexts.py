"""Finite-rank quotients of the k-th exterior power: the classical
truncation at rank n and the quantum wrap rule, plus Schubert-class
products and structure tables."""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache, partial

# pieri_d is not called here but stays bound: perfbench/selftest.py checks
# that a tracer rebinding pieri_d finds it in this namespace.
from .derivations import _row, apply_rows, pieri_d  # noqa: F401
from .exterior_core import (
    InvalidInputError,
    KVector,
    Partition,
    accumulate,
    as_int,
    as_partition,
    partition_to_symbol,
    signed_sorted,
    symbol_to_partition,
)
from .giambelli_ring import _laplace

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
        object.__setattr__(self, "k", as_int(self.k))
        object.__setattr__(self, "n", as_int(self.n))
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
    """Direct quantum Pieri: sigma_h on v, one quantum row of
    derivations._row per term, the classical targets at the term's
    q-degree d and the wrapped ones at d + 1.

    Equals reduce_kvector(pieri_d(h, v), ctx) by construction; the two are
    cross-checked in the test suite."""
    if ctx.mode != QUANTUM:
        raise InvalidInputError("quantum_pieri needs a quantum context")
    k, n, h = ctx.k, ctx.n, as_int(h)
    if not 1 <= h <= n - k:
        raise InvalidInputError(f"h={h} outside [1, {n - k}]")
    if v.degree != k:
        raise InvalidInputError("degree mismatch")
    for i, _ in v.terms:
        if i[-1] > n:
            raise InvalidInputError(f"symbol {i} has index above n={n}")
    return KVector._of(k, apply_rows(v.terms, partial(_row, n, True, h)))


def box_partitions(k: int, n: int, max_weight=None) -> list:
    """All partitions in the k x (n-k) box, optionally weight-capped,
    in lexicographic order."""
    k, n = as_int(k), as_int(n)
    if not 0 <= k <= n:
        raise InvalidInputError(f"need 0 <= k <= n, got k={k}, n={n}")
    if max_weight is not None and as_int(max_weight) < 0:
        raise InvalidInputError(f"max weight must be nonnegative, got {max_weight}")
    cap = k * (n - k) if max_weight is None else min(max_weight, k * (n - k))
    out, level = [()], [()]
    for _ in range(k):  # the partitions of each length, from the previous length's
        level = [
            p + (part,)
            for p in level
            for part in range(1, min(p[-1] if p else n - k, cap - sum(p)) + 1)
        ]
        out.extend(level)
    return [Partition(p) for p in sorted(out)]


@lru_cache(maxsize=None)
def _symbol(parts: tuple, k: int) -> tuple:
    """I(lam) for the partition lam with these parts."""
    return partition_to_symbol(Partition(parts), k).indices


@lru_cache(maxsize=None)
def _class(indices: tuple) -> tuple:
    """(parts, lam) for the class of this symbol; the parts sort the product."""
    lam = symbol_to_partition(indices)
    return lam.parts, lam


@lru_cache(maxsize=None)
def _box_monomials(parts: tuple, k: int, width: int) -> dict:
    """The {parts: coefficient} monomials of the Giambelli determinant of
    this partition whose parts are all <= width = n-k: sigma_h is 0 above."""
    return _laplace(tuple(reversed(Partition(parts).padded(k))), width)


def multiply(lam, mu, ctx: GrassmannContext) -> dict:
    """Product of Schubert classes: {(nu, q-degree): coefficient}, in
    ascending (nu, q-degree) order.

    Evaluates the Giambelli determinant of one factor at sigma_1..sigma_{n-k}
    on the other's basis vector, one Pieri row at a time, in the context's
    C(n,k) basis.  By Bertram's quantum Giambelli formula the determinant
    needs no q-correction, and the ring is commutative, so either factor's
    determinant gives the product: the one with fewer monomials inside the
    box is applied, mu's on a tie.  A partition with at most one part has
    exactly one, so when only lam is that short the factors swap first and
    the longer one's determinant is never built.  Terms are flat
    {(J, q-degree): int}, and the quantum rows carry q themselves."""
    if ctx.mode == INFINITE:
        raise InvalidInputError("multiply needs a classical or quantum context")
    lam, mu = as_partition(lam), as_partition(mu)
    k, n = ctx.k, ctx.n
    for p in (lam, mu):
        if not p.fits_box(k, n):
            raise InvalidInputError(f"{tuple(p)} outside the {k}x{n - k} box")
    if len(lam.parts) <= 1 < len(mu.parts):  # lam's one monomial, D_{lam_1}, is no larger
        lam, mu = mu, lam
    monos, other = _box_monomials(mu.parts, k, n - k), lam
    if len(monos) > 1:  # lam's count is >= 1 (sigma_lam != 0), so only then can it be smaller
        lam_monos = _box_monomials(lam.parts, k, n - k)
        if len(lam_monos) < len(monos):
            monos, other = lam_monos, mu
    start = {(_symbol(other.parts, k), 0): 1}
    pairs, quantum = [], ctx.mode == QUANTUM
    for mono, c in monos.items():
        w = start
        for h in mono:
            w = apply_rows(w, partial(_row, n, quantum, h))
        pairs.extend((key, c * x) for key, x in w.items())
    ordered = sorted((_class(j), d, c) for (j, d), c in accumulate(pairs).items())
    return {(nu, d): c for (_, nu), d, c in ordered}


def unit_expansion(lam) -> dict:
    """The expansion {(lam, 0): 1} of a single Schubert class."""
    return {(as_partition(lam), 0): 1}


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


def expansion_json_terms(expansion: dict) -> list:
    """A product's terms as JSON-ready {"nu", "d", "coeff"} dicts, in
    ascending (nu, q-degree) order."""
    return [
        {"nu": list(nu), "d": d, "coeff": c}
        for (nu, d), c in sorted(expansion.items(), key=lambda t: (t[0][0].parts, t[0][1]))
    ]


@dataclass
class StructureTable:
    """All pairwise Schubert-class products in one context."""

    context: GrassmannContext
    entries: dict  # {(lam, mu): {(nu, d): coeff}}

    def to_json_dict(self) -> dict:
        entries = [
            {"lambda": list(lam), "mu": list(mu), "terms": expansion_json_terms(product)}
            for (lam, mu), product in sorted(
                self.entries.items(), key=lambda t: (t[0][0].parts, t[0][1].parts)
            )
        ]
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
