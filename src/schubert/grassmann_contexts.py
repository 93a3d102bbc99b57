"""Finite-rank quotients of the k-th exterior power: the classical
truncation at rank n and the quantum wrap rule, plus Schubert-class
products and structure tables."""

from __future__ import annotations

import json
from collections import namedtuple
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


class GrassmannContext(namedtuple("GrassmannContext", "k n mode")):
    """Selects which reduction applies after a derivation acts: an
    immutable (k, n, mode) named tuple, checked when it is built."""

    __slots__ = ()

    def __new__(cls, k: int, n: int, mode: str = CLASSICAL):
        k, n = as_int(k), as_int(n)
        if not 1 <= k <= n:
            raise InvalidInputError(f"need 1 <= k <= n, got k={k}, n={n}")
        if mode not in (INFINITE, CLASSICAL, QUANTUM):
            raise InvalidInputError(f"unknown mode {mode!r}")
        return super().__new__(cls, k, n, mode)

    # namedtuple's _make (and so _replace) skips __new__; route it through the checks
    _make = classmethod(lambda cls, fields: cls(*fields))


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
def _symbol(lam: Partition, k: int) -> tuple:
    """I(lam) as a plain index tuple."""
    return partition_to_symbol(lam, k).indices


# the class of a product's index tuple
_class = lru_cache(maxsize=None)(symbol_to_partition)


@lru_cache(maxsize=None)
def _box_monomials(lam: Partition, k: int, width: int) -> dict:
    """The {parts: coefficient} monomials of the Giambelli determinant of
    lam whose parts are all <= width = n-k: sigma_h is 0 above."""
    return _laplace(tuple(reversed(as_partition(lam).padded(k))), width)


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
    if len(lam) <= 1 < len(mu):  # lam's one monomial, D_{lam_1}, is no larger
        lam, mu = mu, lam
    monos, other = _box_monomials(mu, k, n - k), lam
    if len(monos) > 1:  # lam's count is >= 1 (sigma_lam != 0), so only then can it be smaller
        lam_monos = _box_monomials(lam, k, n - k)
        if len(lam_monos) < len(monos):
            monos, other = lam_monos, mu
    start = {(_symbol(other, k), 0): 1}
    pairs, quantum = [], ctx.mode == QUANTUM
    for mono, c in monos.items():
        w = start
        for h in mono:
            w = apply_rows(w, partial(_row, n, quantum, h))
        pairs.extend((key, c * x) for key, x in w.items())
    return dict(sorted(((_class(j), d), c) for (j, d), c in accumulate(pairs).items()))


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
        for (nu, d), c in sorted(expansion.items())
    ]


class StructureTable(namedtuple("StructureTable", "context entries")):
    """All pairwise Schubert-class products in one context; entries maps
    (lam, mu) to {(nu, d): coeff}."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        entries = [
            {"lambda": list(lam), "mu": list(mu), "terms": expansion_json_terms(product)}
            for (lam, mu), product in sorted(self.entries.items())
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
