"""Finite-rank quotients of the k-th exterior power: the classical
truncation at rank n and the quantum wrap rule, plus Schubert-class
products and structure tables."""

from __future__ import annotations

import json
from collections import defaultdict, namedtuple
from functools import lru_cache

from .derivations import _ROWS, _apply_sigma, _build_row, _laplace
# pieri_d is not called here but stays bound: perfbench/selftest.py checks
# that a tracer rebinding pieri_d finds it in this namespace.
from .derivations import pieri_d  # noqa: F401
from .exterior_core import (
    InvalidInputError,
    KVector,
    Partition,
    _indices,
    _mask,
    _partition_of,
    accumulate,
    as_int,
    as_partition,
    partition_to_symbol,
    signed_sorted,
)

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

    Classical: delete every term with an index above n.  Quantum: wrap
    every index in one step, i -> i - n*w with w = floor((i-1)/n), and
    multiply the coefficient by ((-1)^(k-1) * q)^W, W the sum of the w's;
    re-normalize, so a term whose wrapped indices repeat dies.  (The
    (-1)^(k-1) is the renaming that makes q the geometric deformation
    parameter, so Gromov-Witten coefficients come out nonnegative.)"""
    if v.degree != ctx.k:
        raise InvalidInputError(f"degree {v.degree} does not match context k={ctx.k}")
    if ctx.mode == INFINITE:
        return v
    n, k = ctx.n, ctx.k
    if ctx.mode == CLASSICAL:
        return KVector._of(k, {key: c for key, c in v.terms.items() if not key[0] >> n})
    wrap = (-1) ** (k - 1)
    pairs = []
    for (mask, d), c in v.terms.items():
        indices = _indices(mask)
        w = sum((i - 1) // n for i in indices)
        pairs.append((([(i - 1) % n + 1 for i in indices], d + w), c * wrap ** w))
    return KVector._of(k, accumulate(signed_sorted(pairs)))


def quantum_pieri(h: int, v: KVector, ctx: GrassmannContext) -> KVector:
    """Direct quantum Pieri: sigma_h on v, each term keyed by mask | d << n
    like a product's, through the quantum rows of derivations._ROWS: the
    classical targets at q-degree d, the wrapped ones at d + 1.  v is
    signed, so targets that sum to 0 are dropped.

    Equals reduce_kvector(pieri_d(h, v), ctx) by construction; the two are
    cross-checked in the test suite."""
    if ctx.mode != QUANTUM:
        raise InvalidInputError("quantum_pieri needs a quantum context")
    k, n, h = ctx.k, ctx.n, as_int(h)
    if not 1 <= h <= n - k:
        raise InvalidInputError(f"h={h} outside [1, {n - k}]")
    if v.degree != k:
        raise InvalidInputError("degree mismatch")
    for mask, _ in v.terms:
        if mask >> n:
            raise InvalidInputError(f"symbol {_indices(mask)} has index above n={n}")
    terms = {mask | d << n: c for (mask, d), c in v.terms.items()}
    low = ~(-1 << n)
    return KVector._of(k, {
        (key & low, key >> n): c
        for key, c in _apply_sigma(terms, _ROWS[n, True][h], n, True, h, {}).items() if c
    })


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
    return [Partition._of(p) for p in sorted(out)]


@lru_cache(maxsize=None)
def _factor(lam: Partition, k: int, n: int) -> list:
    """A factor's record at rank n, after the box check: [low, high,
    guard, start, monos], start the key of I(lam) at q-degree 0 and monos
    None until multiply first needs lam's Giambelli monomials with all
    parts <= n-k (sigma_h is 0 above), which it stores there.  Each part
    gets a field of b = (n-k).bit_length() + 1 bits: low holds lam_i plus
    2^(b-1) - 1 - (n-k) in field i-1, high holds lam_i in field k-i, and
    guard holds every field's top bit.  A field of one factor's low plus
    the other's high stays below 2^b, so no carry crosses fields, and
    (low + high) & guard is nonzero exactly when some
    lam_i + mu_{k+1-i} > n-k."""
    if not lam.fits_box(k, n):
        raise InvalidInputError(f"{tuple(lam)} outside the {k}x{n - k} box")
    b = (n - k).bit_length() + 1
    low = high = guard = 0
    for i, part in enumerate(lam.padded(k)):
        low |= part + (1 << b - 1) - 1 - (n - k) << b * i
        high |= part << b * (k - 1 - i)
        guard |= 1 << b * i + b - 1
    return [low, high, guard, _mask(partition_to_symbol(lam, k).indices), None]


# Process-wide and unbounded, like derivations._ROWS: _DECODED[n] maps a
# product key at rank n to its (class, q-degree), filled as keys are met.
_DECODED = defaultdict(dict)


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
    the longer one's determinant is never built.  A term e_J at q-degree d
    is keyed by one int, mask | d << n, where bit i-1 of mask is set for
    each index i of J; the rows come from derivations._ROWS.  A monomial's
    first factor is its row at the start key, and its last factor's rows
    are summed, scaled by the monomial's coefficient, straight into the
    product.  Each distinct key of the result is decoded from its mask to
    (nu, d) once per process, into _DECODED[n].  A classical product is {}
    at once when some lam_i + mu_{k+1-i} > n-k: mu does not fit in lam's
    complement (duality, Fulton, Young Tableaux, 9.4).  Each factor's
    _factor record holds its box check, its parts packed into int fields,
    so that test is one add and one and over all i, and its in-box
    monomials once they are built."""
    if ctx.mode == INFINITE:
        raise InvalidInputError("multiply needs a classical or quantum context")
    lam, mu = as_partition(lam), as_partition(mu)
    k, n, quantum = ctx.k, ctx.n, ctx.mode == QUANTUM
    lam_rec, mu_rec = _factor(lam, k, n), _factor(mu, k, n)
    if not quantum and (lam_rec[0] + mu_rec[1]) & lam_rec[2]:
        return {}  # the duality test, lam_i against mu_{k+1-i}, all fields at once
    if not lam or not mu:  # sigma_() = 1
        return {(lam or mu, 0): 1}
    if len(lam) <= 1 < len(mu):  # lam's one monomial, D_{lam_1}, is no larger
        lam, mu, lam_rec, mu_rec = mu, lam, mu_rec, lam_rec
    monos, start = mu_rec[4], lam_rec[3]
    if monos is None:
        monos = mu_rec[4] = _laplace(mu, k, n - k)
    if len(monos) > 1:  # lam's count is >= 1 (sigma_lam != 0), so only then can it be smaller
        lam_monos = lam_rec[4]
        if lam_monos is None:
            lam_monos = lam_rec[4] = _laplace(lam, k, n - k)
        if len(lam_monos) < len(monos):
            monos, start = lam_monos, mu_rec[3]
    rows = _ROWS[n, quantum]
    total = {}
    get = total.get
    for mono, c in monos.items():
        first = rows[mono[0]]  # the start is one key with coefficient 1: D_h on it is its row
        row = first.get(start)
        if row is None:
            row = _build_row(first, n, quantum, mono[0], start)
        if len(mono) == 1:
            for key in row:
                total[key] = get(key, 0) + c
            continue
        w = dict.fromkeys(row, 1)
        for h in mono[1:-1]:
            w = _apply_sigma(w, rows[h], n, quantum, h, {})
        h = mono[-1]
        last = rows[h]
        for key, x in w.items():
            row = last.get(key)
            if row is None:
                row = _build_row(last, n, quantum, h, key)
            x *= c
            for target in row:
                total[target] = get(target, 0) + x
    decoded = _DECODED[n]
    out = []
    for key, c in total.items():
        if c:
            term = decoded.get(key)
            if term is None:
                term = decoded[key] = _partition_of(key & ~(-1 << n)), key >> n
            out.append((term, c))
    out.sort()
    return dict(out)


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
        return {"context": self.context._asdict(), "entries": entries}

    def to_json(self, indent=None) -> str:
        return json.dumps(self.to_json_dict(), indent=indent)


def structure_table(ctx: GrassmannContext, max_weight=None) -> StructureTable:
    """Products of all box-partition pairs with weights up to max_weight,
    iterated in lexicographic order.  The ring is commutative, so each
    unordered pair is multiplied once, for mu >= lam, and (mu, lam) gets a
    copy of that product: no two entries share a dict."""
    parts = box_partitions(ctx.k, ctx.n, max_weight)
    entries = {}
    for i, lam in enumerate(parts):
        for mu in parts[:i]:
            entries[(lam, mu)] = dict(entries[(mu, lam)])
        for mu in parts[i:]:
            entries[(lam, mu)] = multiply(lam, mu, ctx)
    return StructureTable(ctx, entries)
