"""Giambelli determinant operators, generator reduction, the Y-series,
and verification of the classical and quantum ring presentations.  On the
k-th exterior power D_h is a coefficient of (1 + E_1 t + ... + E_k t^k)^{-1}.
The quotient the presentations are checked in comes from grassmann_contexts."""

from __future__ import annotations

from collections import namedtuple

from .derivations import (
    DPolynomial,
    _laplace,
    _series_inverse,
    apply_operator,
    inverse_components,
    render_dpolynomial,
)
from .exterior_core import (
    InvalidInputError,
    Partition,
    QInt,
    as_int,
    as_partition,
    fundamental,
    render_signed_terms,
)
from .grassmann_contexts import CLASSICAL, QUANTUM, GrassmannContext, reduce_kvector


def giambelli_det(lam: Partition, k: int) -> DPolynomial:
    """The k x k determinant with entry (row i, col j) = D_{r_j + j - i},
    where r_j is lam reversed (zero padded), D_0 = 1 and D_{<0} = 0.

    Homogeneous of degree |lam|.  _laplace with the largest entry,
    lam_1 + k - 1, as the width keeps every monomial.  The result also
    records r in its columns slot, so apply_operator applies the matrix
    column by column instead of the expanded terms."""
    k, lam = as_int(k), as_partition(lam)
    det = DPolynomial._of(_laplace(lam, k, max(lam, default=0) + k - 1))
    det.columns = lam.padded(k)[::-1]
    return det


def _low_generators(k: int, top: int) -> list:
    """D_0, ..., D_top in D_1..D_k, the coefficients of D_t = E_t^{-1} on the
    k-th exterior power (D_h for h <= k is the generator itself)."""
    if k < 1:
        raise InvalidInputError("k must be positive")
    return _series_inverse(inverse_components(k)[1:], top)


def reduce_generator(h: int, k: int) -> DPolynomial:
    """Express D_h (h > k) in D_1..D_k as a coefficient of D_t = E_t^{-1}:
    D_h = -(E_1 D_{h-1} + ... + E_k D_{h-k}) on the k-th exterior power.

    The result is homogeneous of degree h with all parts <= k and acts on
    any k-vector exactly as pieri_d(h, .)."""
    h, k = as_int(h), as_int(k)
    if h <= k:
        raise InvalidInputError(f"h={h} must exceed k={k}")
    return _low_generators(k, h)[h]


def expand_in_low_generators(p: DPolynomial, k: int) -> DPolynomial:
    """Rewrite every factor D_h with h > k in D_1..D_k, as reduce_generator."""
    gens = _low_generators(as_int(k), p.max_part())
    out = DPolynomial.zero()
    for mono, c in p.terms.items():
        prod = DPolynomial.identity()
        for part in mono:
            prod = prod * gens[part]
        out = out + prod * c
    return out


def y_polynomials(n: int, k: int) -> list:
    """Y_0, ..., Y_n where (-1)^i Y_i is the i-th coefficient of the formal
    inverse of 1 + D_1 t + ... + D_{n-k} t^{n-k}."""
    n, k = as_int(n), as_int(k)
    if not 1 <= k < n:
        raise InvalidInputError("need 1 <= k < n")
    gens = [DPolynomial.generator(i) for i in range(1, n - k + 1)]
    return [((-1) ** i) * c for i, c in enumerate(_series_inverse(gens, n))]


def _relations(k: int, n: int, mode: str) -> list:
    """The defining relations of the mode's ring on the k-th exterior power,
    as pairs (h, c) meaning D_h = c * q: D_{n-k+1}, ..., D_n vanish, except
    that the quantum ring has D_n = (-1)^(k-1) q."""
    rels = [(h, 0) for h in range(n - k + 1, n + 1)]
    if mode == QUANTUM:
        rels[-1] = (n, (-1) ** (k - 1))
    return rels


class PresentationReport(namedtuple("PresentationReport", "k n mode checked_relations generators ys")):
    """Outcome of checking a ring presentation on the fundamental class;
    checked_relations holds (name, holds, witness KVector) triples,
    generators D_0, ..., D_n in D_1..D_k and ys Y_0, ..., Y_n (empty when
    k = n), the series the checks were made with."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return all(holds for _, holds, _ in self.checked_relations)

    def failures(self) -> list:
        return [(name, w) for name, holds, w in self.checked_relations if not holds]


def verify_presentation(k: int, n: int, mode: str = CLASSICAL) -> PresentationReport:
    """Check the defining relations of the classical or quantum intersection
    ring by acting on the fundamental k-vector and reducing in the context.

    Also checks the series identity E_m = (-1)^(m-1) D_m + Y_m for
    m = n-k+1 .. n in Z[D]; a failure's witness is the difference acting on
    the fundamental class, where monomials in D_1..D_k act freely."""
    if mode not in (CLASSICAL, QUANTUM):
        raise InvalidInputError(f"unknown mode {mode!r}")
    ctx = GrassmannContext(k, n, mode)
    k, n = ctx.k, ctx.n
    fund = fundamental(k)
    es = inverse_components(n)
    gens = _series_inverse(es[1 : k + 1], n)  # D_t = E_t^{-1}, as _low_generators
    # the Y's are a series of their own, not E filtered, so that the E/Y
    # identity below compares two independent computations
    ys = y_polynomials(n, k) if k < n else []
    checked = []
    for h, c in _relations(k, n, mode):
        w = reduce_kvector(apply_operator(gens[h], fund), ctx)
        diff = w - fund.scale(QInt.q_power(1, c))
        rhs = f"{render_signed_terms([(c, ['q'])])} * e[1..{k}]" if c else "0"
        checked.append((f"D{h} * e[1..{k}] = {rhs}", diff.is_zero(), diff))

    if k < n:
        for j in range(1, k + 1):
            m = n - k + j
            # The series identity E_m = -D_m + (-1)^m Y_m holds modulo the
            # generators D_{n-k+1}, ..., D_{m-1} already imposed at earlier
            # stages, so monomials containing one of those parts are dropped
            # before comparing.
            lhs = DPolynomial._of({
                mono: c for mono, c in es[m].terms.items() if not any(n - k < p < m for p in mono)
            })
            rhs = (-1) * DPolynomial.generator(m) + ((-1) ** m) * ys[m]
            diff = lhs - rhs
            witness = apply_operator(diff, fund)
            name = f"E{m} = -D{m} + (-1)^{m}*Y{m}"
            if m - 1 > n - k:
                imposed = f"D{m - 1}" if m - 1 == n - k + 1 else f"D{n - k + 1}..D{m - 1}"
                name += f" mod ({imposed})"
            checked.append((name, diff.is_zero(), witness))

    return PresentationReport(k, n, mode, checked, gens, ys)


def render_presentation(report: PresentationReport) -> str:
    """Human-readable presentation: generators, reduced relations, and both
    the D-form and Y-form of the quotient ring."""
    k, n, mode = report.k, report.n, report.mode
    lines = [f"G({k},{n}) {mode} presentation"]
    gens = ", ".join(f"D{i}" for i in range(1, k + 1))
    base = "Z[q]" if mode == QUANTUM else "Z"
    rels = ", ".join(render_signed_terms([(1, [f"D{h}"]), (-c, ["q"])])
                     for h, c in _relations(k, n, mode))
    lines.append(f"D-form: {base}[{gens}] / ({rels})")
    lines.append("reduced relations:")
    for h, c in _relations(k, n, mode):
        lines.append(f"  {render_dpolynomial(report.generators[h])} = "
                     f"{render_signed_terms([(c, ['q'])])}")
    if k < n:
        ygens = ", ".join(f"D{i}" for i in range(1, n - k + 1))
        yrels = ", ".join(render_signed_terms([(1, [f"Y{h}(D)"]), (-c, ["q"])])
                          for h, c in _relations(n - k, n, mode))
        lines.append(f"Y-form: {base}[{ygens}] / ({yrels})")
        for i in range(k + 1, n + 1):
            lines.append(f"  Y{i} = {render_dpolynomial(report.ys[i])}")
    lines.append("checks:")
    for name, holds, _ in report.checked_relations:
        lines.append(f"  {name}: {'OK' if holds else 'FAIL'}")
    return "\n".join(lines)
