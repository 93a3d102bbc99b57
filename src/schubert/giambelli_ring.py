"""Giambelli determinant operators, generator reduction, the Y-series,
and verification of the classical and quantum ring presentations."""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .derivations import (
    DPolynomial,
    _series_inverse,
    apply_operator,
    inverse_components,
    render_dpolynomial,
)
from .exterior_core import (
    InvalidInputError,
    KVector,
    Partition,
    QInt,
    accumulate,
    as_int,
    as_partition,
    fundamental,
    render_signed_terms,
)


# typed: a float k such as 2.0 hashes like 2, and must reach as_int, not 2's entry
@lru_cache(maxsize=None, typed=True)
def giambelli_det(lam: Partition, k: int) -> DPolynomial:
    """The k x k determinant with entry (row i, col j) = D_{r_j + j - i},
    where r_j is lam reversed (zero padded), D_0 = 1 and D_{<0} = 0.

    Homogeneous of degree |lam|.  _laplace with the largest entry,
    lam_1 + k - 1, as the width keeps every monomial."""
    k, lam = as_int(k), as_partition(lam)
    if lam.length() > k >= 0:  # padded rejects a negative k
        raise InvalidInputError(f"partition length exceeds k={k}")
    det = _laplace(tuple(reversed(lam.padded(k))), max(lam, default=0) + k - 1)
    return DPolynomial._of(det)


def _laplace(r: tuple, width: int) -> dict:
    """The {descending-part tuple: int} monomials with all parts <= width
    of the determinant with entry (row i, col j) = D_{r[j-1] + j - i}.
    Entries above width are skipped as it builds: a monomial has a part
    above width exactly when one of its entries does."""
    return _minor(tuple(range(1, len(r) + 1)), r, width, {(): {(): 1}})


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


def low_generator(h: int, k: int) -> DPolynomial:
    """D_h as a polynomial in D_1..D_k (the identity monomial for h = 0)."""
    if h < 0:
        return DPolynomial.zero()
    return DPolynomial.generator(h) if h <= k else reduce_generator(h, k)


# typed, as giambelli_det's: a float h or k must reach as_int, not the int's entry
@lru_cache(maxsize=None, typed=True)
def reduce_generator(h: int, k: int) -> DPolynomial:
    """Express D_h (h > k) in D_1..D_k via the series-inverse recursion
    D_h = -(E_1 D_{h-1} + ... + E_k D_{h-k}) on the k-th exterior power.

    The result is homogeneous of degree h with all parts <= k and acts on
    any k-vector exactly as pieri_d(h, .)."""
    h, k = as_int(h), as_int(k)
    if k < 1:
        raise InvalidInputError("k must be positive")
    if h <= k:
        raise InvalidInputError(f"h={h} must exceed k={k}")
    es = inverse_components(k)
    acc = DPolynomial.zero()
    for j in range(1, k + 1):
        acc = acc + es[j] * low_generator(h - j, k)
    return -acc


def expand_in_low_generators(p: DPolynomial, k: int) -> DPolynomial:
    """Rewrite every factor D_h with h > k through reduce_generator."""
    out = DPolynomial.zero()
    for mono, c in p.terms.items():
        prod = DPolynomial.identity()
        for part in mono:
            prod = prod * low_generator(part, k)
        out = out + prod * c
    return out


def y_polynomials(n: int, k: int) -> list:
    """Y_0, ..., Y_n where (-1)^i Y_i is the i-th coefficient of the formal
    inverse of 1 + D_1 t + ... + D_{n-k} t^{n-k}."""
    n, k = as_int(n), as_int(k)
    if not 1 <= k < n:
        raise InvalidInputError("need 1 <= k < n")
    return [((-1) ** i) * c for i, c in enumerate(_series_inverse(n, n - k))]


def _relations(k: int, n: int, mode: str) -> list:
    """The defining relations of the mode's ring on the k-th exterior power,
    as pairs (h, c) meaning D_h = c * q: D_{n-k+1}, ..., D_n vanish, except
    that the quantum ring has D_n = (-1)^(k-1) q."""
    rels = [(h, 0) for h in range(n - k + 1, n + 1)]
    if mode == "quantum":
        rels[-1] = (n, (-1) ** (k - 1))
    return rels


class PresentationReport(namedtuple("PresentationReport", "k n mode checked_relations")):
    """Outcome of checking a ring presentation on the fundamental class;
    checked_relations holds (name, holds, witness KVector) triples."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return all(holds for _, holds, _ in self.checked_relations)

    def failures(self) -> list:
        return [(name, w) for name, holds, w in self.checked_relations if not holds]


def verify_presentation(k: int, n: int, mode: str = "classical") -> PresentationReport:
    """Check the defining relations of the classical or quantum intersection
    ring by acting on the fundamental k-vector and reducing in the context.

    Also checks the series identity E_m = (-1)^(m-1) D_m + Y_m for
    m = n-k+1 .. n, after rewriting every generator above D_k through
    reduce_generator (faithful because monomials in D_1..D_k act freely on
    the fundamental class)."""
    from .grassmann_contexts import GrassmannContext, reduce_kvector

    k, n = as_int(k), as_int(n)
    if mode not in ("classical", "quantum"):
        raise InvalidInputError(f"unknown mode {mode!r}")
    if not 1 <= k <= n:
        raise InvalidInputError("need 1 <= k <= n")
    ctx = GrassmannContext(k, n, mode)
    fund = fundamental(k)
    checked = []
    for h, c in _relations(k, n, mode):
        w = reduce_kvector(apply_operator(low_generator(h, k), fund), ctx)
        diff = w - fund.scale(QInt.q_power(1, c))
        rhs = f"{render_signed_terms([(c, ['q'])])} * e[1..{k}]" if c else "0"
        checked.append((f"D{h} * e[1..{k}] = {rhs}", diff.is_zero(), diff))

    if k < n:
        ys = y_polynomials(n, k)
        es = inverse_components(n)
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
            witness = apply_operator(expand_in_low_generators(diff, k), fund)
            name = f"E{m} = -D{m} + (-1)^{m}*Y{m}"
            if m - 1 > n - k:
                imposed = f"D{m - 1}" if m - 1 == n - k + 1 else f"D{n - k + 1}..D{m - 1}"
                name += f" mod ({imposed})"
            checked.append((name, diff.is_zero(), witness))

    return PresentationReport(k, n, mode, checked)


def render_presentation(report: PresentationReport) -> str:
    """Human-readable presentation: generators, reduced relations, and both
    the D-form and Y-form of the quotient ring."""
    k, n, mode = report.k, report.n, report.mode
    lines = [f"G({k},{n}) {mode} presentation"]
    gens = ", ".join(f"D{i}" for i in range(1, k + 1))
    base = "Z[q]" if mode == "quantum" else "Z"
    rels = ", ".join(render_signed_terms([(1, [f"D{h}"]), (-c, ["q"])])
                     for h, c in _relations(k, n, mode))
    lines.append(f"D-form: {base}[{gens}] / ({rels})")
    lines.append("reduced relations:")
    for h, c in _relations(k, n, mode):
        lines.append(f"  {render_dpolynomial(low_generator(h, k))} = "
                     f"{render_signed_terms([(c, ['q'])])}")
    if k < n:
        ygens = ", ".join(f"D{i}" for i in range(1, n - k + 1))
        yrels = ", ".join(render_signed_terms([(1, [f"Y{h}(D)"]), (-c, ["q"])])
                          for h, c in _relations(n - k, n, mode))
        lines.append(f"Y-form: {base}[{ygens}] / ({yrels})")
        ys = y_polynomials(n, k)
        for i in range(k + 1, n + 1):
            lines.append(f"  Y{i} = {render_dpolynomial(ys[i])}")
    lines.append("checks:")
    for name, holds, _ in report.checked_relations:
        lines.append(f"  {name}: {'OK' if holds else 'FAIL'}")
    return "\n".join(lines)
