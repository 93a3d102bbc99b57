"""Independent cross-checks: D_h on wedges by the Leibniz rule and, on
shapes only, Littlewood-Richardson coefficients, quantum products by the
rim-hook rule over them, and the Jacobi-Trudi check in the Schur basis.

lr_expansion counts Littlewood-Richardson tableaux (Fulton, Young Tableaux,
LMS Student Texts 35, 1997, Section 5; Macdonald, Symmetric Functions and
Hall Polynomials, I.9): the lighter factor mu goes onto the other, lam,
one letter at a time, mu_j copies of letter j as a horizontal strip on at
most k rows, and only fillings whose reverse reading word is a lattice word
count.  The lattice test for letter j+1 needs only the per-row counts of
letter j, so equal (shape, counts) states are merged with their
multiplicities after each letter.  Anders Buch's lrcalc
(https://sites.math.rutgers.edu/~asbuch/lrcalc/) is the standard
implementation of the rule.  No polynomial is multiplied.  The tests check
lr_expansion against the monomial route it replaced
(tests/polynomial_reference.py): two Schur polynomials multiplied out and
peeled back into the Schur basis, each s_lam counted off its semistandard
tableaux, filled row by row and cell by cell.

Every strip step is one call of _lr_strips, a pure function of (shape,
the last letter's per-row counts, m), kept in a bounded lru_cache: the
products of one box, and the Jacobi-Trudi steps below, meet the same
steps over and over (1,190 products and 125 Jacobi-Trudi checks at
k <= 4 ask 8,663 times for 1,552 distinct steps).  The strips keep every
shape a partition, so lr_expansion wraps its output shapes with
Partition._of, unchecked.

rim_hook_product takes n-rim hooks off each shape on an int abacus, one
bit per bead: a move flips two bits, and a hook's height is a bit count.
The tests keep the set-based bead loop it replaced as its reference
(tests/rim_hook_reference.py).

verify_jacobi_trudi puts h_i(x_1..x_k) in place of each D_i of a Giambelli
determinant (Macdonald, Symmetric Functions and Hall Polynomials, I.(3.4))
and works in the Schur basis of the symmetric polynomials in k variables,
where s_lam is the single term {lam: 1}.  The substitution is a Horner
scheme over the monomials' largest parts, like apply_operator's, and each
product by h_h is Pieri's rule (Macdonald I.(5.16)): s_mu * h_h is the sum
of the s_nu with nu/mu a horizontal strip of h boxes on at most k rows,
the strips lr_expansion places as the first letter of a tableau.  The
s_nu of at most k rows are a basis of the symmetric polynomials in k
variables (Macdonald I.3), so the comparison is as exact as one over all
monomials; a determinant monomial of the wrong weight adds shapes of that
weight, which s_lam has none of.

Shares no code with the derivation machinery, so an oracle and the path it
checks cannot fail the same way: the only call into the engine is
verify_jacobi_trudi's giambelli_det, the determinant under test."""

from __future__ import annotations

from functools import lru_cache
from operator import add

from .exterior_core import (
    InvalidInputError,
    KVector,
    Partition,
    accumulate,
    as_int,
    as_nonnegative,
    as_partition,
)


# typed: a float k such as 2.0 hashes like 2, and must reach as_int, not
# 2's entry.  Bounded: run_checks and rim_hook_product ask for one pair back
# to back, so a small cache keeps those hits without growing with the box.
@lru_cache(maxsize=1 << 12, typed=True)
def lr_expansion(lam: Partition, mu: Partition, k: int) -> tuple:
    """Schur expansion of s_lam * s_mu over k variables, as sorted pairs,
    by the Littlewood-Richardson rule: the lighter factor is the content
    of the tableaux and the other is the shape they fill out from."""
    k, lam, mu = as_nonnegative(k, "k"), as_partition(lam), as_partition(mu)
    if lam.length() > k or mu.length() > k:
        return ()
    if lam.weight() < mu.weight():
        lam, mu = mu, lam
    # a state is (shape padded to k rows, per-row count of the last letter)
    states = {(lam.padded(k), None): 1}
    for m in mu:
        step = {}
        get = step.get
        for (shape, last), c in states.items():
            for key in _lr_strips(shape, last, m):
                step[key] = get(key, 0) + c
        states = step
    out = {}
    for (shape, _), c in states.items():
        out[shape] = out.get(shape, 0) + c
    # zero padding keeps the order of the parts; the strips keep each
    # shape a partition, so it is wrapped without a second check
    return tuple((Partition._of(shape), c) for shape, c in sorted(out.items()))


# Bounded at some 10 MB (about 650 bytes an entry at k = 4).  Its values
# are tuples, so a caller cannot change what the next caller is handed.
@lru_cache(maxsize=1 << 14)
def _lr_strips(shape: tuple, last, m: int) -> tuple:
    """(new shape, per-row counts) for each way to add the next letter m
    times to shape as a horizontal strip, keeping the reverse reading word
    a lattice word.  Read right to left, row r's new letters come before
    its copies of the last letter, so the test is: for every r, the new
    letters in rows 1..r are at most the last letter's in rows 1..r-1.
    last is None for the first letter, which has no such test.  Built row
    by row, like box_partitions."""
    level = [((), 0)]
    allowed = 0 if last is not None else m
    for r, here in enumerate(shape):
        room = shape[r - 1] - here if r else m
        # rows below r take at most shape[r] - shape[-1] cells between them
        need = m - here + shape[-1]
        level = [
            (counts + (a,), used + a)
            for counts, used in level
            for a in range(max(0, need - used), min(m - used, room, allowed - used) + 1)
        ]
        if last is not None:
            allowed += last[r]
    # with no rows at all (k = 0) nothing is placed: keep only full strips
    return tuple((tuple(map(add, shape, counts)), counts) for counts, used in level if used == m)


def lr_coefficient(lam, mu, nu, k: int) -> int:
    """Coefficient of s_nu in s_lam * s_mu over k variables."""
    k = as_int(k)
    lam, mu, nu = map(as_partition, (lam, mu, nu))
    for p in (lam, mu, nu):
        if p.length() > k:
            raise InvalidInputError(f"partition {tuple(p)} longer than k={k}")
    return dict(lr_expansion(lam, mu, k)).get(nu, 0)


def rim_hook_product(lam, mu, k: int, n: int) -> dict:
    """sigma_lam * sigma_mu in QH*(G(k,n)) as {(nu, q-degree): coefficient}
    by the rim-hook rule of Bertram, Ciocan-Fontanine and Fulton (J. Algebra
    219, 1999), over lr_expansion of the unordered pair.

    Each s_nu of s_lam * s_mu loses n-rim hooks until it fits the
    k x (n-k) box, gaining q and (-1)^(k - height) per hook; a nu that
    cannot get there adds nothing.  Hooks come off on the abacus of the
    beta-numbers nu_i + k - i, an int with bit b set for each bead b: an
    n-rim hook moves one bead from b to an empty b - n >= 0 (the set bits
    of beads >> n & ~beads), and its height is 1 + the beads strictly
    between, the set bits among the n - 1 between them.  The core and the
    sign do not depend on which hook comes off first, so the lowest goes."""
    k, n = as_int(k), as_int(n)
    if not 1 <= k <= n:
        raise InvalidInputError(f"need 1 <= k <= n, got k={k}, n={n}")
    lam, mu = as_partition(lam), as_partition(mu)
    for p in (lam, mu):
        if not p.fits_box(k, n):
            raise InvalidInputError(f"{tuple(p)} outside the {k}x{n - k} box")
    out = {}
    between = (1 << n - 1) - 1
    for nu, c in lr_expansion(min(lam, mu), max(lam, mu), k):
        # the k - len(nu) zero parts hold beads 0 .. k - len(nu) - 1
        beads = (1 << k - len(nu)) - 1
        for i, part in enumerate(nu):
            beads |= 1 << part + k - 1 - i
        d = 0
        while movable := beads >> n & ~beads:
            low = movable & -movable
            if (k - 1 - (beads >> low.bit_length() & between).bit_count()) & 1:
                c = -c
            beads ^= low | low << n
            d += 1
        if not beads >> n:
            # the r-th bead from the bottom, at b, is the part b - r
            parts = [b - r for r, b in enumerate(b for b in range(n) if beads >> b & 1)]
            key = (Partition._of(tuple(reversed(parts))), d)
            out[key] = out.get(key, 0) + c
    return dict(sorted((key, c) for key, c in out.items() if c))


def verify_jacobi_trudi(lam, k: int) -> bool:
    """True iff substituting h_i for the i-th generator in the Giambelli
    determinant of lam gives s_lam in k variables, computed in the Schur
    basis: the result must be the single term {lam: 1}."""
    from .giambelli_ring import giambelli_det

    lam = as_partition(lam)
    return _schur_horner(giambelli_det(lam, k).terms.items(), k) == {lam.padded(k): 1}


def _schur_horner(monos, k: int) -> dict:
    """The sum of c * h_parts(x_1..x_k) over these (descending parts, c)
    pairs in the Schur basis, as {shape padded to k rows: c}.  A Horner
    scheme: the monomials whose largest part is h share one product by h_h
    of the sum of their other parts, and s_shape * h_h is the sum of the
    shapes one horizontal strip of h boxes larger, on at most k rows
    (Pieri's rule, Macdonald I.(5.16)), which _lr_strips lists as the
    first letter of a tableau.  Zeros are dropped once per call.
    Module-level: a closure that called itself would leave a reference
    cycle per call."""
    out = {(0,) * k: 0}
    get = out.get
    groups = {}
    for parts, c in monos:
        if parts:
            groups.setdefault(parts[0], []).append((parts[1:], c))
        else:
            out[(0,) * k] += c
    for h, inner in groups.items():
        for shape, c in _schur_horner(inner, k).items():
            for grown, _ in _lr_strips(shape, None, h):
                out[grown] = get(grown, 0) + c
    return {shape: c for shape, c in out.items() if c}


def _compositions(h: int, k: int) -> list:
    """All tuples of k nonnegative integers summing to h, in lexicographic
    order, built one part at a time like box_partitions."""
    if h < 0 or k == 0:
        return [()] if h == k == 0 else []
    level = [()]
    for _ in range(k - 1):  # every prefix leaves the last part >= 0
        level = [p + (a,) for p in level for a in range(h - sum(p) + 1)]
    return [p + (h - sum(p),) for p in level]


def leibniz_raw_terms(h: int, indices) -> list:
    """Pre-cancellation index lists produced by the generalized Leibniz rule."""
    h, indices = as_int(h), tuple(indices)
    return [
        tuple(i + s for i, s in zip(indices, shifts))
        for shifts in _compositions(h, len(indices))
    ]


def leibniz_d(h: int, v: KVector) -> KVector:
    """D_h by the Leibniz rule, as the Hasse-Schmidt product
    D_h(e_i1 ^ ... ^ e_ik) = sum over a_1 + ... + a_k = h of
    D_a1 e_i1 ^ ... ^ D_ak e_ik, with D_a e_i = e_{i+a}.  The factors go on
    one at a time: a state is (wedge so far as a bit mask, h left), the
    next factor takes a = 0..left (the last takes all that is left), a
    repeated index kills the state, and equal states are merged as they
    arise, so terms cancel on the way rather than at the end.  An oracle
    for pieri_d: it reads none of the Pieri rows, and it walks its masks'
    bits itself.  D_0 is the identity, and on the scalar (k = 0) D_h is 0
    for h > 0: its one state keeps h left."""
    h = as_int(h)
    if h < 0:
        raise InvalidInputError("h must be nonnegative")
    return KVector._of(v.degree, accumulate(
        ((wedge, d), c * x)
        for (mask, d), c in v.terms.items()
        for wedge, x in _hasse_schmidt(h, mask)
    ))


def _hasse_schmidt(h: int, mask: int) -> list:
    """(wedge mask, coefficient) pairs of D_h on e_I, bit i-1 of mask set
    for each i in I, built factor by factor, lowest index first.  A state
    is (wedge mask, h left): placing e_j into it moves e_j past the factors
    above j, the set bits of w >> j, and a repeated index is a set bit."""
    states = {(0, h): 1}
    while mask:
        low = mask & -mask
        mask ^= low
        i = low.bit_length()
        step = {}
        get = step.get
        for (w, left), c in states.items():
            for j in range(i, i + left + 1) if mask else (i + left,):
                bit = 1 << j - 1
                if w & bit:
                    continue
                key = (w | bit, left - j + i)
                step[key] = get(key, 0) + (-c if (w >> j).bit_count() & 1 else c)
        states = step
    return [(w, c) for (w, left), c in states.items() if c and not left]
