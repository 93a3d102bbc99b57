"""Independent cross-checks for classical and quantum products: Schur
polynomials in k variables by the branching rule, decomposition back into
the Schur basis, Littlewood-Richardson coefficients, and quantum products
by the rim-hook rule over them.

lr_expansion counts Littlewood-Richardson tableaux (Fulton, Young Tableaux,
LMS Student Texts 35, 1997, Section 5; Macdonald, Symmetric Functions and
Hall Polynomials, I.9): the lighter factor mu goes onto the other, lam,
one letter at a time, mu_j copies of letter j as a horizontal strip on at
most k rows, and only fillings whose reverse reading word is a lattice word
count.  The lattice test for letter j+1 needs only the per-row counts of
letter j, so equal (shape, counts) states are merged with their
multiplicities after each letter.  Anders Buch's lrcalc
(https://sites.math.rutgers.edu/~asbuch/lrcalc/) is the standard
implementation of the rule.  No polynomial is multiplied: the route through
schur_expand, MultiPolynomial products and schur_decompose stays public and
serves as the tests' reference.

A monomial x_1^e_1 ... x_k^e_k is stored as one packed int, the base-2^SHIFT
number with digits e_1 (most significant) .. e_k.  Multiplying two monomials
is then one int add, and int order is lex order on exponent vectors.  The top
bit of every digit is a guard: exponents stay below LIMIT = 2^(SHIFT-1), so
adding two of them never carries into the next digit, and a product with an
exponent that reaches the guard bit raises instead of wrapping.

verify_jacobi_trudi puts h_i(x_1..x_k) in place of each D_i of a Giambelli
determinant (Macdonald, Symmetric Functions and Hall Polynomials, I.(3.4))
and compares the result with schur_expand.  The substitution is a Horner
scheme over the monomials' largest parts, like apply_operator's.  Both
sides are symmetric: the substitution is a Z-combination of products of
h_i whatever the determinant holds, and schur_expand is by the branching
rule.  Each S_k-orbit of exponent vectors holds exactly one weakly
decreasing ("dominant") vector, so two symmetric polynomials are equal iff
their coefficients agree there (the m_kappa basis, Macdonald I.2).  So the
outermost product of the Horner scheme is computed only at the dominant
vectors of weight |lam|, and the inner levels stay whole.  A determinant
monomial whose parts do not sum to |lam| only adds exponents that no
target reads, so a weight guard rejects such a determinant first.

Deliberately shares no code with the derivation machinery, so the two paths
cannot fail the same way: the only call into it is verify_jacobi_trudi's
giambelli_det, the determinant under test."""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache, reduce
from itertools import combinations_with_replacement, permutations, product
from operator import add, or_

from .exterior_core import FreeElement, InvalidInputError, Partition, as_int, as_nonnegative, as_partition

SHIFT = 16
LIMIT = 1 << (SHIFT - 1)
_DIGIT = (1 << SHIFT) - 1


def _pack(exp: tuple) -> int:
    key = 0
    for e in exp:
        key = (key << SHIFT) | e
    return key


def _unpack(key: int, k: int) -> tuple:
    return tuple((key >> (SHIFT * (k - 1 - i))) & _DIGIT for i in range(k))


def _guards(k: int) -> int:
    """The guard bit of each of the k digits."""
    return LIMIT * (((1 << (SHIFT * k)) - 1) // _DIGIT)


class MultiPolynomial(FreeElement):
    """Integer polynomial in x_1..x_k.  The constructor takes exponent
    tuples; ``terms`` maps each packed exponent int to a nonzero coefficient.
    Only the linear structure comes from FreeElement: the product and every
    computation below keep their own loops."""

    __slots__ = ("num_vars",)

    def __init__(self, num_vars: int, terms=None):
        self.num_vars = as_nonnegative(num_vars, "num_vars")
        d = {}
        if terms:
            items = terms.items() if hasattr(terms, "items") else terms
            for exp, c in items:
                exp = tuple(map(as_int, exp))
                if len(exp) != self.num_vars or any(not 0 <= e < LIMIT for e in exp):
                    raise InvalidInputError(f"bad exponent vector {exp}")
                key = _pack(exp)
                d[key] = d.get(key, 0) + as_int(c)
        self.terms = {e: c for e, c in d.items() if c}

    @classmethod
    def _of(cls, num_vars: int, terms: dict) -> "MultiPolynomial":
        """Wrap packed terms that are already nonzero."""
        out = cls.__new__(cls)
        out.num_vars = num_vars
        out.terms = terms
        return out

    def _new(self, terms: dict) -> "MultiPolynomial":
        return MultiPolynomial._of(self.num_vars, terms)

    def _coerce(self, other):
        if not isinstance(other, MultiPolynomial) or other.num_vars != self.num_vars:
            raise InvalidInputError("variable-count mismatch")
        return other

    @classmethod
    def one(cls, num_vars: int) -> "MultiPolynomial":
        return cls(num_vars, {(0,) * num_vars: 1})

    def leading_exponent(self) -> tuple:
        return _unpack(max(self.terms), self.num_vars)

    def is_symmetric(self) -> bool:
        for key, c in self.terms.items():
            for perm in set(permutations(_unpack(key, self.num_vars))):
                if self.terms.get(_pack(perm), 0) != c:
                    return False
        return True

    def __mul__(self, other):
        if isinstance(other, int):
            return self._times(other)
        right = self._coerce(other).terms.items()
        d = {}
        get = d.get
        for e1, c1 in self.terms.items():
            for e2, c2 in right:
                e = e1 + e2
                d[e] = get(e, 0) + c1 * c2
        d = {e: c for e, c in d.items() if c}
        if reduce(or_, d, 0) & _guards(self.num_vars):
            raise InvalidInputError(f"product has an exponent of {LIMIT} or more")
        return MultiPolynomial._of(self.num_vars, d)

    __rmul__ = __mul__

    def __repr__(self):
        k = self.num_vars
        terms = {_unpack(e, k): c for e, c in sorted(self.terms.items())}
        return f"MultiPolynomial({k}, {terms})"


# typed, as lr_expansion's: a float k must reach as_int, not the int's entry
@lru_cache(maxsize=None, typed=True)
def schur_expand(lam: Partition, k: int) -> MultiPolynomial:
    """The monomial expansion of s_lam(x_1..x_k) by the branching rule

        s_lam(x_1..x_k) = sum over horizontal strips lam/mu of
                          s_mu(x_1..x_{k-1}) * x_k^(|lam| - |mu|),

    a semistandard tableau read as the chain of strips filled by 1, .., k.
    Zero when the partition is longer than k."""
    k, lam = as_nonnegative(k, "k"), as_partition(lam)
    if len(lam) > k:
        return MultiPolynomial.zero(k)
    if k == 0:
        return MultiPolynomial.one(0)
    if lam and lam[0] >= LIMIT:
        raise InvalidInputError(f"part {lam[0]} is an exponent of {LIMIT} or more")
    # lam/mu is a horizontal strip iff lam_{i+1} <= mu_i <= lam_i; mu_k = 0
    # keeps mu within k - 1 rows.
    ranges = [range(low, high + 1) for high, low in zip(lam, lam[1:] + (0,))]
    if len(lam) == k:
        ranges[-1] = range(1)
    size = sum(lam)
    d = {}
    get = d.get
    for mu in product(*ranges):
        last = size - sum(mu)
        for e, c in schur_expand(Partition(mu), k - 1).terms.items():
            e = (e << SHIFT) | last
            d[e] = get(e, 0) + c
    return MultiPolynomial._of(k, d)


@lru_cache(maxsize=None, typed=True)
def complete_homogeneous(i: int, k: int) -> MultiPolynomial:
    """h_i(x_1..x_k): the sum of all degree-i monomials."""
    i, k = as_int(i), as_int(k)
    if i < 0:
        return MultiPolynomial.zero(k)
    d = {}
    for combo in combinations_with_replacement(range(k), i):
        exp = [0] * k
        for v in combo:
            exp[v] += 1
        exp = tuple(exp)
        d[exp] = d.get(exp, 0) + 1
    return MultiPolynomial(k, d)


def schur_decompose(p: MultiPolynomial) -> dict:
    """Expand a symmetric polynomial in the Schur basis by repeatedly
    subtracting the Schur polynomial of the lexicographically largest
    exponent vector.  Raises if the input is not symmetric."""
    k = p.num_vars
    out = {}
    rem = dict(p.terms)
    while rem:
        top = max(rem)
        lead = _unpack(top, k)
        if any(a < b for a, b in zip(lead, lead[1:])):
            raise InvalidInputError("polynomial is not symmetric")
        lam = Partition(lead)
        c = out[lam] = rem[top]
        for e, v in schur_expand(lam, k).terms.items():
            left = rem.get(e, 0) - c * v
            if left:
                rem[e] = left
            else:
                del rem[e]
    return out


# typed: a float k such as 2.0 hashes like 2, and must reach as_int, not 2's entry
@lru_cache(maxsize=None, typed=True)
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
    # zero padding keeps the order of the parts
    return tuple((Partition(shape), c) for shape, c in sorted(out.items()))


def _lr_strips(shape: tuple, last, m: int) -> list:
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
    return [(tuple(map(add, shape, counts)), counts) for counts, _ in level]


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
    beta-numbers nu_i + k - i: an n-rim hook moves one bead from b to an
    empty b - n >= 0, and its height is 1 + the beads strictly between."""
    k, n = as_int(k), as_int(n)
    if not 1 <= k <= n:
        raise InvalidInputError(f"need 1 <= k <= n, got k={k}, n={n}")
    lam, mu = as_partition(lam), as_partition(mu)
    for p in (lam, mu):
        if not p.fits_box(k, n):
            raise InvalidInputError(f"{tuple(p)} outside the {k}x{n - k} box")
    out = {}
    for nu, c in lr_expansion(min(lam, mu), max(lam, mu), k):
        beads = {part + k - 1 - i for i, part in enumerate(nu.padded(k))}
        d = 0
        while movable := [b for b in beads if b >= n and b - n not in beads]:
            b = movable[0]
            c *= (-1) ** (k - 1 - sum(b - n < x < b for x in beads))
            beads = beads - {b} | {b - n}
            d += 1
        if max(beads) < n:
            core = Partition(b - (k - 1 - i) for i, b in enumerate(sorted(beads, reverse=True)))
            out[(core, d)] = out.get((core, d), 0) + c
    return dict(sorted((key, c) for key, c in out.items() if c))


def verify_jacobi_trudi(lam, k: int) -> bool:
    """True iff substituting h_i for the i-th generator in the Giambelli
    determinant of lam reproduces schur_expand(lam, k).  Both sides are
    symmetric, so they are compared only at the dominant exponent vectors
    of weight |lam|, after a guard that every monomial of the determinant
    has weight |lam|; see the module docstring."""
    from .giambelli_ring import giambelli_det

    lam = as_partition(lam)
    det = giambelli_det(lam, k)
    size = lam.weight()
    # every exponent of the substitution is at most |lam|, so this one
    # bound stands in for MultiPolynomial's per-product guard
    if size >= LIMIT:
        raise InvalidInputError(f"weight {size} is an exponent of {LIMIT} or more")
    if any(sum(parts) != size for parts in det.terms):
        return False
    targets = _dominant(size, k)
    want = schur_expand(lam, k).terms
    return _substitute_at(det.terms.items(), k, targets) == [want.get(t, 0) for t in targets]


def _dominant(size: int, k: int) -> list:
    """The packed weakly decreasing exponent vectors of weight size in k
    variables: the partitions of size into at most k parts, zero padded.
    Built part by part, each at least the mean of what is left."""
    level = [((), size)]
    for rest in range(k, 0, -1):
        level = [
            (exp + (e,), left - e)
            for exp, left in level
            for e in range(-(-left // rest), min((left,) + exp[-1:]) + 1)
        ]
    return [_pack(exp) for exp, left in level if not left]


def _by_largest_part(monos) -> tuple:
    """The constant term of these (descending parts, c) pairs, and the
    others grouped by largest part as {h: [(other parts, c), ...]}."""
    constant = 0
    groups = {}
    for parts, c in monos:
        if parts:
            groups.setdefault(parts[0], []).append((parts[1:], c))
        else:
            constant += c
    return constant, groups


def _substitute(monos, k: int) -> dict:
    """Packed terms of the sum of c * h_parts(x_1..x_k) over these
    (descending parts, c) pairs, as a Horner scheme: the monomials whose
    largest part is h share one product by h_h of the sum of their other
    parts; every coefficient of h_h is 1, so each term adds c1 as it is.
    Zeros are dropped once per call.  Module-level: a closure that
    called itself would leave a reference cycle per call."""
    constant, groups = _by_largest_part(monos)
    out = {0: constant} if constant else {}
    get = out.get
    for h, inner in groups.items():
        right = complete_homogeneous(h, k).terms
        for e1, c1 in _substitute(inner, k).items():
            for e2 in right:
                e = e1 + e2
                out[e] = get(e, 0) + c1
    return {e: c for e, c in out.items() if c}


def _substitute_at(monos, k: int, targets: list) -> list:
    """The coefficients of _substitute(monos, k) at these packed targets,
    in order.  Only the outermost product by h_h is restricted: the
    coefficient at kappa is the sum of inner[kappa - e] over the exponents
    e <= kappa of h_h, whose coefficients are all 1.  e <= kappa is read
    off the guard bits: kappa + G - e keeps every guard bit set exactly
    when no digit of the subtraction borrows.  Sorting h_h's exponents by
    their last digit first skips every e whose last digit exceeds kappa's."""
    constant, groups = _by_largest_part(monos)
    out = [constant if t == 0 else 0 for t in targets]
    guards = _guards(k)
    for h, inner in groups.items():
        get = _substitute(inner, k).get
        es = sorted(complete_homogeneous(h, k).terms, key=_DIGIT.__and__)
        right = [guards - e for e in es]
        for i, t in enumerate(targets):
            total = 0
            for g in right[: bisect_right(es, t & _DIGIT, key=_DIGIT.__and__)]:
                d = t + g
                if d & guards == guards:
                    total += get(d - guards, 0)
            out[i] += total
    return out
