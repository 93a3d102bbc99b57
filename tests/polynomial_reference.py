"""The polynomial reference route the tests check the library against.

The library computes on shapes only.  lr_expansion counts tableaux, and
verify_jacobi_trudi substitutes h_i in the Schur basis by Pieri strips.
Their reference is the monomial route: multiply Schur polynomials in
x_1..x_k and peel the product back into the Schur basis (schur_decompose).
Each s_lam is read off its semistandard tableaux, filled row by row and
cell by cell (ssyt_weights), so the reference shares no horizontal-strip
code with the library.  complete_homogeneous gives the h_i that the tests multiply out
to check verify_jacobi_trudi.  weight_components splits a KVector by
symbol weight.

A polynomial is a plain {packed exponent: nonzero int} dict, with the
variable count k passed alongside.  The monomial x_1^e_1 ... x_k^e_k packs
into one int, the base-2^SHIFT number with digits e_1 (most significant)
.. e_k.  Multiplying two monomials is then one int add, and int order is
lex order on exponent vectors.  The top bit of every digit is a guard:
exponents stay below LIMIT = 2^(SHIFT-1), so adding two of them never
carries into the next digit.  pack rejects an exponent of LIMIT or more,
and multiply rejects a product that reaches one."""

from functools import lru_cache, reduce
from itertools import combinations_with_replacement, permutations
from operator import or_

from schubert.exterior_core import InvalidInputError, KVector, Partition

SHIFT = 16
LIMIT = 1 << (SHIFT - 1)
_DIGIT = (1 << SHIFT) - 1


def pack(exp: tuple) -> int:
    key = 0
    for e in exp:
        if not 0 <= e < LIMIT:
            raise InvalidInputError(f"bad exponent {e} in {exp}")
        key = (key << SHIFT) | e
    return key


def unpack(key: int, k: int) -> tuple:
    return tuple((key >> (SHIFT * (k - 1 - i))) & _DIGIT for i in range(k))


def polynomial(k: int, pairs) -> dict:
    """The polynomial in x_1..x_k with these (exponent tuple, int) pairs or
    {exponent tuple: int} items, repeats summed and zeros dropped."""
    d = {}
    for exp, c in pairs.items() if hasattr(pairs, "items") else pairs:
        if len(exp) != k:
            raise InvalidInputError(f"{exp} is not an exponent vector of length {k}")
        key = pack(exp)
        d[key] = d.get(key, 0) + c
    return {e: c for e, c in d.items() if c}


def exponents(p: dict, k: int) -> dict:
    """p keyed by exponent tuples, in lex order."""
    return {unpack(e, k): c for e, c in sorted(p.items())}


def _guards(k: int) -> int:
    """The guard bit of each of the k digits."""
    return LIMIT * (((1 << (SHIFT * k)) - 1) // _DIGIT)


def ssyt_weights(shape, k: int) -> dict:
    """{packed content vector: count} over the semistandard tableaux of the
    given shape with entries in 1..k: rows weakly increase, columns
    strictly."""
    return _rows(tuple(shape), k, (0,) * (shape[0] if shape else 0))


@lru_cache(maxsize=None)
def _rows(rows, k: int, above: tuple) -> dict:
    """ssyt_weights of the rows of these lengths, filled top row first and
    each row cell by cell, with every entry of the top row greater than
    the one above it.  The rows below depend only on the row just filled,
    so they are counted once per such row.  A cell takes at most k minus
    the cells below it, so every partial filling completes."""
    if not rows:
        return {0: 1}
    his = [k - sum(1 for w in rows[1:] if w > c) for c in range(rows[0])]
    level = [((), 0)]
    for c, hi in enumerate(his):
        level = [
            (row + (v,), key + (1 << (SHIFT * (k - v))))
            for row, key in level
            for v in range(max(row[-1] if row else 1, above[c] + 1), hi + 1)
        ]
    out = {}
    get = out.get
    below = rows[1] if len(rows) > 1 else 0
    for row, key in level:
        for e, n in _rows(rows[1:], k, row[:below]).items():
            e += key
            out[e] = get(e, 0) + n
    return out


@lru_cache(maxsize=None)
def schur_expand(lam: Partition, k: int) -> dict:
    """s_lam(x_1..x_k), the content of its semistandard tableaux; empty
    when lam is longer than k.  Cached: read only."""
    if lam.length() > k:
        return {}
    if lam.weight() >= LIMIT:
        raise InvalidInputError(f"weight {lam.weight()} is an exponent of {LIMIT} or more")
    return ssyt_weights(lam.parts, k)


@lru_cache(maxsize=None)
def complete_homogeneous(i: int, k: int) -> dict:
    """h_i(x_1..x_k): the sum of all degree-i monomials.  Cached: read only."""
    if i < 0:
        return {}
    d = {}
    for combo in combinations_with_replacement(range(k), i):
        exp = [0] * k
        for v in combo:
            exp[v] += 1
        key = pack(exp)
        d[key] = d.get(key, 0) + 1
    return d


def multiply(a: dict, b: dict, k: int) -> dict:
    """a * b in x_1..x_k.  A product with an exponent of LIMIT or more
    raises InvalidInputError instead of carrying into the next digit."""
    right = b.items()
    d = {}
    get = d.get
    for e1, c1 in a.items():
        for e2, c2 in right:
            e = e1 + e2
            d[e] = get(e, 0) + c1 * c2
    d = {e: c for e, c in d.items() if c}
    if reduce(or_, d, 0) & _guards(k):
        raise InvalidInputError(f"product has an exponent of {LIMIT} or more")
    return d


def leading_exponent(p: dict, k: int) -> tuple:
    """The lexicographically largest exponent vector of a nonzero p."""
    return unpack(max(p), k)


def is_symmetric(p: dict, k: int) -> bool:
    for key, c in p.items():
        for perm in set(permutations(unpack(key, k))):
            if p.get(pack(perm), 0) != c:
                return False
    return True


def schur_decompose(p: dict, k: int) -> dict:
    """Expand a symmetric polynomial in x_1..x_k in the Schur basis by
    repeatedly subtracting the Schur polynomial of the lexicographically
    largest exponent vector.  Raises if the input is not symmetric."""
    out = {}
    rem = dict(p)
    while rem:
        top = max(rem)
        lead = unpack(top, k)
        if any(a < b for a, b in zip(lead, lead[1:])):
            raise InvalidInputError("polynomial is not symmetric")
        lam = Partition(lead)
        c = out[lam] = rem[top]
        for e, v in schur_expand(lam, k).items():
            left = rem.get(e, 0) - c * v
            if left:
                rem[e] = left
            else:
                del rem[e]
    return out


def weight_components(v: KVector) -> dict:
    """Split v into homogeneous pieces keyed by symbol weight (q is neutral)."""
    out = {}
    for sym, c in v.items():
        w = sym.weight()
        out[w] = out.get(w, KVector.zero(v.degree)) + KVector(v.degree, {sym: c})
    return out
