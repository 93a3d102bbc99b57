"""The polynomial reference route the tests check the library against.

lr_expansion counts tableaux.  Before it did, it multiplied two Schur
polynomials and peeled the product back into the Schur basis; that route
stays here as its reference: the MultiPolynomial product with its
exponent guard, the symmetry test, the leading exponent and
schur_decompose.  complete_homogeneous gives the h_i that the tests
multiply out to check verify_jacobi_trudi's Schur-basis substitution.
weight_components splits a KVector by symbol weight.

The library runs none of this, and it keeps its own loops on the packed
terms, so it shares no arithmetic with exterior_core.FreeElement."""

from functools import lru_cache, reduce
from itertools import combinations_with_replacement, permutations
from operator import or_

from schubert.exterior_core import InvalidInputError, KVector, Partition
from schubert.schur_oracle import _DIGIT, LIMIT, MultiPolynomial, SHIFT, _pack, _unpack, schur_expand


def _guards(k: int) -> int:
    """The guard bit of each of the k digits."""
    return LIMIT * (((1 << (SHIFT * k)) - 1) // _DIGIT)


@lru_cache(maxsize=None)
def complete_homogeneous(i: int, k: int) -> MultiPolynomial:
    """h_i(x_1..x_k): the sum of all degree-i monomials."""
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


def multiply(a: MultiPolynomial, b: MultiPolynomial) -> MultiPolynomial:
    """a * b.  A product with an exponent of LIMIT or more raises
    InvalidInputError instead of carrying into the next digit."""
    right = a._coerce(b).terms.items()
    d = {}
    get = d.get
    for e1, c1 in a.terms.items():
        for e2, c2 in right:
            e = e1 + e2
            d[e] = get(e, 0) + c1 * c2
    d = {e: c for e, c in d.items() if c}
    if reduce(or_, d, 0) & _guards(a.num_vars):
        raise InvalidInputError(f"product has an exponent of {LIMIT} or more")
    return MultiPolynomial._of(a.num_vars, d)


def leading_exponent(p: MultiPolynomial) -> tuple:
    """The lexicographically largest exponent vector of a nonzero p."""
    return _unpack(max(p.terms), p.num_vars)


def is_symmetric(p: MultiPolynomial) -> bool:
    for key, c in p.terms.items():
        for perm in set(permutations(_unpack(key, p.num_vars))):
            if p.terms.get(_pack(perm), 0) != c:
                return False
    return True


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


def weight_components(v: KVector) -> dict:
    """Split v into homogeneous pieces keyed by symbol weight (q is neutral)."""
    out = {}
    base = v.degree * (v.degree + 1) // 2
    for (indices, d), c in v.terms.items():
        piece = out.setdefault(sum(indices) - base, KVector(v.degree))
        piece.terms[(indices, d)] = c
    return out
