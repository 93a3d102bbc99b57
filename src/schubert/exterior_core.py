"""Exact multivector arithmetic in the exterior algebra of a free module.

The ambient module M is freely spanned by e^1, e^2, e^3, ... and the k-th
exterior power has wedge-basis elements e^{i1} ^ ... ^ e^{ik} indexed by strictly
increasing symbols.  Coefficients are integer polynomials in a single
variable q (plain Python ints, so arithmetic is exact at any size).

QInt, KVector and the operator polynomials of Z[D] are the three
FreeElements: {basis key: nonzero int} dicts whose module operations are
defined once, in FreeElement.

A Schubert class is named by a Partition lam or by its SchubertSymbol
I(lam).  Both are tuples, checked when they are built: each equals, hashes
and orders like the plain tuple of its parts or indices, so it serves as a
dict key or sort key as it is.  A shape the library derives itself from
checked input (a symbol's partition, an oracle's output shapes) is wrapped
by Partition._of without a second check.
"""

from __future__ import annotations

import re
from itertools import chain
from operator import index


class InvalidInputError(ValueError):
    """An argument violates a documented precondition."""


def as_int(x) -> int:
    """x as an exact int (anything with __index__).  A float, a string or
    any other non-integer raises InvalidInputError instead of being
    truncated."""
    try:
        return index(x)
    except TypeError:
        raise InvalidInputError(f"not an integer: {x!r}") from None


def as_nonnegative(x, name: str) -> int:
    """x as an int, as as_int; a negative value raises InvalidInputError."""
    x = as_int(x)
    if x < 0:
        raise InvalidInputError(f"{name} must be nonnegative, got {name}={x}")
    return x


def as_partition(x) -> "Partition":
    """x as a Partition: a Partition as it is, anything else validated
    through the constructor."""
    return x if isinstance(x, Partition) else Partition(x)


def as_symbol(x) -> "SchubertSymbol":
    """x as a SchubertSymbol, in the manner of as_partition."""
    return x if isinstance(x, SchubertSymbol) else SchubertSymbol(x)


def accumulate(pairs) -> dict:
    """Sum (key, int) pairs into {key: total}, dropping keys that total 0."""
    acc = {}
    get = acc.get
    for key, c in pairs:
        acc[key] = get(key, 0) + c
    return {key: c for key, c in acc.items() if c}


class Partition(tuple):
    """Weakly decreasing positive integer parts; trailing zeros are dropped.
    A tuple of its parts: it equals, hashes and orders like that tuple."""

    __slots__ = ()

    def __new__(cls, parts=()):
        parts = tuple(map(as_int, parts))
        for a, b in zip(parts, parts[1:]):
            if a < b:
                raise InvalidInputError(f"parts not weakly decreasing: {parts}")
        if parts and parts[-1] < 0:
            raise InvalidInputError(f"negative part in {parts}")
        return super().__new__(cls, (p for p in parts if p > 0))

    @classmethod
    def _of(cls, parts: tuple) -> "Partition":
        """Wrap a weakly decreasing tuple of nonnegative ints without
        checking it; its zeros, all trailing, are dropped."""
        return tuple.__new__(cls, parts[: len(parts) - parts.count(0)])

    @property
    def parts(self) -> tuple:
        """The parts as a plain tuple."""
        return tuple(self)

    def weight(self) -> int:
        return sum(self)

    def length(self) -> int:
        return len(self)

    def padded(self, k: int) -> tuple:
        """The parts as a length-k tuple, zero padded on the right."""
        k = as_nonnegative(k, "k")
        if len(self) > k:
            raise InvalidInputError(f"partition {self.parts} longer than k={k}")
        return self.parts + (0,) * (k - len(self))

    def fits_box(self, k: int, n: int) -> bool:
        """True iff the diagram fits in the k x (n-k) box; False for a k
        outside 0 <= k <= n, where there is no box."""
        k, n = as_int(k), as_int(n)
        return len(self) <= k <= n and (not self or self[0] <= n - k)

    def box_complement(self, k: int, n: int) -> "Partition":
        """The complementary diagram inside the k x (n-k) box."""
        k, n = as_int(k), as_int(n)
        if k > n:
            raise InvalidInputError(f"{self.parts} does not fit: k={k} exceeds n={n}")
        if not self.fits_box(k, n):
            raise InvalidInputError(f"{self.parts} does not fit the {k}x{n - k} box")
        return Partition(n - k - p for p in reversed(self.padded(k)))

    def __repr__(self):
        return f"Partition({list(self)})"


class SchubertSymbol(tuple):
    """Strictly increasing positive indices i1 < i2 < ... < ik.  A tuple of
    its indices: it equals, hashes and orders like that tuple."""

    __slots__ = ()

    def __new__(cls, indices):
        indices = tuple(map(as_int, indices))
        if any(i < 1 for i in indices):
            raise InvalidInputError(f"indices must be >= 1: {indices}")
        if any(a >= b for a, b in zip(indices, indices[1:])):
            raise InvalidInputError(f"indices not strictly increasing: {indices}")
        return super().__new__(cls, indices)

    @property
    def indices(self) -> tuple:
        """The indices as a plain tuple."""
        return tuple(self)

    @property
    def k(self) -> int:
        return len(self)

    def weight(self) -> int:
        k = len(self)
        return sum(self) - k * (k + 1) // 2

    def __repr__(self):
        return f"SchubertSymbol({list(self)})"


class FreeElement:
    """A finite Z-linear combination: ``terms`` maps each basis key to a
    nonzero int.  The free-module structure lives here once.  A subclass
    picks its keys, its product and its rendering; one that carries more
    than its terms (KVector's degree) overrides _new and _coerce."""

    __slots__ = ("terms",)

    @classmethod
    def _of(cls, terms: dict):
        """Wrap a {key: nonzero int} dict without checking it."""
        out = cls.__new__(cls)
        out.terms = terms
        return out

    @classmethod
    def zero(cls, *shape):
        """The zero element; shape is what the constructor takes before terms."""
        return cls(*shape)

    def _new(self, terms: dict):
        """The element of self's module with these (nonzero) terms."""
        return self._of(terms)

    def _coerce(self, other):
        """other as an element of self's module; InvalidInputError if it is not one."""
        if not isinstance(other, type(self)):
            raise InvalidInputError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        return other

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        return self._new(accumulate(chain(self.terms.items(), self._coerce(other).terms.items())))

    def __neg__(self):
        return self._new({key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        return self + -self._coerce(other)

    def _times(self, c: int):
        """c * self for an int c."""
        return self._new({key: c * x for key, x in self.terms.items()} if c else {})

    def __eq__(self, other):
        try:
            other = self._coerce(other)
        except InvalidInputError:
            return False
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))


class QInt(FreeElement):
    """Sparse integer polynomial in q: ``terms`` maps each exponent to its
    coefficient.  An int acts as the constant QInt it equals."""

    __slots__ = ()

    def __init__(self, coeffs=None):
        items = coeffs.items() if hasattr(coeffs, "items") else coeffs or ()
        self.terms = accumulate((as_nonnegative(e, "q exponent"), as_int(c)) for e, c in items)

    @property
    def coeffs(self) -> dict:
        """The {exponent: coefficient} terms (an alias of ``terms``)."""
        return self.terms

    @classmethod
    def integer(cls, n: int) -> "QInt":
        return cls({0: n})

    @classmethod
    def q_power(cls, d: int, c: int = 1) -> "QInt":
        return cls({d: c})

    @staticmethod
    def _coerce(other) -> "QInt":
        return other if isinstance(other, QInt) else QInt.integer(other)

    def items(self):
        return self.terms.items()

    def constant_term(self) -> int:
        return self.terms.get(0, 0)

    def __mul__(self, other):
        other = QInt._coerce(other)
        return QInt._of(accumulate(
            (e1 + e2, c1 * c2)
            for e1, c1 in self.terms.items()
            for e2, c2 in other.terms.items()
        ))

    __rmul__ = __mul__
    __radd__ = FreeElement.__add__

    def __rsub__(self, other):
        return QInt._coerce(other) - self

    def __hash__(self):
        # a constant hashes as the int it equals
        if self.terms.keys() <= {0}:
            return hash(self.constant_term())
        return super().__hash__()

    def __repr__(self):
        return render_signed_terms((c, q_factors(e)) for e, c in sorted(self.terms.items()))


class KVector(FreeElement):
    """Element of the k-th exterior power.

    ``terms`` maps (mask, q-degree) to a nonzero int, bit i-1 of mask set
    for each index i, so the vector is the sum of c * q^d * e^{i1} ^ ... ^
    e^{ik} over its entries.  The constructor, ``items()`` and
    ``coefficient()`` speak in SchubertSymbol and QInt; the engine works
    on ``terms`` directly.

    The degree k is carried explicitly so the zero vectors of distinct
    exterior powers stay distinguishable.
    """

    __slots__ = ("degree",)

    def __init__(self, degree: int, terms=None):
        self.degree = degree = as_nonnegative(degree, "degree")
        items = terms.items() if hasattr(terms, "items") else terms or ()
        self.terms = accumulate(signed_sorted(_flat_terms(((as_symbol(sym), c) for sym, c in items), degree)))

    @classmethod
    def _of(cls, degree: int, terms: dict) -> "KVector":
        """Wrap a {(mask, q-degree): nonzero int} dict without checking it."""
        out = cls.__new__(cls)
        out.degree = degree
        out.terms = terms
        return out

    def _new(self, terms: dict) -> "KVector":
        return KVector._of(self.degree, terms)

    def _coerce(self, other):
        if not isinstance(other, KVector) or other.degree != self.degree:
            raise InvalidInputError("can only add or subtract k-vectors of equal degree")
        return other

    @classmethod
    def basis(cls, indices, coeff=1) -> "KVector":
        sym = as_symbol(indices)
        return cls(len(sym), {sym: coeff})

    def items(self):
        """(SchubertSymbol, QInt) terms in canonical (lexicographic symbol) order."""
        grouped = {}
        for (indices, d), c in _decoded(self):
            grouped.setdefault(indices, {})[d] = c
        return [(SchubertSymbol(indices), QInt._of(qc)) for indices, qc in grouped.items()]

    def coefficient(self, indices) -> QInt:
        mask = _mask(as_symbol(indices))
        return QInt._of({d: c for (m, d), c in self.terms.items() if m == mask})

    def scale(self, c) -> "KVector":
        c = QInt._coerce(c)
        return KVector._of(self.degree, accumulate(
            ((mask, d + e), x * y)
            for (mask, d), x in self.terms.items()
            for e, y in c.terms.items()
        ))

    # bound here, not only inherited, so a tracer can rebind it on KVector
    __add__ = FreeElement.__add__

    def __repr__(self):
        return f"KVector({self.degree}, {render_kvector(self)!r})"


def partition_to_symbol(lam: Partition, k: int) -> SchubertSymbol:
    """The symbol I with i_j = r_j + j, where r_j runs over lam reversed."""
    return SchubertSymbol(r + j for j, r in enumerate(reversed(as_partition(lam).padded(k)), 1))


def symbol_to_partition(sym: SchubertSymbol) -> Partition:
    """Inverse of partition_to_symbol at the same k."""
    return _partition_of(_mask(as_symbol(sym)))


def _mask(indices) -> int:
    """The bits of an index tuple: bit i-1 is set for each index i."""
    mask = 0
    for i in indices:
        mask |= 1 << (i - 1)
    return mask


def _indices(mask: int) -> tuple:
    """The index tuple of a mask: i for each set bit i-1, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def _partition_of(mask: int) -> Partition:
    """The partition of the symbol whose mask this is: its parts
    i_j - j, read from the top set bit down."""
    parts = []
    j = mask.bit_count()
    while mask:
        i = mask.bit_length()
        parts.append(i - j)
        mask ^= 1 << i - 1
        j -= 1
    return Partition._of(tuple(parts))


def _decoded(v: KVector) -> list:
    """v's terms as ((index tuple, q-degree), int) pairs, sorted: by index
    tuple, which is not the order of the masks (e[2,3] has the smaller)."""
    return sorted(((_indices(mask), d), c) for (mask, d), c in v.terms.items())


def signed_sorted(raw):
    """Canonicalize raw ((index sequence, q-degree), int) pairs into
    ((mask, q-degree), int) pairs: drop those with a repeated index and sign
    the rest by their inversion parity, each index counting the ones
    before it that exceed it (the set bits of the mask above it)."""
    for (indices, d), c in raw:
        mask = odd = 0
        for i in indices:
            bit = 1 << i - 1
            if mask & bit:
                break
            odd ^= (mask >> i).bit_count() & 1
            mask |= bit
        else:
            yield (mask, d), -c if odd else c


def _flat_terms(items, degree: int):
    """(index sequence, coefficient) items as flat ((index tuple, q-degree), int)
    pairs, one per power of q; each sequence needs length degree, indices >= 1."""
    for indices, c in items:
        indices = tuple(map(as_int, indices))
        if len(indices) != degree:
            raise InvalidInputError(f"index list {indices} has wrong length, expected {degree}")
        if any(i < 1 for i in indices):
            raise InvalidInputError(f"index < 1 in {indices}")
        for e, x in QInt._coerce(c).terms.items():
            yield (indices, e), x


def normalize(raw, degree=None) -> KVector:
    """Canonicalize raw (index list, coefficient) pairs into a KVector.

    Terms with a repeated index are dropped; the rest are sorted with the
    sign of the sorting permutation and like terms combined.
    """
    raw = list(raw)
    if degree is None:
        if not raw:
            raise InvalidInputError("degree is required to normalize an empty sum")
        degree = len(raw[0][0])
    degree = as_nonnegative(degree, "degree")
    return KVector._of(degree, accumulate(signed_sorted(_flat_terms(raw, degree))))


def wedge(a: KVector, b: KVector) -> KVector:
    """Bilinear wedge product; degree adds."""
    return KVector._of(a.degree + b.degree, accumulate(signed_sorted(
        ((_indices(ma) + _indices(mb), da + db), ca * cb)
        for (ma, da), ca in a.terms.items()
        for (mb, db), cb in b.terms.items()
    )))


def fundamental(k: int) -> KVector:
    """The fundamental k-vector e^1 ^ e^2 ^ ... ^ e^k."""
    return KVector.basis(range(1, as_nonnegative(k, "k") + 1))


def q_factors(d: int) -> list:
    """The factors of q^d in rendered text: none for d = 0."""
    return [] if d == 0 else ["q"] if d == 1 else [f"q^{d}"]


def render_signed_terms(terms) -> str:
    """Lay out (int coefficient, factor strings) pairs as 'x - 2*y + ...',
    or '0' when every coefficient is 0.  Zero terms are skipped, and a unit
    coefficient is elided in front of factors."""
    chunks = []
    for c, factors in terms:
        if not c:
            continue
        term = "*".join(factors if abs(c) == 1 and factors else [str(abs(c)), *factors])
        if chunks:
            chunks.append((" - " if c < 0 else " + ") + term)
        else:
            chunks.append("-" + term if c < 0 else term)
    return "".join(chunks) or "0"


def render_kvector(v: KVector) -> str:
    """Canonical text form: terms sorted lexicographically by index list,
    each rendered as c*q^d*e[i1,...,ik] with q^0 and unit c elided."""
    return render_signed_terms(
        (c, q_factors(d) + ["e[" + ",".join(map(str, indices)) + "]"])
        for (indices, d), c in _decoded(v)
    )


_TERM_RE = re.compile(r"^(?:(\d+)\*)?(?:(q)(?:\^(\d+))?\*)?e\[\s*(\d+(?:\s*,\s*\d+)*)?\s*\]$")


def parse_kvector(text: str, degree=None) -> KVector:
    """Parse what render_kvector emits, and more: e[2,1] reads as -e[1,2],
    a symbol with a repeated index as 0, and 'q^0*', 'q^1*', '1*', a leading
    '+' and leading zeros are accepted.  Empty or blank text is not a
    k-vector: the zero vector is written '0'."""
    s = text.strip()
    if not s:
        raise InvalidInputError(f"cannot parse k-vector: {text!r}")
    if s == "0":
        if degree is None:
            raise InvalidInputError("degree is required to parse the zero vector")
        return KVector.zero(degree)
    tokens = re.split(r"\s*([+-])\s*", s)  # term, sign, term, ..., term
    if tokens[0] == "":
        tokens = tokens[1:]  # leading sign
    else:
        tokens = ["+"] + tokens
    raw = []
    for sign_tok, term in zip(tokens[0::2], tokens[1::2]):
        m = _TERM_RE.match(term.strip())
        if m is None:
            raise InvalidInputError(f"cannot parse term: {term!r}")
        mag = int(m.group(1)) if m.group(1) else 1
        d = int(m.group(3) or 1) if m.group(2) else 0
        # e[] is the symbol of Lambda^0; normalize's length check rejects
        # it next to longer symbols
        indices = tuple(int(x) for x in m.group(4).split(",")) if m.group(4) else ()
        sign = 1 if sign_tok == "+" else -1
        raw.append((indices, QInt.q_power(d, sign * mag)))
    return normalize(raw, degree)
