"""Exact multivector arithmetic in the exterior algebra of a free module.

The ambient module M is freely spanned by e^1, e^2, e^3, ... and the k-th
exterior power has wedge-basis elements e^{i1} ^ ... ^ e^{ik} indexed by strictly
increasing symbols.  Coefficients are integer polynomials in a single
variable q (plain Python ints, so arithmetic is exact at any size).
"""

from __future__ import annotations

import re
from itertools import chain


class InvalidInputError(ValueError):
    """An argument violates a documented precondition."""


def accumulate(pairs) -> dict:
    """Sum (key, int) pairs into {key: total}, dropping keys that total 0."""
    acc = {}
    get = acc.get
    for key, c in pairs:
        acc[key] = get(key, 0) + c
    return {key: c for key, c in acc.items() if c}


class Partition:
    """Weakly decreasing positive integer parts; trailing zeros are dropped."""

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        parts = tuple(int(p) for p in parts)
        for a, b in zip(parts, parts[1:]):
            if a < b:
                raise InvalidInputError(f"parts not weakly decreasing: {parts}")
        if parts and parts[-1] < 0:
            raise InvalidInputError(f"negative part in {parts}")
        self.parts = tuple(p for p in parts if p > 0)

    def weight(self) -> int:
        return sum(self.parts)

    def length(self) -> int:
        return len(self.parts)

    def padded(self, k: int) -> tuple:
        """The parts as a length-k tuple, zero padded on the right."""
        if len(self.parts) > k:
            raise InvalidInputError(f"partition {self.parts} longer than k={k}")
        return self.parts + (0,) * (k - len(self.parts))

    def fits_box(self, k: int, n: int) -> bool:
        """True iff the diagram fits in the k x (n-k) box."""
        return self.length() <= k and (not self.parts or self.parts[0] <= n - k)

    def box_complement(self, k: int, n: int) -> "Partition":
        """The complementary diagram inside the k x (n-k) box."""
        if not self.fits_box(k, n):
            raise InvalidInputError(f"{self.parts} does not fit the {k}x{n - k} box")
        padded = self.padded(k)
        return Partition(tuple(n - k - padded[k - 1 - i] for i in range(k)))

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(("Partition", self.parts))

    def __lt__(self, other):
        return self.parts < other.parts

    def __bool__(self):
        return bool(self.parts)

    def __repr__(self):
        return f"Partition({list(self.parts)})"


class SchubertSymbol:
    """Strictly increasing positive indices i1 < i2 < ... < ik."""

    __slots__ = ("indices",)

    def __init__(self, indices):
        indices = tuple(int(i) for i in indices)
        if any(i < 1 for i in indices):
            raise InvalidInputError(f"indices must be >= 1: {indices}")
        if any(a >= b for a, b in zip(indices, indices[1:])):
            raise InvalidInputError(f"indices not strictly increasing: {indices}")
        self.indices = indices

    @property
    def k(self) -> int:
        return len(self.indices)

    def weight(self) -> int:
        k = len(self.indices)
        return sum(self.indices) - k * (k + 1) // 2

    def __iter__(self):
        return iter(self.indices)

    def __len__(self):
        return len(self.indices)

    def __getitem__(self, i):
        return self.indices[i]

    def __eq__(self, other):
        return isinstance(other, SchubertSymbol) and self.indices == other.indices

    def __hash__(self):
        return hash(("SchubertSymbol", self.indices))

    def __lt__(self, other):
        return self.indices < other.indices

    def __repr__(self):
        return f"SchubertSymbol({list(self.indices)})"


class QInt:
    """Sparse integer polynomial in q: a map from exponent to coefficient."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        items = coeffs.items() if hasattr(coeffs, "items") else coeffs or ()
        pairs = [(int(e), int(c)) for e, c in items]
        for e, _ in pairs:
            if e < 0:
                raise InvalidInputError(f"negative q exponent {e}")
        self.coeffs = accumulate(pairs)

    @classmethod
    def _of(cls, coeffs: dict) -> "QInt":
        """Wrap an {exponent: nonzero int} dict without checking it."""
        out = cls.__new__(cls)
        out.coeffs = coeffs
        return out

    @classmethod
    def integer(cls, n: int) -> "QInt":
        return cls({0: n}) if n else cls()

    @classmethod
    def q_power(cls, d: int, c: int = 1) -> "QInt":
        return cls({d: c}) if c else cls()

    def items(self):
        return self.coeffs.items()

    def constant_term(self) -> int:
        return self.coeffs.get(0, 0)

    def __bool__(self):
        return bool(self.coeffs)

    def __add__(self, other):
        return QInt._of(accumulate(chain(self.coeffs.items(), _qint(other).coeffs.items())))

    def __neg__(self):
        return QInt._of({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-_qint(other))

    def __mul__(self, other):
        other = _qint(other)
        return QInt._of(accumulate(
            (e1 + e2, c1 * c2)
            for e1, c1 in self.coeffs.items()
            for e2, c2 in other.coeffs.items()
        ))

    __rmul__ = __mul__
    __radd__ = __add__

    def __eq__(self, other):
        if isinstance(other, int):
            other = QInt.integer(other)
        return isinstance(other, QInt) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            if e == 0:
                bits.append(str(c))
            elif e == 1:
                bits.append(f"{c}*q")
            else:
                bits.append(f"{c}*q^{e}")
        return " + ".join(bits)


def _qint(c) -> QInt:
    if isinstance(c, QInt):
        return c
    if isinstance(c, int):
        return QInt.integer(c)
    raise InvalidInputError(f"not a coefficient: {c!r}")


class KVector:
    """Element of the k-th exterior power.

    ``terms`` maps (index tuple, q-degree) to a nonzero int, so the vector
    is the sum of c * q^d * e^{i1} ^ ... ^ e^{ik} over its entries.  The
    constructor, ``items()`` and ``coefficient()`` speak in SchubertSymbol
    and QInt; the engine works on ``terms`` directly.

    The degree k is carried explicitly so the zero vectors of distinct
    exterior powers stay distinguishable.
    """

    __slots__ = ("degree", "terms")

    def __init__(self, degree: int, terms=None):
        degree = int(degree)
        if degree < 0:
            raise InvalidInputError("degree must be nonnegative")
        self.degree = degree
        pairs = []
        if terms:
            items = terms.items() if hasattr(terms, "items") else terms
            for sym, c in items:
                if not isinstance(sym, SchubertSymbol):
                    sym = SchubertSymbol(sym)
                if len(sym) != degree:
                    raise InvalidInputError(
                        f"symbol {sym.indices} has length {len(sym)}, expected {degree}"
                    )
                pairs.extend(((sym.indices, e), x) for e, x in _qint(c).coeffs.items())
        self.terms = accumulate(pairs)

    @classmethod
    def _of(cls, degree: int, terms: dict) -> "KVector":
        """Wrap a {(index tuple, q-degree): nonzero int} dict without checking it."""
        out = cls.__new__(cls)
        out.degree = degree
        out.terms = terms
        return out

    @classmethod
    def zero(cls, degree: int) -> "KVector":
        return cls(degree)

    @classmethod
    def basis(cls, indices, coeff=1) -> "KVector":
        sym = indices if isinstance(indices, SchubertSymbol) else SchubertSymbol(indices)
        return cls(len(sym), {sym: coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def items(self):
        """(SchubertSymbol, QInt) terms in canonical (lexicographic symbol) order."""
        grouped = {}
        for (indices, d), c in sorted(self.terms.items()):
            grouped.setdefault(indices, {})[d] = c
        return [(SchubertSymbol(indices), QInt._of(qc)) for indices, qc in grouped.items()]

    def coefficient(self, indices) -> QInt:
        sym = indices if isinstance(indices, SchubertSymbol) else SchubertSymbol(indices)
        return QInt._of({d: c for (i, d), c in self.terms.items() if i == sym.indices})

    def scale(self, c) -> "KVector":
        c = _qint(c)
        return KVector._of(self.degree, accumulate(
            ((indices, d + e), x * y)
            for (indices, d), x in self.terms.items()
            for e, y in c.coeffs.items()
        ))

    def __add__(self, other):
        if not isinstance(other, KVector) or other.degree != self.degree:
            raise InvalidInputError("can only add k-vectors of equal degree")
        return KVector._of(self.degree, accumulate(chain(self.terms.items(), other.terms.items())))

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def __eq__(self, other):
        return (
            isinstance(other, KVector)
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.degree, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return f"KVector({self.degree}, {render_kvector(self)!r})"


def partition_to_symbol(lam: Partition, k: int) -> SchubertSymbol:
    """The symbol I with i_j = r_j + j, where r_j runs over lam reversed."""
    if not isinstance(lam, Partition):
        lam = Partition(lam)
    if lam.length() > k:
        raise InvalidInputError(f"partition length {lam.length()} exceeds k={k}")
    padded = lam.padded(k)
    return SchubertSymbol(tuple(padded[k - j] + j for j in range(1, k + 1)))


def symbol_to_partition(sym: SchubertSymbol) -> Partition:
    """Inverse of partition_to_symbol at the same k."""
    if not isinstance(sym, SchubertSymbol):
        sym = SchubertSymbol(sym)
    return Partition(tuple(sym.indices[j] - j - 1 for j in range(len(sym) - 1, -1, -1)))


def sort_with_sign(indices):
    """Sort an index tuple ascending; return (sorted tuple, permutation sign).

    Sign is the parity of the number of inversions.  Caller must ensure the
    entries are distinct.
    """
    indices = list(indices)
    inversions = 0
    for i in range(len(indices)):
        for j in range(i + 1, len(indices)):
            if indices[i] > indices[j]:
                inversions += 1
    return tuple(sorted(indices)), (-1) ** inversions


def signed_sorted(raw):
    """Canonicalize raw ((index tuple, q-degree), int) pairs: drop those with
    a repeated index and sort the rest, with the sign of the permutation."""
    for (indices, d), c in raw:
        if len(set(indices)) == len(indices):
            ordered, sign = sort_with_sign(indices)
            yield (ordered, d), sign * c


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
    pairs = []
    for indices, coeff in raw:
        indices = tuple(int(i) for i in indices)
        if len(indices) != degree:
            raise InvalidInputError(f"index list {indices} has wrong length")
        if any(i < 1 for i in indices):
            raise InvalidInputError(f"index < 1 in {indices}")
        pairs.extend(((indices, e), c) for e, c in _qint(coeff).coeffs.items())
    return KVector._of(degree, accumulate(signed_sorted(pairs)))


def wedge(a: KVector, b: KVector) -> KVector:
    """Bilinear wedge product; degree adds."""
    return KVector._of(a.degree + b.degree, accumulate(signed_sorted(
        ((ia + ib, da + db), ca * cb)
        for (ia, da), ca in a.terms.items()
        for (ib, db), cb in b.terms.items()
    )))


def weight_components(v: KVector) -> dict:
    """Split v into homogeneous pieces keyed by symbol weight (q is neutral)."""
    out = {}
    base = v.degree * (v.degree + 1) // 2
    for (indices, d), c in v.terms.items():
        piece = out.setdefault(sum(indices) - base, KVector(v.degree))
        piece.terms[(indices, d)] = c
    return out


def fundamental(k: int) -> KVector:
    """The fundamental k-vector e^1 ^ e^2 ^ ... ^ e^k."""
    return KVector.basis(range(1, k + 1))


def q_factors(d: int) -> list:
    """The factors of q^d in rendered text: none for d = 0."""
    return [] if d == 0 else ["q"] if d == 1 else [f"q^{d}"]


def render_signed_terms(terms) -> str:
    """Lay out (int coefficient, factor strings) pairs as 'x - 2*y + ...',
    or '0' when there are none.  A unit coefficient is elided in front of
    factors."""
    chunks = []
    for c, factors in terms:
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
        for (indices, d), c in sorted(v.terms.items())
    )


_TERM_RE = re.compile(r"^(?:(\d+)\*)?(?:q(?:\^(\d+))?\*)?e\[([0-9,\s]*)\]$")


def parse_kvector(text: str, degree=None) -> KVector:
    """Parse the exact grammar emitted by render_kvector."""
    s = text.strip()
    if s == "0":
        if degree is None:
            raise InvalidInputError("degree is required to parse the zero vector")
        return KVector.zero(degree)
    tokens = re.split(r"\s*([+-])\s*", s)
    if tokens and tokens[0] == "":
        tokens = tokens[1:]  # leading sign
    else:
        tokens = ["+"] + tokens
    if len(tokens) % 2 != 0:
        raise InvalidInputError(f"cannot parse k-vector: {text!r}")
    raw = []
    for sign_tok, term in zip(tokens[0::2], tokens[1::2]):
        m = _TERM_RE.match(term.strip())
        if m is None:
            raise InvalidInputError(f"cannot parse term: {term!r}")
        mag = int(m.group(1)) if m.group(1) else 1
        has_q = "q" in term.split("e[")[0]
        d = int(m.group(2)) if m.group(2) else (1 if has_q else 0)
        idx_text = m.group(3).strip()
        if not idx_text:
            raise InvalidInputError(f"empty symbol in term: {term!r}")
        indices = tuple(int(x) for x in idx_text.split(","))
        sign = 1 if sign_tok == "+" else -1
        raw.append((indices, QInt.q_power(d, sign * mag)))
    return normalize(raw, degree)
