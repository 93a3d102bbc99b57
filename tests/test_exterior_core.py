import pytest
from hypothesis import given, strategies as st

from schubert.exterior_core import (
    InvalidInputError,
    KVector,
    Partition,
    QInt,
    SchubertSymbol,
    fundamental,
    normalize,
    parse_kvector,
    partition_to_symbol,
    render_kvector,
    symbol_to_partition,
    sort_with_sign,
    wedge,
    weight_components,
)

partitions = st.lists(st.integers(1, 8), max_size=8).map(
    lambda xs: Partition(sorted(xs, reverse=True))
)
symbols = st.sets(st.integers(1, 12), min_size=1, max_size=4).map(
    lambda s: SchubertSymbol(sorted(s))
)
two_symbols = st.sets(st.integers(1, 12), min_size=2, max_size=2).map(
    lambda s: SchubertSymbol(sorted(s))
)


class TestPartition:
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            Partition((1, 2))
        with pytest.raises(InvalidInputError):
            Partition((2, -1))

    def test_trailing_zeros_dropped(self):
        assert Partition((3, 1, 0, 0)).parts == (3, 1)
        assert Partition(()).parts == ()

    def test_weight_length(self):
        p = Partition((3, 3, 1))
        assert p.weight() == 7
        assert p.length() == 3
        assert p.padded(5) == (3, 3, 1, 0, 0)

    def test_box_membership(self):
        assert Partition((2, 2)).fits_box(2, 4)
        assert not Partition((3,)).fits_box(2, 4)
        assert not Partition((1, 1, 1)).fits_box(2, 4)

    def test_box_complement(self):
        assert Partition((2, 1)).box_complement(2, 4) == Partition((1,))
        assert Partition(()).box_complement(2, 4) == Partition((2, 2))


class TestSchubertSymbol:
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            SchubertSymbol((2, 2))
        with pytest.raises(InvalidInputError):
            SchubertSymbol((0, 1))

    def test_weight(self):
        assert SchubertSymbol((1, 2)).weight() == 0
        assert SchubertSymbol((2, 4)).weight() == 3
        assert SchubertSymbol((2, 4, 6)).weight() == 6


class TestConversions:
    def test_examples(self):
        assert partition_to_symbol(Partition((2, 1)), 2) == SchubertSymbol((2, 4))
        assert partition_to_symbol(Partition(), 3) == SchubertSymbol((1, 2, 3))
        assert partition_to_symbol(Partition((3, 3, 1)), 3) == SchubertSymbol((2, 5, 6))
        assert symbol_to_partition(SchubertSymbol((2, 4))) == Partition((2, 1))
        assert symbol_to_partition(SchubertSymbol((3, 4, 7))) == Partition((4, 2, 2))

    def test_length_violation(self):
        with pytest.raises(InvalidInputError):
            partition_to_symbol(Partition((1, 1, 1)), 2)

    @given(partitions, st.integers(1, 8))
    def test_round_trip(self, lam, k):
        if lam.length() > k:
            return
        sym = partition_to_symbol(lam, k)
        assert symbol_to_partition(sym) == lam
        assert sym.weight() == lam.weight()

    @given(symbols)
    def test_round_trip_from_symbol(self, sym):
        lam = symbol_to_partition(sym)
        assert partition_to_symbol(lam, len(sym)) == sym


class TestQInt:
    def test_arithmetic(self):
        q = QInt.q_power(1)
        assert q * q == QInt.q_power(2)
        assert QInt.integer(2) + QInt.integer(-2) == QInt()
        assert (q + 1) * (q - 1) == QInt.q_power(2) - QInt.integer(1)
        assert not QInt()

    def test_negative_exponent_rejected(self):
        with pytest.raises(InvalidInputError):
            QInt({-1: 1})


class TestNormalize:
    def test_single_transposition(self):
        v = normalize([((4, 3, 5), 1)])
        assert v == KVector.basis((3, 4, 5), -1)

    def test_repeated_index_dropped(self):
        assert normalize([((3, 3, 6), 1)]).is_zero()

    def test_cancellation(self):
        v = normalize([((4, 3, 5), 1), ((3, 4, 5), 1), ((3, 3, 6), 1)])
        assert v.is_zero()

    def test_idempotent(self):
        raw = [((4, 3, 5), 2), ((2, 6, 1), -1)]
        v = normalize(raw)
        again = normalize([(s.indices, c) for s, c in v.items()], 3)
        assert again == v

    def test_index_validation(self):
        with pytest.raises(InvalidInputError):
            normalize([((0, 1), 1)])


class TestWedge:
    def test_basics(self):
        e1, e2 = KVector.basis((1,)), KVector.basis((2,))
        assert wedge(e1, e2) == KVector.basis((1, 2))
        assert wedge(e2, e1) == KVector.basis((1, 2), -1)
        s = e1 + e2
        assert wedge(s, s).is_zero()

    @given(symbols, symbols)
    def test_graded_commutativity(self, a, b):
        va, vb = KVector.basis(a), KVector.basis(b)
        sign = (-1) ** (len(a) * len(b))
        assert wedge(va, vb) == wedge(vb, va).scale(sign)


def test_weight_components():
    v = KVector.basis((1, 2)) + KVector.basis((2, 4))
    pieces = weight_components(v)
    assert set(pieces) == {0, 3}
    assert pieces[0] == fundamental(2)


def test_sort_with_sign():
    assert sort_with_sign((3, 1, 2)) == ((1, 2, 3), 1)
    assert sort_with_sign((2, 1)) == ((1, 2), -1)


class TestRenderParse:
    def test_render(self):
        v = KVector.basis((2, 5), QInt.q_power(1, 2)) + KVector.basis((3, 4), -1)
        assert render_kvector(v) == "2*q*e[2,5] - e[3,4]"
        assert render_kvector(KVector.zero(2)) == "0"

    def test_parse_zero(self):
        assert parse_kvector("0", 2) == KVector.zero(2)

    @given(
        st.lists(
            st.tuples(two_symbols,
                      st.integers(0, 3),
                      st.integers(-5, 5)),
            max_size=5,
        )
    )
    def test_round_trip(self, data):
        v = KVector.zero(2)
        for sym, d, c in data:
            v = v + KVector.basis(sym, QInt.q_power(d, c))
        assert parse_kvector(render_kvector(v), 2) == v


class TestKVectorBoundary:
    """Terms are stored as {(indices, q-degree): int}; the constructor,
    items() and coefficient() convert to and from SchubertSymbol/QInt."""

    def vector(self):
        return KVector(2, {
            (1, 3): QInt({0: 2, 1: -1, 3: 4}),
            SchubertSymbol((2, 5)): QInt({2: -3}),
            (3, 4): 5,
        })

    def test_storage(self):
        assert self.vector().terms == {
            ((1, 3), 0): 2, ((1, 3), 1): -1, ((1, 3), 3): 4,
            ((2, 5), 2): -3, ((3, 4), 0): 5,
        }

    def test_items_and_coefficient(self):
        v = self.vector()
        assert v.items() == [
            (SchubertSymbol((1, 3)), QInt({0: 2, 1: -1, 3: 4})),
            (SchubertSymbol((2, 5)), QInt({2: -3})),
            (SchubertSymbol((3, 4)), QInt.integer(5)),
        ]
        assert v.coefficient((1, 3)) == QInt({0: 2, 1: -1, 3: 4})
        assert v.coefficient(SchubertSymbol((2, 5))) == QInt({2: -3})
        assert v.coefficient((1, 2)) == QInt()

    def test_round_trips(self):
        v = self.vector()
        assert KVector(2, dict(v.items())) == v
        assert render_kvector(v) == "2*e[1,3] - q*e[1,3] + 4*q^3*e[1,3] - 3*q^2*e[2,5] + 5*e[3,4]"
        assert parse_kvector(render_kvector(v), 2) == v

    def test_insertion_order(self):
        a = KVector.basis((2, 5), QInt.q_power(2)) + KVector.basis((1, 3), QInt({0: 1, 1: 1}))
        b = KVector.basis((1, 3), QInt.q_power(1)) + KVector.basis((2, 5), QInt.q_power(2))
        b = b + KVector.basis((1, 3))
        assert list(a.terms) != list(b.terms)
        assert a == b and hash(a) == hash(b)

    def test_cancellation_drops_terms(self):
        v = self.vector()
        assert (v - v).terms == {}
        assert (v + KVector.basis((2, 5), QInt.q_power(2, 3))).coefficient((2, 5)) == QInt()


def test_kvector_degree_mismatch():
    with pytest.raises(InvalidInputError):
        KVector(2, {(1, 2, 3): 1})
    with pytest.raises(InvalidInputError):
        KVector.basis((1, 2)) + KVector.basis((1, 2, 3))
