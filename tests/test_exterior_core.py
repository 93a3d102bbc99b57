import json
import pickle
from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from schubert.derivations import DPolynomial, inverse_components, iterated_d1, leibniz_d, pieri_d
from schubert.giambelli_ring import (
    expand_in_low_generators,
    giambelli_det,
    reduce_generator,
    verify_presentation,
    y_polynomials,
)
from schubert.grassmann_contexts import GrassmannContext, box_partitions, quantum_pieri
from schubert.schur_oracle import lr_coefficient, lr_expansion, rim_hook_product
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
    signed_sorted,
    symbol_to_partition,
    wedge,
)

from polynomial_reference import weight_components

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

    def test_negative_k_rejected(self):
        with pytest.raises(InvalidInputError, match="k must be nonnegative"):
            Partition().padded(-2)

    def test_box_membership(self):
        assert Partition((2, 2)).fits_box(2, 4)
        assert not Partition((3,)).fits_box(2, 4)
        assert not Partition((1, 1, 1)).fits_box(2, 4)
        # there is no box outside 0 <= k <= n
        assert not any(Partition().fits_box(k, n) for k, n in [(3, 2), (1, 0), (-1, 2)])

    def test_box_complement(self):
        assert Partition((2, 1)).box_complement(2, 4) == Partition((1,))
        assert Partition(()).box_complement(2, 4) == Partition((2, 2))
        for lam, k, n in [((3,), 2, 4), ((), 3, 2)]:
            with pytest.raises(InvalidInputError, match="does not fit"):
                Partition(lam).box_complement(k, n)


class TestSchubertSymbol:
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            SchubertSymbol((2, 2))
        with pytest.raises(InvalidInputError):
            SchubertSymbol((0, 1))

    def test_k_is_the_length(self):
        assert SchubertSymbol((2, 5)).k == 2
        assert SchubertSymbol(()).k == 0

    def test_weight(self):
        assert SchubertSymbol((1, 2)).weight() == 0
        assert SchubertSymbol((2, 4)).weight() == 3
        assert SchubertSymbol((2, 4, 6)).weight() == 6


class TestTupleContract:
    """Partition and SchubertSymbol are the tuples of their parts and
    indices, checked when built."""

    def test_tuple_methods_inherited(self):
        for cls in (Partition, SchubertSymbol):
            assert issubclass(cls, tuple)
            assert cls.__slots__ == ()
            own = {"__iter__", "__len__", "__getitem__", "__eq__", "__hash__", "__lt__", "__bool__"}
            assert not own & set(vars(cls)), cls

    def test_equal_and_hash_like_the_plain_tuple(self):
        p, s = Partition((2, 1)), SchubertSymbol((1, 3))
        assert p == (2, 1) and hash(p) == hash((2, 1))
        assert s == (1, 3) and hash(s) == hash((1, 3))
        assert Partition((3,)) == SchubertSymbol((3,))
        assert {(2, 1): "x"}[p] == "x"
        assert Partition((2, 1, 0)) == Partition((2, 1))
        assert sorted([Partition((2,)), Partition((1, 1)), Partition(())]) == [(), (1, 1), (2,)]

    def test_is_a_tuple(self):
        assert isinstance(Partition((2, 1)), tuple)
        assert isinstance(SchubertSymbol((1, 3)), tuple)
        assert type(Partition((2,)) + Partition((1,))) is tuple
        assert json.dumps([Partition((2, 1)), SchubertSymbol((1, 3))]) == "[[2, 1], [1, 3]]"

    def test_immutable(self):
        p, s = Partition((2, 1)), SchubertSymbol((1, 3))
        with pytest.raises(AttributeError):
            p.parts = (3,)
        with pytest.raises(AttributeError):
            s.indices = (1, 2)
        with pytest.raises(AttributeError):
            p.extra = 1
        assert p.parts == (2, 1) and s.indices == (1, 3)

    def test_views_are_plain_tuples(self):
        assert type(Partition((2, 1)).parts) is tuple
        assert type(SchubertSymbol((1, 3)).indices) is tuple
        for v in (KVector.basis((1, 3)), KVector.basis(SchubertSymbol((1, 3))),
                  KVector(2, {SchubertSymbol((1, 3)): 1})):
            assert [type(indices) for indices, _ in v.terms] == [tuple]
        assert repr(KVector.basis(SchubertSymbol((1, 3)))) == "KVector(2, 'e[1,3]')"

    def test_repr(self):
        assert repr(Partition((2, 1))) == "Partition([2, 1])"
        assert repr(Partition(())) == "Partition([])"
        assert repr(SchubertSymbol((1, 3))) == "SchubertSymbol([1, 3])"

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        for x in (Partition((3, 1)), Partition(()), SchubertSymbol((2, 5))):
            y = pickle.loads(pickle.dumps(x, protocol))
            assert type(y) is type(x) and y == x and repr(y) == repr(x)

    def test_lr_expansion_tuple_and_partition_agree(self):
        # typed caches keep the two argument types apart; the answers agree
        got = lr_expansion((2, 1), (1,), 3)
        assert got == lr_expansion(Partition((2, 1)), Partition((1,)), 3)
        assert got == ((Partition((2, 1, 1)), 1), (Partition((2, 2)), 1), (Partition((3, 1)), 1))
        assert all(type(nu) is Partition for nu, _ in got)


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

    def test_negative_k_rejected(self):
        with pytest.raises(InvalidInputError, match="k must be nonnegative"):
            partition_to_symbol(Partition(), -1)

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

    def test_int_on_the_left(self):
        q = QInt.q_power(1)
        assert 2 - q == QInt({0: 2, 1: -1}) and isinstance(2 - q, QInt)
        assert 2 - q == -(q - 2) == 2 + -q
        assert 0 - q == -q and q - q == 0

    def test_negative_exponent_rejected(self):
        with pytest.raises(InvalidInputError, match="q exponent must be nonnegative, got q exponent=-1"):
            QInt({-1: 1})

    @pytest.mark.parametrize("coeffs,text", [
        ({}, "0"),
        ({0: 3}, "3"),
        ({0: -3, 2: -1}, "-3 - q^2"),
        ({1: 1}, "q"),
        ({0: 1, 1: -2, 2: 1}, "1 - 2*q + q^2"),
    ], ids=["zero", "constant", "negative", "unit-q", "mixed"])
    def test_repr_is_the_shared_signed_layout(self, coeffs, text):
        assert repr(QInt(coeffs)) == text


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

    def test_empty_sum_needs_a_degree(self):
        with pytest.raises(InvalidInputError, match="degree is required"):
            normalize([])
        assert normalize([], 2) == KVector.zero(2)


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


def cycle_sign(perm) -> int:
    """The sign of a permutation of 0..n-1 as (-1)^(n - number of cycles)."""
    seen, cycles = set(), 0
    for start in range(len(perm)):
        if start not in seen:
            cycles += 1
            i = start
            while i not in seen:
                seen.add(i)
                i = perm[i]
    return (-1) ** (len(perm) - cycles)


class TestSignedSorted:
    @pytest.mark.parametrize("k", range(7))
    def test_every_permutation(self, k):
        values = (2, 3, 5, 7, 11, 13)[:k]
        for perm in permutations(range(k)):
            indices = tuple(values[i] for i in perm)
            assert list(signed_sorted([((indices, 4), 3)])) == [((values, 4), 3 * cycle_sign(perm))]

    def test_repeated_index_dropped(self):
        raw = [(((2, 1), 0), 5), (((1, 3, 1), 1), 2), (((4, 4), 0), 1), ((list((2, 1, 3)), 2), 1)]
        assert list(signed_sorted(raw)) == [(((1, 2), 0), -5), (((1, 2, 3), 2), -1)]


class TestRenderParse:
    def test_render(self):
        v = KVector.basis((2, 5), QInt.q_power(1, 2)) + KVector.basis((3, 4), -1)
        assert render_kvector(v) == "2*q*e[2,5] - e[3,4]"
        assert render_kvector(KVector.zero(2)) == "0"

    def test_parse_zero(self):
        assert parse_kvector("0", 2) == KVector.zero(2)
        # the zero vectors of different degrees differ, so '0' needs one
        with pytest.raises(InvalidInputError, match="degree is required"):
            parse_kvector("0")

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

    def test_degree_zero_round_trip(self):
        v = KVector(0, {(): QInt({0: 3, 2: -1})})
        text = render_kvector(v)
        assert text == "3*e[] - q^2*e[]"
        assert parse_kvector(text) == v
        assert parse_kvector(text, 0) == v
        assert parse_kvector("e[ ]") == KVector.basis(())

    @pytest.mark.parametrize("text, degree", [
        ("e[] + e[1]", None), ("e[1,2] - q*e[]", None), ("e[]", 2), ("e[1]", 0),
    ])
    def test_degree_zero_mixed_with_longer_symbols_rejected(self, text, degree):
        with pytest.raises(InvalidInputError, match="wrong length"):
            parse_kvector(text, degree)

    def test_unsorted_symbol_read_with_its_sign(self):
        assert parse_kvector("e[2,1]") == -KVector.basis((1, 2))
        assert parse_kvector("e[3,1,2] - q*e[2,1,3]", 3) == KVector.basis((1, 2, 3), QInt({0: 1, 1: 1}))

    def test_repeated_index_read_as_zero(self):
        assert parse_kvector("e[1,1] + e[1,2]") == KVector.basis((1, 2))
        assert parse_kvector("e[2,2]", 2) == KVector.zero(2)

    def test_one_wrong_length_message(self):
        messages = []
        for build in (lambda: KVector(3, {(1, 2): 1}), lambda: normalize([((1, 2), 1)], 3)):
            with pytest.raises(InvalidInputError, match="wrong length") as info:
                build()
            messages.append(str(info.value))
        assert messages == ["index list (1, 2) has wrong length, expected 3"] * 2

    @pytest.mark.parametrize("text", ["e[1,,2]", "e[,]", "e[1,]", "e[,3]", "2*e[1 2]"])
    def test_malformed_symbol_rejected(self, text):
        with pytest.raises(InvalidInputError, match="cannot parse term"):
            parse_kvector(text)

    @pytest.mark.parametrize("text, degree", [("", 2), ("   ", 2), ("", None)])
    def test_empty_text_rejected(self, text, degree):
        # the zero vector is written '0'; no text at all is not a k-vector
        with pytest.raises(InvalidInputError, match="cannot parse k-vector"):
            parse_kvector(text, degree)


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


class TestIntegerInputs:
    """Non-integers raise instead of being truncated; integer-like values
    (anything with __index__) are accepted."""

    @pytest.mark.parametrize("build", [
        lambda: Partition((1.7,)),
        lambda: Partition("21"),
        lambda: SchubertSymbol((1.5, 2)),
        lambda: QInt({0: 1.5}),
        lambda: QInt({0.5: 1}),
        lambda: KVector(2.9),
        lambda: KVector(1, {(1,): 0.5}),
        lambda: QInt() + 0.5,
        lambda: normalize([((1.9, 2), 1)]),
        lambda: normalize([], 2.0),
        lambda: normalize([], -3),
        lambda: parse_kvector("e[1,2]", 2.0),
        lambda: GrassmannContext(2, 4.5),
        lambda: GrassmannContext(2.0, 4, "quantum"),
        lambda: pieri_d(1.0, KVector.basis((1, 3))),
        lambda: leibniz_d(1.0, KVector.basis((1, 3))),
        lambda: iterated_d1(2.0, KVector.basis((1, 3))),
        lambda: quantum_pieri(1.0, KVector.basis((1, 3)), GrassmannContext(2, 4, "quantum")),
        # the int call first: 2.0 hashes like 2, so a cache keyed on value
        # alone would answer the float call from the int call's entry
        lambda: (giambelli_det(Partition((1,)), 2), giambelli_det(Partition((1,)), 2.0)),
        lambda: (reduce_generator(3, 2), reduce_generator(3, 2.0)),
        lambda: (reduce_generator(3, 2), reduce_generator(3.0, 2)),
        lambda: (lr_expansion(Partition((1,)), Partition((1,)), 2),
                 lr_expansion(Partition((1,)), Partition((1,)), 2.0)),
        lambda: (lr_coefficient((1,), (1,), (2,), 2), lr_coefficient((1,), (1,), (2,), 2.0)),
        lambda: y_polynomials(4.0, 2),
        lambda: y_polynomials(4, 2.0),
        lambda: rim_hook_product((1,), (1,), 2, 4.0),
        lambda: rim_hook_product((1,), (1,), 2.0, 4),
        lambda: box_partitions(2, 4.0),
        lambda: box_partitions(2.0, 4),
        lambda: box_partitions(2, 4, 1.5),
        lambda: fundamental(2.0),
        lambda: fundamental(-1),
        lambda: inverse_components(2.0),
        lambda: inverse_components(-1),
        lambda: inverse_components(-3),
        lambda: Partition((1,)).padded(2.0),
        lambda: Partition((1,)).fits_box(2.0, 4),
        lambda: partition_to_symbol((1,), 2.0),
        lambda: DPolynomial.generator(0.0),
        lambda: DPolynomial.generator(-1.5),
        lambda: box_partitions(3, 2),
        lambda: box_partitions(-1, 2),
        lambda: verify_presentation("2", 4),
        lambda: verify_presentation(2, "4"),
        lambda: expand_in_low_generators(giambelli_det(Partition((1,)), 2), 2.0),
        lambda: expand_in_low_generators(giambelli_det(Partition((1,)), 2), 0),
        # a zero coefficient is checked like any other
        lambda: QInt.integer(0.0),
        lambda: QInt.q_power(1.5, 0),
        lambda: QInt.q_power(-1, 0),
        lambda: QInt.q_power(2, 0.0),
    ], ids=["partition", "partition-str", "symbol", "qint-coeff", "qint-exponent",
            "kvector-degree", "kvector-coeff", "qint-add", "normalize", "normalize-degree-float",
            "normalize-degree-negative", "parse-degree-float", "context-n",
            "context-k", "pieri-h", "leibniz-h", "iterated-m", "quantum-pieri-h",
            "giambelli-k", "reduce-generator-k", "reduce-generator-h", "lr-expansion-k",
            "lr-coefficient-k", "y-polynomials-n", "y-polynomials-k", "rim-hook-n",
            "rim-hook-k", "box-partitions-n", "box-partitions-k", "box-partitions-cap",
            "fundamental-k", "fundamental-negative-k",
            "inverse-components", "inverse-components-negative-1",
            "inverse-components-negative-3", "padded-k", "fits-box-k", "partition-to-symbol-k",
            "generator-zero-float", "generator-negative-float", "box-partitions-k-above-n",
            "box-partitions-negative-k",
            "verify-presentation-k-str", "verify-presentation-n-str",
            "expand-in-low-generators-k-float", "expand-in-low-generators-k-zero",
            "qint-integer-zero-float", "q-power-exponent-float", "q-power-exponent-negative",
            "q-power-zero-float"])
    def test_rejected(self, build):
        with pytest.raises(InvalidInputError):
            build()

    def test_index_types_accepted(self):
        class Two:
            def __index__(self):
                return 2

        assert Partition((Two(), 1)) == Partition((2, 1))
        assert SchubertSymbol((1, Two())).indices == (1, 2)
        assert QInt({Two(): Two()}) == QInt.q_power(2, 2)
        assert KVector(Two()).degree == 2
        assert KVector(2, {(1, 2): Two()}) == KVector.basis((1, 2), 2)
        assert KVector.basis((1, 2)).scale(Two()) == KVector.basis((1, 2), 2)
        assert QInt.q_power(1) + Two() == QInt({0: 2, 1: 1})


class TestOperatorContracts:
    def test_constant_qint_hashes_as_its_int(self):
        assert QInt({0: 5}) == 5 and hash(QInt({0: 5})) == hash(5)
        assert len({QInt({0: 5}), 5}) == 1
        assert QInt() == 0 and len({QInt(), 0}) == 1
        assert QInt.q_power(1) != 1

    def test_kvector_add_and_sub_reject_non_vectors(self):
        v = KVector(2)
        for bad in (5, "x", KVector(3)):
            with pytest.raises(InvalidInputError):
                v + bad
            with pytest.raises(InvalidInputError):
                v - bad


# Per free module: an element, an element of another degree (None where
# the module has no such shape), and times(c, a), the module's public way
# to multiply a by the int c.
MODULES = {
    "qint": (QInt({0: 2, 3: -1}), None, lambda c, a: c * a),
    "kvector": (KVector(2, {(1, 3): QInt({0: 2, 1: -1}), (2, 4): 5}),
                KVector(3, {(1, 2, 3): 1}), lambda c, a: a.scale(c)),
    "dpolynomial": (DPolynomial({(2, 1): 3, (): -1}), None, lambda c, a: c * a),
}


@pytest.mark.parametrize("name", sorted(MODULES))
def test_module_laws(name):
    a, other_shape, times = MODULES[name]
    assert (a - a).is_zero() and not (a - a) and type(a - a) is type(a)
    assert -(-a) == a and a + (-a) == a - a
    assert times(0, a).is_zero() and a._times(0).is_zero()
    assert times(3, a) == a._times(3) == a + a + a
    b = a + a - a
    assert b == a and hash(b) == hash(a) and b is not a
    for other_name, (other, _, _) in MODULES.items():
        if other_name != name:
            assert a != other and other != a
            with pytest.raises(InvalidInputError):
                a + other
            with pytest.raises(InvalidInputError):
                a - other
    if other_shape is not None:
        assert a != other_shape and a.zero(2) != other_shape.zero(3)
        with pytest.raises(InvalidInputError):
            a + other_shape


PUBLIC_NAMES = [
    "DPolynomial", "GrassmannContext", "InvalidInputError", "KVector", "Partition",
    "PresentationReport", "QInt", "SchubertSymbol", "StructureTable", "apply_operator",
    "box_partitions", "fundamental", "giambelli_det", "inverse_components", "iterated_d1",
    "leibniz_d", "lr_coefficient", "multiply", "normalize", "parse_kvector",
    "partition_to_symbol", "pieri_d", "poincare_pair", "quantum_pieri", "reduce_generator",
    "reduce_kvector", "render_dpolynomial", "render_kvector", "render_presentation",
    "structure_table", "symbol_to_partition", "verify_jacobi_trudi", "verify_presentation",
    "wedge", "y_polynomials",
]


def test_public_surface():
    # a change to the package's API has to change this list too
    import schubert

    assert sorted(schubert.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(schubert, name) is not None, name
    # the monomial-basis polynomials are the tests' reference route, not
    # part of the library
    for name in ("MultiPolynomial", "schur_expand", "schur_decompose", "weight_components"):
        assert not hasattr(schubert, name), name
