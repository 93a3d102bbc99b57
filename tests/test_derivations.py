import hashlib
import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from schubert import derivations
from schubert.derivations import (
    DPolynomial,
    apply_operator,
    inverse_components,
    iterated_d1,
    leibniz_d,
    leibniz_raw_terms,
    pieri_d,
    render_dpolynomial,
)
from schubert.exterior_core import (
    InvalidInputError,
    KVector,
    Partition,
    QInt,
    _indices,
    _mask,
    fundamental,
    partition_to_symbol,
    wedge,
)
from schubert.giambelli_ring import giambelli_det
from schubert.grassmann_contexts import GrassmannContext, box_partitions, quantum_pieri, reduce_kvector

from untraced import assert_no_reference_cycle

symbols = st.sets(st.integers(1, 12), min_size=1, max_size=4).map(
    lambda s: tuple(sorted(s))
)

# several q-degrees and both signs; small values so that like terms cancel
mixed_qints = st.dictionaries(st.integers(0, 3), st.integers(-2, 2), max_size=3).map(QInt)


@st.composite
def mixed_kvectors(draw):
    """k-vectors (k = 0..4) with mixed QInt coefficients.  Symbols come from
    a small index range, so repeated symbols often sum to zero."""
    k = draw(st.integers(0, 4))
    sym = st.lists(st.integers(1, 8), min_size=k, max_size=k, unique=True).map(
        lambda s: tuple(sorted(s))
    )
    return KVector(k, draw(st.lists(st.tuples(sym, mixed_qints), max_size=8)))


operators = st.dictionaries(
    st.lists(st.integers(1, 4), max_size=3).map(lambda s: Partition(sorted(s, reverse=True))),
    st.integers(-3, 3),
    max_size=5,
).map(DPolynomial)


# Giambelli determinants of small partitions, each carrying its matrix
small_dets = st.builds(
    lambda parts, extra: giambelli_det(Partition(sorted(parts, reverse=True)), len(parts) + extra),
    st.lists(st.integers(1, 3), max_size=3),
    st.integers(0, 2),
)


def _composed_pieri(p, v):
    """apply_operator by its definition: the sum over monomials of c times
    the composed pieri_d's, added up with KVector add and scale."""
    out = KVector.zero(v.degree)
    for mono, c in p.terms.items():
        w = v
        for h in mono:
            w = pieri_d(h, w)
        out = out + w.scale(c)
    return out


class TestDPolynomial:
    def test_identity_and_generator(self):
        assert DPolynomial.generator(0) == DPolynomial.identity()
        assert DPolynomial.generator(-1).is_zero()
        assert DPolynomial.generator(3).terms == {(3,): 1}

    def test_ring_axioms(self):
        a = DPolynomial.generator(1)
        b = DPolynomial.generator(2)
        assert a * b == b * a
        assert (a + b) * a == a * a + b * a
        assert a - a == DPolynomial.zero()
        assert 3 * a == a * 3

    def test_grading(self):
        p = DPolynomial.generator(1) * DPolynomial.generator(2)
        assert p.degree() == 3
        assert p.is_homogeneous()
        assert not (p + DPolynomial.generator(1)).is_homogeneous()

    def test_render(self):
        p = DPolynomial.generator(1) * DPolynomial.generator(2) - DPolynomial.generator(3)
        assert render_dpolynomial(p) == "D1*D2 - D3"
        assert render_dpolynomial(DPolynomial.identity()) == "1"
        assert render_dpolynomial(DPolynomial.zero()) == "0"
        sq = DPolynomial.generator(1) * DPolynomial.generator(1)
        assert render_dpolynomial(sq) == "D1^2"

    def test_keys_are_part_tuples(self):
        # a Partition and its part tuple name the same monomial; items()
        # gives Partitions back, in ascending part order
        p = DPolynomial({Partition((2, 1)): 3, (): -1})
        assert p == DPolynomial({(2, 1): 3, (): -1})
        assert p.terms == {(2, 1): 3, (): -1}
        assert p.items() == [(Partition(), -1), (Partition((2, 1)), 3)]
        assert (p * p).terms == {(2, 2, 1, 1): 9, (2, 1): -6, (): 1}

    @pytest.mark.parametrize("mono", [(1, 2), (-1,), (1.5,)],
                             ids=["ascending", "negative", "float"])
    def test_non_partition_monomial_rejected(self, mono):
        with pytest.raises(InvalidInputError):
            DPolynomial({mono: 1})

    def test_non_integer_coefficient_rejected(self):
        with pytest.raises(InvalidInputError):
            DPolynomial({(1,): 2.5})
        with pytest.raises(InvalidInputError):
            DPolynomial({(1.5,): 1})

    def test_operators_reject_other_types(self):
        d = DPolynomial.generator(1)
        for bad in ("x", 2.5, KVector(1)):
            with pytest.raises(InvalidInputError):
                d * bad
            with pytest.raises(InvalidInputError):
                bad * d
        for bad in (5, "x"):
            with pytest.raises(InvalidInputError):
                d + bad
            with pytest.raises(InvalidInputError):
                d - bad


class TestGoldenDerivatives:
    def test_first_derivative(self):
        v = KVector.basis((2, 4))
        expected = KVector.basis((3, 4)) + KVector.basis((2, 5))
        assert leibniz_d(1, v) == expected
        assert pieri_d(1, v) == expected

    def test_second_derivative_with_cancellation(self):
        v = KVector.basis((2, 3, 5))
        expected = KVector.basis((2, 4, 6)) + KVector.basis((2, 3, 7))
        assert leibniz_d(2, v) == expected
        assert pieri_d(2, v) == expected

    def test_h_zero_is_identity(self):
        # D_0 comes from the general path, the h = 0 composition and row,
        # on several q-degrees and on Lambda^0 too, and returns a new vector
        vectors = [
            KVector.basis((2, 4)) + KVector.basis((1, 7), 3),
            KVector(2, {(2, 4): QInt({0: 1, 2: -3}), (1, 7): QInt({1: 5})}),
            KVector(0, {(): QInt({0: 2, 3: 1})}),
            KVector.zero(2),
        ]
        for v in vectors:
            for d in (leibniz_d, pieri_d):
                out = d(0, v)
                assert out == v and out.degree == v.degree
                assert out.terms is not v.terms

    def test_consecutive_block(self):
        assert pieri_d(3, KVector.basis((5, 6))) == KVector.basis((5, 9))

    def test_small_case(self):
        # the (2,3) composition term cancels against its transposition
        assert pieri_d(2, fundamental(2)) == KVector.basis((1, 4))
        assert leibniz_d(2, fundamental(2)) == KVector.basis((1, 4))


class TestOracleEquivalence:
    @given(symbols, st.integers(0, 8))
    @settings(max_examples=200, deadline=None)
    def test_pieri_equals_leibniz(self, indices, h):
        v = KVector.basis(indices)
        assert pieri_d(h, v) == leibniz_d(h, v)

    @given(symbols, st.integers(1, 6), st.integers(1, 6))
    @settings(max_examples=100, deadline=None)
    def test_commutativity(self, indices, i, j):
        v = KVector.basis(indices)
        assert pieri_d(i, pieri_d(j, v)) == pieri_d(j, pieri_d(i, v))

    @given(symbols, st.integers(1, 6))
    @settings(max_examples=100, deadline=None)
    def test_weight_raising(self, indices, h):
        v = KVector.basis(indices)
        w0 = v.items()[0][0].weight()
        for sym, _ in pieri_d(h, v).items():
            assert sym.weight() == w0 + h

    @given(symbols, symbols, st.integers(0, 4), st.integers(-3, 3))
    @settings(max_examples=100, deadline=None)
    def test_linearity(self, a, b, h, c):
        if len(a) != len(b):
            return
        va, vb = KVector.basis(a), KVector.basis(b)
        combo = va.scale(c) + vb
        assert pieri_d(h, combo) == pieri_d(h, va).scale(c) + pieri_d(h, vb)


class TestMixedCoefficients:
    """pieri_d and apply_operator on coefficients with several q-degrees."""

    @given(mixed_kvectors(), st.integers(0, 5))
    @settings(max_examples=200, deadline=None)
    def test_pieri_equals_leibniz(self, v, h):
        assert pieri_d(h, v) == leibniz_d(h, v)

    @given(operators, mixed_kvectors())
    @settings(max_examples=150, deadline=None)
    def test_apply_operator_is_composed_pieri(self, p, v):
        assert apply_operator(p, v) == _composed_pieri(p, v)

    @given(mixed_kvectors(), st.lists(st.integers(1, 3), max_size=4), st.integers(0, 2))
    @settings(max_examples=80, deadline=None)
    def test_giambelli_operator_is_composed_pieri(self, v, parts, extra):
        # giambelli_det's matrix, applied column by column, against its
        # expanded terms applied one monomial at a time, on any degree
        p = giambelli_det(Partition(sorted(parts, reverse=True)), len(parts) + extra)
        assert apply_operator(p, v) == _composed_pieri(p, v)

    @given(st.one_of(operators, small_dets), st.one_of(operators, small_dets), mixed_kvectors())
    @settings(max_examples=120, deadline=None)
    def test_operator_ring_acts_commutatively(self, p, q, v):
        # Z[D] is a commutative ring of operators: a product carries no
        # matrix and goes through _horner, its factors through either route
        pq = p * q
        assert getattr(pq, "columns", None) is None
        want = apply_operator(pq, v)
        assert apply_operator(p, apply_operator(q, v)) == want
        assert apply_operator(q, apply_operator(p, v)) == want

    def test_cancellation_per_q_degree(self):
        # D_1 e[2,3] = e[2,4] and D_1 e[1,4] = e[2,4] + e[1,5]: the e[2,4]
        # terms cancel in q-degree 0 and survive in q-degree 1
        a = QInt({0: 1, 1: 1, 2: -3})
        b = QInt({0: -1, 1: 1, 2: 3})
        v = KVector(2, {(2, 3): a, (1, 4): b})
        got = pieri_d(1, v)
        assert got == KVector(2, {(2, 4): QInt({1: 2}), (1, 5): b})
        assert got.coefficient((2, 4)).coeffs == {1: 2}
        full = KVector(2, {(2, 3): a, (1, 4): -a})
        assert pieri_d(1, full) == KVector(2, {(1, 5): -a})
        assert apply_operator(DPolynomial.generator(1), full) == pieri_d(1, full)

    def test_annihilation_with_mixed_coefficients(self):
        # E_h kills the k-th power for h > k, whatever the coefficients
        es = inverse_components(4)
        c = QInt({0: 2, 1: -1, 3: 5})
        v = KVector(2, {(1, 3): c, (2, 5): -c, (3, 4): QInt({2: 1})})
        for h in (3, 4):
            assert apply_operator(es[h], v).is_zero()

    def test_zero_and_degree_zero(self):
        assert pieri_d(2, KVector.zero(3)) == KVector.zero(3)
        assert apply_operator(DPolynomial.generator(2), KVector.zero(3)) == KVector.zero(3)
        scalar = KVector(0, {(): QInt({0: 3, 2: -1})})
        assert pieri_d(1, scalar) == KVector.zero(0)
        assert leibniz_d(1, scalar) == KVector.zero(0)
        assert apply_operator(DPolynomial.identity() * 2, scalar) == scalar.scale(2)
        d1 = DPolynomial.generator(1)
        assert apply_operator(DPolynomial.identity() + d1, scalar) == scalar

    def test_line(self):
        # k = 1: D_h e[i] = e[i+h], coefficients carried unchanged
        c = QInt({0: -4, 1: 1})
        v = KVector(1, {(2,): c, (5,): QInt({3: 2})})
        assert pieri_d(3, v) == KVector(1, {(5,): c, (8,): QInt({3: 2})})
        p = DPolynomial.generator(1) * DPolynomial.generator(2) - DPolynomial.generator(3)
        assert apply_operator(p, v).is_zero()


def pieri_symbols(indices, h):
    """The Pieri rule's targets at a strictly increasing I, as index tuples."""
    return [_indices(t) for t in derivations._pieri(_mask(indices), h)]


@given(symbols, st.integers(0, 6))
@settings(max_examples=200, deadline=None)
def test_pieri_symbols_are_the_interleaving_raw_terms(indices, h):
    got = list(pieri_symbols(indices, h))
    assert len(got) == len(set(got))
    k = len(indices)

    def interleaves(j):
        return all(indices[p] <= j[p] for p in range(k)) and all(
            j[p] < indices[p + 1] for p in range(k - 1)
        )

    assert set(got) == {j for j in leibniz_raw_terms(h, indices) if interleaves(j)}


def test_pieri_is_the_interleaving_raw_terms_on_every_mask_below_2_to_the_10():
    # every mask, the empty and the one-bit masks and so every last step
    # included, and h = -1..9.  leibniz_raw_terms(h, I) is I plus each
    # composition c of h into k = |I| parts, so the compositions are listed
    # once per (k, h), keyed by their first k - 1 parts (which fix the
    # last).  J = I + c interleaves, i_p <= j_p < i_{p+1}, exactly when
    # each of those parts is below its gap i_{p+1} - i_p: the filter reads
    # the raw terms at the prefixes under the gaps.
    raw = {}
    for mask in range(1 << 10):
        indices = _indices(mask)
        k = len(indices)
        under_gaps = list(product(*(range(b - a) for a, b in zip(indices, indices[1:]))))
        for h in range(-1, 10):
            if (k, h) not in raw:
                raw[k, h] = {c[:-1]: c for c in leibniz_raw_terms(h, (0,) * k)}
            want = {
                tuple(i + s for i, s in zip(indices, raw[k, h][prefix]))
                for prefix in under_gaps if prefix in raw[k, h]
            }
            got = pieri_symbols(indices, h)
            assert len(got) == len(want) and set(got) == want, (indices, h)


@pytest.mark.parametrize("indices", [(3,), (1,), (2, 5), (1, 2), (1, 4, 6)])
def test_pieri_symbols_vanish_for_negative_h(indices):
    for h in (-1, -2, -7):
        assert pieri_symbols(indices, h) == []


def test_signed_input_loses_its_zero_sums():
    # D_1 e[1,4] = e[2,4] + e[1,5] and D_1 e[2,3] = e[2,4]: in the
    # difference the e[2,4] sums are 0, at q-degree 0 and at q-degree 2
    v = KVector(2, {(1, 4): QInt({0: 1, 2: -3}), (2, 3): QInt({0: -1, 2: 3})})
    want = {(_mask((1, 5)), 0): 1, (_mask((1, 5)), 2): -3}
    derivations._ROWS.clear()
    assert pieri_d(1, v).terms == want
    # one row per mask, built once: the second call builds none
    rows = derivations._ROWS[None, False][1]
    assert sorted(map(_indices, rows)) == [(1, 4), (2, 3)]
    assert pieri_d(1, v).terms == want and len(rows) == 2
    # in quantum G(2,5) neither term wraps: i_1 = 1, and e[2,3] is too low
    assert quantum_pieri(1, v, GrassmannContext(2, 5, "quantum")).terms == want


class TestInverseComponents:
    def test_small_components(self):
        es = inverse_components(3)
        d1 = DPolynomial.generator(1)
        d2 = DPolynomial.generator(2)
        d3 = DPolynomial.generator(3)
        assert es[0] == DPolynomial.identity()
        assert es[1] == -d1
        assert es[2] == d1 * d1 - d2
        assert es[3] == -(d1 * d1 * d1) + 2 * (d1 * d2) - d3

    def test_homogeneous(self):
        for m, e in enumerate(inverse_components(6)):
            assert e.is_homogeneous()
            assert e.degree() == m or e.is_zero()

    def test_series_inverse_law(self):
        # degree-by-degree, sum_i D_i E_{m-i} = 0 for m >= 1
        es = inverse_components(6)
        for m in range(1, 7):
            acc = DPolynomial.zero()
            for i in range(0, m + 1):
                acc = acc + DPolynomial.generator(i) * es[m - i]
            assert acc.is_zero()

    def test_annihilation_above_k(self):
        # E_h kills the k-th exterior power for h > k
        for k in range(1, 5):
            spanning = _spanning_set(k, 8)
            for h in range(k + 1, k + 5):
                e_h = inverse_components(h)[h]
                for v in spanning:
                    assert apply_operator(e_h, v).is_zero()

    def test_e1_on_line(self):
        e1 = inverse_components(1)[1]
        assert apply_operator(e1, KVector.basis((3,))) == KVector.basis((4,), -1)

    def test_components_are_signed_column_determinants(self):
        # D_h acting as h_h makes E_t = D_t^{-1} the series of (-1)^m e_m,
        # and e_m = det(h_{1-i+j}) (Macdonald I.(2.6')), the Giambelli
        # determinant of the column (1^m) at k = m.  E_m carries no matrix
        # and goes through _horner; det_m goes through _columns, so the two
        # evaluators check each other on every box symbol of the k x 4 box
        # and on seeded vectors with terms at q-degrees 0..3
        es = inverse_components(9)
        dets = [giambelli_det(Partition((1,) * m), m) for m in range(10)]
        for m in range(10):
            assert es[m] == (-1) ** m * dets[m]
        rng = random.Random(4201)
        vectors = [
            KVector(deg, [
                (sorted(rng.sample(range(1, deg + 4), deg)),
                 QInt.q_power(rng.randint(0, 3), rng.choice((-2, -1, 1, 2))))
                for _ in range(rng.randint(1, 4))
            ])
            for deg in range(6) for _ in range(2)
        ]
        for k in range(1, 6):
            for lam in box_partitions(k, k + 4):
                vectors.append(KVector.basis(partition_to_symbol(lam, k)))
        checked = 0
        for m in range(7):
            assert getattr(es[m], "columns", None) is None
            for v in vectors:
                assert apply_operator(es[m], v) == apply_operator(dets[m], v).scale((-1) ** m), (m, v)
                checked += 1
        assert checked == 7 * (12 + 251)


def _spanning_set(k, max_weight):
    out = []

    def rec(prefix, lo):
        if len(prefix) == k:
            out.append(KVector.basis(tuple(prefix)))
            return
        for i in range(lo, max_weight + k + 1):
            if sum(prefix) + i <= max_weight + k * (k + 1) // 2:
                rec(prefix + [i], i + 1)

    rec([], 1)
    return out


class TestApplyOperator:
    def test_identity(self):
        v = KVector.basis((2, 4), 3)
        assert apply_operator(DPolynomial.identity(), v) == v

    def test_giambelli_shape(self):
        p = DPolynomial.generator(1) * DPolynomial.generator(2) - DPolynomial.generator(3)
        assert apply_operator(p, fundamental(2)) == KVector.basis((2, 4))

    def test_order_independence(self):
        p = DPolynomial.monomial(Partition((3, 2, 1)))
        v = KVector.basis((1, 4, 6))
        expected = pieri_d(1, pieri_d(2, pieri_d(3, v)))
        assert apply_operator(p, v) == expected

    def test_zero_operator(self):
        assert apply_operator(DPolynomial.zero(), KVector.basis((1, 3))) == KVector.zero(2)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_monomial_by_monomial(self, data):
        # shared first factors and shared rows must not leak between monomials
        k = data.draw(st.integers(1, 3))
        symbol = st.lists(st.integers(1, 8), min_size=k, max_size=k, unique=True).map(sorted)
        v = KVector(k, {
            tuple(i): QInt({data.draw(st.integers(0, 3)): data.draw(st.integers(-3, 3))})
            for i in data.draw(st.lists(symbol, max_size=4))
        })
        parts = st.lists(st.integers(1, 4), max_size=4).map(lambda xs: sorted(xs, reverse=True))
        p = DPolynomial({
            tuple(m): data.draw(st.integers(-3, 3)) for m in data.draw(st.lists(parts, max_size=5))
        })
        assert apply_operator(p, v) == _composed_pieri(p, v)

    # vectors with q-degrees 0..3 and terms that meet after one derivation
    horner_vectors = [
        KVector(1, {(2,): QInt({0: 1, 3: -2}), (4,): QInt({1: 3, 2: 1})}),
        KVector(2, {(1, 3): QInt({0: 2, 1: -1}), (2, 3): QInt({2: 1, 3: 4}), (1, 4): QInt({3: -1})}),
        KVector(3, {(1, 2, 4): QInt({0: 1, 2: -3}), (1, 3, 4): QInt({1: 1, 3: 2})}),
    ]

    @pytest.mark.parametrize("v", horner_vectors)
    @pytest.mark.parametrize("terms", [
        # a constant next to monomials sharing their largest part, one of
        # them the bare D_3, so the group mixes a constant with deeper terms
        {(): 2, (3,): 4, (3, 1): 1, (3, 2): -1, (3, 2, 1): 3, (2, 1): -2},
        # D_3 (D_1^2 - D_2) + D_2: on k = 1 the inner sum cancels to empty
        {(3, 1, 1): 1, (3, 2): -1, (2,): 1},
        # repeated factors, inside and across groups
        {(2, 2, 2): 1, (2, 2, 1, 1): -2, (1, 1, 1, 1): 1, (4, 4): 3, (4, 1, 1): -1},
        # only leaves, and only the identity
        {(1,): 1, (2,): -1, (5,): 2},
        {(): -3},
    ])
    def test_horner_groups_match_monomial_by_monomial(self, v, terms):
        p = DPolynomial(terms)
        assert apply_operator(p, v) == _composed_pieri(p, v)

    def test_inner_sum_cancels_to_empty(self):
        v = self.horner_vectors[0]
        inner = DPolynomial({(1, 1): 1, (2,): -1})
        assert _composed_pieri(inner, v).is_zero()
        p = DPolynomial.generator(3) * inner
        assert apply_operator(p, v).is_zero()

    def test_zero_inner_sums_reach_no_row(self):
        # on k = 2, D_1^3 - 2 D_2 D_1 + D_3 = -E_3 kills every vector, so
        # the D_5 node's inner sum is 0 at both q-degrees.  In the D_4 node,
        # D_1^2 - D_2 + D_3 takes e[1,3] (q-degree 0) to e[2,4] + e[1,6] +
        # e[2,5], its e[1,5] terms cancelling, and e[1,2] (q-degree 1) to
        # e[2,3] + e[1,5], its e[1,4] terms cancelling: e[1,5] sums to 0 at
        # one q-degree and not at the other.  A zero sum reaches no row.
        v = KVector(2, {(1, 3): QInt({0: 1}), (1, 2): QInt({1: 1})})
        kill = DPolynomial({(1, 1, 1): 1, (2, 1): -2, (3,): 1})
        inner = DPolynomial({(1, 1): 1, (2,): -1, (3,): 1})
        assert _composed_pieri(kill, v).is_zero()
        assert _composed_pieri(inner, v).terms == {
            (_mask((2, 4)), 0): 1, (_mask((1, 6)), 0): 1, (_mask((2, 5)), 0): 1,
            (_mask((2, 3)), 1): 1, (_mask((1, 5)), 1): 1,
        }
        p = DPolynomial.generator(5) * kill + DPolynomial.generator(4) * inner
        derivations._ROWS.clear()
        rows = derivations._ROWS[None, False]
        got = apply_operator(p, v)
        assert len(rows[5]) == 0
        assert sorted(map(_indices, rows[4])) == [(1, 5), (1, 6), (2, 3), (2, 4), (2, 5)]
        assert got == _composed_pieri(p, v)

    def test_determinant_route_equals_horner_on_the_6x6_box(self):
        # giambelli_det's matrix against its own expanded terms, which carry
        # none and so go through _horner, on fundamental(k) and on a seeded
        # vector of degree 0..5 with terms at q-degrees 0..3 per operator
        rng = random.Random(4101)
        checked = 0
        for k in range(1, 7):
            for lam in box_partitions(k, k + 6):
                det = giambelli_det(lam, k)
                horner = DPolynomial._of(dict(det.terms))
                assert det.columns == lam.padded(k)[::-1]
                assert getattr(horner, "columns", None) is None
                deg = rng.randint(0, 5)
                v = KVector(deg, [
                    (sorted(rng.sample(range(1, deg + 4), deg)),
                     QInt.q_power(rng.randint(0, 3), rng.choice((-2, -1, 1, 2))))
                    for _ in range(rng.randint(1, 3))
                ])
                for w in (fundamental(k), v):
                    assert apply_operator(det, w) == apply_operator(horner, w), (lam, k, w)
                    checked += 1
        assert checked == 2 * 1715

    def test_arithmetic_results_carry_no_matrix(self):
        det = giambelli_det((3, 1), 3)
        v = self.horner_vectors[2]
        want = apply_operator(det, v)
        assert det.columns == (0, 1, 3)
        assert want == _composed_pieri(det, v)
        for p in (det * 1, det + DPolynomial(), -(-det), DPolynomial(det.items())):
            assert getattr(p, "columns", None) is None
            assert p == det
            assert apply_operator(p, v) == want

    @pytest.mark.parametrize("k", [0, 3])
    def test_empty_partition_is_the_identity(self, k):
        det = giambelli_det((), k)
        assert det.terms == {(): 1}
        for v in self.horner_vectors:
            assert apply_operator(det, v) == v

    def test_rejects_other_types(self):
        with pytest.raises(InvalidInputError):
            apply_operator({(): 1}, fundamental(2))
        with pytest.raises(InvalidInputError):
            apply_operator(DPolynomial.identity(), {(1, 2): 1})
        with pytest.raises(InvalidInputError):
            pieri_d(1, {})

    def test_leaves_no_reference_cycle(self):
        # a recursion written as a closure that calls itself would keep
        # the call's rows alive in a cycle until the cyclic collector runs;
        # giambelli_det's column-by-column Laplace pass is included on purpose
        assert_no_reference_cycle(lambda: apply_operator(giambelli_det((3, 2, 1), 3), fundamental(3)))


class TestSharedRows:
    """derivations._ROWS: the one Pieri-row store of every context, keyed on
    bit masks, with targets shared through derivations._SHARED."""

    @staticmethod
    def clear():
        derivations._ROWS.clear()
        derivations._SHARED.clear()

    @staticmethod
    def size():
        return sum(len(rows) for by_h in derivations._ROWS.values() for rows in by_h.values())

    def test_cold_and_warm_cache_agree_on_the_5x5_box(self):
        cases = [(lam, k) for k in range(1, 6) for lam in box_partitions(k, k + 5)]
        assert len(cases) == 461
        cold = []
        for lam, k in cases:
            self.clear()
            cold.append(apply_operator(giambelli_det(lam, k), fundamental(k)))
        assert self.size() > 0
        # warm: every row of the reversed pass comes from the pass before it
        for lam, k in cases:
            apply_operator(giambelli_det(lam, k), fundamental(k))
        built = self.size()
        for (lam, k), want in zip(reversed(cases), reversed(cold)):
            assert want == KVector.basis(partition_to_symbol(lam, k).indices)
            assert apply_operator(giambelli_det(lam, k), fundamental(k)) == want
        assert self.size() == built

    @given(symbols, st.integers(0, 6), st.integers(1, 4), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_positive_q_degree_carries_d(self, indices, h, d, quantum):
        self.clear()
        mask = _mask(indices)
        infinite = derivations._build_row({}, None, False, h, mask)
        assert [_indices(t) for t in infinite] == pieri_symbols(indices, h)
        # at rank n the row at q-degree d is the degree-0 row raised by d
        rows = {}
        at_d = derivations._build_row(rows, 12, quantum, h, mask | d << 12)
        assert at_d == tuple(t + (d << 12) for t in rows[mask])
        v = KVector.basis(indices, QInt.q_power(d, 3))
        assert pieri_d(h, v) == pieri_d(h, KVector.basis(indices)).scale(QInt.q_power(d, 3))

    @pytest.mark.parametrize("d", [0, 2])
    def test_finite_rows_on_every_small_symbol(self, d):
        # every symbol of G(1,3)..G(4,9) and every 0 <= h <= n-k: the rows
        # at rank n are the infinite row cut at n, then in quantum mode the
        # wrapped targets at q-degree d + 1
        build = derivations._build_row
        checked = 0
        for n in range(3, 10):
            for k in range(1, min(4, n - 1) + 1):
                ctx = GrassmannContext(k, n, "quantum")
                for lam in box_partitions(k, n):
                    indices = partition_to_symbol(lam, k).indices
                    mask = _mask(indices)
                    for h in range(n - k + 1):
                        infinite = build({}, None, False, h, mask)
                        classical = build({}, n, False, h, mask | d << n)
                        quantum = build({}, n, True, h, mask | d << n)
                        assert classical == tuple(t | d << n for t in infinite if t < 1 << n)
                        assert quantum[:len(classical)] == classical
                        wrapped = quantum[len(classical):]
                        assert all(t >> n == d + 1 for t in wrapped)
                        # the wrapped targets are those of the reduced derivative
                        v = KVector.basis(indices, QInt.q_power(d))
                        reduced = reduce_kvector(pieri_d(h, v), ctx).terms
                        got = {(t & ~(-1 << n), t >> n): 1 for t in quantum}
                        assert got == reduced
                        checked += 1
        assert checked == 3547

    def test_equal_targets_are_one_shared_int(self):
        # masks above 256, which CPython does not share by itself
        self.clear()
        build, m = derivations._build_row, _mask
        target = m((10, 13))
        assert target > 256
        a = build({}, None, False, 1, m((10, 12)))
        b = build({}, None, False, 2, m((10, 11)))
        assert a[a.index(target)] is b[b.index(target)]
        # the finite rows reach the same ints
        c = build({}, 14, True, 1, m((10, 12)))
        assert c[c.index(target)] is a[a.index(target)]
        # and so do the rows at a positive q-degree, raised by d << n
        a1 = build({}, 14, False, 1, m((10, 12)) | 1 << 14)
        c1 = build({}, 14, True, 2, m((10, 11)) | 1 << 14)
        assert a1[a1.index(target | 1 << 14)] is c1[c1.index(target | 1 << 14)]
        # two steps of D_1..D_3 from e[10,11,12]: equal targets are one object
        keys = [m((10, 11, 12))]
        rows = []
        for _ in range(2):
            rows += [build({}, None, False, h, key) for key in keys for h in (1, 2, 3)]
            keys = {t for row in rows for t in row}
        seen = {}
        for row in rows:
            for t in row:
                assert seen.setdefault(t, t) is t
        assert len(seen) < sum(map(len, rows))

    def test_mask_rows_leave_no_reference_cycle(self):
        v = KVector(3, {(1, 3, 5): QInt({0: 2, 1: -1}), (2, 3, 4): QInt({2: 1})})
        assert_no_reference_cycle(
            self.clear,
            lambda: pieri_d(2, v),
            lambda: quantum_pieri(2, v, GrassmannContext(3, 7, "quantum")),
            lambda: apply_operator(giambelli_det(Partition((3, 2, 1)), 3), v),
        )


def _seeded_mixed_q_results():
    """1,500 pieri_d, 600 apply_operator and 1,500 quantum_pieri results
    on seeded signed k-vectors with terms at q-degrees 0..3, each as its
    sorted terms, each keyed by (index tuple, q-degree)."""
    rng = random.Random(3101)

    def kvector(k, top):
        terms = [
            (sorted(rng.sample(range(1, top + 1), k)), QInt.q_power(rng.randint(0, 3), rng.choice((-2, -1, 1, 2))))
            for _ in range(rng.randint(1, 6))
        ]
        return KVector(k, terms)

    out = []
    for _ in range(1500):
        k = rng.randint(1, 4)
        out.append(pieri_d(rng.randint(0, 5), kvector(k, k + 4)))
    for _ in range(600):
        k = rng.randint(1, 4)
        pick = rng.randrange(3)
        if pick == 0:
            p = giambelli_det(rng.choice(box_partitions(k, k + 3)), k)
        elif pick == 1:
            p = inverse_components(4)[rng.randint(0, 4)]
        else:
            p = DPolynomial({
                tuple(sorted(rng.sample(range(1, 5), rng.randint(0, 3)), reverse=True)): rng.randint(-3, 3)
                for _ in range(rng.randint(1, 4))
            })
        out.append(apply_operator(p, kvector(k, k + 3)))
    for _ in range(1500):
        n = rng.randint(3, 8)
        k = rng.randint(1, n - 1)
        out.append(quantum_pieri(rng.randint(1, n - k), kvector(k, n), GrassmannContext(k, n, "quantum")))
    return [sorted(((_indices(mask), d), c) for (mask, d), c in v.terms.items()) for v in out]


def test_mixed_q_results_match_the_pinned_digest():
    # pinned from the tuple-keyed rows that the mask rows replaced
    results = _seeded_mixed_q_results()
    assert sum(map(len, results)) == 25889
    digest = hashlib.sha256(repr(results).encode()).hexdigest()
    assert digest == "d0f33ccf22ec0d65a361aa609be9bb154507255c51497dbb3a12b0b763d89d19"


class TestIteratedD1:
    def test_golden_fourth_power(self):
        result = iterated_d1(4, fundamental(2))
        expected = (
            KVector.basis((3, 4), 2)
            + KVector.basis((2, 5), 3)
            + KVector.basis((1, 6))
        )
        assert result == expected

    def test_m_zero(self):
        v = KVector.basis((3, 7))
        assert iterated_d1(0, v) == v

    def test_binomial_formula(self):
        # D1^m(a ^ b) = sum binom(m,i) D_i a ^ D_{m-i} b for 1-vectors a, b
        from math import comb

        a, b = KVector.basis((1,)), KVector.basis((2,))
        for m in range(7):
            lhs = iterated_d1(m, wedge(a, b))
            rhs = KVector.zero(2)
            for i in range(m + 1):
                rhs = rhs + wedge(pieri_d(i, a), pieri_d(m - i, b)).scale(comb(m, i))
            assert lhs == rhs

    def test_negative_rejected(self):
        with pytest.raises(InvalidInputError):
            iterated_d1(-1, fundamental(2))


def test_group_law():
    # applying the inverse series after the direct series, matched by degree,
    # is the identity: sum_{i+j=m} E_i D_j v = 0 for m >= 1
    es = inverse_components(6)
    for v in (fundamental(2), KVector.basis((2, 4)), KVector.basis((1, 3, 5))):
        for m in range(1, 7):
            acc = KVector.zero(v.degree)
            for i in range(m + 1):
                acc = acc + apply_operator(es[i], pieri_d(m - i, v))
            assert acc.is_zero()
