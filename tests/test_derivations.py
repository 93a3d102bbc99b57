import gc

import pytest
from hypothesis import given, settings, strategies as st

from schubert import derivations
from schubert.derivations import (
    DPolynomial,
    apply_operator,
    apply_rows,
    inverse_components,
    iterated_d1,
    leibniz_d,
    leibniz_raw_terms,
    pieri_d,
    pieri_symbols,
    render_dpolynomial,
)
from schubert.exterior_core import (
    InvalidInputError,
    KVector,
    Partition,
    QInt,
    fundamental,
    partition_to_symbol,
    wedge,
)
from schubert.giambelli_ring import giambelli_det
from schubert.grassmann_contexts import GrassmannContext, box_partitions, reduce_kvector

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

    @given(mixed_kvectors(), st.integers(1, 3))
    @settings(max_examples=50, deadline=None)
    def test_giambelli_operator_is_composed_pieri(self, v, width):
        lam = Partition((width,) * max(v.degree, 1))
        p = giambelli_det(lam, max(v.degree, 1))
        if v.degree == 0:
            assert apply_operator(p, v).is_zero()
        else:
            assert apply_operator(p, v) == _composed_pieri(p, v)

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


@pytest.mark.parametrize("indices", [(3,), (1,), (2, 5), (1, 2), (1, 4, 6)])
def test_pieri_symbols_vanish_for_negative_h(indices):
    for h in (-1, -2, -7):
        assert pieri_symbols(indices, h) == []


def test_apply_rows_fills_each_row_once_and_drops_zeros():
    # one row(key) call per key of each call; caching rows across calls
    # is the row function's business (derivations._row is an lru_cache)
    filled = []

    def row(key):
        filled.append(key)
        return {"a": ("x", "y"), "b": ("y",), "c": ()}[key]

    assert apply_rows({"a": 2, "b": -2, "c": 5}, row) == {"x": 2}
    assert filled == ["a", "b", "c"]
    assert apply_rows({"a": 1, "c": 1}, row) == {"x": 1, "y": 1}
    assert filled == ["a", "b", "c", "a", "c"]


def test_leibniz_raw_terms():
    raw = leibniz_raw_terms(2, (2, 3, 5))
    assert len(raw) == 6
    assert set(raw) == {(4, 3, 5), (3, 4, 5), (3, 3, 6), (2, 5, 5), (2, 4, 6), (2, 3, 7)}
    # the empty wedge has the one empty composition of 0
    assert leibniz_raw_terms(0, ()) == [()]


def test_leibniz_rejects_negative_h():
    with pytest.raises(InvalidInputError, match="h must be nonnegative"):
        leibniz_d(-1, KVector.basis((1, 3)))


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


def _spanning_set(k, max_weight):
    out = []

    def rec(prefix, lo):
        if len(prefix) == k:
            sym = tuple(prefix)
            if sum(sym) - k * (k + 1) // 2 <= max_weight:
                out.append(KVector.basis(sym))
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
        expected = KVector.zero(k)
        for mono, c in p.terms.items():
            w = v
            for h in mono:
                w = pieri_d(h, w)
            expected = expected + w.scale(c)
        assert apply_operator(p, v) == expected

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

    def test_leaves_no_reference_cycle(self):
        # a recursion written as a closure that calls itself would keep
        # the call's rows alive in a cycle until the cyclic collector runs;
        # giambelli_det's Laplace recursion is included on purpose
        gc.collect()
        gc.disable()
        try:
            apply_operator(giambelli_det((3, 2, 1), 3), fundamental(3))
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestSharedRows:
    """derivations._row: the one Pieri-row cache of every context, an
    lru_cache per process keyed on (n, quantum, h, flat key), with targets
    interned through derivations._target."""

    @staticmethod
    def clear():
        derivations._row.cache_clear()
        derivations._target.cache_clear()

    def test_cold_and_warm_cache_agree_on_the_5x5_box(self):
        cases = [(lam, k) for k in range(1, 6) for lam in box_partitions(k, k + 5)]
        assert len(cases) == 461
        cold = []
        for lam, k in cases:
            self.clear()
            cold.append(apply_operator(giambelli_det(lam, k), fundamental(k)))
        assert derivations._row.cache_info().currsize > 0
        # warm: every row of the reversed pass comes from the pass before it
        for lam, k in cases:
            apply_operator(giambelli_det(lam, k), fundamental(k))
        misses = derivations._row.cache_info().misses
        for (lam, k), want in zip(reversed(cases), reversed(cold)):
            assert want == KVector.basis(partition_to_symbol(lam, k).indices)
            assert apply_operator(giambelli_det(lam, k), fundamental(k)) == want
        assert derivations._row.cache_info().misses == misses

    @given(symbols, st.integers(0, 6), st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_positive_q_degree_carries_d(self, indices, h, d):
        self.clear()
        at_zero = derivations._row(None, False, h, (indices, 0))
        assert derivations._row(None, False, h, (indices, d)) == tuple((j, d) for j, _ in at_zero)
        assert [j for j, _ in at_zero] == pieri_symbols(indices, h)
        v = KVector.basis(indices, QInt.q_power(d, 3))
        assert pieri_d(h, v) == pieri_d(h, KVector.basis(indices)).scale(QInt.q_power(d, 3))

    @pytest.mark.parametrize("d", [0, 2])
    def test_finite_rows_on_every_small_symbol(self, d):
        # every symbol of rank n <= 8 and every 1 <= h <= n-k
        checked = 0
        for n in range(2, 9):
            for k in range(1, n):
                ctx = GrassmannContext(k, n, "quantum")
                for lam in box_partitions(k, n):
                    indices = partition_to_symbol(lam, k).indices
                    for h in range(1, n - k + 1):
                        infinite = derivations._row(None, False, h, (indices, d))
                        classical = derivations._row(n, False, h, (indices, d))
                        quantum = derivations._row(n, True, h, (indices, d))
                        assert classical == tuple(t for t in infinite if t[0][-1] <= n)
                        assert quantum[:len(classical)] == classical
                        wrapped = quantum[len(classical):]
                        assert all(e == d + 1 for _, e in wrapped)
                        # the wrapped targets are those of the reduced derivative
                        v = KVector.basis(indices, QInt.q_power(d))
                        reduced = reduce_kvector(pieri_d(h, v), ctx).terms
                        assert dict.fromkeys(quantum, 1) == reduced
                        checked += 1
        assert checked == 1757

    def test_rows_share_target_tuples(self):
        self.clear()
        a = derivations._row(None, False, 1, ((1, 3), 0))
        b = derivations._row(None, False, 2, ((1, 2), 0))
        assert a[a.index(((1, 4), 0))] is b[b.index(((1, 4), 0))]
        # the finite rows reach the same tuples
        c = derivations._row(4, True, 1, ((1, 3), 0))
        assert c[c.index(((1, 4), 0))] is a[a.index(((1, 4), 0))]
        # and so do the rows at a positive q-degree
        a1 = derivations._row(None, False, 1, ((1, 3), 1))
        c1 = derivations._row(4, True, 2, ((1, 2), 1))
        assert a1[a1.index(((1, 4), 1))] is c1[c1.index(((1, 4), 1))]
        # two steps of D_1..D_3 from e[1,2,3]: equal targets are one object
        keys = [((1, 2, 3), 0)]
        rows = []
        for _ in range(2):
            rows += [derivations._row(None, False, h, key) for key in keys for h in (1, 2, 3)]
            keys = {t for row in rows for t in row}
        seen = {}
        for row in rows:
            for t in row:
                assert seen.setdefault(t, t) is t
        assert len(seen) < sum(map(len, rows))


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
