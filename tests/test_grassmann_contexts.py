import hashlib
import importlib
import itertools
import json
import pkgutil
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

import schubert
from schubert import exterior_core, grassmann_contexts
from schubert.derivations import _ROWS, _build_row, _laplace, apply_operator, pieri_d
from schubert.exterior_core import (
    InvalidInputError,
    KVector,
    Partition,
    QInt,
    _indices,
    _partition_of,
    fundamental,
    normalize,
    partition_to_symbol,
    symbol_to_partition,
)
from schubert.giambelli_ring import expand_in_low_generators, giambelli_det
from schubert.grassmann_contexts import (
    GrassmannContext,
    _factor,
    box_partitions,
    multiply,
    multiply_expansion,
    poincare_pair,
    quantum_pieri,
    reduce_kvector,
    structure_table,
    unit_expansion,
)
from schubert.schur_oracle import lr_expansion, rim_hook_product

from test_derivations import pieri_symbols
from untraced import assert_no_reference_cycle

P = Partition


def apply_then_reduce(lam, mu, ctx):
    """sigma_lam * sigma_mu as reduce(Giambelli(mu) e^{I(lam)}), as a product dict."""
    start = KVector.basis(partition_to_symbol(lam, ctx.k))
    w = reduce_kvector(apply_operator(giambelli_det(mu, ctx.k), start), ctx)
    return {(symbol_to_partition(s), d): c for s, qc in w.items() for d, c in qc.items()}


def counted_laplace(monkeypatch):
    """Cold factor records, and the list of the (lam, k, width) that
    multiply builds in-box determinants for from now on."""
    _factor.cache_clear()
    built = []

    def laplace(lam, k, width):
        built.append((lam, k, width))
        return _laplace(lam, k, width)

    monkeypatch.setattr(grassmann_contexts, "_laplace", laplace)
    return built


def expand(pairs):
    return {(P(nu), d): c for (nu, d), c in pairs.items()}


def fits_complement(lam, mu, k, n):
    """mu inside lam's complement in the k x (n-k) box, row by row."""
    return all(m <= c for m, c in zip(mu.padded(k), lam.box_complement(k, n).padded(k)))


def conjugate(lam):
    """The transposed partition lam'."""
    return P(sum(1 for part in lam if part > j) for j in range(max(lam, default=0)))


def transposed(product):
    """A product on G(k,n) read on G(n-k,n) through lam -> lam', q -> q."""
    return {(conjugate(nu), d): c for (nu, d), c in product.items()}


class TestContext:
    def test_validation(self):
        for args in [(3, 2), (0, 4), (2, 4.5), (2, 4, "weird"), (2, 4, "affine")]:
            with pytest.raises(InvalidInputError):
                GrassmannContext(*args)

    def test_modes(self):
        assert GrassmannContext(2, 4).mode == "classical"

    def test_repr_and_keywords(self):
        assert repr(GrassmannContext(2, 4, "quantum")) == "GrassmannContext(k=2, n=4, mode='quantum')"
        assert GrassmannContext(k=2, n=4) == GrassmannContext(2, 4, "classical")
        assert GrassmannContext(n=4, mode="quantum", k=2) == GrassmannContext(2, 4, "quantum")

    def test_equality_and_hash(self):
        a, b = GrassmannContext(2, 4, "quantum"), GrassmannContext(2, 4, "quantum")
        assert a == b and hash(a) == hash(b)
        assert {a: 1}[b] == 1
        assert GrassmannContext(2, 4) != GrassmannContext(2, 4, "quantum")

    def test_immutable(self):
        ctx = GrassmannContext(2, 4)
        with pytest.raises(AttributeError):
            ctx.k = 3
        table = structure_table(ctx, max_weight=1)
        with pytest.raises(AttributeError):
            table.entries = {}

    def test_is_a_tuple(self):
        ctx = GrassmannContext(2, 4, "quantum")
        assert len(ctx) == 3 and ctx == (2, 4, "quantum")
        assert ctx._replace(mode="classical") == GrassmannContext(2, 4)
        with pytest.raises(InvalidInputError):
            ctx._replace(n=1)


class TestReduce:
    def test_infinite_passthrough(self):
        ctx = GrassmannContext(2, 4, "infinite")
        v = KVector.basis((1, 9))
        assert reduce_kvector(v, ctx) == v

    def test_classical_truncation(self):
        ctx = GrassmannContext(2, 4)
        assert reduce_kvector(KVector.basis((1, 5)), ctx).is_zero()
        v = KVector.basis((1, 4))
        assert reduce_kvector(v, ctx) == v

    def test_quantum_wrap(self):
        ctx = GrassmannContext(2, 4, "quantum")
        v = KVector.basis((2, 5), 3) + KVector.basis((1, 6))
        expected = KVector.basis((1, 2), QInt.q_power(1, 2))
        assert reduce_kvector(v, ctx) == expected

    def test_quantum_line_case(self):
        ctx = GrassmannContext(1, 4, "quantum")
        assert reduce_kvector(KVector.basis((5,)), ctx) == KVector.basis(
            (1,), QInt.q_power(1)
        )

    def test_wrap_killing_repeats(self):
        ctx = GrassmannContext(2, 4, "quantum")
        # 6 wraps to 2, repeating the other index
        assert reduce_kvector(KVector.basis((2, 6)), ctx).is_zero()

    def test_degree_mismatch(self):
        with pytest.raises(InvalidInputError):
            reduce_kvector(KVector.basis((1, 2, 3)), GrassmannContext(2, 4))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_one_wrap_at_a_time(self, data):
        # the quantum relation taken literally: an index i > n may be
        # replaced by i - n at the cost of (-1)^(k-1) * q, one index at a
        # time, without changing the class
        n = data.draw(st.integers(1, 5), label="n")
        k = data.draw(st.integers(1, n), label="k")
        top = data.draw(st.integers(n + 1, 3 * n), label="top")
        rest = data.draw(st.lists(
            st.integers(1, 3 * n).filter(lambda i: i != top), min_size=k - 1, max_size=k - 1,
            unique=True,
        ), label="rest")
        indices = data.draw(st.permutations([top, *rest]), label="indices")
        p = data.draw(st.sampled_from([p for p, i in enumerate(indices) if i > n]), label="p")
        d = data.draw(st.integers(0, 2), label="d")
        c = data.draw(st.integers(-3, 3).filter(bool), label="c")
        wrapped = list(indices)
        wrapped[p] -= n
        ctx = GrassmannContext(k, n, "quantum")
        v = normalize([(indices, QInt.q_power(d, c))], k)
        w = normalize([(wrapped, QInt.q_power(d + 1, c * (-1) ** (k - 1)))], k)
        assert reduce_kvector(v, ctx) == reduce_kvector(w, ctx)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_indices_congruent_mod_n_die(self, data):
        n = data.draw(st.integers(2, 5), label="n")
        k = data.draw(st.integers(2, n), label="k")
        i = data.draw(st.integers(1, 3 * n), label="i")
        j = data.draw(st.sampled_from([j for j in range(1, 3 * n + 1) if j != i and j % n == i % n]))
        rest = data.draw(st.lists(
            st.integers(1, 3 * n).filter(lambda x: x not in (i, j)), min_size=k - 2, max_size=k - 2,
            unique=True,
        ), label="rest")
        v = normalize([(data.draw(st.permutations([i, j, *rest])), 1)], k)
        assert reduce_kvector(v, GrassmannContext(k, n, "quantum")).is_zero()


class TestQuantumPieri:
    def test_golden(self):
        ctx = GrassmannContext(2, 4, "quantum")
        v = KVector.basis((2, 4))  # the class of partition (2,1)
        result = quantum_pieri(1, v, ctx)
        expected = KVector.basis((3, 4)) + KVector.basis((1, 2), QInt.q_power(1))
        assert result == expected

    def test_fundamental_has_no_q_term(self):
        for n in (3, 4, 5):
            ctx = GrassmannContext(2, n, "quantum")
            result = quantum_pieri(1, fundamental(2), ctx)
            assert result == KVector.basis((1, 3))

    def test_against_reduction_oracle(self):
        for k in (1, 2, 3, 4):
            for n in range(k + 1, 8 if k < 4 else 9):
                ctx = GrassmannContext(k, n, "quantum")
                for lam in box_partitions(k, n):
                    v = KVector.basis(partition_to_symbol(lam, k))
                    for h in range(1, n - k + 1):
                        assert quantum_pieri(h, v, ctx) == reduce_kvector(
                            pieri_d(h, v), ctx
                        )

    def test_mixed_q_degrees_against_reduction_oracle(self):
        # each term's own power of q must survive under the one a row adds
        rng = random.Random(7)
        for k, n in ((1, 4), (2, 5), (3, 6), (3, 7)):
            ctx = GrassmannContext(k, n, "quantum")
            syms = [partition_to_symbol(lam, k) for lam in box_partitions(k, n)]
            for _ in range(30):
                v = KVector(k, [
                    (rng.choice(syms), QInt({d: rng.randint(-2, 2) for d in range(3)}))
                    for _ in range(4)
                ])
                for h in range(1, n - k + 1):
                    assert quantum_pieri(h, v, ctx) == reduce_kvector(pieri_d(h, v), ctx)

    def test_range_validation(self):
        ctx = GrassmannContext(2, 4, "quantum")
        with pytest.raises(InvalidInputError):
            quantum_pieri(3, fundamental(2), ctx)
        with pytest.raises(InvalidInputError):
            quantum_pieri(1, fundamental(2), GrassmannContext(2, 4))
        with pytest.raises(InvalidInputError, match="degree mismatch"):
            quantum_pieri(1, fundamental(3), ctx)

    def test_index_above_n_rejected(self):
        ctx = GrassmannContext(2, 4, "quantum")
        with pytest.raises(InvalidInputError):
            quantum_pieri(1, KVector.basis((1, 5)), ctx)
        # only the second term is out of range, and no row is built for it
        _ROWS.clear()
        v = KVector.basis((1, 2)) + KVector.basis((3, 5))
        assert [_indices(mask) for mask, _ in v.terms] == [(1, 2), (3, 5)]
        with pytest.raises(InvalidInputError, match=r"symbol \(3, 5\) has index above n=4"):
            quantum_pieri(1, v, ctx)
        assert _ROWS == {}


class TestMultiply:
    def test_classical_square(self):
        ctx = GrassmannContext(2, 4)
        assert multiply(P((1,)), P((1,)), ctx) == expand(
            {((2,), 0): 1, ((1, 1), 0): 1}
        )
        assert multiply(P((2,)), P((2,)), ctx) == expand({((2, 2), 0): 1})

    def test_quantum_golden(self):
        ctx = GrassmannContext(2, 4, "quantum")
        assert multiply(P((1,)), P((2, 1)), ctx) == expand(
            {((2, 2), 0): 1, ((), 1): 1}
        )

    def test_sigma1_fourth_power(self):
        ctx = GrassmannContext(2, 4, "quantum")
        x = unit_expansion(P())
        for _ in range(4):
            x = multiply_expansion(x, P((1,)), ctx)
        assert x == expand({((2, 2), 0): 2, ((), 1): 2})

    def test_symmetry(self):
        for mode in ("classical", "quantum"):
            ctx = GrassmannContext(2, 5, mode)
            for lam in box_partitions(2, 5):
                for mu in box_partitions(2, 5):
                    assert multiply(lam, mu, ctx) == multiply(mu, lam, ctx)

    def test_unit(self):
        ctx = GrassmannContext(2, 4)
        assert multiply(P((2, 1)), P(), ctx) == expand({((2, 1), 0): 1})

    def test_box_validation(self):
        ctx = GrassmannContext(2, 4)
        with pytest.raises(InvalidInputError):
            multiply(P((3,)), P((1,)), ctx)
        # checked before the duality test, which (5,) * (3, 3) would fail too
        with pytest.raises(InvalidInputError):
            multiply(P((5,)), P((3, 3)), GrassmannContext(2, 5))

    def test_finite_contexts_only(self):
        with pytest.raises(InvalidInputError, match="classical or quantum"):
            multiply(P((1,)), P((1,)), GrassmannContext(2, 2, "infinite"))

    def test_degree_balance(self):
        for (k, n) in ((2, 4), (2, 5), (3, 6)):
            ctx = GrassmannContext(k, n, "quantum")
            for lam in box_partitions(k, n):
                for mu in box_partitions(k, n):
                    for (nu, d), c in multiply(lam, mu, ctx).items():
                        assert nu.weight() == lam.weight() + mu.weight() - n * d
                        assert c > 0

    def test_classical_specialization(self):
        k, n = 2, 4
        cctx = GrassmannContext(k, n)
        qctx = GrassmannContext(k, n, "quantum")
        for lam in box_partitions(k, n):
            for mu in box_partitions(k, n):
                quantum = multiply(lam, mu, qctx)
                at_q0 = {key: c for key, c in quantum.items() if key[1] == 0}
                assert at_q0 == multiply(lam, mu, cctx)

    @pytest.mark.parametrize("k,n", [(2, 4), (2, 5), (3, 6), (3, 7)])
    @pytest.mark.parametrize("mode", ["classical", "quantum"])
    def test_matches_apply_then_reduce_path(self, k, n, mode):
        # oracle: Giambelli applied in the infinite exterior power and
        # reduced only at the end, never inside the C(n,k) basis
        ctx = GrassmannContext(k, n, mode)
        parts = box_partitions(k, n)
        for lam in parts:
            for mu in parts:
                assert multiply(lam, mu, ctx) == apply_then_reduce(lam, mu, ctx)

    @pytest.mark.parametrize("mode", ["classical", "quantum"])
    def test_matches_apply_then_reduce_path_g48(self, mode):
        ctx = GrassmannContext(4, 8, mode)
        parts = box_partitions(4, 8)
        rng = random.Random(48)
        for _ in range(40):
            lam, mu = rng.choice(parts), rng.choice(parts)
            product = multiply(lam, mu, ctx)
            # multiply applies only one of the two determinants; check both
            assert product == apply_then_reduce(lam, mu, ctx)
            assert product == apply_then_reduce(mu, lam, ctx)

    @pytest.mark.parametrize("mode", ["classical", "quantum"])
    def test_monomials_of_three_or_more_parts_match_apply_then_reduce_on_g49(self, mode):
        # such a monomial's middle parts go through _apply_sigma and its
        # last part's rows are summed straight into the product; the
        # applied determinant is mu's, or lam's when it has fewer in-box
        # monomials, after a one-part lam swaps with a longer mu
        k, n = 4, 9
        ctx = GrassmannContext(k, n, mode)
        parts = box_partitions(k, n)
        monos = {lam: _laplace(lam, k, n - k) for lam in parts}
        checked = 0
        for lam in parts:
            for mu in parts:
                if mode == "classical" and not fits_complement(lam, mu, k, n):
                    continue  # {} by duality: no determinant is applied
                a, b = (mu, lam) if len(lam) <= 1 < len(mu) else (lam, mu)
                applied = monos[a] if len(monos[a]) < len(monos[b]) else monos[b]
                if max(map(len, applied)) >= 3:
                    assert multiply(lam, mu, ctx) == apply_then_reduce(lam, mu, ctx), (lam, mu)
                    checked += 1
        assert checked > 1000

    def test_golden_digest(self):
        # sha256 of every product repr, recorded before multiply chose the
        # smaller of the two Giambelli determinants
        digest = hashlib.sha256()
        for k, n in ((3, 7), (4, 8)):
            for mode in ("classical", "quantum"):
                ctx = GrassmannContext(k, n, mode)
                parts = box_partitions(k, n)
                for lam in parts:
                    for mu in parts:
                        digest.update(repr(multiply(lam, mu, ctx)).encode() + b"\n")
        assert digest.hexdigest() == (
            "89dd284fe6192090c73b3d14ce6012fda06948c9af3b2a7bb2bbfaa798649a8f"
        )

    def test_sorted_by_partition_then_q_degree(self):
        ctx = GrassmannContext(3, 6, "quantum")
        product = multiply(P((3, 2, 1)), P((3, 2, 1)), ctx)
        keys = [(nu.parts, d) for nu, d in product]
        assert len(keys) > 1 and keys == sorted(keys)
        assert repr(multiply(P((1,)), P((2, 1)), GrassmannContext(2, 4, "quantum"))) == (
            "{(Partition([]), 1): 1, (Partition([2, 2]), 0): 1}"
        )

    @pytest.mark.parametrize("k,n", [(1, 4), (2, 4), (2, 5), (3, 3), (3, 6)])
    @pytest.mark.parametrize("mode", ["classical", "quantum"])
    def test_matches_low_generator_path(self, k, n, mode):
        # the product path before Giambelli was applied directly: generators
        # above D_k rewritten in D_1..D_k, applied, then reduced
        ctx = GrassmannContext(k, n, mode)
        for lam in box_partitions(k, n):
            start = KVector.basis(partition_to_symbol(lam, k))
            for mu in box_partitions(k, n):
                op = expand_in_low_generators(giambelli_det(mu, k), k)
                w = reduce_kvector(apply_operator(op, start), ctx)
                want = {
                    (symbol_to_partition(s), d): c for s, qc in w.items() for d, c in qc.items()
                }
                assert multiply(lam, mu, ctx) == want

    @pytest.mark.parametrize("k,n", [(1, 4), (2, 4), (2, 5), (3, 6), (3, 7), (2, 8), (4, 8)])
    def test_quantum_matches_rim_hook_rule(self, k, n):
        # an oracle for the q-terms that shares no code with the Pieri rows
        ctx = GrassmannContext(k, n, "quantum")
        parts = box_partitions(k, n)
        for lam in parts:
            for mu in parts:
                assert multiply(lam, mu, ctx) == rim_hook_product(lam, mu, k, n), (lam, mu)

    def test_projective_space(self):
        n = 5
        ctx = GrassmannContext(1, n)
        for a in range(n):
            for b in range(n):
                product = multiply(P((a,)), P((b,)), ctx)
                if a + b <= n - 1:
                    assert product == expand({((a + b,), 0): 1})
                else:
                    assert product == {}


class TestIntRows:
    # the finite contexts key a term e_J at q-degree d by mask | d << n,
    # bit i-1 of mask set for each index i of J

    @staticmethod
    def key(indices, d, n):
        return sum(1 << (i - 1) for i in indices) + (d << n)

    @staticmethod
    def term(key, n):
        return tuple(i for i in range(1, n + 1) if key >> (i - 1) & 1), key >> n

    @pytest.mark.parametrize("quantum", [False, True], ids=["classical", "quantum"])
    def test_each_row_decodes_to_the_tuple_row_in_order(self, quantum):
        # the tuple row: the Pieri symbols with j_k <= n, then in quantum
        # mode the interleavings of (1, i_1, ..., i_{k-1}) by
        # i_k + h - n - 1 that end below i_k, at q-degree d + 1 (none when
        # i_1 = 1, where that tuple repeats 1)
        for n in range(3, 10):
            for k in range(1, min(4, n - 1) + 1):
                for lam in box_partitions(k, n):
                    indices = partition_to_symbol(lam, k).indices
                    for h in range(1, n - k + 1):
                        rows = {}
                        for d in (2, 0, 1):  # d = 2 first: it builds its degree-0 row
                            row = _build_row(rows, n, quantum, h, self.key(indices, d, n))
                            want = [(j, d) for j in pieri_symbols(indices, h) if j[-1] <= n]
                            if quantum and indices[0] > 1:
                                chains = pieri_symbols((1,) + indices[:-1], indices[-1] + h - n - 1)
                                want += [(j, d + 1) for j in chains if j[-1] < indices[-1]]
                            assert [self.term(t, n) for t in row] == want, (k, n, lam, h, d)

    def test_partition_of_a_mask_is_the_symbol_route(self):
        # one decoder, owned by exterior_core; its inverse rule is i_j = lam_{k+1-j} + j
        assert grassmann_contexts._partition_of is exterior_core._partition_of
        for mask in range(1 << 12):
            got = _partition_of(mask)
            assert type(got) is Partition
            assert partition_to_symbol(got, mask.bit_count()).indices == _indices(mask), mask

    def test_a_cold_product_builds_only_the_rows_it_reaches(self):
        # sigma_1 * sigma_lam applies D_1 once, to I(lam): one row, no table
        lam = P((35, 20, 10, 5, 1))
        _ROWS.clear()
        multiply(P((1,)), lam, GrassmannContext(5, 40))
        built = {(n, quantum, h): list(rows) for (n, quantum), by_h in _ROWS.items()
                 for h, rows in by_h.items() if rows}
        assert built == {(40, False, 1): [self.key(partition_to_symbol(lam, 5).indices, 0, 40)]}

    def test_no_row_store_is_tuple_keyed_after_a_quantum_table(self):
        # every key and target is an int; 126 symbols of G(4,9) times
        # h = 1..5 is 630 degree-0 rows, and the rows at d > 0 are the
        # degree-0 rows with d << n added
        _ROWS.clear()
        structure_table(GrassmannContext(4, 9, "quantum"))
        assert list(_ROWS) == [(9, True)]
        rows = [(key, row) for by_h in _ROWS.values() for h_rows in by_h.values()
                for key, row in h_rows.items()]
        assert all(type(key) is int and all(type(t) is int for t in row) for key, row in rows)
        assert 0 < sum(key >> 9 == 0 for key, _ in rows) <= 630

    def test_leaves_no_reference_cycle(self):
        assert_no_reference_cycle(
            _ROWS.clear,
            lambda: multiply(P((2, 1)), P((3, 2, 1)), GrassmannContext(3, 7, "quantum")),
            lambda: structure_table(GrassmannContext(3, 7, "quantum")),
            lambda: structure_table(GrassmannContext(3, 7)),
        )


class TestDuality:
    # sigma_lam * sigma_mu = 0 classically unless mu fits in lam's box
    # complement (Fulton, Young Tableaux, 9.4); multiply answers such pairs
    # before it builds any determinant or row
    @pytest.mark.parametrize("n", range(1, 8))
    def test_classical_products_match_the_tableau_oracle(self, n):
        # every ordered pair of every classical G(k,n), k = 1 and k = n too
        for k in range(1, n + 1):
            ctx = GrassmannContext(k, n)
            parts = box_partitions(k, n)
            for lam in parts:
                for mu in parts:
                    product = multiply(lam, mu, ctx)
                    want = {(nu, 0): c for nu, c in lr_expansion(lam, mu, k) if nu.fits_box(k, n)}
                    assert product == want, (k, n, lam, mu)
                    assert (product == {}) == (not fits_complement(lam, mu, k, n)), (k, n, lam, mu)

    @pytest.mark.parametrize("width", [1, 2, 3, 4, 7, 8, 15, 16])
    def test_packed_test_matches_row_by_row_where_the_field_width_changes(self, width):
        # each factor's record packs its parts into fields of
        # width.bit_length() + 1 bits, which grows past 1, 3, 7 and 15;
        # the reference is fits_complement, lam's complement built once
        for k in (1, 2, 3):
            parts = box_partitions(k, k + width)
            rows = [(mu.padded(k), _factor(mu, k, k + width)) for mu in parts]
            for lam in parts:
                complement = lam.box_complement(k, k + width).padded(k)
                low, _, guard, _, _ = _factor(lam, k, k + width)
                for padded, (_, high, _, _, _) in rows:
                    fits = all(m <= c for m, c in zip(padded, complement))
                    assert bool((low + high) & guard) != fits, (k, lam, padded)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_the_empty_class_survives_the_packed_test_at_k_equal_n(self, n):
        # one field of one bit per part, all zero
        low, high, guard, _, _ = _factor(P(), n, n)
        assert (low + high) & guard == 0
        assert multiply(P(), P(), GrassmannContext(n, n)) == {(P(), 0): 1}

    def test_vanishing_pairs_build_no_determinant(self, monkeypatch):
        ctx = GrassmannContext(3, 7)
        built = counted_laplace(monkeypatch)
        assert multiply(P((4, 2)), P((3, 3, 1)), ctx) == {}
        assert multiply(P((3, 3, 1)), P((4, 2)), ctx) == {}
        assert built == []

    @pytest.mark.parametrize("mode", ["classical", "quantum"])
    def test_out_of_box_factors_raise_before_the_duality_test(self, mode):
        # each pair below would vanish classically by duality; the box
        # check on either factor comes first, with the same text
        ctx = GrassmannContext(2, 4, mode)
        for lam, mu, bad in [((3,), (2, 2), (3,)), ((2, 2), (1, 1, 1), (1, 1, 1)),
                             ((2, 2, 1), (2,), (2, 2, 1)), ((2,), (5, 1), (5, 1))]:
            with pytest.raises(InvalidInputError) as err:
                multiply(P(lam), P(mu), ctx)
            assert str(err.value) == f"{bad} outside the 2x2 box"

    @pytest.mark.parametrize("k,n,lam,mu,want", [
        (2, 4, (2, 2), (2, 2), {((), 2): 1}),
        (2, 4, (2, 1), (2, 1), {((1, 1), 1): 1, ((2,), 1): 1}),
        (2, 4, (2, 2), (1,), {((1,), 1): 1}),
        (1, 4, (3,), (3,), {((2,), 1): 1}),
        (2, 5, (3, 3), (3, 3), {((1, 1), 2): 1}),
        (3, 6, (3, 3, 3), (3, 3, 3), {((), 3): 1}),
    ])
    def test_quantum_goldens_of_classically_vanishing_pairs(self, k, n, lam, mu, want):
        assert multiply(P(lam), P(mu), GrassmannContext(k, n)) == {}
        assert multiply(P(lam), P(mu), GrassmannContext(k, n, "quantum")) == expand(want)

    @pytest.mark.parametrize("k,n", [(1, 4), (2, 4), (2, 5), (3, 6)])
    def test_quantum_products_never_vanish(self, k, n):
        ctx = GrassmannContext(k, n, "quantum")
        parts = box_partitions(k, n)
        for lam in parts:
            for mu in parts:
                product = multiply(lam, mu, ctx)
                assert product, (lam, mu)
                if not fits_complement(lam, mu, k, n):
                    assert all(d > 0 for _, d in product), (lam, mu)


class TestTransposition:
    # G(k,n) and G(n-k,n) are isomorphic, sigma_lam <-> sigma_lam', q <-> q
    @pytest.mark.parametrize("k,n", [(2, 5), (2, 6), (3, 6), (3, 7)])
    @pytest.mark.parametrize("mode", ["classical", "quantum"])
    def test_every_pair(self, k, n, mode):
        ctx, dual = GrassmannContext(k, n, mode), GrassmannContext(n - k, n, mode)
        parts = box_partitions(k, n)
        for lam in parts:
            for mu in parts:
                got = multiply(conjugate(lam), conjugate(mu), dual)
                assert got == transposed(multiply(lam, mu, ctx)), (lam, mu)

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_random_pairs_of_g3_10(self, data):
        parts = box_partitions(3, 10)
        lam, mu = data.draw(st.sampled_from(parts)), data.draw(st.sampled_from(parts))
        mode = data.draw(st.sampled_from(["classical", "quantum"]))
        got = multiply(conjugate(lam), conjugate(mu), GrassmannContext(7, 10, mode))
        assert got == transposed(multiply(lam, mu, GrassmannContext(3, 10, mode)))


class TestBoxMonomials:
    def test_equal_to_the_filtered_determinant(self):
        # entries above the width are skipped while the determinant is
        # built; that must drop exactly the monomials with a part above it
        for k in range(1, 6):
            for lam in box_partitions(k, k + 5):
                det = giambelli_det(lam, k).terms
                for width in range(max(lam.parts, default=0), 6):
                    want = {m: c for m, c in det.items() if all(p <= width for p in m)}
                    assert _laplace(lam, k, width) == want, (lam, k, width)

    @pytest.mark.parametrize("mode", ["classical", "quantum"])
    def test_sigma1_times_a_large_staircase(self, mode):
        # the full determinant of (12, 11, ..., 3) at k = 10 has 96,076
        # monomials; only those inside the 10 x 12 box are built
        lam = P(tuple(range(12, 2, -1)))
        ctx = GrassmannContext(10, 22, mode)
        w = reduce_kvector(pieri_d(1, KVector.basis(partition_to_symbol(lam, 10))), ctx)
        want = {(symbol_to_partition(s), d): c for s, qc in w.items() for d, c in qc.items()}
        assert multiply(P((1,)), lam, ctx) == want
        assert multiply(lam, P((1,)), ctx) == want

    @pytest.mark.parametrize("mode", ["classical", "quantum"])
    def test_one_part_factor_builds_only_its_determinant(self, mode, monkeypatch):
        # sigma_1 has one in-box monomial, so the staircase's 1,588 are
        # never built, in either order
        lam = P(tuple(range(12, 2, -1)))
        ctx = GrassmannContext(10, 22, mode)
        for pair in ((P((1,)), lam), (lam, P((1,)))):
            built = counted_laplace(monkeypatch)
            multiply(*pair, ctx)
            assert built == [(P((1,)), 10, 12)]


class TestQuantumGiambelli:
    def test_no_q_correction(self):
        for (k, n) in ((2, 4), (2, 5), (3, 6)):
            ctx = GrassmannContext(k, n, "quantum")
            for lam in box_partitions(k, n):
                op = expand_in_low_generators(giambelli_det(lam, k), k)
                result = reduce_kvector(apply_operator(op, fundamental(k)), ctx)
                assert result == KVector.basis(partition_to_symbol(lam, k))


class TestPoincarePair:
    def test_complement_duality(self):
        ctx = GrassmannContext(2, 4)
        for lam in box_partitions(2, 4):
            for mu in box_partitions(2, 4):
                if lam.weight() + mu.weight() == 4:
                    expected = 1 if mu == lam.box_complement(2, 4) else 0
                    assert poincare_pair(lam, mu, ctx) == expected

    def test_off_degree(self):
        ctx = GrassmannContext(2, 4)
        assert poincare_pair(P((1,)), P((1,)), ctx) == 0

    def test_golden(self):
        ctx = GrassmannContext(2, 4)
        assert poincare_pair(P((2,)), P((2,)), ctx) == 1
        assert poincare_pair(P((2,)), P((1, 1)), ctx) == 0

    def test_mode_validation(self):
        with pytest.raises(InvalidInputError):
            poincare_pair(P(), P(), GrassmannContext(2, 4, "quantum"))


class TestStructureTable:
    def test_schema(self):
        ctx = GrassmannContext(2, 4, "quantum")
        table = structure_table(ctx)
        payload = json.loads(table.to_json())
        assert payload["context"] == {"k": 2, "n": 4, "mode": "quantum"}
        assert len(payload["entries"]) == 36  # 6 box partitions, all pairs
        lambdas = [tuple(e["lambda"]) for e in payload["entries"]]
        assert lambdas == sorted(lambdas)
        for entry in payload["entries"]:
            for term in entry["terms"]:
                assert set(term) == {"nu", "d", "coeff"}
                assert term["coeff"] > 0
                assert term["d"] >= 0

    @pytest.mark.parametrize("mode,digest", [
        ("classical", "4d603c96fd40cd8e083df48e11053a8165585a8b1364ce4f7e5aab6c9e9ad9d0"),
        ("quantum", "838de69e6bba212efdd20262290d5abc4334231e81c010cf2ac8ad5d5ed688a5"),
    ], ids=["classical", "quantum"])
    def test_golden_digest_g49(self, mode, digest):
        # sha256 of the whole table's JSON, recorded while the finite
        # contexts still had a row cache of their own
        text = structure_table(GrassmannContext(4, 9, mode)).to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_fields(self):
        ctx = GrassmannContext(2, 4)
        table = structure_table(ctx, max_weight=1)
        assert table.context == ctx
        assert set(table.entries) == {(P(), P()), (P(), P((1,))), (P((1,)), P()), (P((1,)), P((1,)))}

    def test_classical_d_zero_only(self):
        table = structure_table(GrassmannContext(2, 4))
        for products in table.entries.values():
            assert all(d == 0 for (_, d) in products)

    def test_max_weight_cap(self):
        table = structure_table(GrassmannContext(2, 4), max_weight=1)
        assert len(table.entries) == 4  # pairs of {} and {1}

    @pytest.mark.parametrize("mode", ["classical", "quantum"])
    def test_multiply_commutes_on_every_pair_of_g48(self, mode):
        # the table multiplies each unordered pair once, so the
        # commutativity it relies on is checked on multiply itself
        ctx = GrassmannContext(4, 8, mode)
        parts = box_partitions(4, 8)
        for lam in parts:
            for mu in parts:
                assert multiply(lam, mu, ctx) == multiply(mu, lam, ctx), (lam, mu)

    @pytest.mark.parametrize("mode", ["classical", "quantum"])
    def test_no_two_entries_share_a_dict(self, mode):
        entries = structure_table(GrassmannContext(3, 6, mode)).entries
        assert len({id(product) for product in entries.values()}) == len(entries) == 20 ** 2
        parts = box_partitions(3, 6)
        assert list(entries) == [(lam, mu) for lam in parts for mu in parts]


def test_box_partitions():
    parts = box_partitions(2, 4)
    assert len(parts) == 6
    assert P((2, 2)) in parts
    assert box_partitions(1, 5) == [P(), P((1,)), P((2,)), P((3,)), P((4,))]
    assert box_partitions(2, 4, 0) == [P()]
    with pytest.raises(InvalidInputError):
        box_partitions(2, 4, -1)


def test_box_partitions_in_lexicographic_order():
    # reference: every weakly decreasing k-tuple over 0..n-k, zeros dropped
    for n in range(1, 8):
        for k in range(1, n + 1):
            for cap in (None, 0, 2, 5):
                want = sorted(
                    tuple(x for x in t if x)
                    for t in itertools.product(range(n - k + 1), repeat=k)
                    if list(t) == sorted(t, reverse=True) and (cap is None or sum(t) <= cap)
                )
                assert [p.parts for p in box_partitions(k, n, cap)] == want


def test_box_partitions_leaves_no_reference_cycle():
    assert_no_reference_cycle(lambda: box_partitions(4, 9), lambda: box_partitions(3, 7, 5))


def test_every_lru_cache_is_found_where_it_says_it_lives():
    # a cache report walks each module's namespace and keeps the caches
    # whose __module__ is that module, so each cache must be the attribute
    # its own __module__ and __name__ name
    caches = {}
    for info in pkgutil.iter_modules(schubert.__path__, "schubert."):
        for value in vars(importlib.import_module(info.name)).values():
            if callable(getattr(value, "cache_info", None)):
                caches[id(value)] = value
    for cache in caches.values():
        assert getattr(sys.modules[cache.__module__], cache.__name__, None) is cache, cache
    names = sorted(f"{c.__module__}.{c.__name__}" for c in caches.values())
    assert names == [
        "schubert.grassmann_contexts._factor",
        "schubert.schur_oracle._lr_strips",
        "schubert.schur_oracle.lr_expansion",
    ]
