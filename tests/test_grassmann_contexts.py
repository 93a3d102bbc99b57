import gc
import hashlib
import itertools
import json
import random

import pytest

from schubert import derivations
from schubert.derivations import pieri_d
from schubert.exterior_core import (
    InvalidInputError,
    KVector,
    Partition,
    QInt,
    fundamental,
    partition_to_symbol,
    symbol_to_partition,
)
from schubert.giambelli_ring import expand_in_low_generators, giambelli_det
from schubert.derivations import apply_operator
from schubert.grassmann_contexts import (
    GrassmannContext,
    _box_monomials,
    box_partitions,
    multiply,
    multiply_expansion,
    poincare_pair,
    quantum_pieri,
    reduce_kvector,
    structure_table,
    unit_expansion,
)
from schubert.schur_oracle import rim_hook_product

P = Partition


def apply_then_reduce(lam, mu, ctx):
    """sigma_lam * sigma_mu as reduce(Giambelli(mu) e^{I(lam)}), as a product dict."""
    start = KVector.basis(partition_to_symbol(lam, ctx.k))
    w = reduce_kvector(apply_operator(giambelli_det(mu, ctx.k), start), ctx)
    return {(symbol_to_partition(s), d): c for s, qc in w.items() for d, c in qc.items()}


def expand(pairs):
    return {(P(nu), d): c for (nu, d), c in pairs.items()}


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

    def test_index_above_n_rejected(self):
        ctx = GrassmannContext(2, 4, "quantum")
        with pytest.raises(InvalidInputError):
            quantum_pieri(1, KVector.basis((1, 5)), ctx)
        # only the second term is out of range, and no row is built for it
        derivations._row.cache_clear()
        v = KVector.basis((1, 2)) + KVector.basis((3, 5))
        assert [i for i, _ in v.terms] == [(1, 2), (3, 5)]
        with pytest.raises(InvalidInputError):
            quantum_pieri(1, v, ctx)
        assert derivations._row.cache_info().currsize == 0


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


class TestBoxMonomials:
    def test_equal_to_the_filtered_determinant(self):
        # entries above the width are skipped while the determinant is
        # built; that must drop exactly the monomials with a part above it
        for k in range(1, 6):
            for lam in box_partitions(k, k + 5):
                det = giambelli_det(lam, k).terms
                for width in range(max(lam.parts, default=0), 6):
                    want = {m: c for m, c in det.items() if all(p <= width for p in m)}
                    assert dict(_box_monomials(lam.parts, k, width)) == want, (lam, k, width)

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
    def test_one_part_factor_builds_only_its_determinant(self, mode):
        # sigma_1 has one in-box monomial, so the staircase's 1,588 are
        # never built, in either order
        lam = P(tuple(range(12, 2, -1)))
        ctx = GrassmannContext(10, 22, mode)
        for pair in ((P((1,)), lam), (lam, P((1,)))):
            _box_monomials.cache_clear()
            multiply(*pair, ctx)
            assert _box_monomials.cache_info().misses == 1


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
    gc.collect()
    gc.disable()
    try:
        box_partitions(4, 9)
        box_partitions(3, 7, 5)
        assert gc.collect() == 0
    finally:
        gc.enable()
