import json

import pytest

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
    box_partitions,
    multiply,
    multiply_expansion,
    poincare_pair,
    quantum_pieri,
    reduce_kvector,
    structure_table,
    unit_expansion,
)

P = Partition


def expand(pairs):
    return {(P(nu), d): c for (nu, d), c in pairs.items()}


class TestContext:
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            GrassmannContext(3, 2)
        with pytest.raises(InvalidInputError):
            GrassmannContext(2, 4, "weird")

    def test_modes(self):
        assert GrassmannContext(2, 4).mode == "classical"


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
        for k in (1, 2, 3):
            for n in range(k + 1, 8):
                ctx = GrassmannContext(k, n, "quantum")
                for lam in box_partitions(k, n):
                    v = KVector.basis(partition_to_symbol(lam, k))
                    for h in range(1, n - k + 1):
                        assert quantum_pieri(h, v, ctx) == reduce_kvector(
                            pieri_d(h, v), ctx
                        )

    def test_range_validation(self):
        ctx = GrassmannContext(2, 4, "quantum")
        with pytest.raises(InvalidInputError):
            quantum_pieri(3, fundamental(2), ctx)
        with pytest.raises(InvalidInputError):
            quantum_pieri(1, fundamental(2), GrassmannContext(2, 4))


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

    @pytest.mark.parametrize("k,n", [(2, 4), (2, 5), (3, 6)])
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
