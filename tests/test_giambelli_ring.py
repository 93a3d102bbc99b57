import hashlib
import json
from fractions import Fraction
from itertools import combinations, permutations
from math import gcd

import pytest

from schubert import derivations, giambelli_ring
from schubert.derivations import DPolynomial, _series_inverse, apply_operator, pieri_d
from schubert.exterior_core import (
    InvalidInputError,
    KVector,
    Partition,
    fundamental,
    partition_to_symbol,
)
from schubert.giambelli_ring import (
    PresentationReport,
    _laplace,
    _low_generators,
    expand_in_low_generators,
    giambelli_det,
    reduce_generator,
    render_presentation,
    verify_presentation,
    y_polynomials,
)
from schubert.grassmann_contexts import (
    GrassmannContext,
    box_partitions,
    reduce_kvector,
)


def d(h):
    return DPolynomial.generator(h)


def test_engine_imports_at_module_level_one_way():
    # every package import sits at module level, so the import graph is
    # read off the top of each file; the one exception is the oracle's
    # giambelli_det, which keeps the oracle free of engine code on import.
    # grassmann_contexts, which giambelli_ring imports, does not import it back.
    import ast
    import pathlib

    import schubert

    nested, top = [], {}
    for path in sorted(pathlib.Path(schubert.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        top[path.stem] = {node.module for node in tree.body
                          if isinstance(node, ast.ImportFrom) and node.level}
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested += [(path.stem, fn.name, node.module, [a.name for a in node.names])
                           for node in ast.walk(fn)
                           if isinstance(node, ast.ImportFrom) and node.level]
    assert nested == [("schur_oracle", "verify_jacobi_trudi", "giambelli_ring", ["giambelli_det"])]
    assert "giambelli_ring" not in top["grassmann_contexts"]
    assert "grassmann_contexts" in top["giambelli_ring"]


class TestGiambelliDet:
    def test_one_by_one(self):
        assert giambelli_det(Partition((5,)), 1) == d(5)

    def test_hook(self):
        assert giambelli_det(Partition((2, 1)), 2) == d(1) * d(2) - d(3)

    def test_column(self):
        assert giambelli_det(Partition((1, 1)), 2) == d(1) * d(1) - d(2)

    def test_empty(self):
        assert giambelli_det(Partition(), 3) == DPolynomial.identity()

    def test_length_violation(self):
        with pytest.raises(InvalidInputError):
            giambelli_det(Partition((1, 1, 1)), 2)

    def test_negative_k_rejected(self):
        with pytest.raises(InvalidInputError, match="k must be nonnegative"):
            giambelli_det(Partition(), -1)

    def test_action_is_basis_vector(self):
        for k in (1, 2, 3):
            for lam in box_partitions(k, k + 4):
                result = apply_operator(giambelli_det(lam, k), fundamental(k))
                assert result == KVector.basis(partition_to_symbol(lam, k))

    def test_matches_permutation_sum(self):
        # the Leibniz formula det = sum over permutations of signed products
        for k in range(1, 6):
            for lam in box_partitions(k, k + 5):
                r = tuple(reversed(lam.padded(k)))
                want = DPolynomial.zero()
                for perm in permutations(range(1, k + 1)):
                    subs = [r[j - 1] + j - perm[j - 1] for j in range(1, k + 1)]
                    if min(subs) < 0:
                        continue
                    inversions = sum(
                        1 for a in range(k) for b in range(a + 1, k) if perm[a] > perm[b]
                    )
                    want = want + DPolynomial.monomial(
                        Partition(sorted(subs, reverse=True)), (-1) ** inversions
                    )
                assert giambelli_det(lam, k) == want, (lam, k)

    def test_terms_are_the_laplace_dict(self):
        # the determinant keeps the part tuples _laplace builds, unwrapped
        for k in range(6):
            for lam in box_partitions(k, k + 5):
                terms = giambelli_det(lam, k).terms
                width = max(lam.parts, default=0) + k - 1
                assert terms == _laplace(lam, k, width), (lam, k)
                assert all(type(mono) is tuple for mono in terms), (lam, k)

    def test_k7_acts_as_basis_vector(self):
        lam = Partition((2, 1, 1))
        det7 = giambelli_det(lam, 7)
        assert apply_operator(det7, fundamental(7)) == KVector.basis(
            partition_to_symbol(lam, 7)
        )
        assert det7.is_homogeneous() and det7.degree() == 4


class TestReduceGenerator:
    def test_projective_line_case(self):
        assert reduce_generator(2, 1) == d(1) * d(1)

    def test_k2_h3(self):
        assert reduce_generator(3, 2) == 2 * (d(1) * d(2)) - d(1) * d(1) * d(1)

    def test_preconditions(self):
        with pytest.raises(InvalidInputError):
            reduce_generator(2, 2)
        with pytest.raises(InvalidInputError, match="k must be positive"):
            reduce_generator(3, 0)
        with pytest.raises(InvalidInputError, match="h=0 must exceed k=0"):
            reduce_generator(0, 0)
        with pytest.raises(InvalidInputError, match="k must be positive"):
            expand_in_low_generators(d(3), 0)

    def test_parts_bounded_and_homogeneous(self):
        for k in (1, 2, 3):
            for h in range(k + 1, k + 5):
                p = reduce_generator(h, k)
                assert p.max_part() <= k
                assert p.is_homogeneous() and p.degree() == h

    def test_action_matches_pieri(self):
        for k in (1, 2, 3):
            for h in range(k + 1, k + 5):
                p = reduce_generator(h, k)
                for v in _spanning_set(k, 8):
                    assert apply_operator(p, v) == pieri_d(h, v)

    def test_low_generators_up_to_14(self):
        for k in range(1, 7):
            gens = _low_generators(k, 14)
            assert len(gens) == 15 and gens[0] == DPolynomial.identity()
            spanning = _spanning_set(k, 6)
            for h in range(1, 15):
                assert gens[h] == (d(h) if h <= k else reduce_generator(h, k))
                for v in spanning:
                    assert apply_operator(gens[h], v) == pieri_d(h, v)


class TestFreshResults:
    """Results are built per call: a caller that mutates one cannot change
    the next call's answer."""

    @pytest.mark.parametrize("call", [
        lambda: reduce_generator(3, 2),
        lambda: giambelli_det(Partition((2, 1)), 2),
        lambda: expand_in_low_generators(d(3), 2),
        lambda: y_polynomials(4, 2)[3],
    ], ids=["reduce-generator", "giambelli-det", "expand", "y-polynomials"])
    def test_mutating_a_result_leaves_the_next_call_alone(self, call):
        expected = dict(call().terms)
        call().terms.clear()
        call().terms[(9,)] = 1
        assert call().terms == expected


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


def test_expand_in_low_generators():
    p = d(1) * d(4) - d(5)
    k = 2
    reduced = expand_in_low_generators(p, k)
    assert reduced.max_part() <= k
    for v in _spanning_set(k, 6):
        assert apply_operator(reduced, v) == apply_operator(p, v)


class TestYPolynomials:
    def test_first_components(self):
        ys = y_polynomials(5, 2)  # cutoff n-k = 3
        assert ys[0] == DPolynomial.identity()
        assert ys[1] == d(1)
        assert ys[2] == d(1) * d(1) - d(2)

    def test_short_cutoff(self):
        ys = y_polynomials(2, 1)  # cutoff 1: inverse of 1 + D1 t
        assert ys[2] == d(1) * d(1)

    def test_precondition(self):
        with pytest.raises(InvalidInputError):
            y_polynomials(3, 3)


def _monomials_of_degree(degree, k):
    out = []

    def rec(prefix, rem, cap):
        if rem == 0:
            out.append(Partition(prefix))
            return
        for part in range(1, min(cap, rem) + 1):
            rec(prefix + (part,), rem - part, part)

    rec((), degree, min(degree, k))
    return out


def _action_matrix(ops, k, degree):
    """Rows: weight-`degree` symbols; columns: operators acting on the
    fundamental k-vector."""
    targets = sorted(
        {sym for op in ops for sym, _ in apply_operator(op, fundamental(k)).items()}
    )
    matrix = []
    for sym in targets:
        row = []
        for op in ops:
            row.append(apply_operator(op, fundamental(k)).coefficient(sym).constant_term())
        matrix.append(row)
    return matrix


def _rank(matrix):
    a = [[Fraction(x) for x in row] for row in matrix]
    rows, r = len(a), 0
    cols = len(a[0]) if rows else 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if a[i][c]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        for i in range(r + 1, rows):
            if a[i][c]:
                f = a[i][c] / a[r][c]
                for j in range(c, cols):
                    a[i][j] -= f * a[r][j]
        r += 1
    return r


def _det(matrix):
    m = len(matrix)
    if m == 0:
        return 1
    total = 0
    from itertools import permutations

    for perm in permutations(range(m)):
        inv = sum(
            1 for i in range(m) for j in range(i + 1, m) if perm[i] > perm[j]
        )
        prod = (-1) ** inv
        for i in range(m):
            prod *= matrix[i][perm[i]]
        total += prod
    return total


class TestOperatorLattices:
    def test_monomials_act_independently(self):
        # monomials in D_1..D_k of one degree act on the fundamental vector
        # with full column rank
        for k in (1, 2, 3):
            for degree in range(1, 6):
                monos = _monomials_of_degree(degree, k)
                ops = [DPolynomial.monomial(m) for m in monos]
                matrix = _action_matrix(ops, k, degree)
                assert _rank(matrix) == len(ops)

    def test_determinant_operators_are_a_basis(self):
        # determinant operators of one degree act as distinct basis vectors,
        # so their action matrix is a permutation matrix (unimodular)
        for k in (1, 2, 3):
            for degree in range(1, 6):
                lams = [
                    lam
                    for lam in _monomials_of_degree(degree, k + degree)
                    if lam.length() <= k
                ]
                ops = [giambelli_det(lam, k) for lam in lams]
                matrix = _action_matrix(ops, k, degree)
                assert len(matrix) == len(ops)
                assert abs(_det(matrix)) == 1

    def test_annihilated_determinants_reduce_to_zero(self):
        # when the determinant's action lands entirely above rank n, its
        # classical reduction vanishes (ideal membership at the action level)
        k, n = 2, 4
        ctx = GrassmannContext(k, n, "classical")
        for lam in _monomials_of_degree(5, 6):
            if lam.length() > k:
                continue
            action = apply_operator(giambelli_det(lam, k), fundamental(k))
            if all(sym.indices[-1] > n for sym, _ in action.items()):
                reduced = expand_in_low_generators(giambelli_det(lam, k), k)
                assert reduce_kvector(
                    apply_operator(reduced, fundamental(k)), ctx
                ).is_zero()


class TestPresentations:
    @pytest.mark.parametrize("k,n", [(1, 4), (2, 4), (2, 5), (3, 6)])
    @pytest.mark.parametrize("mode", ["classical", "quantum"])
    def test_verify(self, k, n, mode):
        report = verify_presentation(k, n, mode)
        assert report.ok, report.failures()

    def test_failure_carries_witness(self):
        report = verify_presentation(2, 4, "classical")
        for _, holds, witness in report.checked_relations:
            if not holds:
                assert not witness.is_zero()

    def test_finite_modes_only(self):
        with pytest.raises(InvalidInputError, match="unknown mode 'infinite'"):
            verify_presentation(2, 4, "infinite")

    def test_report_fields(self):
        report = verify_presentation(2, 4, "classical")
        assert (report.k, report.n, report.mode) == (2, 4, "classical")
        assert report.ok and report.failures() == []
        with pytest.raises(AttributeError):
            report.mode = "quantum"

    def test_failing_report(self):
        witness = KVector.basis((1, 3))
        report = PresentationReport(2, 4, "classical", [("holds", True, KVector.zero(2)),
                                                        ("fails", False, witness)], [], [])
        assert not report.ok
        assert report.failures() == [("fails", witness)]

    @pytest.mark.parametrize("k,n", [(1, 4), (2, 5), (3, 7), (4, 4)])
    def test_report_carries_the_series(self, k, n):
        for mode in ("classical", "quantum"):
            report = verify_presentation(k, n, mode)
            assert report.generators == _low_generators(k, n)
            assert report.ys == (y_polynomials(n, k) if k < n else [])

    @pytest.mark.parametrize("k,n,mode", [(1, 4, "quantum"), (2, 5, "classical"),
                                          (3, 7, "quantum"), (4, 8, "classical")])
    def test_one_series_pass_per_presentation(self, monkeypatch, k, n, mode):
        # E up to degree n, its prefix inverted into the D-form generators,
        # and the Y-series: three inversions, none of them while rendering
        calls = []

        def counted(coeffs, max_degree):
            calls.append(max_degree)
            return _series_inverse(coeffs, max_degree)

        monkeypatch.setattr(derivations, "_series_inverse", counted)
        monkeypatch.setattr(giambelli_ring, "_series_inverse", counted)
        report = verify_presentation(k, n, mode)
        assert len(calls) == 3
        render_presentation(report)
        assert len(calls) == 3

    def test_render(self):
        text = render_presentation(verify_presentation(1, 4, "quantum"))
        assert "D1^4 = q" in text
        assert "FAIL" not in text
        classical = render_presentation(verify_presentation(2, 4, "classical"))
        assert "D3" in classical and "Y-form" in classical


def test_determinant_and_presentation_text_unchanged():
    # one sha256 over the reprs, items() and JSON terms of every
    # determinant in the k x 5 boxes, k <= 5, then over rendered
    # presentations in both modes: a change of the monomial representation
    # must leave every byte of this output as it is
    digest = hashlib.sha256()
    for k in range(1, 6):
        for lam in box_partitions(k, k + 5):
            det = giambelli_det(lam, k)
            digest.update(repr(det).encode())
            digest.update(repr(det.items()).encode())
            digest.update(json.dumps([[list(m), c] for m, c in det.items()]).encode())
    for k, n in [(1, 4), (2, 5), (3, 7), (4, 8)]:
        for mode in ("classical", "quantum"):
            digest.update(render_presentation(verify_presentation(k, n, mode)).encode())
    assert digest.hexdigest() == "1b4140ec330440ae173ddb81bf1458ea75c86067ba837052e442ab2256a1e6f7"
