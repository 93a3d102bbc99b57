import ast
import inspect
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from schubert import derivations, schur_oracle
from schubert.derivations import DPolynomial, inverse_components
from schubert.exterior_core import InvalidInputError, KVector, Partition, QInt, accumulate, signed_sorted
from schubert.grassmann_contexts import box_partitions
from schubert.schur_oracle import (
    _lr_strips,
    leibniz_d,
    leibniz_raw_terms,
    lr_coefficient,
    lr_expansion,
    rim_hook_product,
    _schur_horner,
    verify_jacobi_trudi,
)

from rim_hook_reference import mismatches
from test_derivations import mixed_kvectors
from polynomial_reference import (
    LIMIT,
    complete_homogeneous,
    exponents,
    is_symmetric,
    leading_exponent,
    multiply,
    polynomial,
    schur_decompose,
    schur_expand,
)
from untraced import assert_no_reference_cycle

P = Partition


def _imports(module):
    """(enclosing top-level def or "", level, module or "", name) of every
    import in a module's source, nested ones included, sorted."""
    return sorted(
        (getattr(top, "name", ""), getattr(node, "level", 0), getattr(node, "module", "") or "", alias.name)
        for top in ast.parse(inspect.getsource(module)).body
        for node in ast.walk(top) if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    )


small_partitions = st.lists(st.integers(1, 4), max_size=3).map(
    lambda xs: P(sorted(xs, reverse=True))
)


class TestMultiPolynomial:
    """The reference's packed polynomials in x_1..x_k."""

    def test_arithmetic(self):
        x = polynomial(2, {(1, 0): 1})
        y = polynomial(2, {(0, 1): 1})
        assert multiply(x, y, 2) == polynomial(2, {(1, 1): 1})
        assert multiply(x, polynomial(2, {(0, 0): 1}), 2) == x
        assert multiply(x, {}, 2) == {} == polynomial(2, {(1, 0): 0})

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            polynomial(2, {(1,): 1})
        with pytest.raises(InvalidInputError):
            polynomial(2, {(-1, 0): 1})

    def test_symmetry_detection(self):
        assert is_symmetric(schur_expand(P((2, 1)), 3), 3)
        assert not is_symmetric(polynomial(2, {(1, 0): 1}), 2)


# A tuple-keyed reference for the packed polynomials: {exponent tuple: nonzero int}.


def _ref(pairs) -> dict:
    d = {}
    for e, c in pairs:
        d[e] = d.get(e, 0) + c
    return {e: c for e, c in d.items() if c}


def _ref_mul(a: dict, b: dict) -> dict:
    return _ref(
        (tuple(x + y for x, y in zip(e1, e2)), c1 * c2)
        for e1, c1 in a.items()
        for e2, c2 in b.items()
    )


def _ref_symmetric(d: dict) -> bool:
    return all(d.get(p, 0) == c for e, c in d.items() for p in permutations(e))


@st.composite
def polynomial_pairs(draw):
    """(k, a, b): term lists over k variables, possibly empty, with zero
    coefficients, repeated exponents, b often cancelling part of a, and
    symmetrised lists so that symmetric polynomials occur."""
    k = draw(st.integers(0, 5))
    exps = st.tuples(*[st.integers(0, 3)] * k)
    terms = st.lists(st.tuples(exps, st.integers(-2, 2)), max_size=6)
    a, b = draw(terms), draw(terms)
    if draw(st.booleans()):
        b = b + [(e, -c) for e, c in a[: draw(st.integers(0, len(a)))]]
    if draw(st.booleans()):
        a = [(p, c) for e, c in a for p in set(permutations(e))]
    return k, a, b


class TestMultiPolynomialAgainstReference:
    """The reference's packed polynomials against the tuple-keyed ones."""

    @given(polynomial_pairs(), st.integers(-3, 3))
    @settings(max_examples=300, deadline=None)
    def test_matches_tuple_keyed_reference(self, case, c):
        k, a, b = case
        pa, pb = polynomial(k, a), polynomial(k, b)
        ra, rb = _ref(a), _ref(b)
        cases = [
            (pa, ra),
            (pb, rb),
            (multiply(pa, pb, k), _ref_mul(ra, rb)),
            (multiply(pa, polynomial(k, {(0,) * k: c}), k), _ref((e, v * c) for e, v in ra.items())),
        ]
        for got, want in cases:
            assert exponents(got, k) == want and list(exponents(got, k)) == sorted(want)
            assert got == polynomial(k, reversed(list(want.items())))
            if want:
                assert leading_exponent(got, k) == max(want)
            assert is_symmetric(got, k) == _ref_symmetric(want)
        assert (pa == pb) == (ra == rb)

    def test_exponent_limit_in_constructor(self):
        top = LIMIT - 1
        assert exponents(polynomial(2, {(top, top): 1}), 2) == {(top, top): 1}
        for exp in ((LIMIT, 0), (0, LIMIT), (LIMIT + 1, 0)):
            with pytest.raises(InvalidInputError):
                polynomial(2, {exp: 1})

    def test_exponent_limit_in_product(self):
        top = LIMIT - 1
        y_top = polynomial(2, {(0, top): 1})
        # an exponent of LIMIT in x_2 must raise, not carry into x_1
        with pytest.raises(InvalidInputError):
            multiply(y_top, polynomial(2, {(0, 1): 1}), 2)
        with pytest.raises(InvalidInputError):
            multiply(polynomial(2, {(top, 0): 1}), polynomial(2, {(1, 5): 1}), 2)
        assert multiply(y_top, polynomial(2, {(1, 0): 1}), 2) == polynomial(2, {(1, top): 1})
        half = polynomial(1, {(LIMIT // 2,): 1})
        assert multiply(half, polynomial(1, {(LIMIT // 2 - 1,): 1}), 1) == polynomial(1, {(top,): 1})
        with pytest.raises(InvalidInputError):
            multiply(half, half, 1)
        with pytest.raises(InvalidInputError):
            schur_expand(P((LIMIT,)), 1)


def _hook_content(lam: Partition, k: int) -> int:
    """s_lam(1, ..., 1) in k variables: the product over cells of
    (k + content) / hook."""
    parts = lam.parts
    conj = [sum(1 for p in parts if p > j) for j in range(parts[0] if parts else 0)]
    value = Fraction(1)
    for i, row in enumerate(parts):
        for j in range(row):
            value *= Fraction(k + j - i, (row - j - 1) + (conj[j] - i - 1) + 1)
    return int(value)


class TestSchurExpand:
    """The reference's s_lam, counted tableau by tableau."""

    @pytest.mark.parametrize("k", range(5))
    def test_matches_cell_by_cell_tableaux(self, k):
        # the coefficient of x^alpha for a partition alpha is the Kostka
        # number K_{lam,alpha}, the coefficient of s_lam in h_alpha, which
        # the library's Pieri strips give; the sum of all is the dimension
        kostka = {}
        for alpha in box_partitions(k, k + 16, 16):
            for shape, c in _schur_horner([(alpha.parts, 1)], k).items():
                kostka.setdefault(P(shape), {})[alpha.padded(k)] = c
        for lam in box_partitions(4, 8):
            got = schur_expand(lam, k)
            assert (got == {}) == (lam.length() > k)
            assert sum(got.values()) == _hook_content(lam, k)
            dominant = {e: c for e, c in exponents(got, k).items() if list(e) == sorted(e)[::-1]}
            assert dominant == kostka.get(lam, {}), lam

    def test_single_box(self):
        assert schur_expand(P((1,)), 2) == polynomial(2, {(1, 0): 1, (0, 1): 1})

    def test_hook(self):
        assert schur_expand(P((2, 1)), 2) == polynomial(2, {(2, 1): 1, (1, 2): 1})

    def test_too_long_vanishes(self):
        assert schur_expand(P((1, 1, 1)), 2) == {}

    def test_column_is_elementary(self):
        assert schur_expand(P((1, 1)), 3) == polynomial(
            3, {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1}
        )

    def test_row_is_complete_homogeneous(self):
        for i in range(5):
            for k in range(5):
                assert schur_expand(P((i,)), k) == complete_homogeneous(i, k)

    @given(small_partitions, st.integers(1, 3))
    @settings(max_examples=50, deadline=None)
    def test_symmetric(self, lam, k):
        assert is_symmetric(schur_expand(lam, k), k)

    @pytest.mark.parametrize("k", range(5))
    def test_symmetric_on_the_4x4_box(self, k):
        # schur_decompose reads a symmetric polynomial at its leading exponents
        for lam in box_partitions(k, k + 4):
            assert is_symmetric(schur_expand(lam, k), k), lam


class TestSchurDecompose:
    def test_schur_is_its_own_expansion(self):
        assert schur_decompose(schur_expand(P((2, 1)), 3), 3) == {P((2, 1)): 1}

    def test_square_of_s1(self):
        s1 = schur_expand(P((1,)), 2)
        assert schur_decompose(multiply(s1, s1, 2), 2) == {P((2,)): 1, P((1, 1)): 1}

    def test_h_product(self):
        product = multiply(complete_homogeneous(2, 3), complete_homogeneous(1, 3), 3)
        assert schur_decompose(product, 3) == {P((3,)): 1, P((2, 1)): 1}

    def test_non_symmetric_rejected(self):
        with pytest.raises(InvalidInputError):
            schur_decompose(polynomial(2, {(0, 1): 1}), 2)


class TestLRCoefficient:
    def test_basic(self):
        assert lr_coefficient(P((1,)), P((1,)), P((2,)), 2) == 1
        assert lr_coefficient(P((2, 1)), P((2, 1)), P((3, 2, 1)), 3) == 2

    def test_grading(self):
        assert lr_coefficient(P((1,)), P((1,)), P((3,)), 3) == 0

    @pytest.mark.parametrize("args", [((1, 1, 1), (1,), (2, 1, 1)), ((1,), (1, 1, 1), (2, 1, 1)),
                                      ((1,), (1,), (1, 1, 1))], ids=["lam", "mu", "nu"])
    def test_partition_longer_than_k_rejected(self, args):
        with pytest.raises(InvalidInputError, match="longer than k=2"):
            lr_coefficient(*args, 2)

    @given(small_partitions, small_partitions)
    @settings(max_examples=30, deadline=None)
    def test_symmetric_and_nonnegative(self, lam, mu):
        k = 3
        a = schur_decompose(multiply(schur_expand(lam, k), schur_expand(mu, k), k), k)
        b = schur_decompose(multiply(schur_expand(mu, k), schur_expand(lam, k), k), k)
        assert a == b
        assert all(c >= 0 for c in a.values())


def _polynomial_route(lam, mu, k):
    """lr_expansion before the tableau rule: multiply the two Schur
    polynomials in k variables and peel the product with schur_decompose."""
    dec = schur_decompose(multiply(schur_expand(lam, k), schur_expand(mu, k), k), k)
    return tuple(sorted(dec.items(), key=lambda t: t[0].parts))


def _assert_same(lam, mu, k):
    got, want = lr_expansion(lam, mu, k), _polynomial_route(lam, mu, k)
    assert repr(got) == repr(want), (lam, mu, k)


class TestLRTableaux:
    @pytest.mark.parametrize("k", range(4))
    def test_matches_polynomial_route_on_the_3x3_box(self, k):
        # for k < 3 some factors are longer than k
        for lam in box_partitions(3, 6):
            for mu in box_partitions(3, 6):
                _assert_same(lam, mu, k)

    def test_matches_polynomial_route_on_the_4x4_box(self):
        for lam in box_partitions(4, 8):
            for mu in box_partitions(4, 8):
                _assert_same(lam, mu, 4)

    @given(small_partitions, small_partitions, st.integers(0, 5))
    @settings(max_examples=60, deadline=None)
    def test_matches_polynomial_route_with_spare_rows(self, lam, mu, k):
        _assert_same(lam, mu, k)

    def test_factor_longer_than_k_is_empty(self):
        for lam, mu, k in (((1, 1, 1), (1,), 2), ((1,), (2, 2, 1), 2), ((1,), (1,), 0), ((3, 2, 1), (3, 2, 1), 1)):
            assert lr_expansion(P(lam), P(mu), k) == ()
            _assert_same(P(lam), P(mu), k)

    def test_k_zero_and_one(self):
        assert lr_expansion(P(), P(), 0) == ((P(), 1),)
        assert lr_expansion(P((2,)), P(), 0) == ()
        for a in range(4):
            for b in range(4):
                assert lr_expansion(P((a,)), P((b,)), 1) == ((P((a + b,)), 1),)
        for lam in box_partitions(2, 5):
            for mu in box_partitions(2, 5):
                for k in (0, 1):
                    _assert_same(lam, mu, k)

    def test_empty_partition_is_the_unit(self):
        for k in range(5):
            for lam in box_partitions(k, k + 3):
                assert lr_expansion(P(), lam, k) == lr_expansion(lam, P(), k) == ((lam, 1),)
                _assert_same(P(), lam, k)
                _assert_same(lam, P(), k)

    def test_golden_with_a_coefficient_of_two(self):
        assert lr_expansion(P((2, 1)), P((2, 1)), 4) == (
            (P((2, 2, 1, 1)), 1), (P((2, 2, 2)), 1), (P((3, 1, 1, 1)), 1),
            (P((3, 2, 1)), 2), (P((3, 3)), 1), (P((4, 1, 1)), 1), (P((4, 2)), 1),
        )

    def test_plain_tuples_accepted(self):
        assert lr_expansion((2, 1), (1,), 3) == lr_expansion(P((2, 1)), P((1,)), 3)
        assert lr_coefficient((2, 1), (2, 1), (3, 2, 1), 3) == 2

    def test_negative_k_rejected(self):
        with pytest.raises(InvalidInputError, match="k must be nonnegative"):
            lr_expansion(P(), P(), -1)

    def test_leaves_no_reference_cycle(self):
        lr_expansion.cache_clear()
        _lr_strips.cache_clear()

        def step():
            assert lr_expansion(P((3, 2, 1)), P((2, 2, 1)), 4)
        assert_no_reference_cycle(step)

    def test_caches_are_bounded(self):
        # a long-lived process meets ever more pairs and strips
        for cache in (lr_expansion, _lr_strips):
            assert cache.cache_parameters()["maxsize"] is not None, cache
        assert lr_expansion.cache_parameters()["typed"] is True

    def test_strips_are_tuples(self):
        # the memo hands one value to every caller, so it must be immutable
        _lr_strips.cache_clear()
        for last in (None, (1, 1, 0)):
            strips = _lr_strips((2, 1, 0), last, 1)
            assert strips and type(strips) is tuple, last
            for shape, counts in strips:
                assert type(shape) is tuple and type(counts) is tuple

    def test_cold_and_warm_strips_agree_on_the_4x4_box(self):
        parts = box_partitions(4, 8)
        pairs = [(lam, mu) for i, lam in enumerate(parts) for mu in parts[i:]]
        expand = lr_expansion.__wrapped__
        cold = []
        for lam, mu in pairs:
            _lr_strips.cache_clear()
            cold.append(expand(lam, mu, 4))
        warm = [expand(lam, mu, 4) for lam, mu in pairs]
        assert _lr_strips.cache_info().hits > 0
        assert repr(cold) == repr(warm)


class TestRimHookProduct:
    def test_quantum_goldens(self):
        # G(2,4): s1 * s21 = s22 + q and s21 * s21 = q*s11 + q*s2; G(1,4): s3 * s1 = q
        assert rim_hook_product(P((1,)), P((2, 1)), 2, 4) == {(P((2, 2)), 0): 1, (P(), 1): 1}
        assert rim_hook_product(P((2, 1)), P((2, 1)), 2, 4) == {
            (P((1, 1)), 1): 1, (P((2,)), 1): 1,
        }
        assert rim_hook_product(P((3,)), P((1,)), 1, 4) == {(P(), 1): 1}

    def test_classical_part_is_lr(self):
        k, n = 3, 6
        for lam in box_partitions(k, n):
            for mu in box_partitions(k, n):
                got = {nu: c for (nu, d), c in rim_hook_product(lam, mu, k, n).items() if d == 0}
                want = {nu: c for nu, c in lr_expansion(lam, mu, k) if nu.fits_box(k, n)}
                assert got == want, (lam, mu)

    def test_graded_and_sorted(self):
        k, n = 2, 5
        for lam in box_partitions(k, n):
            for mu in box_partitions(k, n):
                product = rim_hook_product(lam, mu, k, n)
                assert list(product) == sorted(product)
                for nu, d in product:
                    assert nu.weight() + n * d == lam.weight() + mu.weight()

    @pytest.mark.parametrize("k, n", [(1, 4), (2, 4), (2, 5), (3, 6), (3, 7), (4, 8), (4, 4)])
    def test_int_abacus_matches_the_bead_set_reference(self, k, n):
        # every ordered pair, against the set-based loop the int abacus replaced
        assert mismatches(k, n) == []

    def test_rejects_partitions_outside_the_box(self):
        with pytest.raises(InvalidInputError):
            rim_hook_product(P((3,)), P((1,)), 2, 4)
        with pytest.raises(InvalidInputError):
            rim_hook_product(P((1,)), P((1, 1, 1)), 2, 4)
        with pytest.raises(InvalidInputError):
            rim_hook_product(P(), P(), 3, 2)

    def test_imports_no_engine_code(self):
        # every import, nested ones too: the one call into the engine is
        # verify_jacobi_trudi's giambelli_det, the determinant under test
        stdlib = [("__future__", "annotations"), ("functools", "lru_cache"), ("operator", "add")]
        core = ["InvalidInputError", "KVector", "Partition", "accumulate", "as_int", "as_nonnegative", "as_partition"]
        assert _imports(schur_oracle) == sorted(
            [("", 0, *name) for name in stdlib] + [("", 1, "exterior_core", name) for name in core]
            + [("verify_jacobi_trudi", 1, "giambelli_ring", "giambelli_det")]
        )

    def test_computes_without_the_shared_module_arithmetic(self, monkeypatch):
        # the engine's vectors take their sum from FreeElement, which runs
        # exterior_core.accumulate; the shape oracles must not reach it, and
        # neither does the reference's packed product
        import schubert.exterior_core as core

        def shared(*_):
            raise AssertionError("the oracle used the engine's accumulate")

        monkeypatch.setattr(core, "accumulate", shared)
        lr_expansion.cache_clear()
        _lr_strips.cache_clear()
        with pytest.raises(AssertionError):
            KVector.basis((1,)) + KVector.basis((2,))
        assert lr_expansion(P((2, 1)), P((1,)), 3) == ((P((2, 1, 1)), 1), (P((2, 2)), 1), (P((3, 1)), 1))
        square = multiply(schur_expand(P((1,)), 2), schur_expand(P((1,)), 2), 2)
        assert schur_decompose(square, 2) == {P((2,)): 1, P((1, 1)): 1}
        assert rim_hook_product(P((1,)), P((2, 1)), 2, 4) == {(P(()), 1): 1, (P((2, 2)), 0): 1}


def _assert_valid_shape(nu):
    # a shape wrapped by Partition._of must be what the constructor builds
    assert type(nu) is Partition, nu
    assert nu == Partition(tuple(nu)) and 0 not in nu, nu


class TestOutputShapesAreValid:
    """lr_expansion, rim_hook_product, box_partitions and DPolynomial.items()
    wrap the shapes they build with Partition._of, unchecked; each must
    still be a valid Partition."""

    def test_lr_expansion_on_the_4x4_box(self):
        parts = box_partitions(4, 8)
        assert P() in parts
        for k in range(5):
            for lam in parts:
                for mu in parts:
                    for nu, _ in lr_expansion(lam, mu, k):
                        _assert_valid_shape(nu)

    @pytest.mark.parametrize("k, n", [(2, 4), (2, 5), (3, 6), (3, 7), (4, 8)])
    def test_rim_hook_product_cores(self, k, n):
        parts = box_partitions(k, n)
        for lam in parts:
            for mu in parts:
                for nu, _ in rim_hook_product(lam, mu, k, n):
                    _assert_valid_shape(nu)

    def test_box_partitions(self):
        for k in range(7):
            for w in (None, 0, 5):
                for lam in box_partitions(k, k + 6, w):
                    _assert_valid_shape(lam)

    def test_dpolynomial_items(self):
        # Giambelli determinants, a product of two and the signed inverse
        # components, keyed as the engine builds them
        import schubert.giambelli_ring as ring

        dets = [ring.giambelli_det(lam, 4) for lam in box_partitions(4, 8)]
        for p in [*dets, dets[5] * dets[-1], *inverse_components(6)]:
            for mono, _ in p.items():
                _assert_valid_shape(mono)


class TestJacobiTrudi:
    def test_single_part(self):
        assert verify_jacobi_trudi(P((1,)), 2)
        assert verify_jacobi_trudi(P((3,)), 3)

    def test_column(self):
        assert verify_jacobi_trudi(P((1, 1)), 2)

    def test_exhaustive_box(self):
        for k in (1, 2, 3, 4):
            for lam in box_partitions(k, k + 4):
                assert verify_jacobi_trudi(lam, k)

    @pytest.mark.parametrize("lam,k", [((1,), 2), ((2, 1), 2), ((3, 1, 1), 3), ((3, 3, 2), 4), ((4, 2), 4)])
    def test_perturbed_determinant_fails(self, monkeypatch, lam, k):
        # each h_mu is a nonzero polynomial with positive coefficients, so a
        # changed coefficient or a dropped monomial always changes the sum;
        # moving a unit between two monomials keeps the coefficient of
        # x_1^|lam|, which every h_mu has, so only a full comparison sees it
        import schubert.giambelli_ring as ring

        det = ring.giambelli_det(P(lam), k)
        first, last = min(det.terms), max(det.terms)
        bumped = dict(det.terms)
        bumped[first] += 1
        dropped = {m: c for m, c in det.terms.items() if m != first}
        perturbed = [bumped, dropped]
        if first != last:
            moved = dict(det.terms)
            moved[first] += 1
            moved[last] -= 1
            perturbed.append({m: c for m, c in moved.items() if c})
        for terms in perturbed:
            monkeypatch.setattr(ring, "giambelli_det", lambda *_: DPolynomial._of(terms))
            assert not verify_jacobi_trudi(P(lam), k)
        monkeypatch.undo()
        assert verify_jacobi_trudi(P(lam), k)

    def test_monomial_of_the_wrong_weight_fails(self, monkeypatch):
        # D_1 adds s_1, a shape of weight 1 that s_{2,1} does not have
        import schubert.giambelli_ring as ring

        lam, k = P((2, 1)), 2
        det = ring.giambelli_det(lam, k).terms
        extra = {**det, (1,): 1}
        monkeypatch.setattr(ring, "giambelli_det", lambda *_: DPolynomial._of(extra))
        assert not verify_jacobi_trudi(lam, k)

    def test_empty_partition_at_k_zero(self):
        assert verify_jacobi_trudi(P(()), 0)

    @pytest.mark.parametrize(
        "lam,k",
        [((1,), 0), ((), -1), ((1,), -1), ((1,), 2.0), ((), 0.0), ((1, 1), 1), ((2, 1, 1), 2)],
        ids=["k-zero", "negative-k-empty", "negative-k", "float-k", "float-k-zero", "too-long", "too-long-hook"],
    )
    def test_bad_input_rejected(self, lam, k):
        with pytest.raises(InvalidInputError):
            verify_jacobi_trudi(P(lam), k)

    def test_weight_at_the_exponent_limit_verifies(self):
        # the Schur-basis check packs no exponent, so the reference's LIMIT
        # bounds nothing
        assert verify_jacobi_trudi(P((LIMIT,)), 1)
        assert verify_jacobi_trudi(P((LIMIT, 1)), 2)

    def test_exhaustive_5x5_box_at_k_5(self):
        for lam in box_partitions(5, 10):
            assert verify_jacobi_trudi(lam, 5), lam

    def test_leaves_no_reference_cycle(self):
        def step():
            # giambelli_det's column-by-column Laplace pass is included on purpose
            assert verify_jacobi_trudi(P((3, 2, 1)), 3)
        assert_no_reference_cycle(step)


def _one_at_a_time(monos, k):
    """The substitution multiplied out: each monomial's product of the
    reference's h_i from c, added into a running packed polynomial."""
    total = {}
    for parts, c in monos:
        prod = {0: c}  # c times the monomial of all zero exponents
        for part in parts:
            prod = multiply(prod, complete_homogeneous(part, k), k)
        for e, v in prod.items():
            total[e] = total.get(e, 0) + v
    return {e: v for e, v in total.items() if v}


def _in_schur_basis(monos, k):
    """_schur_horner's expansion keyed by Partition, as schur_decompose's."""
    return {P(shape): c for shape, c in _schur_horner(monos, k).items()}


class TestSubstitute:
    """_schur_horner, the Schur-basis substitution verify_jacobi_trudi
    runs, against the polynomials multiplied out and decomposed."""

    def test_matches_one_monomial_at_a_time_on_determinants(self):
        from schubert.giambelli_ring import giambelli_det

        for k in range(5):
            for lam in box_partitions(k, k + 4):
                monos = list(giambelli_det(lam, k).terms.items())
                got = _in_schur_basis(monos, k)
                assert got == schur_decompose(_one_at_a_time(monos, k), k) == {lam: 1}, (lam, k)

    def test_matches_one_monomial_at_a_time_on_perturbed_determinants(self):
        # the determinants of the 4x4 box, k <= 4, each with its first
        # three monomials moved by +1 and by -1
        from schubert.giambelli_ring import giambelli_det

        for k in range(5):
            for lam in box_partitions(k, k + 4):
                det = giambelli_det(lam, k).terms
                for mono in sorted(det)[:3]:
                    for step in (1, -1):
                        monos = list({**det, mono: det[mono] + step}.items())
                        got = _in_schur_basis(monos, k)
                        assert got == schur_decompose(_one_at_a_time(monos, k), k), (lam, k, mono, step)
                        assert got != {lam: 1}

    @pytest.mark.parametrize(
        "monos",
        [
            [],
            [((), 5)],  # a constant term
            [((), -2), ((1,), 3)],
            [((2, 2, 1), 1), ((3, 3, 3), -2)],  # repeated parts
            [((3, 1), 2), ((3, 2), -1), ((3,), 4), ((3, 3, 1), 1)],  # a shared largest part
            [((2, 1), 1), ((2, 1), -1)],  # a repeated monomial that cancels
            [((2, 1), 1), ((1, 1, 1), -2), ((3,), 1), ((), 0)],
            [((1, 1, 1), 1)],  # s_111 of h_1^3 needs a third row
        ],
    )
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_matches_one_monomial_at_a_time_by_hand(self, monos, k):
        assert _in_schur_basis(monos, k) == schur_decompose(_one_at_a_time(monos, k), k)

    def test_sum_that_cancels_to_zero(self):
        # in one variable every h_mu of degree 3 is x^3
        assert _schur_horner([((2, 1), 1), ((3,), -1)], 1) == {}
        # e_3 = h_1^3 - 2 h_2 h_1 + h_3 vanishes in fewer than three variables
        e3 = [((1, 1, 1), 1), ((2, 1), -2), ((3,), 1)]
        for k in (0, 1, 2):
            assert _schur_horner(e3, k) == {}
        assert _schur_horner(e3, 3) == {(1, 1, 1): 1}


def test_leibniz_raw_terms():
    raw = leibniz_raw_terms(2, (2, 3, 5))
    assert len(raw) == 6
    assert set(raw) == {(4, 3, 5), (3, 4, 5), (3, 3, 6), (2, 5, 5), (2, 4, 6), (2, 3, 7)}
    # the empty wedge has the one empty composition of 0
    assert leibniz_raw_terms(0, ()) == [()]
    # D_h = 0 for h < 0 at every k, k = 1 included
    for k in range(5):
        for h in (-3, -2, -1):
            assert leibniz_raw_terms(h, range(1, k + 1)) == [], (h, k)
    for indices in ((1,), (1, 2)):  # h meets as_int, as in leibniz_d and pieri_d
        with pytest.raises(InvalidInputError, match="not an integer: 2.0"):
            leibniz_raw_terms(2.0, indices)


def test_compositions_are_the_sorted_product_filter():
    # k = 0 and negative h included: the empty tuple is the one composition
    # of 0 into no parts, and a negative h has none
    for k in range(7):
        for h in range(-2, 9):
            want = sorted(c for c in product(range(h + 1), repeat=k) if sum(c) == h)
            assert schur_oracle._compositions(h, k) == want, (h, k)


def test_leibniz_rejects_negative_h():
    with pytest.raises(InvalidInputError, match="h must be nonnegative"):
        leibniz_d(-1, KVector.basis((1, 3)))


def _composition_route(h, v):
    """leibniz_d by brute force: every composition of h on every term,
    cancelled only at the end."""
    return accumulate(signed_sorted(
        ((shifted, d), c)
        for sym, qc in v.items() for d, c in qc.items() for shifted in leibniz_raw_terms(h, sym)
    ))


class TestLeibnizAgainstCompositions:
    """leibniz_d merges as it goes; the composition route cancels at the end."""

    def test_every_symbol_up_to_10(self):
        for k in range(5):
            for indices in combinations(range(1, 11), k):
                v = KVector(k, {indices: 1})
                for h in range(9):
                    assert leibniz_d(h, v).terms == _composition_route(h, v), (indices, h)

    @given(mixed_kvectors(), st.integers(0, 8))
    @settings(max_examples=200, deadline=None)
    def test_mixed_q_degrees(self, v, h):
        got = leibniz_d(h, v)
        assert got.degree == v.degree and got.terms == _composition_route(h, v)

    def test_h_zero_and_the_scalar(self):
        v = KVector(2, {(2, 4): QInt({0: 1, 2: -3}), (1, 7): QInt({1: 5})})
        assert leibniz_d(0, v).terms == v.terms == _composition_route(0, v)
        scalar = KVector(0, {(): QInt({0: 3, 2: -1})})
        assert leibniz_d(0, scalar).terms == scalar.terms == _composition_route(0, scalar)
        for h in range(1, 4):
            assert leibniz_d(h, scalar).terms == {} == _composition_route(h, scalar)


def test_derivations_re_exports_the_leibniz_oracle():
    # one function under two names, and no other import from the oracle
    assert derivations.leibniz_d is leibniz_d and derivations.leibniz_raw_terms is leibniz_raw_terms
    from_oracle = [i for i in _imports(derivations) if "schur_oracle" in f"{i[2]}.{i[3]}"]
    assert from_oracle == [("", 1, "schur_oracle", "leibniz_d"), ("", 1, "schur_oracle", "leibniz_raw_terms")]
