from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schubert.exterior_core import InvalidInputError, SchubertSymbol
from schubert.pluecker import (
    RankDeficientError,
    all_minors,
    bruhat_smaller,
    determinant,
    minimality_certificate,
    minor,
    rank,
    read_matrix,
    schubert_symbol,
)

from untraced import assert_no_reference_cycle


class TestDeterminant:
    def test_small(self):
        assert determinant([]) == 1
        assert determinant([[2]]) == 2
        assert determinant([[1, 2], [3, 4]]) == -2
        assert determinant([[0, 1], [1, 0]]) == -1

    def test_singular(self):
        assert determinant([[1, 2], [2, 4]]) == 0

    def test_pivot_swap(self):
        assert determinant([[0, 1, 0], [1, 0, 0], [0, 0, 1]]) == -1

    def test_exact_large_entries(self):
        big = 10**20
        assert determinant([[big, 0], [0, big]]) == big * big

    def test_non_square(self):
        with pytest.raises(InvalidInputError):
            determinant([[1, 2, 3], [4, 5, 6]])


class TestRank:
    def test_full(self):
        assert rank([[1, 0, 0], [0, 1, 0]]) == 2

    def test_deficient(self):
        assert rank([[1, 2], [2, 4]]) == 1
        assert rank([[0, 0], [0, 0]]) == 0


class TestSchubertSymbol:
    def test_echelon(self):
        assert schubert_symbol([[1, 0, 0, 0], [0, 1, 0, 0]]) == SchubertSymbol((1, 2))

    def test_shifted_pivots(self):
        m = [[0, 1, 0, 0], [0, 0, 0, 1]]
        sym = schubert_symbol(m)
        assert sym == SchubertSymbol((2, 4))
        # cell codimension = symbol weight
        assert sym.weight() == 3

    def test_generic_rows(self):
        m = [[1, 1, 1, 1], [1, 2, 3, 4]]
        assert schubert_symbol(m) == SchubertSymbol((1, 2))

    def test_rank_deficient(self):
        with pytest.raises(RankDeficientError):
            schubert_symbol([[1, 2, 3, 4], [2, 4, 6, 8]])


def minor_rank(matrix) -> int:
    """Rank as the size of the largest nonzero minor (no elimination)."""
    rows, cols = len(matrix), len(matrix[0])
    for r in range(min(rows, cols), 0, -1):
        for rs in combinations(range(rows), r):
            for cs in combinations(range(cols), r):
                if determinant([[matrix[i][j] for j in cs] for i in rs]):
                    return r
    return 0


# sparse small entries, so that rank drops and late pivots are common
matrices = st.integers(1, 3).flatmap(
    lambda k: st.integers(k, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.sampled_from([0, 0, 0, 1, -1, 2]), min_size=n, max_size=n),
            min_size=k,
            max_size=k,
        )
    )
)


@given(matrices)
@settings(max_examples=300, deadline=None)
def test_symbol_is_where_prefix_rank_jumps(matrix):
    k, n = len(matrix), len(matrix[0])
    prefix = [minor_rank([row[:c] for row in matrix]) for c in range(1, n + 1)]
    assert rank(matrix) == prefix[-1]
    if prefix[-1] < k:
        with pytest.raises(RankDeficientError):
            schubert_symbol(matrix)
    else:
        jumps = [c for c in range(1, n + 1) if prefix[c - 1] > (prefix[c - 2] if c > 1 else 0)]
        assert schubert_symbol(matrix) == SchubertSymbol(jumps)


def permutation_determinant(matrix) -> int:
    """The Leibniz expansion over all permutations (no elimination)."""
    total = 0
    for perm in permutations(range(len(matrix))):
        inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:])
        term = (-1) ** inversions
        for row, col in enumerate(perm):
            term *= matrix[row][col]
        total += term
    return total


@given(st.integers(0, 5).flatmap(
    lambda m: st.lists(
        st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, 7]), min_size=m, max_size=m),
        min_size=m,
        max_size=m,
    )
))
@settings(max_examples=300, deadline=None)
def test_determinant_matches_permutation_expansion(matrix):
    assert determinant(matrix) == permutation_determinant(matrix)


class TestMinors:
    def test_all_minors_order_and_values(self):
        m = [[0, 1, 0, 0], [0, 0, 0, 1]]
        minors = all_minors(m)
        assert [s.indices for s, _ in minors] == [
            (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
        ]
        assert dict(((s.indices, v) for s, v in minors))[(2, 4)] == 1

    def test_minor_single(self):
        assert minor([[1, 2], [3, 4]], (1, 2)) == -2

    @pytest.mark.parametrize("columns", [(0, 1), (1, 4), (-1, 2), (1, 1.0)])
    def test_minor_columns_out_of_range(self, columns):
        # column 0 would read the last column through row[-1]; 4 is past n = 3
        with pytest.raises(InvalidInputError):
            minor([[1, 0, 2], [0, 1, 3]], columns)


@pytest.mark.parametrize(
    "call",
    [
        lambda: all_minors([]),
        lambda: all_minors([[1, 2], [3]]),
        lambda: rank([]),
        lambda: rank([[1, 2], [3]]),
        lambda: rank([[1], [2, 3]]),
        lambda: schubert_symbol([]),
        lambda: schubert_symbol([[1, 2], [3]]),
        lambda: minor([[1, 2], [3]], (1, 2)),
        lambda: minimality_certificate([]),
        lambda: minimality_certificate([[1, 2], [3]]),
        lambda: minimality_certificate([[0, 1, 0], [0]], SchubertSymbol((2, 3))),
    ],
    ids=[
        "all_minors-empty", "all_minors-ragged", "rank-empty", "rank-ragged", "rank-ragged-longer",
        "schubert_symbol-empty", "schubert_symbol-ragged", "minor-ragged", "certificate-empty",
        "certificate-ragged", "certificate-ragged-given-symbol",
    ],
)
def test_empty_or_ragged_matrix_rejected(call):
    with pytest.raises(InvalidInputError):
        call()


class TestCertificate:
    def test_bruhat_smaller(self):
        smaller = bruhat_smaller(SchubertSymbol((2, 4)), 4)
        assert {s.indices for s in smaller} == {(1, 2), (1, 3), (1, 4), (2, 3)}

    def test_bruhat_smaller_in_lexicographic_order(self):
        for n in range(1, 7):
            for k in range(n + 1):
                for top in combinations(range(1, n + 1), k):
                    got = [s.indices for s in bruhat_smaller(SchubertSymbol(top), n)]
                    want = [
                        t for t in combinations(range(1, n + 1), k)
                        if t != top and all(a <= b for a, b in zip(t, top))
                    ]
                    assert got == want, top

    def test_bruhat_smaller_leaves_no_reference_cycle(self):
        assert_no_reference_cycle(lambda: bruhat_smaller(SchubertSymbol((3, 5, 7)), 7))

    def test_bruhat_smaller_rejects_an_index_above_n(self):
        with pytest.raises(InvalidInputError):
            bruhat_smaller(SchubertSymbol((2, 4)), 3)

    def test_certificate_rejects_a_symbol_of_the_wrong_length(self):
        # a one-index symbol has no smaller symbols, so it would pass vacuously
        with pytest.raises(InvalidInputError):
            minimality_certificate([[1, 0, 0], [0, 1, 0]], SchubertSymbol((1,)))

    @pytest.mark.parametrize("sym", [(2, 1), (0, 1), (1, 1)], ids=["falling", "zero-index", "repeated"])
    def test_certificate_rejects_a_non_symbol(self, sym):
        # a plain tuple goes through SchubertSymbol, so it cannot pass vacuously
        with pytest.raises(InvalidInputError):
            minimality_certificate([[1, 0, 0], [0, 1, 0]], sym)

    def test_certificate_takes_a_plain_tuple(self):
        m = [[0, 1, 0, 0], [0, 0, 0, 1]]
        assert minimality_certificate(m, (2, 4)) == minimality_certificate(m)

    def test_certificate_all_zero(self):
        m = [[0, 1, 0, 0], [0, 0, 0, 1]]
        cert = minimality_certificate(m)
        assert cert and all(v == 0 for _, v in cert)


class TestReadMatrix:
    def test_round_trip(self, tmp_path):
        f = tmp_path / "m.txt"
        f.write_text("1 2 3\n4 5 6\n\n")
        assert read_matrix(f) == [[1, 2, 3], [4, 5, 6]]

    def test_bad_entry(self, tmp_path):
        f = tmp_path / "m.txt"
        f.write_text("1 x\n")
        with pytest.raises(InvalidInputError):
            read_matrix(f)

    def test_ragged(self, tmp_path):
        f = tmp_path / "m.txt"
        f.write_text("1 2\n3\n")
        with pytest.raises(InvalidInputError):
            read_matrix(f)

    def test_empty(self, tmp_path):
        f = tmp_path / "m.txt"
        f.write_text("\n")
        with pytest.raises(InvalidInputError):
            read_matrix(f)

    def test_undecodable(self, tmp_path):
        # a UTF-16 file: its byte order mark does not decode as UTF-8
        f = tmp_path / "m.txt"
        f.write_bytes(b"\xff\xfe1\x00 \x000\x00\n\x00")
        with pytest.raises(InvalidInputError):
            read_matrix(f)
