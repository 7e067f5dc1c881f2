import os
import random
import time
from itertools import islice

import pytest
from hypothesis import given
from hypothesis import strategies as st

from redwords import (
    Permutation,
    Word,
    all_permutations,
    braid_move,
    commutation_move,
    enumerate_reduced_words,
    is_reduced,
    is_super_yamanouchi,
    iter_reduced_words,
    naive_pair_inversions,
    pairing_permutation,
    run_decomposition,
    super_word,
    word_inversions,
    word_to_permutation,
    yang_baxter_count,
)
from redwords.words import _pairing

from conftest import (
    EDGE_GRID_4321,
    WORD_GRID_42153,
    WORD_GRID_4321,
    grid_edges,
    oracle_distance,
    oracle_min_braids,
    random_reduced_word,
    reference_pairing,
    reference_reduced_words,
)

RHO = Word([5, 6, 3, 4, 5, 7, 3, 1, 4, 2, 3, 6])
PI = Word([5, 6, 7, 4, 5, 3, 4, 5, 6, 1, 2, 3])
W8 = Permutation([4, 1, 7, 5, 8, 2, 3, 6])

perm_strategy = st.integers(2, 6).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))
)


def test_word_to_permutation():
    assert word_to_permutation(Word([1, 4, 2, 3, 1]), 5) == Permutation([4, 2, 1, 5, 3])
    assert word_to_permutation(Word(), 3) == Permutation.identity(3)
    assert word_to_permutation(RHO, 8) == W8
    with pytest.raises(ValueError):
        word_to_permutation(Word([3]), 3)
    with pytest.raises(ValueError, match="^letter 3 out of range for rank -1$"):
        word_to_permutation(Word([3]), -1)
    with pytest.raises(ValueError, match="^rank must be non-negative, not -1$"):
        word_to_permutation(Word(), -1)


def test_is_reduced():
    assert is_reduced(Word([1, 4, 2, 3, 1]))
    assert not is_reduced(Word([1, 1]))
    assert is_reduced(Word([1, 2, 1, 3, 2, 1]))


def test_enumerate_reduced_words_matches_reference_set():
    words = enumerate_reduced_words(Permutation([4, 2, 1, 5, 3]))
    assert len(words) == 11
    assert {tuple(w) for w in words} == set(WORD_GRID_42153.values())
    assert words == sorted(words)


def test_enumerate_identity_and_longest():
    assert enumerate_reduced_words(Permutation.identity(3)) == [Word()]
    words = enumerate_reduced_words(Permutation([4, 3, 2, 1]))
    assert len(words) == 16
    assert {tuple(w) for w in words} == set(WORD_GRID_4321.values())


def test_run_decomposition():
    assert run_decomposition(RHO) == [
        Word([5, 6]),
        Word([3, 4, 5, 7]),
        Word([3]),
        Word([1, 4]),
        Word([2, 3, 6]),
    ]
    assert run_decomposition(Word([3])) == [Word([3])]
    assert run_decomposition(PI) == [
        Word([5, 6, 7]),
        Word([4, 5]),
        Word([3, 4, 5, 6]),
        Word([1, 2, 3]),
    ]
    assert run_decomposition(Word()) == []


def test_is_super_yamanouchi():
    assert is_super_yamanouchi(PI)
    assert not is_super_yamanouchi(RHO)
    assert is_super_yamanouchi(Word())


def test_super_word():
    assert super_word(W8) == PI
    assert super_word(Permutation.identity(4)) == Word()
    assert super_word(Permutation([4, 3, 2, 1])) == Word([3, 2, 3, 1, 2, 3])


@pytest.mark.parametrize("n", range(1, 5))
def test_super_word_unique_in_enumeration(n):
    for w in all_permutations(n):
        pi = super_word(w)
        assert word_to_permutation(pi, n) == w
        assert is_reduced(pi, n)
        words = enumerate_reduced_words(w)
        assert words == sorted(words)  # lexicographic display order
        supers = [r for r in words if is_super_yamanouchi(r)]
        assert supers == [pi]


def test_commutation_move():
    assert commutation_move(Word([4, 2, 1, 2, 3]), 4) == Word([2, 4, 1, 2, 3])
    assert commutation_move(Word([1, 2, 1]), 1) == Word([1, 2, 1])
    with pytest.raises(ValueError):
        commutation_move(Word([1, 2, 1]), 3)


def test_braid_move():
    assert braid_move(Word([4, 2, 1, 2, 3]), 3) == Word([4, 1, 2, 1, 3])
    assert braid_move(Word([2, 1, 2, 4, 3]), 4) == Word([1, 2, 1, 4, 3])
    assert braid_move(Word([1, 2, 3, 1, 2]), 2) == Word([1, 2, 3, 1, 2])
    with pytest.raises(ValueError):
        braid_move(Word([1, 2, 1]), 1)


def test_moves_are_involutions_on_reduced_words():
    pools = [(w, n) for n in (3, 4) for w in all_permutations(n)]
    pools.append((Permutation([4, 2, 1, 5, 3]), 5))
    for w, n in pools:
        for rho in enumerate_reduced_words(w):
            ell = len(rho)
            for i in range(1, ell):
                assert commutation_move(commutation_move(rho, i), i) == rho
                assert is_reduced(commutation_move(rho, i), n)
            for i in range(2, ell):
                assert braid_move(braid_move(rho, i), i) == rho
                assert is_reduced(braid_move(rho, i), n)


def test_pairing_permutation_reference_example():
    assert pairing_permutation(RHO) == Permutation(
        [2, 3, 5, 1, 8, 9, 10, 4, 6, 7, 11, 12]
    )


def test_pairing_of_super_is_identity():
    for w in all_permutations(4):
        pi = super_word(w)
        assert pairing_permutation(pi) == Permutation.identity(len(pi))


def test_pairing_identity_only_at_super():
    for w in all_permutations(4):
        pi = super_word(w)
        for rho in enumerate_reduced_words(w):
            is_identity = pairing_permutation(rho) == Permutation.identity(len(rho))
            assert is_identity == (rho == pi)


def test_pairing_outputs_are_permutations():
    for rho in enumerate_reduced_words(Permutation([4, 2, 1, 5, 3])):
        perm = pairing_permutation(rho)
        assert sorted(perm) == list(range(1, 6))


def test_pairing_rejects_bad_input():
    with pytest.raises(ValueError):
        pairing_permutation(Word([1, 1]))
    for bad in (Word([1, 2, 1, 2]), (1, 2, 1, 2)):
        with pytest.raises(ValueError, match="not reduced"):
            pairing_permutation(bad)
        with pytest.raises(ValueError, match="not reduced"):
            word_inversions(bad)
    with pytest.raises(ValueError):
        word_inversions((0, 1))


def test_derived_words_equal_public_ones():
    w = Permutation([4, 2, 1, 5, 3])
    derived = [
        commutation_move(Word([4, 2, 1, 2, 3]), 4),
        braid_move(Word([4, 2, 1, 2, 3]), 3),
        RHO.reverse(),
        super_word(w),
        *run_decomposition(RHO),
        *enumerate_reduced_words(w),
    ]
    for word in derived:
        rebuilt = Word(list(word))
        assert type(word) is Word
        assert word == rebuilt and hash(word) == hash(rebuilt)
    assert commutation_move(RHO, 2) is RHO
    assert braid_move(RHO, 2) is RHO


def test_enumeration_deeper_than_the_recursion_limit():
    w = Permutation(list(range(2, 1202)) + [1])
    assert enumerate_reduced_words(w) == [Word(range(1200, 0, -1))]


def _same_enumeration(w, limit=None):
    got = list(islice(iter_reduced_words(w), limit))
    assert got == list(islice(reference_reduced_words(w), limit))
    assert all(type(r) is Word for r in got)


def test_enumeration_equals_the_reference_dfs():
    """Reusing each short tail gives the words of the plain depth-first
    peel, in its order: every w of S_1..S_5 (lengths 0 to 10), then seeded
    permutations of S_7..S_9, in full when at most 12 random ascents
    make them and on their first 3,000 words when drawn uniformly."""
    for n in range(1, 6):
        for w in all_permutations(n):
            _same_enumeration(w)
    rng = random.Random(31)
    for n in range(7, 10):
        for _ in range(4):
            v = list(range(1, n + 1))
            for _ in range(rng.randint(5, 12)):
                ascents = [i for i in range(1, n) if v[i - 1] < v[i]]
                i = rng.choice(ascents)
                v[i - 1], v[i] = v[i], v[i - 1]
            _same_enumeration(Permutation(v))
            rng.shuffle(v)
            _same_enumeration(Permutation(v), limit=3000)


@pytest.mark.skipif(
    os.environ.get("REDWORDS_STRESS") != "1",
    reason="rank-6 stress run; set REDWORDS_STRESS=1 to enable",
)
def test_enumeration_equals_the_reference_dfs_on_r_w0_at_rank_6_stress():
    _same_enumeration(Permutation.longest(6))


def test_pairing_scan_counts_the_pairing_inversions():
    for n in range(1, 6):
        for w in all_permutations(n):
            for rho in enumerate_reduced_words(w):
                perm, _ = _pairing(rho)
                assert word_inversions(rho) + sum(super_word(w)) - sum(rho) == perm.length


def _assert_matches_the_scan(rho):
    """The pairing and w are the scan's, and the rank plus the letter-sum
    surplus is the scan's own inversion count."""
    pairing, w, inversions = reference_pairing(rho)
    assert _pairing(rho) == (pairing, w)
    assert word_inversions(rho) + sum(super_word(w)) - sum(rho) == inversions


def test_pairing_equals_the_reference_scan():
    """The labelling read row by row is the paper's pairing scan, with the
    same permutation w and inversion count."""
    for n in range(1, 6):
        for w in all_permutations(n):
            for rho in enumerate_reduced_words(w):
                _assert_matches_the_scan(rho)
    rng = random.Random(23)
    for n in range(7, 41):
        for _ in range(4):
            _assert_matches_the_scan(random_reduced_word(rng, n))


@pytest.mark.skipif(
    os.environ.get("REDWORDS_STRESS") != "1",
    reason="rank-6 stress run; set REDWORDS_STRESS=1 to enable",
)
def test_pairing_equals_the_reference_scan_on_r_w0_at_rank_6_stress():
    for rho in enumerate_reduced_words(Permutation.longest(6)):
        _assert_matches_the_scan(rho)


def test_pairing_cost_follows_the_letters():
    # a rank-300 word of 22,082 letters, where the matching scan took 5.2 s
    rho = random_reduced_word(random.Random(1), 300)
    start = time.perf_counter()
    assert word_inversions(rho) == 90112507
    assert time.perf_counter() - start < 1.0


def test_pairing_errors_on_every_call():
    for _ in range(3):
        for bad in (Word([1, 2, 1, 2]), Word([1, 1])):
            with pytest.raises(ValueError, match="not reduced"):
                pairing_permutation(bad)
            with pytest.raises(ValueError, match="not reduced"):
                word_inversions(bad)


def test_word_inversions_reference_example():
    assert word_inversions(RHO) == 11
    assert word_inversions(PI) == 0
    assert word_inversions(Word()) == 0


def test_empty_word_goes_through_the_general_path():
    """The identity's one reduced word pairs with the empty permutation."""
    assert pairing_permutation(Word()) == pairing_permutation(()) == Permutation(())
    assert _pairing(Word()) == (Permutation(()), Permutation.identity(1))
    assert yang_baxter_count((), ()) == naive_pair_inversions((), ()) == 0
    assert word_to_permutation(Word(), 0) == Permutation(())


def test_word_inversions_match_distance_oracle():
    edges = grid_edges(WORD_GRID_4321, EDGE_GRID_4321)
    pi = Word(WORD_GRID_4321["R37"])
    for letters in WORD_GRID_4321.values():
        rho = Word(letters)
        assert word_inversions(rho) == oracle_distance(edges, rho, pi)


def test_yang_baxter_count():
    assert yang_baxter_count(RHO, PI) == 2
    assert yang_baxter_count(RHO, RHO) == 0
    with pytest.raises(ValueError):
        yang_baxter_count(Word([1]), Word([2]))


def test_yang_baxter_count_matches_braid_oracle_to_super():
    edges = grid_edges(WORD_GRID_4321, EDGE_GRID_4321)
    pi = Word(WORD_GRID_4321["R37"])
    for letters in WORD_GRID_4321.values():
        rho = Word(letters)
        assert yang_baxter_count(rho, pi) == oracle_min_braids(edges, rho, pi)


def test_yang_baxter_pairwise_counterexample():
    # The pairwise formula is not a path measurement: here it reports 2
    # while every shortest path uses 4 braids (distance 7).
    edges = grid_edges(WORD_GRID_4321, EDGE_GRID_4321)
    rho, sigma = Word([1, 2, 3, 2, 1, 2]), Word([2, 3, 2, 1, 2, 3])
    assert yang_baxter_count(rho, sigma) == 2
    assert oracle_distance(edges, rho, sigma) == 7
    assert oracle_min_braids(edges, rho, sigma) == 4


def test_naive_pair_inversions_barrier_example():
    rho, sigma = Word([1, 2, 1, 3, 2, 1]), Word([1, 3, 2, 1, 3, 2])
    assert naive_pair_inversions(rho, sigma) == 2
    edges = grid_edges(WORD_GRID_4321, EDGE_GRID_4321)
    assert oracle_distance(edges, rho, sigma) == 4
    assert oracle_min_braids(edges, rho, sigma) == 2
    assert naive_pair_inversions(rho, rho) == 0


def test_pairing_toward_the_super_word_matches_two_pairings():
    """yang_baxter_count reads the letter-sum surplus when sigma is rho's
    super word; the reference pairs both words, as naive_pair_inversions
    does."""
    for n in range(1, 6):
        for w in all_permutations(n):
            pi = super_word(w)
            for rho in enumerate_reduced_words(w):
                u = pairing_permutation(pi) * pairing_permutation(rho).inverse()
                displacement = sum(abs(rho[-i] - pi[-j]) for i, j in enumerate(u, 1))
                assert yang_baxter_count(rho, pi) == displacement == sum(pi) - sum(rho)
                assert naive_pair_inversions(rho, pi) == u.length - displacement


PAIR_ERRORS = {
    "empty rho": ((), (1,), "words are for different permutations: 1,2 vs 2,1"),
    "empty sigma": ((1,), (), "words are for different permutations: 2,1 vs 1,2"),
    "empty rho, non-reduced sigma": ((), (1, 1), "word is not reduced: 1,1"),
    "non-reduced rho": ((1, 2, 1, 2), (2, 1, 2), "word is not reduced: 1,2,1,2"),
    "non-reduced rho, empty sigma": ((1, 1), (), "word is not reduced: 1,1"),
    "non-reduced sigma": ((1, 2, 1), (2, 2), "word is not reduced: 2,2"),
    "non-reduced sigma, super rho": ((2, 1, 2), (1, 2, 1, 2), "word is not reduced: 1,2,1,2"),
    "both non-reduced": ((1, 2, 1, 2), (3, 3), "word is not reduced: 3,3"),
    "different permutations": ((1,), (2,), "words are for different permutations: 2,1,3 vs 1,3,2"),
    "sigma super for another permutation": (
        (1, 2),
        (2, 1),
        "words are for different permutations: 3,1,2 vs 2,3,1",
    ),
    "a letter below 1": ((0, 1), (1,), "letters must be positive: (0, 1)"),
    # equal lengths: the braid count's super-word test replays rho first
    "both non-reduced, equal lengths": ((1, 1), (2, 2), "word is not reduced: 2,2"),
    "non-reduced rho, equal lengths": ((1, 1), (1, 2), "word is not reduced: 1,1"),
}


@pytest.mark.parametrize("pair", [yang_baxter_count, naive_pair_inversions], ids=lambda f: f.__name__)
@pytest.mark.parametrize("case", PAIR_ERRORS)
def test_pair_statistics_raise_the_same_errors(pair, case):
    rho, sigma, message = PAIR_ERRORS[case]
    for _ in range(2):
        with pytest.raises(ValueError) as caught:
            pair(rho, sigma)
        assert str(caught.value) == message


def test_naive_pair_agrees_with_inversions_at_super():
    w = Permutation([4, 2, 1, 5, 3])
    pi = super_word(w)
    for rho in enumerate_reduced_words(w):
        assert naive_pair_inversions(rho, pi) == word_inversions(rho)


def test_nontrivial_moves_step_inversions_by_one():
    for w in all_permutations(4):
        for rho in enumerate_reduced_words(w):
            inv = word_inversions(rho)
            ell = len(rho)
            for i in range(1, ell):
                out = commutation_move(rho, i)
                if out != rho:
                    assert abs(word_inversions(out) - inv) == 1
            for i in range(2, ell):
                out = braid_move(rho, i)
                if out != rho:
                    assert abs(word_inversions(out) - inv) == 1


def test_reversal_gives_word_for_inverse():
    for w in all_permutations(4):
        target = set(enumerate_reduced_words(w.inverse()))
        for rho in enumerate_reduced_words(w):
            assert rho.reverse() in target


@pytest.mark.parametrize("i", [0, 4, -1])
def test_letter_index_out_of_range_is_refused(i):
    rho = Word([1, 2, 1])
    assert [rho.letter(k) for k in (1, 2, 3)] == [1, 2, 1]
    with pytest.raises(ValueError) as exc:
        rho.letter(i)
    assert str(exc.value) == f"letter index {i} out of range 1..3"


def test_word_text_round_trip():
    assert str(RHO) == "5,6,3,4,5,7,3,1,4,2,3,6"
    assert Word.from_text(str(RHO)) == RHO
    assert str(Word()) == ""
    assert Word.from_text("") == Word()
    with pytest.raises(ValueError):
        Word.from_text("1,x")
    with pytest.raises(ValueError):
        Word([0, 1])
    with pytest.raises(ValueError):
        Word([0])


@given(perm_strategy)
def test_super_word_properties(entries):
    w = Permutation(entries)
    pi = super_word(w)
    assert word_to_permutation(pi, w.n) == w
    assert is_reduced(pi, w.n)
    assert is_super_yamanouchi(pi)
    assert word_inversions(pi) == 0
    assert is_reduced(pi.reverse(), w.n)
    assert word_to_permutation(pi.reverse(), w.n) == w.inverse()


def test_super_word_memo_is_keyed_by_permutation():
    """Every reduced word of S_4 and S_5 in a shuffled order, so
    more permutations pass through the super-word memo than it holds; the
    expected values come from the move graphs, not from ``super_word``."""
    import random

    from redwords import build_graph, shortest_paths
    from redwords.words import _super_word

    cases = []
    for n in (4, 5):
        for w in all_permutations(n):
            g = build_graph(w, "words")
            pi = next(r for r in g.vertices if is_super_yamanouchi(r))
            dist, _ = shortest_paths(g, pi)
            cases.extend(zip(g.vertices, dist))
    random.Random(5).shuffle(cases)
    _super_word.cache_clear()
    for rho, d in cases:
        assert word_inversions(rho) == d
        is_identity = pairing_permutation(rho) == Permutation.identity(len(rho))
        assert is_identity == (d == 0)
    held = _super_word.cache_info()
    assert len({word_to_permutation(rho) for rho, _ in cases}) > held.maxsize
    assert held.misses > held.maxsize


def test_replay_memo_keeps_results_not_errors():
    """A word that is not reduced raises the same error on every call,
    before and after reduced words are kept, and is never kept itself; a
    kept result is made of tuples; and more distinct words than the memo
    holds leave it full, no larger."""
    from redwords.bijection import word_to_tableau
    from redwords.words import _HELD, _replay

    bad, message = Word([1, 2, 1, 2]), "word is not reduced: 1,2,1,2"
    reads = (word_inversions, pairing_permutation, word_to_tableau)

    def raises_each_time():
        for read in reads:
            for _ in range(2):
                with pytest.raises(ValueError) as caught:
                    read(bad)
                assert str(caught.value) == message

    raises_each_time()
    assert _replay.cache_info().currsize == 0
    rhos = enumerate_reduced_words(Permutation.longest(5))
    assert len(rhos) > _HELD
    first = [word_inversions(rho) for rho in rhos[:3]]
    for rho in rhos:
        w, cells = _replay(rho)
        assert type(w) is Permutation and type(cells) is tuple
        assert all(type(cell) is tuple for cell in cells)
        assert _replay(rho) is _replay(Word(rho))  # one kept result per word
    held = _replay.cache_info()
    assert held.currsize == held.maxsize == _HELD
    raises_each_time()
    assert _replay.cache_info().currsize == _HELD
    assert [word_inversions(rho) for rho in rhos[:3]] == first  # replayed again


def test_word_to_text_matches_str():
    for rho in (Word(), Word([3]), RHO):
        assert rho.to_text() == str(rho)
        assert Word.from_text(rho.to_text()) == rho
