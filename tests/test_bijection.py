from itertools import permutations as itertools_permutations

import pytest

from redwords import (
    Filling,
    Move,
    Permutation,
    Word,
    all_permutations,
    column_inversions,
    descent_to_super,
    enumerate_reduced_words,
    enumerate_sbt,
    is_balanced,
    rothe_diagram,
    super_tableau,
    super_word,
    tab_inversions,
    tableau_to_word,
    verify_poset_isomorphism,
    word_to_tableau,
)

from redwords.bijection import match_by_permutation

from conftest import (
    EDGE_GRID_4321,
    TABLEAU_GRID_42153,
    TABLEAU_GRID_4321,
    WORD_GRID_42153,
    grid_edges,
    oracle_distance,
    tableau_42153,
    tableau_4321,
)

BIG_WORD = Word([5, 6, 3, 4, 5, 7, 3, 1, 4, 2, 3, 6])
BIG_TABLEAU = Filling(
    {
        (5, 2): 12, (5, 3): 11, (5, 6): 7,
        (4, 2): 6, (4, 3): 4,
        (3, 2): 9, (3, 3): 8, (3, 5): 10, (3, 6): 1,
        (1, 1): 5, (1, 2): 3, (1, 3): 2,
    }
)


def test_descent_to_super_trivial():
    for w in all_permutations(3):
        assert descent_to_super(super_tableau(w)) == []


def test_descent_to_super_counts_moves():
    seq = descent_to_super(BIG_TABLEAU)
    assert len(seq) == 11
    assert sum(1 for m in seq if m.kind == "b") == 2


def test_descent_lengths_match_distance_oracle():
    edges = grid_edges(TABLEAU_GRID_4321, EDGE_GRID_4321, make=tableau_4321)
    top = tableau_4321(TABLEAU_GRID_4321["R37"])
    for entry in TABLEAU_GRID_4321.values():
        t = tableau_4321(entry)
        seq = descent_to_super(t)
        assert len(seq) == oracle_distance(edges, t, top)
        assert len(seq) == tab_inversions(t)
        assert sum(1 for m in seq if m.kind == "b") == column_inversions(t)


def test_word_to_tableau_examples():
    assert word_to_tableau(BIG_WORD) == BIG_TABLEAU
    for w in all_permutations(4):
        assert word_to_tableau(super_word(w)) == super_tableau(w)


def test_word_to_tableau_matches_reference_grids():
    # the two reference pictures pair node for node
    for name, letters in WORD_GRID_42153.items():
        assert word_to_tableau(Word(letters)) == tableau_42153(
            TABLEAU_GRID_42153[name]
        )


def test_word_to_tableau_rejects_unreduced():
    with pytest.raises(ValueError):
        word_to_tableau(Word([1, 1]))


def test_tableau_to_word_examples():
    assert tableau_to_word(BIG_TABLEAU) == BIG_WORD
    for w in all_permutations(4):
        assert tableau_to_word(super_tableau(w)) == super_word(w)


def test_round_trip():
    for w in all_permutations(4):
        for rho in enumerate_reduced_words(w):
            assert tableau_to_word(word_to_tableau(rho)) == rho


def test_verify_poset_isomorphism():
    for w in (
        Permutation([4, 2, 1, 5, 3]),
        Permutation([4, 3, 2, 1]),
        Permutation.identity(3),
    ):
        results = verify_poset_isomorphism(w)
        assert {r.name for r in results} == {
            "perm_matching_bijection",
            "rank_preserved",
            "edges_correspond",
            "flip_matches_reversal",
        }
        assert all(r.passed for r in results)


def test_match_by_permutation_of_given_lists():
    w = Permutation([4, 3, 2, 1])
    words, tableaux = enumerate_reduced_words(w), enumerate_sbt(w)
    mapping = match_by_permutation(words, tableaux)
    assert mapping == {rho: word_to_tableau(rho) for rho in words}
    assert match_by_permutation(words[:-1], tableaux) is None
    assert match_by_permutation(words, tableaux[:-1]) is None
    assert match_by_permutation(words, tableaux[:1] * len(tableaux)) is None
    assert match_by_permutation([Word()], [Filling({})]) == {Word(): Filling({})}
    assert match_by_permutation([Word()], []) is None


def _reference_descent(f):
    """The descent as a loop of checked fillings and public moves."""
    moves, current, ell = [], f, len(f)
    while True:
        pos = current.positions()
        drops = [i for i in range(1, ell) if pos[i][0] > pos[i + 1][0]]
        if not drops:
            return moves
        commutable = [i for i in drops if pos[i][1] != pos[i + 1][1]]
        move = Move("c", min(commutable)) if commutable else Move("b", max(drops) + 1)
        advanced = move.on_tableau(current)
        if advanced == current:
            raise RuntimeError(f"descent stalled at {current.to_text()}")
        moves.append(move)
        current = advanced


def _outcome(descent, f):
    try:
        return [move.label for move in descent(f)]
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


def test_descent_matches_reference_on_every_standard_filling():
    # unbalanced fillings end in move lists, out-of-range braids or stalls,
    # and the kernel must end each one exactly as the reference does
    tally = {list: 0, ValueError: 0, RuntimeError: 0}
    for n in range(1, 5):
        for w in all_permutations(n):
            cells = rothe_diagram(w).cells
            for values in itertools_permutations(range(1, len(cells) + 1)):
                f = Filling(zip(cells, values))
                expected = _outcome(_reference_descent, f)
                assert _outcome(descent_to_super, f) == expected
                if not is_balanced(f):
                    kind = list if isinstance(expected, list) else expected[0]
                    tally[kind] += 1
    assert tally == {list: 308, ValueError: 452, RuntimeError: 430}


@pytest.mark.parametrize("n", range(1, 6))
def test_descent_replays_through_public_moves(n):
    for w in all_permutations(n):
        top = super_tableau(w)
        for t in enumerate_sbt(w):
            for move in descent_to_super(t):
                advanced = move.on_tableau(t)
                assert advanced != t
                t = advanced
            assert t == top
