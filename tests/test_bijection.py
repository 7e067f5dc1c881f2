import os
import random
import re
from itertools import combinations
from itertools import permutations as itertools_permutations

import pytest

from redwords import (
    Diagram,
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
    pairing_permutation,
    permutation_of_diagram,
    reconstruct_from_row_multisets,
    rothe_diagram,
    super_tableau,
    super_word,
    tab_inversions,
    tab_permutation,
    tableau_to_word,
    verify_poset_isomorphism,
    word_inversions,
    word_to_permutation,
    word_to_tableau,
    yang_baxter_count,
)

from redwords.bijection import match_by_permutation
from redwords.tableaux import _rows_and_braids
from redwords.words import _replay

from conftest import (
    EDGE_GRID_4321,
    TABLEAU_GRID_42153,
    TABLEAU_GRID_4321,
    WORD_GRID_42153,
    grid_edges,
    oracle_distance,
    random_reduced_word,
    reference_is_balanced,
    reference_pairing,
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
    with pytest.raises(ValueError, match="word is not reduced: 1,1"):
        word_to_tableau(Word([1, 1]))


def test_tableau_to_word_examples():
    assert tableau_to_word(BIG_TABLEAU) == BIG_WORD
    for w in all_permutations(4):
        assert tableau_to_word(super_tableau(w)) == super_word(w)


def test_round_trip():
    for n in range(1, 6):
        for w in all_permutations(n):
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
    matching = match_by_permutation(words, tableaux)
    assert [tableaux[j] for j in matching] == [word_to_tableau(rho) for rho in words]
    assert sorted(matching) == list(range(len(tableaux)))
    assert match_by_permutation(words[:-1], tableaux) is None
    assert match_by_permutation(words, tableaux[:-1]) is None
    assert match_by_permutation(words, tableaux[:1] * len(tableaux)) is None
    assert match_by_permutation([Word()], [Filling({})]) == [0]
    assert match_by_permutation([Word()], []) is None
    assert match_by_permutation([], [Filling({})]) is None
    assert match_by_permutation([Word([1])], [Filling({})]) is None


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


def _reference_tableau_to_word(f):
    """The transport as a fold of public word moves, one word per step."""
    word = super_word(permutation_of_diagram(Diagram(f.cells)))
    for move in reversed(descent_to_super(f)):
        word = move.on_word(word)
    if pairing_permutation(word) != tab_permutation(f):
        raise RuntimeError(f"word transport failed for {f.to_text()}")
    return word


def test_tableau_to_word_matches_reference_on_every_standard_filling():
    # a balanced filling gives the fold's word, and every other is refused
    tally = {Word: 0, ValueError: 0}
    for n in range(1, 5):
        for w in all_permutations(n):
            cells = rothe_diagram(w).cells
            for values in itertools_permutations(range(1, len(cells) + 1)):
                f = Filling(zip(cells, values))
                if is_balanced(f):
                    assert tableau_to_word(f) == _reference_tableau_to_word(f)
                    tally[Word] += 1
                else:
                    with pytest.raises(ValueError, match=f"^tableau is not balanced: {f.to_text()}$"):
                        tableau_to_word(f)
                    tally[ValueError] += 1
    assert tally == {Word: 76, ValueError: 1190}


@pytest.mark.parametrize(
    "entries,message",
    [
        ({(1, 1): 1, (2, 1): 1}, "entries are not a bijection onto 1..2"),
        ({(1, 1): 2}, "entries are not a bijection onto 1..1"),
        ({(1, 2): 1}, "cell set is not the diagram of a permutation"),
        ({(1, 3): 1}, "cell set is not the diagram of a permutation"),
        ({(1, 1): 1, (1, 2): 2}, "tableau is not balanced: 1,1,1;1,2,2"),
    ],
    ids=["entry_twice", "entry_out_of_range", "not_rothe", "column_past_the_rank", "unbalanced"],
)
def test_tableau_to_word_refuses_fillings_that_are_not_balanced_tableaux(entries, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        tableau_to_word(Filling(entries))


def _replay_after_checks(f):
    """The inverse labelling with its checks made first: the Rothe test by
    re-drawing the decoded permutation's diagram, then the standard check,
    then the replay.  Its refusal messages, in this order, are the contract
    ``tableau_to_word`` keeps."""
    rows = f.diagram.rows()
    n = max((r + len(cols) for r, cols in rows.items()), default=1)
    available = list(range(n, 0, -1))
    w = Permutation([available.pop(-1 - len(rows.get(r, ()))) for r in range(1, n + 1)])
    if rothe_diagram(w) != f.diagram:
        raise ValueError("cell set is not the diagram of a permutation")
    if sorted(f.entries) != list(range(1, len(f) + 1)):
        raise ValueError(f"entries are not a bijection onto 1..{len(f)}")
    pos = list(range(n + 1))
    letters = []
    for _, (i, x) in sorted(zip(f.entries, f.cells)):
        p, y = pos[x], w[i - 1]
        if pos[y] != p + 1:
            raise ValueError(f"tableau is not balanced: {f.to_text()}")
        pos[x], pos[y] = p + 1, p
        letters.append(p)
    return Word(letters[::-1])


def _word_or_message(f, read=tableau_to_word):
    try:
        return read(f)
    except ValueError as exc:
        return str(exc)


def _corruptions(t, rng):
    """t with one entry given twice, with one cell moved off the diagram,
    and with two entries of one row exchanged."""
    cells, entries = list(t.cells), list(t.entries)
    k, j = rng.sample(range(len(cells)), 2)
    yield Filling(zip(cells, entries[:k] + [entries[j]] + entries[k + 1 :]))
    top = max(max(cell) for cell in cells) + 1
    off = rng.choice([(r, c) for r in range(1, top + 1) for c in range(1, top + 1) if (r, c) not in t.diagram])
    yield Filling(zip(cells[:k] + [off] + cells[k + 1 :], entries))
    row = rng.choice([r for r, cols in t.diagram.rows().items() if len(cols) > 1])
    a, b = rng.sample([m for m, (r, _) in enumerate(cells) if r == row], 2)
    entries[a], entries[b] = entries[b], entries[a]
    yield Filling(zip(cells, entries))


def test_tableau_to_word_refuses_corrupted_long_tableaux_with_the_checks_messages():
    """Past rank 6, each corruption of a seeded tableau is refused with the
    message that the separate checks give, and ``is_balanced`` judges the
    tableau and each standard corruption as the reference does."""
    rng = random.Random(29)
    refused = {"entries": 0, "cell": 0, "tableau": 0}  # by first word
    for n in range(7, 15):
        for _ in range(3):
            t = word_to_tableau(random_reduced_word(rng, n))
            assert _word_or_message(t) == _replay_after_checks(t)
            assert is_balanced(t) and reference_is_balanced(t)
            for f in _corruptions(t, rng):
                outcome = _word_or_message(f)
                assert outcome == _word_or_message(f, _replay_after_checks)
                if sorted(f.entries) == list(range(1, len(f) + 1)):
                    assert is_balanced(f) == reference_is_balanced(f)
                else:
                    assert _word_or_message(f, is_balanced) == outcome  # refused as non-bijective
                if isinstance(outcome, str):
                    refused[outcome.split()[0]] += 1
    assert refused == {"entries": 24, "cell": 24, "tableau": 24}  # one per corruption


def test_tableau_to_word_equals_the_checked_replay_on_every_small_cell_set():
    """Every standard filling of every set of at most 4 cells in the 3x3
    grid, Rothe or not: among them row sizes that decode to a permutation
    whose replay would undo an inversion, as on the cells (1,3), (2,2)."""
    grid = [(r, c) for r in range(1, 4) for c in range(1, 4)]
    tally = {Word: 0, str: 0}
    for size in range(5):
        for cells in combinations(grid, size):
            for values in itertools_permutations(range(1, size + 1)):
                f = Filling(zip(cells, values))
                outcome = _word_or_message(f)
                assert outcome == _word_or_message(f, _replay_after_checks)
                tally[type(outcome)] += 1
    assert tally == {Word: 36, str: 3574}  # 3,610 fillings


@pytest.mark.skipif(
    os.environ.get("REDWORDS_STRESS") != "1",
    reason="S_5 stress run; set REDWORDS_STRESS=1 to enable",
)
def test_tableau_to_word_equals_the_checked_replay_on_every_s5_filling_stress():
    """Every standard filling of every Rothe diagram of S_5 with at most 8
    cells: the same word or the same refusal as the separate checks, and a
    word exactly when the filling is balanced."""
    tally = {Word: 0, str: 0}
    for w in all_permutations(5):
        cells = rothe_diagram(w).cells
        if len(cells) > 8:
            continue
        for values in itertools_permutations(range(1, len(cells) + 1)):
            f = Filling(zip(cells, values))
            outcome = _word_or_message(f)
            assert outcome == _word_or_message(f, _replay_after_checks)
            assert is_balanced(f) == isinstance(outcome, Word)
            tally[type(outcome)] += 1
    assert sum(tally.values()) == 456_113
    assert tally[Word] == sum(len(enumerate_reduced_words(w)) for w in all_permutations(5) if w.length <= 8)


def _reference_word_to_tableau(word):
    """The tableau as the reference scan's pairing permutation split into
    row blocks, bottom row first, rebuilt by row-sort reconstruction and
    checked; no part of it reads the labelling."""
    v, w, _ = reference_pairing(word)
    d = rothe_diagram(w)
    blocks, start = [], 0
    for cols in d.rows().values():  # bottom row first
        blocks.append(tuple(v[start : start + len(cols)]))
        start += len(cols)
    tableau = reconstruct_from_row_multisets(d, blocks)
    if tableau is None or not is_balanced(tableau) or tab_permutation(tableau) != v:
        raise RuntimeError(f"no balanced tableau matches word {word}")
    return tableau


def test_word_to_tableau_matches_reference_and_matching():
    # the labelling carries no closing check, so this test is that check
    for n in range(1, 6):
        for w in all_permutations(n):
            words = enumerate_reduced_words(w)
            tableaux = enumerate_sbt(w)
            matching = match_by_permutation(words, tableaux)
            for rho, j in zip(words, matching):
                t = word_to_tableau(rho)
                assert t == _reference_word_to_tableau(rho) == tableaux[j]
                assert is_balanced(t)
    rng = random.Random(17)
    for n in range(7, 16):
        for _ in range(12):
            rho = random_reduced_word(rng, n)
            assert word_to_tableau(rho) == _reference_word_to_tableau(rho)


def test_seeded_round_trip_of_long_words():
    rng = random.Random(7)
    for n in range(7, 15):
        for _ in range(2):
            rho = random_reduced_word(rng, n)
            t = word_to_tableau(rho)
            assert word_to_tableau(list(rho)) == t
            assert tableau_to_word(t) == _reference_tableau_to_word(t) == rho
            assert tab_inversions(t) == word_inversions(rho)
            super_rho = super_word(word_to_permutation(rho))
            assert column_inversions(t) == yang_baxter_count(rho, super_rho)


def test_read_path_pairs_each_word_once():
    """One query on a long word (its rank, its tableau, the round trip and
    its braid count toward the super word) replays the word once, which
    the tableau and the braid count then read from the memo, never replays
    the super word, and walks the tableau once for both of its counts."""
    rng = random.Random(13)
    for n in range(7, 15):
        for _ in range(4):
            rho = random_reduced_word(rng, n)
            pi = super_word(word_to_permutation(rho))
            assert rho != pi
            _replay.cache_clear()
            _rows_and_braids.cache_clear()
            inv = word_inversions(rho)
            t = word_to_tableau(rho)
            assert tab_inversions(t) == inv
            assert column_inversions(t) == yang_baxter_count(rho, pi)
            assert tableau_to_word(t) == rho
            replays, walks = _replay.cache_info(), _rows_and_braids.cache_info()
            # one word kept: rho, so the super word was never replayed
            assert (replays.misses, replays.hits, replays.currsize) == (1, 2, 1)
            assert (walks.misses, walks.hits) == (1, 1)
