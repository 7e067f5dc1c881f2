import random
import time
from itertools import combinations, product
from itertools import permutations as itertools_permutations

import pytest

from redwords import (
    Filling,
    Permutation,
    all_permutations,
    column_inversions,
    enumerate_sbt,
    flip,
    inversion_pairs,
    is_balanced,
    is_rothe_diagram,
    min_inv_w0,
    psi,
    reconstruct_from_row_multisets,
    rothe_diagram,
    row_coinversions,
    row_interval_filling,
    super_tableau,
    super_word,
    tab_braid,
    tab_commutation,
    tab_inversions,
    tab_permutation,
    tableau_to_word,
    word_inversions,
    word_to_permutation,
)

from redwords.bijection import moves_for, word_to_tableau
from redwords.diagrams import _filling
from redwords.tableaux import _iter_sbt

from conftest import (
    EDGE_GRID_4321,
    TABLEAU_GRID_42153,
    TABLEAU_GRID_4321,
    grid_edges,
    oracle_distance,
    oracle_min_braids,
    random_reduced_word,
    reference_is_balanced,
    tableau_42153,
    tableau_4321,
)

# Running example: the balanced tableau on the diagram of 41758236 whose
# inversion pairs are listed in the text.
BIG = Filling(
    {
        (5, 2): 12, (5, 3): 11, (5, 6): 7,
        (4, 2): 6, (4, 3): 4,
        (3, 2): 9, (3, 3): 8, (3, 5): 10, (3, 6): 1,
        (1, 1): 5, (1, 2): 3, (1, 3): 2,
    }
)
BIG_PERM = Permutation([2, 3, 5, 1, 8, 9, 10, 4, 6, 7, 11, 12])


GRID = [(r, c) for r in range(1, 4) for c in range(1, 4)]


def _grid_fillings():
    """Every standard filling of every set of at most 5 cells of the 3x3
    grid, then every filling of at most 3 of them with entries in
    1..size+1 (24,449 fillings), Rothe diagrams or not."""
    for size in range(6):
        for cells in combinations(GRID, size):
            for values in itertools_permutations(range(1, size + 1)):
                yield _filling(cells, values)
    for size in range(4):
        for cells in combinations(GRID, size):
            for values in product(range(1, size + 2), repeat=size):
                yield _filling(cells, values)


def test_tableau_to_word_certifies_exactly_the_balanced_rothe_fillings():
    """The replay's certificate against the two checks it stands for, over
    every standard filling of ``_grid_fillings``, Rothe diagrams or not."""
    tally = {True: 0, False: 0}
    for f in _grid_fillings():
        if sorted(f.entries) != list(range(1, len(f) + 1)):
            continue
        try:
            tableau_to_word(f)
        except ValueError:
            certified = False
        else:
            certified = True
        assert certified == (is_balanced(f) and is_rothe_diagram(f.diagram)), f
        tally[certified] += 1
    assert tally == {True: 82, False: 19234}  # 19,316 standard fillings


def test_is_balanced_examples():
    hooks = Filling({(1, 1): 3, (1, 2): 5, (1, 3): 2, (2, 1): 1, (4, 3): 4})
    assert is_balanced(hooks)
    for w in all_permutations(4):
        assert is_balanced(super_tableau(w))
    unbalanced = Filling({(1, 1): 5, (1, 2): 3, (1, 3): 2, (2, 1): 1, (4, 3): 4})
    assert not is_balanced(unbalanced)


def test_is_balanced_matches_reference_on_every_standard_filling():
    tally = {True: 0, False: 0}
    for n in range(1, 5):
        for w in all_permutations(n):
            cells = rothe_diagram(w).cells
            for values in itertools_permutations(range(1, len(cells) + 1)):
                f = Filling(zip(cells, values))
                expected = reference_is_balanced(f)
                assert is_balanced(f) == expected
                tally[expected] += 1
    # as many balanced tableaux as reduced words over S_1..S_4
    assert tally == {True: 1 + 2 + 7 + 66, False: 1190}
    # balance is defined on any diagram: every set of at most 5 cells in the 3x3 grid
    tally = {True: 0, False: 0}
    for size in range(6):
        for cells in combinations(GRID, size):
            for values in itertools_permutations(range(1, size + 1)):
                f = Filling(zip(cells, values))
                expected = reference_is_balanced(f)
                assert is_balanced(f) == expected
                tally[expected] += 1
    assert tally == {True: 1759, False: 16971}  # 18,730 fillings


def test_is_balanced_rejects_non_bijective():
    with pytest.raises(ValueError):
        is_balanced(Filling({(1, 1): 2, (2, 1): 3}))


def test_enumerate_sbt_matches_reference_set():
    found = enumerate_sbt(Permutation([4, 2, 1, 5, 3]))
    expected = {tableau_42153(entry) for entry in TABLEAU_GRID_42153.values()}
    assert len(found) == 11
    assert set(found) == expected
    assert found == sorted(found, key=lambda f: f.entries)


def test_enumerate_sbt_small_cases():
    assert enumerate_sbt(Permutation([2, 1])) == [Filling({(1, 1): 1})]
    found = enumerate_sbt(Permutation([4, 3, 2, 1]))
    expected = {tableau_4321(entry) for entry in TABLEAU_GRID_4321.values()}
    assert len(found) == 16
    assert set(found) == expected
    assert enumerate_sbt(Permutation.identity(3)) == [Filling({})]


def test_tab_commutation_reference_edge():
    top = tableau_42153(TABLEAU_GRID_42153["C5"])
    assert top == super_tableau(Permutation([4, 2, 1, 5, 3]))
    assert tab_commutation(top, 4) == tableau_42153(TABLEAU_GRID_42153["B4"])
    # 1 and 2 share the bottom row, so nothing moves
    assert tab_commutation(top, 1) == top
    with pytest.raises(ValueError):
        tab_commutation(top, 5)


def test_tab_braid_reference_edge():
    top = tableau_42153(TABLEAU_GRID_42153["C5"])
    assert tab_braid(top, 3) == tableau_42153(TABLEAU_GRID_42153["D4"])
    assert tab_braid(top, 2) == top
    with pytest.raises(ValueError):
        tab_braid(top, 1)


def test_moves_are_involutions():
    for grid, make in (
        (TABLEAU_GRID_42153, tableau_42153),
        (TABLEAU_GRID_4321, tableau_4321),
    ):
        for entry in grid.values():
            t = make(entry)
            for i in range(1, len(t)):
                assert tab_commutation(tab_commutation(t, i), i) == t
                assert is_balanced(tab_commutation(t, i))
            for i in range(2, len(t)):
                assert tab_braid(tab_braid(t, i), i) == t
                assert is_balanced(tab_braid(t, i))


def test_inversion_pairs_reference_example():
    assert set(inversion_pairs(BIG)) == {
        (7, 9), (7, 8), (7, 10),
        (6, 8), (6, 10),
        (4, 5), (4, 9), (4, 10),
        (1, 5), (1, 3), (1, 2),
    }
    assert tab_inversions(BIG) == 11
    # (6,9) and (4,8) sit in one column: column inversions, not inversions
    assert column_inversions(BIG) == 2


def test_super_tableau_statistics():
    for w in all_permutations(4):
        top = super_tableau(w)
        assert tab_inversions(top) == 0
        assert column_inversions(top) == 0
        assert tab_permutation(top) == Permutation.identity(len(top))


def test_tab_inversions_match_distance_oracle():
    edges = grid_edges(TABLEAU_GRID_4321, EDGE_GRID_4321, make=tableau_4321)
    top = tableau_4321(TABLEAU_GRID_4321["R37"])
    for entry in TABLEAU_GRID_4321.values():
        t = tableau_4321(entry)
        assert tab_inversions(t) == oracle_distance(edges, t, top)
        assert column_inversions(t) == oracle_min_braids(edges, t, top)


def test_tab_permutation_reference_example():
    assert tab_permutation(BIG) == BIG_PERM
    assert tab_permutation(Filling({})) == Permutation(())


def test_inversion_identity():
    # inversions = length of the permutation minus the row coinversions
    assert BIG_PERM.length == 13
    assert row_coinversions(BIG) == 2
    for w in all_permutations(4):
        for t in enumerate_sbt(w):
            assert tab_inversions(t) == tab_permutation(t).length - row_coinversions(t)


def _reference_row_coinversions(f):
    """The pairwise definition: entries i < j in one row, i left of j."""
    return sum(
        1
        for row in f.rows().values()
        for (_, e1), (_, e2) in combinations(row, 2)
        if e1 < e2
    )


def test_row_coinversions_match_pairwise_count():
    """Every standard filling of every Rothe diagram of S_1..S_4."""
    for n in range(1, 5):
        for w in all_permutations(n):
            cells = rothe_diagram(w).cells
            for values in itertools_permutations(range(1, len(cells) + 1)):
                f = Filling(zip(cells, values))
                assert row_coinversions(f) == _reference_row_coinversions(f)


def test_inversion_statistics_of_a_10000_cell_tableau_are_fast():
    """The tableau of a seeded reduced word of a rank-200 permutation: the
    three tableau statistics agree with the word's, and with the inversion
    identity, and together take well under a second."""
    word = random_reduced_word(random.Random(200), 200)
    t = word_to_tableau(word)
    assert len(t) == len(word) > 10_000
    start = time.perf_counter()
    inversions, braids, coinversions = tab_inversions(t), column_inversions(t), row_coinversions(t)
    elapsed = time.perf_counter() - start
    w = word_to_permutation(word)
    assert inversions == word_inversions(word)
    assert braids == sum(super_word(w)) - sum(word)
    assert inversions == tab_permutation(t).length - coinversions
    assert elapsed < 1.0, elapsed


def test_reconstruct_from_row_multisets():
    d = rothe_diagram(Permutation([4, 1, 7, 5, 8, 2, 3, 6]))
    rows = [[5, 3, 2], [10, 9, 8, 1], [6, 4], [12, 11, 7]]
    assert reconstruct_from_row_multisets(d, rows) == BIG

    for w in all_permutations(4):
        top = super_tableau(w)
        grouped = top.rows()
        contents = [[e for _, e in grouped[r]] for r in sorted(grouped)]
        assert reconstruct_from_row_multisets(rothe_diagram(w), contents) == top


def test_reconstruct_infeasible_distribution():
    d = rothe_diagram(Permutation([3, 2, 1]))
    # brute-force oracle: no ordering of rows {1,3},{2} balances
    cells_by_row = d.rows()
    feasible = []
    for bottom in itertools_permutations([1, 3]):
        filling = Filling(
            {
                (1, cells_by_row[1][0]): bottom[0],
                (1, cells_by_row[1][1]): bottom[1],
                (2, cells_by_row[2][0]): 2,
            }
        )
        if is_balanced(filling):
            feasible.append(filling)
    assert feasible == []
    assert reconstruct_from_row_multisets(d, [[1, 3], [2]]) is None
    # while {1,2},{3} reconstructs (to the super tableau)
    assert reconstruct_from_row_multisets(d, [[1, 2], [3]]) == super_tableau(
        Permutation([3, 2, 1])
    )


def test_reconstruct_rejects_bad_partitions():
    d = rothe_diagram(Permutation([3, 2, 1]))
    with pytest.raises(ValueError):
        reconstruct_from_row_multisets(d, [[1, 2, 3]])
    with pytest.raises(ValueError):
        reconstruct_from_row_multisets(d, [[1, 2], [4]])
    with pytest.raises(ValueError):
        reconstruct_from_row_multisets(d, [[1], [2, 3]])


def test_round_trip_reconstruction():
    for w in all_permutations(4):
        d = rothe_diagram(w)
        for t in enumerate_sbt(w):
            grouped = t.rows()
            contents = [[e for _, e in grouped[r]] for r in sorted(grouped)]
            assert reconstruct_from_row_multisets(d, contents) == t


def test_flip_reference_example():
    image = flip(BIG)
    assert image == Filling(
        {
            (6, 3): 12, (6, 5): 6,
            (5, 3): 3,
            (3, 1): 11, (3, 3): 5, (3, 4): 9, (3, 5): 2,
            (2, 1): 10, (2, 3): 4, (2, 4): 7, (2, 5): 1,
            (1, 1): 8,
        }
    )
    assert tab_permutation(image) == Permutation([8, 1, 4, 7, 10, 2, 5, 9, 11, 3, 6, 12])
    assert image.diagram == rothe_diagram(Permutation([4, 1, 7, 5, 8, 2, 3, 6]).inverse())
    assert is_balanced(image)


def test_flip_involution_into_inverse():
    for w in all_permutations(4):
        target = set(enumerate_sbt(w.inverse()))
        for t in enumerate_sbt(w):
            image = flip(t)
            assert image in target
            assert flip(image) == t


def test_flip_of_super_is_not_always_super():
    # equal for a single-cell diagram, different already for 42153
    w2 = Permutation([2, 1])
    assert flip(super_tableau(w2)) == super_tableau(w2.inverse())
    w5 = Permutation([4, 2, 1, 5, 3])
    assert flip(super_tableau(w5)) != super_tableau(w5.inverse())


def test_flip_intertwines_moves():
    for w in all_permutations(4):
        for t in enumerate_sbt(w):
            ell = len(t)
            image = flip(t)
            for i in range(1, ell):
                assert flip(tab_commutation(t, i)) == tab_commutation(image, ell - i)
            for i in range(2, ell):
                assert flip(tab_braid(t, i)) == tab_braid(image, ell - i + 1)


def test_psi_reference_example():
    top = super_tableau(Permutation([4, 3, 2, 1]))
    bottom = psi(top)
    assert bottom == Filling(
        {(1, 1): 4, (1, 2): 5, (1, 3): 6, (2, 1): 2, (2, 2): 3, (3, 1): 1}
    )
    assert tab_inversions(bottom) == 7


def test_psi_involution_and_rank_complement():
    for t in enumerate_sbt(Permutation([4, 3, 2, 1])):
        image = psi(t)
        assert is_balanced(image)
        assert psi(image) == t
        assert tab_inversions(t) + tab_inversions(image) == 7


def test_psi_rejects_other_shapes():
    with pytest.raises(ValueError):
        psi(super_tableau(Permutation([4, 2, 1, 5, 3])))


def test_min_inv_w0_values():
    assert min_inv_w0(4) == 7
    assert min_inv_w0(2) == 0
    assert min_inv_w0(5) == 25
    assert min_inv_w0(1) == 0
    with pytest.raises(ValueError):
        min_inv_w0(0)


def test_counts_match_words():
    from redwords import enumerate_reduced_words

    for w in all_permutations(4):
        assert len(enumerate_sbt(w)) == len(enumerate_reduced_words(w))


def test_enumerate_sbt_matches_brute_force_over_s4():
    for w in all_permutations(4):
        cells = rothe_diagram(w).cells
        brute = {
            f
            for values in itertools_permutations(range(1, len(cells) + 1))
            if is_balanced(f := Filling(dict(zip(cells, values))))
        }
        found = enumerate_sbt(w)
        assert len(found) == len(brute)
        assert set(found) == brute


def test_derived_fillings_equal_public_ones():
    for n in range(1, 5):
        longest = Permutation.longest(n)
        for w in all_permutations(n):
            d = rothe_diagram(w)
            derived = [super_tableau(w), row_interval_filling(d)]
            for t in _iter_sbt(w):
                rows = t.rows()
                contents = [[e for _, e in rows[r]] for r in sorted(rows)]
                derived += [t, flip(t), reconstruct_from_row_multisets(d, contents)]
                derived += [move.on_tableau(t) for move in moves_for(len(t))]
                if w == longest:
                    derived.append(psi(t))
            for f in derived:
                assert type(f) is Filling
                for rebuilt in (Filling(f.items()), Filling.from_text(f.to_text())):
                    assert f == rebuilt and hash(f) == hash(rebuilt)


def test_complements_reject_entries_above_the_cell_count():
    with pytest.raises(ValueError):
        flip(Filling({(1, 1): 2}))
    with pytest.raises(ValueError):
        psi(Filling({(1, 1): 2}))


def _reference_reconstruct(d, rows):
    """Row reconstruction that rescans every placed entry per candidate."""
    drows = d.rows()
    entry_map = {}
    for r, content in sorted(zip(sorted(drows), rows), reverse=True):
        remaining = sorted(content, reverse=True)
        for c in drows[r]:
            placed = None
            for idx, candidate in enumerate(remaining):
                above_smaller = sum(
                    1
                    for (r2, c2), e in entry_map.items()
                    if c2 == c and r2 > r and e < candidate
                )
                if above_smaller == idx:
                    placed = idx
                    break
            if placed is None:
                return None
            entry_map[(r, c)] = remaining.pop(placed)
    return Filling(entry_map)


def _row_splits(values, sizes):
    """Every split of the values into blocks of the given sizes, in order."""
    if not sizes:
        yield []
        return
    for block in combinations(values, sizes[0]):
        rest = [v for v in values if v not in block]
        for tail in _row_splits(rest, sizes[1:]):
            yield [block] + tail


def test_reconstruction_matches_reference_on_every_row_split():
    tally = {True: 0, False: 0}
    for n in range(1, 5):
        for w in all_permutations(n):
            d = rothe_diagram(w)
            sizes = [len(cols) for cols in d.rows().values()]
            for blocks in _row_splits(range(1, len(d) + 1), sizes):
                expected = _reference_reconstruct(d, blocks)
                assert reconstruct_from_row_multisets(d, blocks) == expected
                tally[expected is not None] += 1
    # exactly the balanced tableaux reconstruct: one per reduced word
    assert tally == {True: 1 + 2 + 7 + 66, False: 125}


def _reference_column_inversions(f):
    """The pairwise definition, over every pair of entry values."""
    pos = f.positions()
    ell = len(f)
    return sum(
        1
        for i in range(1, ell + 1)
        for j in range(i + 1, ell + 1)
        if pos[i][0] > pos[j][0] and pos[i][1] == pos[j][1]
    )


def _counted(count, f):
    """The value, or the exception's type and arguments."""
    try:
        return count(f)
    except (KeyError, ValueError) as exc:
        return type(exc), exc.args


def test_column_inversions_match_pairwise_count():
    for n in range(1, 5):
        for w in all_permutations(n):
            cells = rothe_diagram(w).cells
            for values in itertools_permutations(range(1, len(cells) + 1)):
                f = Filling(zip(cells, values))
                assert column_inversions(f) == _reference_column_inversions(f)
            if len(cells) <= 3:  # entries that are not 1..ell: the same KeyError
                for values in product(range(1, len(cells) + 2), repeat=len(cells)):
                    f = _filling(cells, values)
                    expected = _counted(_reference_column_inversions, f)
                    assert _counted(column_inversions, f) == expected
    raised = 0
    for f in _grid_fillings():  # any cell set, not only Rothe diagrams
        expected = _counted(_reference_column_inversions, f)
        assert _counted(column_inversions, f) == expected
        raised += not isinstance(expected, int)
    assert raised == 5124  # every non-standard filling of 2 or 3 cells


def _reference_tab_permutation(f):
    """Each row's entries sorted increasing, rows bottom up, read off the
    row dict of ``Filling.rows``."""
    out = []
    rows = f.rows()
    for r in sorted(rows):
        out.extend(sorted(e for _, e in rows[r]))
    return Permutation(out)


def test_tab_permutation_is_the_row_by_row_reading():
    """The same permutation, or the same refusal of entries that are not a
    bijection, as sorting each row of the row dict."""
    raised = 0
    for f in _grid_fillings():
        expected = _counted(_reference_tab_permutation, f)
        assert _counted(tab_permutation, f) == expected
        raised += not isinstance(expected, Permutation)
    assert raised == 5133  # every non-standard filling


def test_kernels_match_references_on_seeded_long_tableaux():
    rng = random.Random(11)
    for n in range(7, 15):
        t = word_to_tableau(random_reduced_word(rng, n))
        rows = [[e for _, e in row] for row in t.rows().values()]
        assert reconstruct_from_row_multisets(t.diagram, rows) == t
        assert _reference_reconstruct(t.diagram, rows) == t
        assert column_inversions(t) == _reference_column_inversions(t)
        assert tab_permutation(t) == _reference_tab_permutation(t)


def test_tab_inversions_count_the_inversion_pairs():
    """Every standard filling of every Rothe diagram of S_1..S_4, so every
    balanced tableau of those permutations among them, and fillings whose
    entries are not 1..ell, which raise the same KeyError."""
    for n in range(1, 5):
        for w in all_permutations(n):
            cells = rothe_diagram(w).cells
            for values in itertools_permutations(range(1, len(cells) + 1)):
                f = Filling(zip(cells, values))
                assert tab_inversions(f) == len(inversion_pairs(f))
            if len(cells) <= 3:
                for values in product(range(1, len(cells) + 2), repeat=len(cells)):
                    f = _filling(cells, values)
                    expected = _counted(lambda t: len(inversion_pairs(t)), f)
                    assert _counted(tab_inversions, f) == expected
    for f in _grid_fillings():
        expected = _counted(lambda t: len(inversion_pairs(t)), f)
        assert _counted(tab_inversions, f) == expected
    rng = random.Random(13)
    for n in range(7, 15):
        t = word_to_tableau(random_reduced_word(rng, n))
        assert tab_inversions(t) == len(inversion_pairs(t))


def test_cell_walk_memo_keeps_results_not_errors():
    """A filling missing an entry raises the same ``KeyError`` on every
    call, before and after other fillings are kept, and is never kept; a
    kept walk is a tuple of rows; fillings with the same entries in other
    cells are kept apart; an equal filling built by ``Filling`` reads the
    same counts as the one ``word_to_tableau`` gives; and more distinct
    fillings than the memo holds leave it full, no larger."""
    from redwords.tableaux import _rows_and_braids
    from redwords.words import _HELD

    gap = _filling(((1, 1), (1, 2)), (1, 3))

    def raises_each_time():
        for count in (tab_inversions, column_inversions):
            for _ in range(2):
                with pytest.raises(KeyError) as caught:
                    count(gap)
                assert caught.value.args == (2,)

    raises_each_time()
    assert _rows_and_braids.cache_info().currsize == 0
    assert _rows_and_braids(_filling(((1, 1),), (1,)))[0] == (1,)
    assert _rows_and_braids(_filling(((2, 1),), (1,)))[0] == (2,)
    rng = random.Random(19)
    for n in range(7, 12):
        t = word_to_tableau(random_reduced_word(rng, n))
        built = Filling(t.items())
        assert built == t and built is not t
        counts = tab_inversions(t), column_inversions(t)
        _rows_and_braids.cache_clear()
        assert (tab_inversions(built), column_inversions(built)) == counts
        assert counts == (len(inversion_pairs(t)), _reference_column_inversions(t))
        rows, _ = _rows_and_braids(t)
        pos = t.positions()
        assert rows == tuple(pos[e][0] for e in range(1, len(t) + 1))
    ts = enumerate_sbt(Permutation.longest(5))
    assert len(ts) > _HELD
    for t in ts:
        assert tab_inversions(t) == len(inversion_pairs(t))
    held = _rows_and_braids.cache_info()
    assert held.currsize == held.maxsize == _HELD
    raises_each_time()
