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
    min_inv_w0,
    psi,
    reconstruct_from_row_multisets,
    rothe_diagram,
    row_coinversions,
    row_interval_filling,
    super_tableau,
    tab_braid,
    tab_commutation,
    tab_inversions,
    tab_permutation,
)

from redwords.bijection import moves_for
from redwords.tableaux import _iter_sbt

from conftest import (
    EDGE_GRID_4321,
    TABLEAU_GRID_42153,
    TABLEAU_GRID_4321,
    grid_edges,
    oracle_distance,
    oracle_min_braids,
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


def test_is_balanced_examples():
    hooks = Filling({(1, 1): 3, (1, 2): 5, (1, 3): 2, (2, 1): 1, (4, 3): 4})
    assert is_balanced(hooks)
    for w in all_permutations(4):
        assert is_balanced(super_tableau(w))
    unbalanced = Filling({(1, 1): 5, (1, 2): 3, (1, 3): 2, (2, 1): 1, (4, 3): 4})
    assert not is_balanced(unbalanced)


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
        if len(top):
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


def test_inversion_identity():
    # inversions = length of the permutation minus the row coinversions
    assert BIG_PERM.length == 13
    assert row_coinversions(BIG) == 2
    for w in all_permutations(4):
        for t in enumerate_sbt(w):
            if not len(t):
                continue
            assert tab_inversions(t) == tab_permutation(t).length - row_coinversions(t)


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
                if w == longest and len(t):
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
