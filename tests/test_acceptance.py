"""Acceptance criteria, one test per criterion.

Every check is exact (integer equality); each test also enforces the stated
wall-clock bound and prints one PASS line (visible under ``pytest -s``).
Criterion 7's optional rank-6 stress run is skipped unless REDWORDS_STRESS=1.
"""

import math
import os
import time

import pytest

from redwords import (
    Filling,
    Permutation,
    Word,
    all_permutations,
    bfs_distance,
    build_graph,
    column_inversions,
    diameter,
    enumerate_reduced_words,
    enumerate_sbt,
    flip,
    min_braid_count,
    min_inv_w0,
    naive_pair_inversions,
    pairing_permutation,
    psi,
    row_coinversions,
    super_tableau,
    super_word,
    tab_inversions,
    tab_permutation,
    tableau_to_word,
    verify_poset_isomorphism,
    word_inversions,
    word_to_tableau,
    yang_baxter_count,
)

from redwords.cli import main

from conftest import TABLEAU_GRID_42153, WORD_GRID_42153, tableau_42153


class Stopwatch:
    def __init__(self, limit_seconds):
        self.limit = limit_seconds
        self.start = time.monotonic()

    def done(self, label):
        elapsed = time.monotonic() - self.start
        assert elapsed < self.limit, f"{label}: {elapsed:.1f}s exceeded {self.limit}s"
        print(f"ACCEPTANCE {label}: PASS ({elapsed:.2f}s)")


def test_criterion_1_reference_sets_for_42153():
    clock = Stopwatch(1.0)
    w = Permutation([4, 2, 1, 5, 3])
    words = enumerate_reduced_words(w)
    assert len(words) == 11
    assert {tuple(r) for r in words} == set(WORD_GRID_42153.values())
    tableaux = enumerate_sbt(w)
    assert len(tableaux) == 11
    assert set(tableaux) == {tableau_42153(t) for t in TABLEAU_GRID_42153.values()}
    clock.done("1 (word and tableau sets for 42153)")


def test_criterion_2_running_example_statistics():
    clock = Stopwatch(1.0)
    assert super_word(Permutation([4, 1, 7, 5, 8, 2, 3, 6])) == Word(
        [5, 6, 7, 4, 5, 3, 4, 5, 6, 1, 2, 3]
    )
    rho = Word([5, 6, 3, 4, 5, 7, 3, 1, 4, 2, 3, 6])
    assert pairing_permutation(rho) == Permutation(
        [2, 3, 5, 1, 8, 9, 10, 4, 6, 7, 11, 12]
    )
    assert word_inversions(rho) == 11
    pi = super_word(Permutation([4, 1, 7, 5, 8, 2, 3, 6]))
    assert yang_baxter_count(rho, pi) == 2
    clock.done("2 (super word, pairing, inversion and braid counts)")


def test_criterion_3_word_rank_is_distance_up_to_rank_5():
    clock = Stopwatch(120.0)
    for n in range(1, 6):
        for w in all_permutations(n):
            g = build_graph(w, "words")
            pi = super_word(w)
            for rho, rank in zip(g.vertices, g.ranks):
                assert word_inversions(rho) == rank == bfs_distance(g, rho, pi)
            zeros = [v for v, rank in zip(g.vertices, g.ranks) if rank == 0]
            assert zeros == [pi]
    clock.done("3 (inversions = BFS distance, unique rank zero, n <= 5)")


def test_criterion_4_tableau_statistics_over_s4():
    clock = Stopwatch(60.0)
    for w in all_permutations(4):
        g = build_graph(w, "tableaux")
        top = super_tableau(w)
        for t in g.vertices:
            assert tab_inversions(t) == tab_permutation(t).length - row_coinversions(t)
            assert tab_inversions(t) == bfs_distance(g, t, top)
            assert min_braid_count(g, t, top) == column_inversions(t)
    clock.done("4 (tableau identity, distances, braid counts over S_4)")


def test_criterion_5_bijection_counts_and_structure():
    clock = Stopwatch(120.0)
    for n in range(1, 6):
        for w in all_permutations(n):
            assert len(enumerate_reduced_words(w)) == len(enumerate_sbt(w))
    for n in range(1, 5):
        for w in all_permutations(n):
            assert all(res.passed for res in verify_poset_isomorphism(w))
    clock.done("5 (counts agree to n=5; bijection preserves ranks and edges to n=4)")


def test_criterion_6_naive_metric_failure():
    clock = Stopwatch(1.0)
    rho, sigma = Word([1, 2, 1, 3, 2, 1]), Word([1, 3, 2, 1, 3, 2])
    assert naive_pair_inversions(rho, sigma) == 2
    g = build_graph(Permutation([4, 3, 2, 1]), "words")
    assert bfs_distance(g, rho, sigma) == 4
    assert min_braid_count(g, rho, sigma) == 2
    clock.done("6 (naive pair statistic undercounts the true distance)")


def test_criterion_7_diameters_of_longest_permutation():
    clock = Stopwatch(30.0)
    for n, expected in ((3, 1), (4, 7), (5, 25)):
        w0 = Permutation.longest(n)
        g = build_graph(w0, "words")
        assert expected == min_inv_w0(n) == diameter(g)
        word_top = super_word(w0)
        word_bottom = tableau_to_word(psi(super_tableau(w0)))
        assert bfs_distance(g, word_top, word_bottom) == expected
    clock.done("7 (diameters 1, 7, 25 attained by the extreme pair)")


@pytest.mark.skipif(
    os.environ.get("REDWORDS_STRESS") != "1",
    reason="rank-6 stress run; set REDWORDS_STRESS=1 to enable",
)
def test_criterion_7_stress_rank_6():
    w0 = Permutation.longest(6)
    g = build_graph(w0, "words")
    assert len(g.vertices) == 292864
    assert diameter(g, w0_shortcut=True) == min_inv_w0(6) == 65
    print("ACCEPTANCE 7-stress (rank 6): PASS")


def test_criterion_8_flip_matches_reversal():
    clock = Stopwatch(60.0)
    R = Filling(
        {
            (5, 2): 12, (5, 3): 11, (5, 6): 7,
            (4, 2): 6, (4, 3): 4,
            (3, 2): 9, (3, 3): 8, (3, 5): 10, (3, 6): 1,
            (1, 1): 5, (1, 2): 3, (1, 3): 2,
        }
    )
    assert tab_permutation(flip(R)) == Permutation(
        [8, 1, 4, 7, 10, 2, 5, 9, 11, 3, 6, 12]
    )
    for w in all_permutations(4):
        for rho in enumerate_reduced_words(w):
            assert word_to_tableau(rho.reverse()) == flip(word_to_tableau(rho))
    clock.done("8 (flip corresponds to word reversal)")


def test_criterion_9_hook_length_oracle():
    clock = Stopwatch(30.0)

    def hook_count(shape):
        boxes = sum(shape)
        hooks = 1
        for r, row_len in enumerate(shape):
            for c in range(row_len):
                arm = row_len - c - 1
                leg = sum(1 for rr in range(r + 1, len(shape)) if shape[rr] > c)
                hooks *= arm + leg + 1
        return math.factorial(boxes) // hooks

    for n, expected in ((3, 2), (4, 16), (5, 768)):
        staircase = list(range(n - 1, 0, -1))
        assert hook_count(staircase) == expected
        assert len(enumerate_reduced_words(Permutation.longest(n))) == expected
    clock.done("9 (word counts match the hook length formula)")


def test_tableau_file_of_rank_400_is_read_either_way_in_linear_time(tmp_path, capsys):
    """The staircase super tableau of rank 400 (79,800 cells) is accepted,
    and a copy with the two entries of row 398 exchanged is refused as
    unbalanced by the balance check, which each read runs before the Rothe
    test."""
    t = super_tableau(Permutation.longest(400))
    entries = list(t.entries)
    a, b = (k for k, (r, _) in enumerate(t.cells) if r == 398)
    entries[a], entries[b] = entries[b], entries[a]
    good, bad = tmp_path / "staircase.txt", tmp_path / "exchanged.txt"
    good.write_text(t.to_text() + "\n")
    bad.write_text(Filling(zip(t.cells, entries)).to_text() + "\n")
    clock = Stopwatch(2.5)
    assert main(["inv", "--tableau", str(good)]) == 0
    assert main(["inv", "--tableau", str(bad)]) == 1
    out, err = capsys.readouterr()  # before the PASS line, which pytest -s shows
    clock.done("tableau file of rank 400, accepted and refused")
    assert out.startswith("inversions: 0\n")
    assert err == f"redwords: error: tableau in {bad} is not balanced\n"
