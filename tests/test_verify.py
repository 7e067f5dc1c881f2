import json
import os
import sys
import time
import tracemalloc
import weakref
from collections import Counter

import pytest

from redwords import (
    CheckResult,
    Filling,
    Permutation,
    all_passed,
    Word,
    all_permutations,
    bijection,
    diagrams,
    enumerate_reduced_words,
    enumerate_sbt,
    graphs,
    perms,
    run_suite,
    staircase_tableau_count,
    super_tableau,
    super_word,
    tableaux,
    verify_poset_isomorphism,
    words,
)
from redwords.cli import main
from redwords.verify import _check_orbit, _Orbit


@pytest.mark.parametrize("n", [1, 2, 3])
def test_suite_passes(n):
    results = run_suite(n)
    assert all_passed(results)
    names = [r.name for r in results]
    assert len(names) == len(set(names))
    assert "w0_diameter_formula" in names
    assert "bijection_poset_isomorphism" in names


def test_suite_at_rank_four_passes_within_a_minute():
    start = time.monotonic()
    results = run_suite(4)
    elapsed = time.monotonic() - start
    assert all_passed(results)
    assert elapsed < 60.0
    scope = next(r for r in results if r.name == "yang_baxter_pairwise_scope")
    assert scope.passed
    assert "2 arbitrary pairs differ" in scope.detail


def test_staircase_counts():
    assert [staircase_tableau_count(n) for n in range(1, 10)] == [
        1,
        1,
        2,
        16,
        768,
        292864,
        1100742656,
        48608795688960,
        29258366996258488320,
    ]


def test_check_result_lines():
    assert CheckResult("a_check", True).line() == "CHECK a_check: PASS"
    assert (
        CheckResult("a_check", False, "w=2,1").line() == "CHECK a_check: FAIL w=2,1"
    )


def test_rejects_bad_rank():
    with pytest.raises(ValueError):
        run_suite(0)


def _fault(monkeypatch, module, name):
    """Make module.name answer one more than it should on one element of
    4,3,2,1 other than the super element."""
    w = Permutation([4, 3, 2, 1])
    if module is words:
        target = next(r for r in enumerate_reduced_words(w) if r != super_word(w))
    else:
        target = next(t for t in enumerate_sbt(w) if t != super_tableau(w))
    honest = getattr(module, name)

    def faulty(element, *args, **kwargs):
        return honest(element, *args, **kwargs) + (element == target)

    monkeypatch.setattr(module, name, faulty)


FAULTS = [
    (words, "word_inversions", "word_inversions_equal_bfs_distance"),
    (words, "yang_baxter_count", "yang_baxter_count_to_super"),
    (tableaux, "column_inversions", "tableau_inv_and_braids_by_bfs"),
]


@pytest.mark.parametrize("module,name,check", FAULTS, ids=[f[1] for f in FAULTS])
def test_suite_detects_a_wrong_statistic(monkeypatch, module, name, check):
    _fault(monkeypatch, module, name)
    results = {r.name: r for r in run_suite(4)}
    assert not results[check].passed
    assert results[check].detail.startswith("w=4,3,2,1 ")


def _cut_last(honest):
    """shortest_paths with its last vertex read as unreached."""

    def cut(g, source):
        dist, braids = honest(g, source)
        dist[-1] = -1
        return dist, braids

    return cut


def _longer_from_below(honest):
    """shortest_paths one step too long at vertex 0 from any source but the
    super element (rank 0)."""

    def skewed(g, source):
        dist, braids = honest(g, source)
        dist[0] += g.ranks[g.index_of(source)] > 0
        return dist, braids

    return skewed


W0_TOP = super_tableau(Permutation.longest(4))  # vertex 0 of the 4,3,2,1 tableau graph

# (check, where a function is rebound, its name there, the rebinding made
# from the honest function, the detail reported).  Word.reverse and
# Diagram.transpose are methods, rebound on their class: no module function
# reaches those two details without also breaking the graph builds.
DETAIL_FAULTS = [
    (
        "perm_swap_steps_length", perms, "_inversions",
        lambda honest: lambda v: honest(v) + (tuple(v) == (1, 2, 3, 4)), "w=1,2,3,4 i=1",
    ),
    (
        "diagram_shape_and_transpose", perms, "_inversions",
        lambda honest: lambda v: honest(v) + (tuple(v) == (1, 2, 3, 4)), "w=1,2,3,4: cells 0 != length 1",
    ),
    (
        "diagram_shape_and_transpose", diagrams, "is_rothe_diagram",
        lambda honest: lambda d: False, "w=1,2,3,4: failed the interval test",
    ),
    (
        "diagram_shape_and_transpose", diagrams.Diagram, "transpose",
        lambda honest: lambda d: d, "w=1,3,4,2: transpose mismatch",
    ),
    (
        "word_super_exists_unique", words, "is_reduced",
        lambda honest: lambda *args: False, "w=1,2,3,4: super word not reduced",
    ),
    (
        "word_super_exists_unique", words, "word_to_permutation",
        lambda honest: lambda word, n=None: honest(word, n).inverse(),
        "w=1,3,4,2: super word is for the wrong permutation",
    ),
    (
        "word_super_exists_unique", words, "is_super_yamanouchi",
        lambda honest: lambda word: True, "w=1,4,3,2: super words [Word((2, 3, 2)), Word((3, 2, 3))]",
    ),
    (
        "word_pairing_identity_iff_super", words, "pairing_permutation",
        lambda honest: lambda word: Permutation.identity(len(word)), "w=1,4,3,2 rho=2,3,2",
    ),
    ("word_reversal_inverts", Word, "reverse", lambda honest: lambda word: word, "w=1,3,4,2 rho=3,2"),
    (
        "tableau_super_balanced_rank_zero", tableaux, "tab_inversions",
        lambda honest: lambda t: honest(t) + (len(t) == 0), "w=1,2,3,4: super tableau has inversions",
    ),
    (
        "tableau_super_balanced_rank_zero", tableaux, "tab_permutation",
        lambda honest: lambda t: Permutation.identity(len(t) + 1),
        "w=1,2,3,4: super tableau permutation not identity",
    ),
    (
        "tableau_row_sort_reconstruction", tableaux, "reconstruct_from_row_multisets",
        lambda honest: lambda d, rows: None, "w=1,2,3,4 tableau=",
    ),
    (
        "tableau_flip_involution_intertwines", tableaux, "flip",
        lambda honest: lambda t: super_tableau(Permutation([2, 1])) if t == W0_TOP else honest(t),
        f"w=4,3,2,1 tableau={W0_TOP}: image not balanced for inverse",
    ),
    (
        "tableau_flip_involution_intertwines", tableaux, "flip",
        lambda honest: lambda t: honest(tableaux.psi(t)) if t == W0_TOP else honest(t),
        f"w=4,3,2,1 tableau={W0_TOP}: not an involution",
    ),
    ("graph_connected_ranked", graphs, "shortest_paths", _cut_last, "w=1,2,3,4 words: disconnected"),
    ("w0_diameter_formula", graphs, "diameter", lambda honest: lambda g: 0, "diameter 0 != 7"),
    ("w0_diameter_formula", tableaux, "psi", lambda honest: lambda t: t, "extremes do not attain the diameter"),
    ("w0_distances_split_through_extremes", graphs, "shortest_paths", _longer_from_below, "vertex 0"),
]


@pytest.mark.parametrize(
    "check,where,name,rebinding,detail",
    DETAIL_FAULTS,
    ids=[f"{fault[0]}-{fault[2]}" for fault in DETAIL_FAULTS],
)
def test_suite_reports_each_failure_detail(monkeypatch, check, where, name, rebinding, detail):
    monkeypatch.setattr(where, name, rebinding(getattr(where, name)))
    result = {r.name: r for r in run_suite(4)}[check]
    assert (result.passed, result.detail) == (False, detail)


def test_cli_verify_exits_two_on_a_failure(monkeypatch, capsys):
    _fault(monkeypatch, words, "word_inversions")
    assert main(["verify", "-n", "4"]) == 2
    out = capsys.readouterr().out
    assert "CHECK word_inversions_equal_bfs_distance: FAIL w=4,3,2,1 " in out
    assert out.splitlines()[-1].startswith("RESULT: FAIL")


def test_cli_verify_json_exits_two_on_a_failure(monkeypatch, capsys):
    _fault(monkeypatch, words, "word_inversions")
    assert main(["verify", "--json", "-n", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    payload = json.loads(captured.out)  # the whole of stdout is one document
    assert payload["passed"] is False
    assert any(not check["passed"] for check in payload["checks"])


@pytest.mark.parametrize(
    "module,name,check,ending",
    [
        (words, "word_inversions", "word_moves_involutive_rank_step", "rank step != 1"),
        (tableaux, "tab_inversions", "tableau_moves_balanced_involutive", "rank step != 1"),
        (tableaux, "is_balanced", "tableau_moves_balanced_involutive", "unbalanced image"),
    ],
    ids=["word_inversions", "tab_inversions", "is_balanced"],
)
def test_move_checks_detect_a_wrong_kernel(monkeypatch, module, name, check, ending):
    _fault(monkeypatch, module, name)
    if name == "is_balanced":  # _fault answers 2 there, still true: read only 1 as balanced
        off_by_one = tableaux.is_balanced
        monkeypatch.setattr(tableaux, "is_balanced", lambda t: off_by_one(t) == 1)
    result = {r.name: r for r in run_suite(4)}[check]
    assert not result.passed
    assert result.detail.startswith("w=4,3,2,1 ")
    assert result.detail.endswith(ending)


def test_move_checks_examine_each_source(monkeypatch):
    """An element that fails on its own is reported at its first unmoved
    image, ahead of the neighbours that move onto it later in vertex order."""
    w = Permutation([4, 3, 2, 1])
    first_word = enumerate_reduced_words(w)[0]  # precedes all its neighbours
    to_permutation, balanced = words.word_to_permutation, tableaux.is_balanced

    def misplaced(word, *args):
        v = to_permutation(word, *args)
        return v.swap(1) if word == first_word else v

    monkeypatch.setattr(words, "word_to_permutation", misplaced)
    monkeypatch.setattr(tableaux, "is_balanced", lambda t: balanced(t) and t != super_tableau(w))
    results = {r.name: r.detail for r in run_suite(4)}
    assert results["word_moves_involutive_rank_step"] == "w=4,3,2,1 rho=1,2,1,3,2,1 c1: left R(w)"
    assert results["tableau_moves_balanced_involutive"] == "w=4,3,2,1 c1: unbalanced image"


def test_suite_reports_the_lexicographically_first_counterexample(monkeypatch):
    """3,1,4,2 is checked early, beside 2,4,1,3, the smaller member of its
    inverse pair; 2,4,3,1 is checked later but comes first in lexicographic
    order, so its counterexample is the one reported.  With faults on both
    members of the pair {2,4,1,3, 3,1,4,2}, the smaller member's is."""
    honest = words.word_inversions
    for faulty, detail in (
        (([3, 1, 4, 2], [2, 4, 3, 1]), "w=2,4,3,1 rho=2,3,2,1"),
        (([3, 1, 4, 2], [2, 4, 1, 3]), "w=2,4,1,3 rho=2,1,3"),
    ):
        targets = set()
        for entries in faulty:
            w = Permutation(entries)
            targets.add(next(r for r in enumerate_reduced_words(w) if r != super_word(w)))
        monkeypatch.setattr(
            words, "word_inversions", lambda rho, *a, **k: honest(rho, *a, **k) + (rho in targets)
        )
        result = {r.name: r for r in run_suite(4)}["word_inversions_equal_bfs_distance"]
        assert not result.passed
        assert result.detail == detail


@pytest.mark.parametrize("faulty", [False, True], ids=["honest", "faulty"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_suite_is_the_fold_of_its_inverse_pairs(monkeypatch, n, faulty):
    """run_suite(n) reports, per check, the failure at the smallest
    permutation among those that ``_check_orbit`` returns over the inverse
    pairs, and the sum of their scope tallies; a pair checked twice gives
    the same result.  The fault ranks every word starting with the letter 1
    one too high, so several checks fail, on many pairs, some only on the
    larger member."""
    if faulty:
        honest = words.word_inversions
        monkeypatch.setattr(
            words, "word_inversions", lambda rho, *a, **k: honest(rho, *a, **k) + (rho[:1] == (1,))
        )
    pairs = [w for w in all_permutations(n) if w <= w.inverse()]
    checked = [_check_orbit(w) for w in pairs]
    assert checked == [_check_orbit(w) for w in pairs]
    failed = {}
    for found, _ in checked:
        for name, failure in found.items():
            failed.setdefault(name, []).append(failure)
    agree, differ = (sum(tally[i] for _, tally in checked) for i in (0, 1))
    for result in run_suite(n):
        if result.name == "yang_baxter_pairwise_scope":
            assert result.passed
            assert f" {agree} of {agree + differ} pairs; {differ} arbitrary " in result.detail
        elif result.name in failed:
            assert not result.passed
            assert result.detail == min(failed[result.name])[1]
        else:
            assert result.passed and result.detail is None
    assert bool(failed) == (faulty and n > 1)


def test_orbit_past_rank_4_passes_with_an_empty_scope_tally():
    """Past rank 4 the pairwise scope check tallies nothing."""
    assert _check_orbit(Permutation([2, 1, 3, 4, 5])) == ({}, [0, 0])


def test_suite_builds_each_graph_once_and_holds_one_inverse_pair(monkeypatch):
    """One move graph per (w, model), and no more than the four graphs of w
    and its inverse alive whenever a build returns."""
    honest = graphs.build_graph
    built, alive = [], []

    def tracked(w, model, *args, **kwargs):
        g = honest(w, model, *args, **kwargs)
        built.append(((w, model), weakref.ref(g)))
        alive.append(sum(ref() is not None for _, ref in built))
        return g

    monkeypatch.setattr(graphs, "build_graph", tracked)
    assert all_passed(run_suite(4))
    keys = sorted(key for key, _ in built)
    assert keys == sorted((w, model) for w in all_permutations(4) for model in graphs.MODELS)
    assert len(keys) == 48
    assert max(alive) <= 4


W0_4 = Permutation([4, 3, 2, 1])


def _rematch(change):
    """A fault that passes the matching of 4,3,2,1 made by
    ``bijection.match_by_permutation`` through change."""

    def install(monkeypatch):
        honest, top = bijection.match_by_permutation, super_word(W0_4)

        def faulty(word_list, tableau_list):
            matching = honest(word_list, tableau_list)
            return change(matching, word_list) if top in word_list else matching

        monkeypatch.setattr(bijection, "match_by_permutation", faulty)

    return install


def _swap(a, b):
    """Exchange the tableau indices matched to the words a and b."""
    a, b = Word.from_text(a), Word.from_text(b)

    def change(matching, word_list):
        i, j = word_list.index(a), word_list.index(b)
        matching[i], matching[j] = matching[j], matching[i]
        return matching

    return change


def _flip_one_reversal(monkeypatch):
    """word_to_tableau answers the flip of its tableau for the reversal of
    1,3,2,1,3,2."""
    honest, target = bijection.word_to_tableau, Word([1, 3, 2, 1, 3, 2]).reverse()
    monkeypatch.setattr(
        bijection,
        "word_to_tableau",
        lambda rho: tableaux.flip(honest(rho)) if rho == target else honest(rho),
    )


CORRESPONDENCE_FAULTS = {
    "no_matching": (
        _rematch(lambda matching, word_list: None),
        {
            "bijection_poset_isomorphism": "perm_matching_bijection: w=4,3,2,1",
            "graph_models_isomorphic": "w=4,3,2,1: no bijection",
        },
    ),
    "first_and_last_swapped": (
        _rematch(_swap("1,2,1,3,2,1", "3,2,3,1,2,3")),
        {
            "bijection_poset_isomorphism": "rank_preserved: w=4,3,2,1 word=1,2,1,3,2,1",
            "graph_models_isomorphic": "w=4,3,2,1: edge sets differ",
        },
    ),
    "equal_ranks_swapped": (
        _rematch(_swap("1,2,1,3,2,1", "1,2,3,2,1,2")),
        {
            "bijection_poset_isomorphism": "edges_correspond: w=4,3,2,1 word=1,2,1,3,2,1 move=c3",
        },
    ),
    "reversal_flipped": (
        _flip_one_reversal,
        {"bijection_poset_isomorphism": "flip_matches_reversal: w=4,3,2,1 word=1,3,2,1,3,2"},
    ),
    "graph_rank": (
        lambda monkeypatch: _fault(monkeypatch, tableaux, "tab_inversions"),
        {"graph_models_isomorphic": "w=4,3,2,1: rank mismatch at 2,3,2,1,2,3"},
    ),
}


@pytest.mark.parametrize("fault", CORRESPONDENCE_FAULTS)
def test_correspondence_checks_report_a_faulty_matching(monkeypatch, fault):
    install, expected = CORRESPONDENCE_FAULTS[fault]
    install(monkeypatch)
    results = {r.name: r for r in run_suite(4)}
    for check, detail in expected.items():
        assert not results[check].passed
        assert results[check].detail == detail
    # the public function reports the same parts as the check
    parts = verify_poset_isomorphism(W0_4)
    if fault == "no_matching":
        assert parts == [CheckResult("perm_matching_bijection", False, "w=4,3,2,1")]
    if "bijection_poset_isomorphism" in expected:
        first = next(r for r in parts if not r.passed)
        assert f"{first.name}: {first.detail}" == expected["bijection_poset_isomorphism"]


def test_suite_matches_each_permutation_once(monkeypatch):
    honest, calls = bijection.match_by_permutation, []

    def counted(word_list, tableau_list):
        calls.append(word_list)
        return honest(word_list, tableau_list)

    monkeypatch.setattr(bijection, "match_by_permutation", counted)
    assert all_passed(run_suite(4))
    assert len(calls) == 24


def _fix_one_image(monkeypatch, act, source, label):
    """Make ``Move.<act>`` leave the image of ``source`` under the move
    ``label`` fixed by that move, so that the move is no longer an
    involution there while every edge can still be recorded."""
    honest = getattr(bijection.Move, act)
    move = next(m for m in bijection.moves_for(len(source)) if m.label == label)
    target = honest(move, source)
    assert target != source

    def faulty(self, element):
        return element if self == move and element == target else honest(self, element)

    monkeypatch.setattr(bijection.Move, act, faulty)


@pytest.mark.parametrize(
    "act,source,label,check,detail",
    [
        (
            "on_word",
            lambda: enumerate_reduced_words(W0_4)[0],
            "c3",
            "word_moves_involutive_rank_step",
            "w=4,3,2,1 rho=1,2,1,3,2,1 c3: not an involution",
        ),
        (
            "on_tableau",
            lambda: enumerate_sbt(W0_4)[5],
            "c1",
            "tableau_moves_balanced_involutive",
            "w=4,3,2,1 c1: not an involution",
        ),
    ],
    ids=["words", "tableaux"],
)
def test_move_checks_see_a_move_that_is_not_an_involution(
    monkeypatch, act, source, label, check, detail
):
    """The move table holds each move's own image of each vertex, not a
    table made symmetric from the edges, so a one-sided move is caught."""
    _fix_one_image(monkeypatch, act, source(), label)
    result = {r.name: r for r in run_suite(4)}[check]
    assert not result.passed
    assert result.detail == detail


@pytest.mark.parametrize(
    "a,b,detail",
    [
        (3, 9, "w=4,3,2,1 tableau=1,1,3;1,2,2;1,3,1;2,1,5;2,2,4;3,1,6: braid intertwine i=5"),
        (5, 6, "w=4,3,2,1 tableau=1,1,3;1,2,4;1,3,2;2,1,5;2,2,6;3,1,1: commutation intertwine i=4"),
    ],
)
def test_flip_check_sees_a_flip_that_does_not_intertwine(monkeypatch, a, b, detail):
    """tableaux.flip exchanges the images of the a-th and b-th tableaux of
    4,3,2,1: still an involution onto balanced tableaux, but it no longer
    carries moves to moves."""
    ts, honest = enumerate_sbt(W0_4), tableaux.flip
    fa, fb = honest(ts[a]), honest(ts[b])
    swap = {ts[a]: fb, fb: ts[a], ts[b]: fa, fa: ts[b]}
    monkeypatch.setattr(tableaux, "flip", lambda t: swap.get(t) or honest(t))
    result = {r.name: r for r in run_suite(4)}["tableau_flip_involution_intertwines"]
    assert not result.passed
    assert result.detail == detail


def test_complement_check_sees_a_complement_that_is_not_an_involution(monkeypatch):
    """tableaux.psi exchanges the images of the 3rd and 9th tableaux of
    4,3,2,1: each image is still a tableau of 4,3,2,1, but applying psi
    twice no longer gives back every tableau."""
    ts, honest = enumerate_sbt(W0_4), tableaux.psi
    swap = {ts[3]: honest(ts[9]), ts[9]: honest(ts[3])}
    monkeypatch.setattr(tableaux, "psi", lambda t: swap.get(t) or honest(t))
    result = {r.name: r for r in run_suite(4)}["w0_complement_reverses_rank"]
    assert not result.passed
    assert result.detail == "tableau=1,1,3;1,2,4;1,3,2;2,1,5;2,2,6;3,1,1: not an involution"


def _first_two_exchanged(t):
    """t with its first two entries exchanged."""
    return Filling(zip(t.cells, (t.entries[1], t.entries[0], *t.entries[2:])))


@pytest.mark.parametrize(
    "name,check,detail",
    [
        ("flip", "bijection_poset_isomorphism", "flip_matches_reversal: w=4,3,2,1 word=2,3,1,2,3,1"),
        (
            "psi",
            "w0_complement_reverses_rank",
            "tableau=1,1,3;1,2,4;1,3,2;2,1,5;2,2,6;3,1,1: not an involution",
        ),
    ],
)
def test_checks_see_an_image_outside_the_graph(monkeypatch, name, check, detail):
    """tableaux.<name> sends the 4th tableau of 4,3,2,1 to its image with
    the first two entries exchanged, which is not a tableau of 4,3,2,1: the
    check reading that image fails at its source."""
    ts, honest = enumerate_sbt(W0_4), getattr(tableaux, name)
    wrong = _first_two_exchanged(honest(ts[3]))
    assert wrong not in ts
    monkeypatch.setattr(tableaux, name, lambda t: wrong if t == ts[3] else honest(t))
    result = {r.name: r for r in run_suite(4)}[check]
    assert not result.passed
    assert result.detail == detail


def test_word_move_check_tests_an_image_in_r_w_before_the_involution(monkeypatch):
    """c3 takes the first word of 4,3,2,1 to a word that it then fixes, and
    that word is read as a word of another permutation: the image has left
    R(w), which is reported ahead of the move not being an involution."""
    source = enumerate_reduced_words(W0_4)[0]
    c3 = next(m for m in bijection.moves_for(len(source)) if m.label == "c3")
    target, to_permutation = c3.on_word(source), words.word_to_permutation
    _fix_one_image(monkeypatch, "on_word", source, "c3")

    def misplaced(word, *args):
        v = to_permutation(word, *args)
        return v.swap(1) if word == target else v

    monkeypatch.setattr(words, "word_to_permutation", misplaced)
    result = {r.name: r for r in run_suite(4)}["word_moves_involutive_rank_step"]
    assert not result.passed
    assert result.detail == "w=4,3,2,1 rho=1,2,1,3,2,1 c3: left R(w)"


STATISTICS = [
    (words, "word_inversions"),
    (tableaux, "tab_inversions"),
    (tableaux, "column_inversions"),
    (tableaux, "is_balanced"),
    (tableaux, "flip"),
    (tableaux, "psi"),
]


def _assert_each_statistic_computed_once(monkeypatch, n):
    """Over run_suite(n), each function of STATISTICS sees each element
    once, except for the direct calls on the super tableau of
    ``tableau_super_balanced_rank_zero`` (tab_inversions, is_balanced) and
    of ``_w0_extremes`` (psi); the two rank functions see every vertex of
    every graph."""
    seen = {name: Counter() for _, name in STATISTICS}
    for module, name in STATISTICS:
        honest, tally = getattr(module, name), seen[name]

        def counted(element, *args, honest=honest, tally=tally, **kwargs):
            tally[element] += 1
            return honest(element, *args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    assert all_passed(run_suite(n))
    supers = {super_tableau(w) for w in all_permutations(n)}
    top = super_tableau(Permutation.longest(n))
    allowed = {"tab_inversions": supers, "is_balanced": supers, "psi": {top}}
    for _, name in STATISTICS:
        repeated = {e for e, count in seen[name].items() if count > 1}
        assert repeated <= allowed.get(name, set()), name
        assert max(seen[name].values()) <= 2, name
    s_n = list(all_permutations(n))
    assert seen["word_inversions"].keys() == {r for w in s_n for r in enumerate_reduced_words(w)}
    assert seen["tab_inversions"].keys() == {t for w in s_n for t in enumerate_sbt(w)}


def test_suite_computes_each_statistic_once_per_element(monkeypatch):
    _assert_each_statistic_computed_once(monkeypatch, 4)


def test_suite_ranks_each_element_once():
    """Over run_suite(4), word_inversions runs once per word and
    tab_inversions once per tableau, plus once on each super tableau in
    ``tableau_super_balanced_rank_zero``.  Calls are counted by code object,
    so a call through any binding of either function is seen."""
    calls = {words.word_inversions.__code__: Counter(), tableaux.tab_inversions.__code__: Counter()}

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in calls:
            calls[frame.f_code][frame.f_locals[frame.f_code.co_varnames[0]]] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        assert all_passed(run_suite(4))
    finally:
        sys.setprofile(previous)
    ranked_words, ranked_tableaux = calls.values()
    supers = {super_tableau(w) for w in all_permutations(4)}
    assert ranked_words == Counter(r for w in all_permutations(4) for r in enumerate_reduced_words(w))
    assert ranked_tableaux == Counter(
        {t: 1 + (t in supers) for w in all_permutations(4) for t in enumerate_sbt(w)}
    )


@pytest.mark.skipif(
    os.environ.get("REDWORDS_STRESS") != "1",
    reason="S_5 stress run; set REDWORDS_STRESS=1 to enable",
)
def test_suite_computes_each_statistic_once_per_element_over_s5_stress(monkeypatch):
    _assert_each_statistic_computed_once(monkeypatch, 5)


@pytest.mark.parametrize("name", ["flip", "psi"])
def test_map_tables_index_each_image_as_it_is_made(name):
    """A flip or psi table holds vertex indices only: filling it on the 768
    balanced tableaux of w0 of rank 5, once its graph is built, never holds
    the images themselves all at once."""
    w0, orbit = Permutation.longest(5), _Orbit()
    size = len(orbit.graph(w0, "tableaux").vertices)  # w0 is its own inverse
    tracemalloc.start()
    try:
        orbit.table(w0, name)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert size == 768
    assert peak < 32 * size, f"{name}: {peak} B peak, {peak / size:.0f} B per vertex"


@pytest.mark.skipif(
    os.environ.get("REDWORDS_STRESS") != "1",
    reason="rank-6 stress run; set REDWORDS_STRESS=1 to enable",
)
def test_w0_orbit_at_rank_6_passes_under_400_mb_stress():
    """Every check on the longest permutation of rank 6, run in one fresh
    process as ``run_suite(6)`` runs it, passes and peaks under 400 MB of
    resident memory."""
    import subprocess
    import sys

    import redwords

    script = (
        "import resource\n"
        "from redwords import Permutation\n"
        "from redwords.verify import _check_orbit\n"
        "found, _ = _check_orbit(Permutation.longest(6))\n"
        "assert not found, found\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    src = os.path.dirname(os.path.dirname(redwords.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    peak_mb = int(out.stdout.split()[-1]) / 1024  # ru_maxrss is in KiB on Linux
    assert peak_mb < 400, f"peak RSS {peak_mb:.0f} MB"
