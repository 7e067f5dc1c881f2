import time

import pytest

from redwords import (
    CheckResult,
    Permutation,
    all_passed,
    enumerate_reduced_words,
    enumerate_sbt,
    run_suite,
    staircase_tableau_count,
    super_tableau,
    super_word,
    tableaux,
    words,
)
from redwords.cli import main


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
    assert [staircase_tableau_count(n) for n in (1, 2, 3, 4, 5)] == [1, 1, 2, 16, 768]
    assert staircase_tableau_count(6) == 292864


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


def test_cli_verify_exits_two_on_a_failure(monkeypatch, capsys):
    _fault(monkeypatch, words, "word_inversions")
    assert main(["verify", "-n", "4"]) == 2
    out = capsys.readouterr().out
    assert "CHECK word_inversions_equal_bfs_distance: FAIL w=4,3,2,1 " in out
    assert out.splitlines()[-1].startswith("RESULT: FAIL")
