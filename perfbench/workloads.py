"""The three workloads.  Each is a closed loop: one caller on one thread
sends its next job only after the previous one returns.

A workload has a ``setup`` that makes its inputs from the seed and a ``run``
that drives the package and checks every answer against ``oracles``.  The
number of jobs is fixed by ``--seconds`` alone, sized so that a run takes
about that long on the reference machine (see README.md), so a faster
program finishes the same work sooner instead of doing more of it.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import time

import inputs
import oracles

# Seconds one job took on the reference machine at the commit that
# introduced the benchmark; used only to size runs.
VERIFY_PASS_S = 22.0
GRAPH_PASS_S = 21.0
QUERY_S = 0.012
MIN_QUERIES = 1000

VERIFY_CHECKS = (
    "perm_inverse_same_length",
    "perm_longest_is_maximal",
    "perm_swap_steps_length",
    "word_super_exists_unique",
    "word_moves_involutive_rank_step",
    "word_inversions_equal_bfs_distance",
    "word_pairing_identity_iff_super",
    "word_reversal_inverts",
    "naive_metric_agrees_at_super",
    "yang_baxter_count_to_super",
    "yang_baxter_pairwise_scope",
    "diagram_shape_and_transpose",
    "diagram_reading_word_is_super",
    "tableau_super_balanced_rank_zero",
    "tableau_moves_balanced_involutive",
    "tableau_inversion_identity",
    "tableau_inv_and_braids_by_bfs",
    "tableau_row_sort_reconstruction",
    "tableau_descent_sequence_counts",
    "tableau_flip_involution_intertwines",
    "word_and_tableau_counts_agree",
    "bijection_poset_isomorphism",
    "graph_connected_ranked",
    "graph_models_isomorphic",
    "w0_complement_reverses_rank",
    "w0_diameter_formula",
    "w0_distances_split_through_extremes",
    "w0_count_matches_hook_formula",
)


class Tally:
    """Job intervals and operation outcomes of one pass over the inputs.

    Times are raw ``perf_counter`` readings; ``run.py`` turns them into
    seconds, at reference speed or as measured.
    """

    def __init__(self) -> None:
        self.jobs: list[tuple[float, float]] = []
        self.attempted = 0
        self.failed = 0
        self.elements = 0
        self.start = self.end = 0.0

    def record(self, t0: float, t1: float, outcomes: list[bool]) -> None:
        self.jobs.append((t0, t1))
        self.attempted += len(outcomes)
        self.failed += outcomes.count(False)


# -- verify-s5 ---------------------------------------------------------------


def verify_setup(seed: int, seconds: int):
    memo: dict = {}
    per_pass = sum(
        oracles.count_reduced_words(w, memo) for w in itertools.permutations(range(1, 6))
    )
    passes = max(1, round(seconds / VERIFY_PASS_S))
    # Every check sweeps both models, so a pass covers each reduced word and
    # each balanced tableau of every w in S_5 (the two sets have equal size).
    state = {"passes": passes, "elements": 2 * per_pass}
    return state, {"seed": seed, "passes": passes, "elements_per_pass": 2 * per_pass}


def _verify_outcomes(code: int, text: str) -> list[bool]:
    try:
        payload = json.loads(text)
        passed = {c["name"]: c["passed"] is True for c in payload["checks"]}
        whole = code == 0 and payload["passed"] is True and set(passed) == set(VERIFY_CHECKS)
    except (ValueError, KeyError, TypeError):
        return [False] * len(VERIFY_CHECKS)
    return [whole and passed[name] for name in VERIFY_CHECKS]


def verify_run(state, rw) -> Tally:
    tally = Tally()
    tally.start = time.perf_counter()
    for _ in range(state["passes"]):
        out = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = rw.cli.main(["verify", "-n", "5", "--json"])
        except Exception:
            code = -1
        t1 = time.perf_counter()
        tally.record(t0, t1, _verify_outcomes(code, out.getvalue()))
        tally.elements += state["elements"]
    tally.end = time.perf_counter()
    return tally


# -- words-graph-s7 ----------------------------------------------------------


def graph_setup(seed: int, seconds: int):
    return inputs.graph_jobs(seed, max(1, round(seconds / GRAPH_PASS_S)))


def graph_run(jobs, rw) -> Tally:
    tally = Tally()
    tally.start = time.perf_counter()
    for job in jobs:
        g = None
        t0 = time.perf_counter()
        try:
            g = rw.graphs.build_graph(rw.perms.Permutation(job["w"]), "words")
            d = rw.graphs.bfs_distance(g, rw.words.super_word(g.w), rw.words.Word(job["target"]))
        except Exception:
            d = None
        t1 = time.perf_counter()
        if g is None:
            outcomes = [False, False, False]
        else:
            outcomes = [
                len(g.vertices) == job["vertices"],
                len(g.edges) == job["edges"],
                d == job["distance"],
            ]
            tally.elements += len(g.vertices)
        g = None  # keep one graph alive at a time
        tally.record(t0, t1, outcomes)
    tally.end = time.perf_counter()
    return tally


# -- sampled-bijection -------------------------------------------------------


def sampled_setup(seed: int, seconds: int):
    count = max(MIN_QUERIES, round(seconds / QUERY_S))
    return inputs.query_stream(seed, count)


def _query(rw, word):
    w = rw.words
    rho = w.Word(word)
    inv = w.word_inversions(rho)
    t = rw.bijection.word_to_tableau(rho)
    tab_inv = rw.tableaux.tab_inversions(t)
    col_inv = rw.tableaux.column_inversions(t)
    back = rw.bijection.tableau_to_word(t)
    yb = w.yang_baxter_count(rho, w.super_word(w.word_to_permutation(rho)))
    return inv, tab_inv, col_inv, back, yb


def _query_ok(answer, n: int, perm: tuple[int, ...], word: tuple[int, ...]) -> bool:
    inv, tab_inv, col_inv, back, yb = answer
    return (
        oracles.is_reduced_word_for(word, perm)
        and tuple(back) == word
        and inv == tab_inv == oracles.word_inversions(word, n)
        and yb == col_inv
    )


def sampled_run(queries, rw) -> Tally:
    tally = Tally()
    tally.start = time.perf_counter()
    for n, perm, word in queries:
        t0 = time.perf_counter()
        try:
            answer = _query(rw, word)
        except Exception:
            answer = None
        t1 = time.perf_counter()
        tally.record(t0, t1, [answer is not None and _query_ok(answer, n, perm, word)])
        tally.elements += 1
    tally.end = time.perf_counter()
    return tally


WORKLOADS = {
    "verify-s5": (verify_setup, verify_run),
    "words-graph-s7": (graph_setup, graph_run),
    "sampled-bijection": (sampled_setup, sampled_run),
}
