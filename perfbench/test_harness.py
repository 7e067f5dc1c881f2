"""Self-tests of the benchmark harness.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_harness.py
"""

from __future__ import annotations

import random
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402
import oracles  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402


def _span(layer, name, total, *children):
    node = tracer.Span(layer, name)
    node.total = total
    node.calls = 1
    for child in children:
        node.children[(child.layer, child.name)] = child
    return node


def test_self_times_on_nested_span_tree():
    root = _span(
        "bench", "<run>", 10.0,
        _span("graphs", "build_graph", 6.0,
              _span("words", "iter_reduced_words", 2.5,
                    _span("perms", "swap", 1.0)),
              _span("perms", "__new__", 0.5)),
        _span("words", "super_word", 3.0),
    )
    own = tracer.self_times(root)
    assert own == pytest.approx(
        {"bench": 1.0, "graphs": 3.0, "words": 4.5, "perms": 1.5}
    )
    assert sum(own.values()) == pytest.approx(root.total)
    assert tracer.layer_calls(root) == {"graphs": 1, "words": 2, "perms": 2}


def test_generator_yields_reduced_words_of_stated_rank():
    queries, record = inputs.query_stream(seed=11, count=200)
    assert len(queries) == record["queries"] == 200
    assert sum(record["rank_mix"].values()) == 200
    for n, w, word in queries:
        assert n in inputs.QUERY_RANKS and len(w) == n
        assert word and oracles.is_reduced_word_for(word, w)
    assert inputs.query_stream(seed=11, count=200)[0] == queries
    assert inputs.query_stream(seed=12, count=200)[0] != queries


def test_graph_jobs_cover_the_class_once_per_pass():
    jobs, record = inputs.graph_jobs(seed=3, passes=2)
    assert record["class_size"] == 68
    assert len(jobs) == record["jobs"] == 2 * 68
    assert {job["w"] for job in jobs[:68]} == {job["w"] for job in jobs[68:]}
    assert [job["w"] for job in jobs[:68]] != [job["w"] for job in jobs[68:]]
    for job in jobs:
        assert oracles.perm_length(job["w"]) == inputs.GRAPH_LENGTH
        assert job["vertices"] == inputs.GRAPH_WORDS
        assert oracles.is_reduced_word_for(job["target"], job["w"])


def test_sampler_converts_to_reference_speed():
    sampler = speed.Sampler()
    ref = speed.REFERENCE_PROBE_S
    # Probes 1 s apart: twice the reference time up to t=20, then at it.
    sampler.starts = [float(t) for t in range(40)]
    sampler.durations = [2 * ref if t < 20 else ref for t in range(40)]
    # 0.9 s of work between two probes, at half speed: 0.45 reference s.
    assert sampler.reference_s(2.0 + 2 * ref, 2.9) == pytest.approx(0.45 - ref)
    # A stretch over probes leaves their time out.
    assert sampler.reference_s(2.5, 4.5) == pytest.approx((2.0 - 4 * ref) / 2)
    assert sampler.reference_s(30.5, 31.5) == pytest.approx(1.0 - ref)
    with speed.Sampler(period_s=0.01) as live:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert len(live.starts) > speed.WARMUP_PROBES + 5
    assert 0 < live.reference_s(live.starts[0], end)


def test_oracle_closed_forms():
    from redwords import Permutation, iter_reduced_words

    assert [oracles.staircase_count(n) for n in (3, 4, 5)] == [2, 16, 768]
    assert [oracles.w0_diameter(n) for n in (3, 4, 5, 6)] == [1, 7, 25, 65]
    for n in (3, 4, 5):
        w0 = tuple(range(n, 0, -1))
        assert oracles.count_reduced_words(w0) == oracles.staircase_count(n)
        ranks = [oracles.word_inversions(tuple(r), n) for r in iter_reduced_words(Permutation(w0))]
        assert max(ranks) == oracles.w0_diameter(n)


def test_oracle_counts_of_w0_rank_6():
    w0 = (6, 5, 4, 3, 2, 1)
    assert oracles.count_reduced_words(w0) == oracles.staircase_count(6) == 292864
    assert oracles.count_words_and_edges(w0) == (292864, 1175460)


def test_oracles_match_the_package_on_small_graphs():
    from redwords import Permutation, build_graph, super_word, word_inversions

    rng = random.Random(5)
    for w in [(4, 2, 1, 5, 3), (5, 4, 3, 2, 1)] + [
        inputs.random_permutation(rng, 5) for _ in range(5)
    ]:
        g = build_graph(Permutation(w), "words")
        assert oracles.count_words_and_edges(w) == (len(g.vertices), len(g.edges))
        assert oracles.super_word(w) == tuple(super_word(Permutation(w)))
        for word in g.vertices[:20]:
            assert oracles.word_inversions(tuple(word), 5) == word_inversions(word)
    running_example = (5, 6, 3, 4, 5, 7, 3, 1, 4, 2, 3, 6)
    assert oracles.word_inversions(running_example, 8) == 11


def test_tracer_restores_patches_and_balances():
    import redwords
    from redwords import bijection, graphs, perms, words

    originals = (
        graphs.iter_reduced_words,
        bijection.super_word,
        redwords.super_word,
        vars(perms.Permutation)["__new__"],
        vars(perms.Permutation)["length"],
    )
    with tracer.Tracer() as trace:
        assert graphs.iter_reduced_words is not originals[0]
        assert bijection.super_word is not originals[1]
        g = graphs.build_graph(perms.Permutation((4, 3, 2, 1)), "words")
        graphs.diameter(g, w0_shortcut=True)
    assert originals == (
        graphs.iter_reduced_words,
        bijection.super_word,
        redwords.super_word,
        vars(perms.Permutation)["__new__"],
        vars(perms.Permutation)["length"],
    )
    root = trace.root
    assert sum(tracer.self_times(root).values()) == pytest.approx(root.total)
    assert tracer.calls_of(root, "words", "iter_reduced_words") == 1
    assert tracer.calls_of(root, "graphs", "_bfs") == 1
    assert tracer.calls_of(root, "bijection", "tableau_to_word") == 1
    assert trace.counters["graphs.vertices"] == 16
    assert trace.counters["graphs.move_attempts"] == 16 * 9
    assert trace.counters["graphs.move_nontrivial"] == 2 * len(g.edges)
    gen = next(n for n in root.walk() if n.name == "iter_reduced_words")
    assert 0 < gen.total < root.total
    words.super_word(perms.Permutation((2, 1)))  # untraced calls still work
