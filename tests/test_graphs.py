import hashlib
import json
import os
import tracemalloc
from collections import Counter, defaultdict

import pytest

from redwords import (
    Filling,
    Move,
    Permutation,
    Word,
    all_permutations,
    bfs_distance,
    build_graph,
    column_inversions,
    diameter,
    export,
    graph_from_json,
    graphs,
    is_connected,
    min_braid_count,
    min_inv_w0,
    shortest_paths,
    super_tableau,
    super_word,
    tab_inversions,
    to_dot,
    to_json,
    validate_ranked_poset,
    word_inversions,
)
from redwords.bijection import moves_for

from conftest import (
    EDGE_GRID_42153,
    EDGE_GRID_4321,
    TABLEAU_GRID_4321,
    WORD_GRID_42153,
    WORD_GRID_4321,
    grid_edges,
    tableau_4321,
)


def _key(element):
    return element.entries if hasattr(element, "entries") else tuple(element)


def edge_triples(g):
    """Graph edges as (element, element, label) with a canonical pair order."""
    return normalize(
        (g.vertices[u], g.vertices[v], label) for u, v, label in g.edges
    )


def normalize(triples):
    out = set()
    for a, b, label in triples:
        if _key(b) < _key(a):
            a, b = b, a
        out.add((a, b, label))
    return out


def test_word_graph_42153_matches_reference_figure():
    g = build_graph(Permutation([4, 2, 1, 5, 3]), "words")
    assert len(g.vertices) == 11
    assert len(g.edges) == 13
    assert edge_triples(g) == normalize(grid_edges(WORD_GRID_42153, EDGE_GRID_42153))
    labels = Counter(label for _, _, label in g.edges)
    assert labels == Counter(
        ["c4", "b3", "c3", "c4", "c1", "c2", "c3", "c1", "c4", "b4", "c2", "c1", "c3"]
    )


def test_word_graph_4321_matches_reference_figure():
    g = build_graph(Permutation([4, 3, 2, 1]), "words")
    assert len(g.vertices) == 16
    assert len(g.edges) == 18
    assert edge_triples(g) == normalize(grid_edges(WORD_GRID_4321, EDGE_GRID_4321))


def test_tableau_graph_4321_matches_reference_figure():
    g = build_graph(Permutation([4, 3, 2, 1]), "tableaux")
    assert len(g.vertices) == 16
    assert len(g.edges) == 18
    frozen = grid_edges(TABLEAU_GRID_4321, EDGE_GRID_4321, make=tableau_4321)
    assert edge_triples(g) == normalize(frozen)


# sha256 of the concatenated JSON exports of every graph of S_1..S_5, in
# all_permutations order; pins vertex order, edge labels and ranks.
EXPORT_DIGESTS = {
    "words": "67b4620f15105540b92a8eebbada3150601c8724015432cfe42cd9fcf6537faf",
    "tableaux": "d75f3378c56c8a468f7e56ff211043929637b053ef7193a6bb20521b557d3c23",
}


# The same over the DOT exports.
DOT_DIGESTS = {
    "words": "a1c397809c81a327bddc98ee3b9f8feda3cd45bb2db9b2352fff0e36fdee0226",
    "tableaux": "2cd3255f3430c01b841c71059ad416bc5bfa91b165475a3c139f547d913699c8",
}


@pytest.mark.parametrize("model", sorted(EXPORT_DIGESTS))
def test_exports_are_byte_identical(model):
    digest = hashlib.sha256()
    for n in range(1, 6):
        for w in all_permutations(n):
            digest.update(to_json(build_graph(w, model)).encode())
    assert digest.hexdigest() == EXPORT_DIGESTS[model]


@pytest.mark.parametrize("model", sorted(DOT_DIGESTS))
def test_dot_exports_are_byte_identical(model):
    digest = hashlib.sha256()
    for n in range(1, 6):
        for w in all_permutations(n):
            digest.update(to_dot(build_graph(w, model)).encode())
    assert digest.hexdigest() == DOT_DIGESTS[model]


@pytest.mark.parametrize(
    "model,block",  # block None: the module's own block size
    [
        pytest.param(model, block, id=model if block is None else f"{model}-block{block}")
        for model in ("words", "tableaux")
        for block in (None, 1, 2, 3)
    ],
)
def test_edge_walk_is_the_edge_list_in_order(monkeypatch, model, block):
    if block is not None:
        monkeypatch.setattr(graphs, "_BLOCK", block)
    for n in range(1, 6):
        for w in all_permutations(n):
            g = build_graph(w, model)
            size = len(g.vertices)
            images = [(slot, move.label) for slot, move in enumerate(g._moves)]
            expected = sorted(
                (k, j, label)
                for slot, label in images
                for k, j in enumerate(g.table[slot * size : (slot + 1) * size])
                if k < j
            )
            assert list(g.iter_edges()) == expected == list(g.edges), w


def test_zero_vertex_import_exports_empty_lists():
    g = graph_from_json('{"model": "words", "w": "3,2,1", "vertices": [], "edges": []}')
    assert export(g, "json") == (
        '{\n  "model": "words",\n  "w": "3,2,1",\n  "vertices": [],\n  "edges": []\n}'
    )
    assert export(g, "dot") == "graph {\n}"


def test_identity_graph():
    g = build_graph(Permutation.identity(3), "words")
    assert g.vertices == (Word(),)
    assert g.edges == ()
    assert g.ranks == (0,)
    assert diameter(g) == 0
    results = validate_ranked_poset(g)
    assert all(r.passed for r in results)


def test_vertex_budget():
    with pytest.raises(ValueError):
        build_graph(Permutation([4, 3, 2, 1]), "words", max_vertices=5)
    with pytest.raises(ValueError):
        build_graph(Permutation([4, 3, 2, 1]), "tableaux", max_vertices=5)
    with pytest.raises(ValueError):
        build_graph(Permutation([4, 3, 2, 1]), "chains")


def test_bfs_distance():
    g = build_graph(Permutation([4, 3, 2, 1]), "words")
    rho, sigma = Word([1, 2, 1, 3, 2, 1]), Word([1, 3, 2, 1, 3, 2])
    assert bfs_distance(g, rho, rho) == 0
    assert bfs_distance(g, rho, sigma) == 4
    assert min_braid_count(g, rho, sigma) == 2
    assert min_braid_count(g, rho, rho) == 0
    with pytest.raises(ValueError):
        bfs_distance(g, rho, Word([9, 9]))


@pytest.mark.parametrize("model", ["words", "tableaux"])
def test_bfs_distance_agrees_with_the_full_search_over_s1_to_s4(model):
    for n in range(1, 5):
        for w in all_permutations(n):
            g = build_graph(w, model)
            for a in g.vertices:
                dist, _ = shortest_paths(g, a)
                assert [bfs_distance(g, a, b) for b in g.vertices] == dist, (w, a)


def test_bfs_distance_stops_at_its_target(monkeypatch):
    g = build_graph(Permutation([4, 3, 2, 1]), "words")
    near = next(v for v, r in zip(g.vertices, g.ranks) if r == 1)
    runs = _bfs_counted(monkeypatch)
    assert bfs_distance(g, super_word(g.w), near) == 1
    assert bfs_distance(g, near, near) == 0
    # a full search reaches all 16 words; these stop with words unreached
    assert [dist.count(-1) > 0 for dist in runs] == [True, True]
    assert runs[1].count(-1) == len(g.vertices) - 1


@pytest.mark.parametrize("measure", [bfs_distance, min_braid_count])
def test_distances_look_up_both_ends_before_searching(monkeypatch, measure):
    g = build_graph(Permutation([4, 3, 2, 1]), "words")
    runs = _bfs_counted(monkeypatch)
    with pytest.raises(ValueError, match="^vertex not in graph: 9,9$"):
        measure(g, g.vertices[0], Word([9, 9]))
    with pytest.raises(ValueError, match="^vertex not in graph: 8,8$"):
        measure(g, Word([8, 8]), Word([9, 9]))
    assert runs == []


def test_distances_equal_inversions():
    for w in all_permutations(4):
        g = build_graph(w, "words")
        pi = super_word(w)
        for rho in g.vertices:
            assert bfs_distance(g, rho, pi) == word_inversions(rho)


def test_braid_counts_equal_column_inversions():
    for w in all_permutations(4):
        g = build_graph(w, "tableaux")
        top = super_tableau(w)
        for t in g.vertices:
            assert min_braid_count(g, t, top) == column_inversions(t)


@pytest.mark.parametrize("n,expected", [(3, 1), (4, 7)])
def test_diameter_small(n, expected):
    g = build_graph(Permutation.longest(n), "words")
    assert diameter(g) == expected == min_inv_w0(n)
    assert diameter(g, w0_shortcut=True) == expected


def test_diameter_shortcut_rejects_other_permutations():
    g = build_graph(Permutation([4, 2, 1, 5, 3]), "words")
    with pytest.raises(ValueError):
        diameter(g, w0_shortcut=True)


def test_connected_and_ranked():
    for w in all_permutations(4):
        for model in ("words", "tableaux"):
            g = build_graph(w, model)
            assert is_connected(g)
            assert all(r.passed for r in validate_ranked_poset(g))


def test_dot_export():
    g = build_graph(Permutation.identity(2), "words")
    dot = to_dot(g)
    assert dot.splitlines()[0] == "graph {"
    assert dot.count(" -- ") == 0
    g5 = build_graph(Permutation([4, 2, 1, 5, 3]), "words")
    dot5 = to_dot(g5)
    labels = Counter()
    for line in dot5.splitlines():
        if " -- " in line:
            labels[line.split('label="')[1].rstrip('"];')] += 1
    assert labels == Counter(
        {"c4": 3, "c1": 3, "c3": 3, "c2": 2, "b3": 1, "b4": 1}
    )


@pytest.mark.parametrize("model", ["words", "tableaux"])
def test_rank_0_graph_round_trip(model):
    g = build_graph(Permutation(()), model)
    assert [v.to_text() for v in g.vertices] == [""]
    assert (g.ranks, g.edges, diameter(g)) == ((0,), (), 0)
    text = to_json(g)
    assert json.loads(text)["w"] == ""
    assert graph_from_json(text) == g


def test_json_round_trip():
    for model in ("words", "tableaux"):
        g = build_graph(Permutation([4, 3, 2, 1]), model)
        text = export(g, "json")
        payload = json.loads(text)
        assert payload["model"] == model
        assert payload["w"] == "4,3,2,1"
        assert len(payload["vertices"]) == 16
        assert len(payload["edges"]) == 18
        assert graph_from_json(text) == g
    with pytest.raises(ValueError):
        export(g, "gexf")


def _geodesic_braids(g, source):
    """Fewest braid edges on each shortest path from source, by listing
    every such path explicitly, one distance layer at a time."""
    dist = {v: bfs_distance(g, source, v) for v in g.vertices}
    adjacent = defaultdict(list)
    for u, v, label in g.edges:
        a, b = g.vertices[u], g.vertices[v]
        adjacent[a].append((b, label.startswith("b")))
        adjacent[b].append((a, label.startswith("b")))
    paths = [(source, 0)]  # (end vertex, braids on the path)
    best = {source: 0}
    while paths:
        paths = [
            (nxt, braids + braid)
            for end, braids in paths
            for nxt, braid in adjacent[end]
            if dist[nxt] == dist[end] + 1
        ]
        for end, braids in paths:
            best[end] = min(best.get(end, braids), braids)
    return [dist[v] for v in g.vertices], [best[v] for v in g.vertices]


@pytest.mark.parametrize("model", ["words", "tableaux"])
def test_shortest_paths_match_brute_force_over_s4(model):
    for w in all_permutations(4):
        g = build_graph(w, model)
        for source in g.vertices:
            assert shortest_paths(g, source) == _geodesic_braids(g, source)


def test_shortest_paths_rejects_foreign_vertex():
    g = build_graph(Permutation([4, 3, 2, 1]), "words")
    with pytest.raises(ValueError):
        shortest_paths(g, Word([9, 9]))
    # fillings hash by their entries alone, as one graph's vertices share
    # their cells, but equality still compares the cells
    g = build_graph(Permutation([4, 3, 2, 1]), "tableaux")
    t = g.vertices[3]
    twin = Filling(zip(t.cells, t.entries))
    assert twin == t and hash(twin) == hash(t) and g.index_of(twin) == 3
    moved = Filling(zip([(r + 1, c) for r, c in t.cells], t.entries))
    assert moved != t and moved.entries == t.entries
    for look_up in (g.index_of, lambda v: shortest_paths(g, v)):
        with pytest.raises(ValueError, match="vertex not in graph"):
            look_up(moved)


def test_graph_from_json_rejects_unknown_model():
    g = build_graph(Permutation([2, 1]), "tableaux")
    payload = json.loads(to_json(g))
    payload["model"] = "chains"
    with pytest.raises(ValueError):
        graph_from_json(json.dumps(payload))


def test_model_functions_are_looked_up_on_each_use(monkeypatch):
    """A function rebound in its defining module after import is the one
    a graph calls on the first read of its ranks, as a profiler that wraps
    module functions needs."""
    from redwords import words

    ranked = []

    def rank(word):
        ranked.append(word)
        return word_inversions(word)

    monkeypatch.setattr(words, "word_inversions", rank)
    g = build_graph(Permutation([3, 2, 1]), "words")
    assert ranked == []  # no rank before the first read
    g.ranks
    assert ranked == list(g.vertices)


@pytest.mark.parametrize("model", ["words", "tableaux"])
def test_ranks_are_computed_on_first_read_then_kept(monkeypatch, rank_calls, model):
    """build_graph makes no rank call in either model.  The first read of
    ``ranks`` calls the rank function bound at that read, once per vertex in
    vertex order; a second read calls nothing."""
    from redwords import tableaux, words

    g = build_graph(Permutation([4, 2, 1, 5, 3]), model)
    assert len(g.vertices) == 11 and rank_calls == []
    module, rank = (words, word_inversions) if model == "words" else (tableaux, tab_inversions)
    at_read = []
    monkeypatch.setattr(module, rank.__name__, lambda e: at_read.append(e) or rank(e))
    ranks = g.ranks
    assert rank_calls == [] and at_read == list(g.vertices)
    assert ranks == tuple(rank(v) for v in g.vertices)
    assert g.ranks is ranks and at_read == list(g.vertices)


@pytest.mark.parametrize("model", ["words", "tableaux"])
def test_graph_from_json_keeps_the_payload_ranks(rank_calls, model):
    """An import keeps the ranks it reads, edited ones too, and ranks
    nothing; a built graph equals its own re-import."""
    g = build_graph(Permutation([4, 2, 1, 5, 3]), model)
    payload = json.loads(to_json(g))
    rank_calls.clear()
    payload["vertices"][3]["rank"] = 99
    h = graph_from_json(json.dumps(payload))
    expected = list(g.ranks)
    expected[3] = 99
    assert h.ranks == tuple(expected) and rank_calls == []
    fresh = build_graph(Permutation([4, 2, 1, 5, 3]), model)
    assert graph_from_json(to_json(fresh)) == fresh


@pytest.mark.parametrize("fmt", ["dot", "json"])
@pytest.mark.parametrize("model", ["words", "tableaux"])
def test_exports_rank_each_vertex_once(rank_calls, model, fmt):
    g = build_graph(Permutation([4, 3, 2, 1]), model)
    text = export(g, fmt)
    assert rank_calls == list(g.vertices)
    assert export(g, fmt) == text and rank_calls == list(g.vertices)


def test_lookup_model_rows(monkeypatch):
    from redwords import diagrams, tableaux, words
    from redwords.graphs import MODELS, lookup_model

    for name in MODELS:
        m = lookup_model(name)
        w = Permutation([4, 2, 1, 5, 3])
        top = m.top(w)
        assert m.rank(top) == 0
        assert m.type.from_text(top.to_text()) == top
        assert top in set(m.elements(w))
    defined = [  # (model, field, the module defining its function, the function's name)
        ("words", "elements", words, "iter_reduced_words"),
        ("words", "rank", words, "word_inversions"),
        ("words", "top", words, "super_word"),
        ("tableaux", "elements", tableaux, "_iter_sbt"),
        ("tableaux", "rank", tableaux, "tab_inversions"),
        ("tableaux", "top", diagrams, "super_tableau"),
    ]
    for name, field, module, function in defined:  # rebound where defined
        rebound = lambda *args: None  # noqa: E731
        monkeypatch.setattr(module, function, rebound)
        assert getattr(lookup_model(name), field) is rebound
    with pytest.raises(ValueError, match="unknown model"):
        lookup_model("braids")


def _all_pairs_diameter(g):
    """The diameter as one plain BFS per source."""
    from redwords.graphs import _bfs

    return max((max(_bfs(g, source)) for source in range(len(g.vertices))), default=0)


def _bfs_counted(monkeypatch):
    """The graphs module's BFS runs from here on, each as the distances it returned."""
    runs = []
    honest = graphs._bfs

    def counted(*args):
        runs.append(honest(*args))
        return runs[-1]

    monkeypatch.setattr(graphs, "_bfs", counted)
    return runs


@pytest.mark.parametrize("model", ["words", "tableaux"])
def test_certified_diameter_matches_all_pairs_over_s1_to_s4(model):
    for n in range(1, 5):
        for w in all_permutations(n):
            g = build_graph(w, model)
            assert diameter(g) == _all_pairs_diameter(g), w


@pytest.mark.parametrize("model", ["words", "tableaux"])
@pytest.mark.parametrize("w", ["2,4,3,1", "1,3,5,4,2"])
def test_diameter_falls_back_to_the_sweep_without_a_certificate(monkeypatch, model, w):
    g = build_graph(Permutation.from_text(w), model)
    runs = _bfs_counted(monkeypatch)
    value = diameter(g)
    # the certificate's two runs, then one per vertex
    assert len(runs) == 2 + len(g.vertices)
    assert value == _all_pairs_diameter(g) == 2


def test_diameter_of_a_graph_with_a_certificate_takes_two_runs(monkeypatch):
    g = build_graph(Permutation.longest(4), "tableaux")
    runs = _bfs_counted(monkeypatch)
    assert diameter(g) == 7
    assert len(runs) == 2


def test_diameter_of_edited_imports():
    payload = json.loads(to_json(build_graph(Permutation([3, 2, 1]), "words")))
    assert len(payload["edges"]) == 1
    payload["edges"] = []
    with pytest.raises(ValueError, match="^graph is not connected$"):
        diameter(graph_from_json(json.dumps(payload)))
    # the super word renamed away: the sweep answers
    payload = json.loads(to_json(build_graph(Permutation([4, 3, 2, 1]), "words")))
    top = next(v for v in payload["vertices"] if v["rank"] == 0)
    top["elem"] = "9,9,9,9,9,9"
    g = graph_from_json(json.dumps(payload))
    assert super_word(g.w) not in g.vertices
    assert diameter(g) == _all_pairs_diameter(g) == 7
    # the super word renamed away and the edges removed: the sweep finds it unconnected
    payload = json.loads(to_json(build_graph(Permutation([3, 2, 1]), "words")))
    next(v for v in payload["vertices"] if v["rank"] == 0)["elem"] = "9,9,9"
    payload["edges"] = []
    g = graph_from_json(json.dumps(payload))
    assert super_word(g.w) not in g.vertices
    with pytest.raises(ValueError, match="^graph is not connected$"):
        diameter(g)
    payload["vertices"] = payload["edges"] = []
    assert diameter(graph_from_json(json.dumps(payload))) == 0


def test_unconnected_and_empty_edited_imports():
    payload = json.loads(to_json(build_graph(Permutation([3, 2, 1]), "words")))
    payload["edges"] = []
    g = graph_from_json(json.dumps(payload))
    a, b = g.vertices
    for measure in (bfs_distance, min_braid_count):
        assert measure(g, a, a) == 0
        with pytest.raises(ValueError) as exc:
            measure(g, a, b)
        assert str(exc.value) == "vertices are not connected"
    assert not is_connected(g)
    payload["vertices"] = []
    empty = graph_from_json(json.dumps(payload))
    assert empty.vertices == ()
    assert is_connected(empty)


@pytest.mark.skipif(
    os.environ.get("REDWORDS_STRESS") != "1",
    reason="S_5 stress run; set REDWORDS_STRESS=1 to enable",
)
@pytest.mark.parametrize("model", ["words", "tableaux"])
def test_certified_diameter_matches_all_pairs_over_s5_stress(model):
    for w in all_permutations(5):
        g = build_graph(w, model)
        assert diameter(g) == _all_pairs_diameter(g), w


ACTS = {"words": Move.on_word, "tableaux": Move.on_tableau}


def _assert_move_table(g):
    """Slot by slot, the move table holds each move's image of each vertex."""
    moves, size = moves_for(g.w.length), len(g.vertices)
    assert len(g.table) == size * len(moves)
    for k, element in enumerate(g.vertices):
        images = [ACTS[g.model](move, element) for move in moves]
        assert [g.vertices[g.table[m * size + k]] for m in range(len(moves))] == images
        assert [g.vertices[j] for j in g.images(k)] == images


@pytest.mark.parametrize("model", ["words", "tableaux"])
def test_move_table_matches_the_moves_over_s1_to_s4(model):
    for n in range(1, 5):
        for w in all_permutations(n):
            _assert_move_table(build_graph(w, model))


@pytest.mark.skipif(
    os.environ.get("REDWORDS_STRESS") != "1",
    reason="S_5 stress run; set REDWORDS_STRESS=1 to enable",
)
@pytest.mark.parametrize("model", ["words", "tableaux"])
def test_move_table_matches_the_moves_over_s5_stress(model):
    for w in all_permutations(5):
        _assert_move_table(build_graph(w, model))


@pytest.mark.parametrize("model", ["words", "tableaux"])
def test_json_import_has_the_move_table(model):
    for n in range(1, 5):
        for w in all_permutations(n):
            g = build_graph(w, model)
            h = graph_from_json(to_json(g))
            assert h.table == g.table


@pytest.mark.parametrize(
    "edit,message",
    [
        ({"move": "b3"}, "not a move of 3,2,1: b3 from 0 to 1"),
        ({"v": 0}, "not a move of 3,2,1: b2 from 0 to 0"),
        ({"v": 2}, "not a move of 3,2,1: b2 from 0 to 2"),
        ({"u": -1}, "not a move of 3,2,1: b2 from -1 to 1"),
        (None, "move b2 given twice at vertex 1 or 0"),
    ],
    ids=["label", "loop", "past_the_end", "negative", "twice"],
)
def test_graph_from_json_rejects_edges_that_are_not_moves(edit, message):
    payload = json.loads(to_json(build_graph(Permutation([3, 2, 1]), "words")))
    assert payload["edges"] == [{"u": 0, "v": 1, "move": "b2"}]
    if edit is None:
        payload["edges"].append({"u": 1, "v": 0, "move": "b2"})
    else:
        payload["edges"][0].update(edit)
    with pytest.raises(ValueError, match=f"^{message}$"):
        graph_from_json(json.dumps(payload))


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda payload: {k: v for k, v in payload.items() if k != "edges"}, "KeyError: 'edges'"),
        (lambda payload: {k: v for k, v in payload.items() if k != "w"}, "KeyError: 'w'"),
        (lambda payload: payload["vertices"][1].update(id="1"), "TypeError: '<' not supported"),
        (lambda payload: [payload], "TypeError: list indices"),
        (lambda payload: payload.update(model=["words"]), "TypeError: unhashable type"),
        (lambda payload: payload["vertices"][0].update(elem=5), "AttributeError: 'int'"),
        (lambda payload: payload["vertices"][0].update(rank="x"), "TypeError: vertex rank 'x' is not an int$"),
        (lambda payload: payload["vertices"][0].update(rank=1.0), "TypeError: vertex rank 1.0 is not an int$"),
        (lambda payload: payload["vertices"][0].update(rank=None), "TypeError: vertex rank None is not an int$"),
        (lambda payload: payload["vertices"][0].update(rank=True), "TypeError: vertex rank True is not an int$"),
        (lambda payload: payload["vertices"][1].update(id=True), "TypeError: vertex id True is not an int$"),
        (
            lambda payload: payload["edges"][0].update(u=False, v=True),
            "TypeError: edge end False is not an int$",
        ),
    ],
    ids=[
        "no_edges", "no_w", "string_id", "top_level_list", "list_model", "integer_elem",
        "string_rank", "float_rank", "null_rank", "bool_rank", "bool_id", "bool_edge_ends",
    ],
)
def test_graph_from_json_rejects_payloads_of_another_shape(edit, message):
    payload = json.loads(to_json(build_graph(Permutation([3, 2, 1]), "words")))
    edited = edit(payload)  # None when edited in place
    text = json.dumps(payload if edited is None else edited)
    with pytest.raises(ValueError, match=f"^malformed graph payload: {message}"):
        graph_from_json(text)


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda payload: payload["vertices"][1].update(id=0), "vertex id 0 given twice"),
        (lambda payload: payload["vertices"][2].update(id=7), "vertex ids are not 0..2"),
        (lambda payload: payload["vertices"][0].update(id=-1), "vertex ids are not 0..2"),
        (
            lambda payload: payload["vertices"][2].update(elem="1,3,2,1"),
            "element 1,3,2,1 given twice",
        ),
    ],
    ids=["id_twice", "id_past_the_end", "id_negative", "element_twice"],
)
def test_graph_from_json_rejects_vertex_lists_that_are_not_sets(edit, message):
    """Vertex ids must be 0..V-1, each once, and no element may be listed
    twice (else ``index_of`` would answer only one of its copies)."""
    payload = json.loads(to_json(build_graph(Permutation([3, 2, 4, 1]), "words")))
    assert [(v["id"], v["elem"]) for v in payload["vertices"]] == [
        (0, "1,3,2,1"), (1, "3,1,2,1"), (2, "3,2,1,2")
    ]
    edit(payload)
    with pytest.raises(ValueError, match=f"^{message}$"):
        graph_from_json(json.dumps(payload))


@pytest.mark.parametrize(
    "ranks,expected",
    [
        ({9: 5}, ["edge (8, 9)", None, None, "vertex 9"]),
        ({13: 6, 5: 9}, ["edge (0, 5)", None, "vertex 0", "vertex 5"]),
        (
            {10: 0},
            ["edge (8, 10)", "rank-0 vertices: 2", "vertex 8", "no unique rank-0 vertex"],
        ),
        ("shift", [None, "rank-0 vertices: 0", "vertex 15", "no unique rank-0 vertex"]),
        ({1: 5}, [None, None, "vertex 1", "vertex 1"]),
    ],
    ids=["edge_step", "first_edge", "two_zeros", "no_zero", "no_cover"],
)
def test_validate_ranked_poset_names_the_first_fault(ranks, expected):
    """Edited ranks in the 4,3,2,1 words graph fail each rank check in turn,
    each naming the first edge (u, v), u < v, or vertex at fault."""
    payload = json.loads(to_json(build_graph(Permutation([4, 3, 2, 1]), "words")))
    for v in payload["vertices"]:
        if ranks == "shift":  # every rank one higher
            v["rank"] += 1
        elif v["id"] in ranks:
            v["rank"] = ranks[v["id"]]
    results = validate_ranked_poset(graph_from_json(json.dumps(payload)))
    assert [r.name for r in results] == [
        "edges_step_rank_by_one", "unique_rank_zero", "covers_descend", "rank_is_distance_to_zero"
    ]
    assert [r.detail for r in results] == expected
    assert [r.passed for r in results] == [d is None for d in expected]


@pytest.mark.parametrize("model", ["words", "tableaux"])
def test_json_import_puts_edges_in_canonical_order(model):
    """Edges listed in reverse, each with its ends swapped, import as the
    built graph and export as it does, byte for byte."""
    g = build_graph(Permutation([4, 2, 1, 5, 3]), model)
    text = to_json(g)
    payload = json.loads(text)
    payload["edges"] = [
        {"u": e["v"], "v": e["u"], "move": e["move"]} for e in reversed(payload["edges"])
    ]
    h = graph_from_json(json.dumps(payload))
    assert h == g
    assert h.edges == g.edges
    assert to_json(h) == text


def test_repr_counts_edges_without_listing_them():
    assert repr(build_graph(Permutation([4, 3, 2, 1]), "words")) == (
        "MoveGraph(model='words', w=4,3,2,1, |V|=16, |E|=18)"
    )
    g = build_graph(Permutation.longest(5), "words")
    tracemalloc.start()
    try:
        text = repr(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = len(g.vertices)
    assert text.endswith(f"|V|={size}, |E|={len(g.edges)})")
    assert size == 768
    assert peak < 32 * size, f"{peak} B peak, {peak / size:.0f} B per vertex"


@pytest.mark.skipif(
    os.environ.get("REDWORDS_STRESS") != "1",
    reason="rank-6 stress run; set REDWORDS_STRESS=1 to enable",
)
def test_rank6_graph_pair_fits_under_500_mb_stress():
    """Both move graphs of the longest permutation of rank 6, held together
    in one fresh process, peak under 500 MB of resident memory."""
    import subprocess
    import sys

    import redwords

    script = (
        "import resource\n"
        "from redwords import Permutation, build_graph\n"
        "w0 = Permutation.longest(6)\n"
        "pair = [build_graph(w0, model) for model in ('words', 'tableaux')]\n"
        "assert [len(g.vertices) for g in pair] == [292864, 292864]\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    src = os.path.dirname(os.path.dirname(redwords.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    peak_mb = int(out.stdout.split()[-1]) / 1024  # ru_maxrss is in KiB on Linux
    assert peak_mb < 500, f"peak RSS {peak_mb:.0f} MB"


@pytest.mark.skipif(
    os.environ.get("REDWORDS_STRESS") != "1",
    reason="rank-6 stress run; set REDWORDS_STRESS=1 to enable",
)
@pytest.mark.parametrize(
    "fmt,to_file,digest",
    [
        ("json", True, "282f1c997a9d825de91342231b2d2dce97e5af46538931256ac404e3e4fe1d3a"),
        ("dot", False, "3fd71235df452b4460294ad17a927d0ab2a8bd3cd357fa694e4bba7b8229750c"),
    ],
    ids=["json_to_file", "dot_to_stdout"],
)
def test_rank6_export_streams_under_300_mb_stress(tmp_path, fmt, to_file, digest):
    """``graph -w 6,5,4,3,2,1`` in a fresh process writes the same bytes as
    before the export streamed, and peaks under 300 MB of resident memory,
    against its graph's 125 MB.  A wrapper process reads the peak of the
    command alone, its one child."""
    import subprocess
    import sys

    import redwords

    stdout = tmp_path / "stdout"
    written = tmp_path / f"w0.{fmt}" if to_file else stdout
    command = [sys.executable, "-m", "redwords.cli", "graph", "-w", "6,5,4,3,2,1", "--format", fmt]
    command += ["-o", str(written)] if to_file else []
    wrapper = (
        "import resource, subprocess, sys\n"
        "subprocess.run(sys.argv[1:], check=True)\n"
        "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss, file=sys.stderr)\n"
    )
    src = os.path.dirname(os.path.dirname(redwords.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    with open(stdout, "wb") as out:
        run = subprocess.run(
            [sys.executable, "-c", wrapper, *command],
            env=env, stdout=out, stderr=subprocess.PIPE, text=True, check=True,
        )
    peak_mb = int(run.stderr.split()[-1]) / 1024  # ru_maxrss is in KiB on Linux
    assert hashlib.sha256(written.read_bytes()).hexdigest() == digest
    if to_file:
        assert stdout.read_bytes() == b""
    assert peak_mb < 300, f"peak RSS {peak_mb:.0f} MB"


@pytest.mark.parametrize("model", ["words", "tableaux"])
def test_build_graph_names_a_move_image_outside_the_vertex_set(monkeypatch, model):
    w = Permutation([4, 3, 2, 1])
    honest, source = ACTS[model], build_graph(w, model).vertices[3]
    stranger = Word([1] * 6) if model == "words" else super_tableau(Permutation([3, 4, 2, 1]))

    def faulty(move, element):
        return stranger if move.label == "b2" and element == source else honest(move, element)

    monkeypatch.setattr(Move, ACTS[model].__name__, faulty)
    with pytest.raises(ValueError) as caught:
        build_graph(w, model)
    assert str(caught.value) == (
        f"move b2 takes {source} to {stranger}, which is not an element of 4,3,2,1"
    )


def test_validate_ranked_poset_refuses_an_unreached_vertex_of_rank_minus_one():
    """The 3,2,1 words graph with its one edge removed and the other
    vertex's rank set to -1: the BFS leaves that vertex unreached, which is a
    fault whatever its rank."""
    payload = json.loads(to_json(build_graph(Permutation([3, 2, 1]), "words")))
    payload["edges"] = []
    other = next(v for v in payload["vertices"] if v["rank"] != 0)
    other["rank"] = -1
    g = graph_from_json(json.dumps(payload))
    assert not is_connected(g)
    results = validate_ranked_poset(g)
    assert [r.detail for r in results] == [None, None, None, f"vertex {other['id']}"]
    assert [r.passed for r in results] == [True, True, True, False]


@pytest.mark.parametrize("model", ["words", "tableaux"])
def test_validating_a_built_graph_makes_no_bfs(monkeypatch, model):
    runs = _bfs_counted(monkeypatch)
    for n in range(1, 5):
        for w in all_permutations(n):
            assert all(r.passed for r in validate_ranked_poset(build_graph(w, model)))
    assert runs == []
