"""Move graphs on reduced words or balanced tableaux: construction, BFS
distances, single-source shortest paths with their fewest braids, diameter,
ranked poset validation, and DOT/JSON export.

Vertices are deduplicated and ordered by their canonical text forms, never
by structural hashing.
"""

from __future__ import annotations

import json
from array import array
from collections import deque
from operator import attrgetter
from typing import Callable, Iterable, NamedTuple

from .bijection import moves_for, tableau_to_word
from .diagrams import Filling, super_tableau
from .perms import Permutation
from .report import CheckResult
# Most of these are called only by name, through MODELS.
from .tableaux import _iter_sbt, psi, tab_inversions
from .words import Word, iter_reduced_words, super_word, word_inversions

Vertex = Word | Filling

DEFAULT_VERTEX_BUDGET = 10**6

# Per model: the element type (``from_text``, ``to_text``); the names of
# the functions giving the elements of w, an element's rank and the super
# element of w, looked up here on each use so that a rebinding is seen; the
# key sorting elements into vertex order; the ``Move`` method acting on them.
MODELS = {
    "words": (Word, "iter_reduced_words", "word_inversions", "super_word", None, "on_word"),
    "tableaux": (
        Filling, "_iter_sbt", "tab_inversions", "super_tableau", attrgetter("entries"), "on_tableau"
    ),
}


class Model(NamedTuple):
    """A row of ``MODELS`` with its function names replaced by functions."""

    type: type
    elements: Callable[[Permutation], Iterable[Vertex]]
    rank: Callable[[Vertex], int]
    top: Callable[[Permutation], Vertex]
    order: Callable[[Vertex], object] | None
    act: str


def lookup_model(name: str) -> Model:
    """The row of ``MODELS`` called ``name``, with its functions looked up."""
    if name not in MODELS:
        raise ValueError(f"unknown model: {name!r}")
    kind, elements, rank, top, order, act = MODELS[name]
    found = globals()
    return Model(kind, found[elements], found[rank], found[top], order, act)


class MoveGraph:
    """Undirected simple graph whose edges are single nontrivial moves,
    with a rank (inversion number) per vertex.

    ``table`` is the move table: for move slot m of ``moves_for(w.length)``
    (c1..c(ell-1), then b2..b(ell-1)), ``table[m * len(vertices) + k]`` is
    the index of that move's image of vertex k, or k when the move leaves it
    unchanged.  ``build_graph`` and ``graph_from_json`` fill it together
    with the edges and each vertex's neighbour list.
    """

    def __init__(
        self,
        model: str,
        w: Permutation,
        vertices: Iterable[Vertex],
        ranks: Iterable[int],
        index: dict[Vertex, int],
        table: array,
        edges: Iterable[tuple[int, int, str]],
        adjacency: list[list[tuple[int, bool]]],
    ):
        self.model = model
        self.w = w
        self.vertices: tuple[Vertex, ...] = tuple(vertices)
        self.ranks: tuple[int, ...] = tuple(ranks)
        self.table = table
        self.edges: tuple[tuple[int, int, str], ...] = tuple(edges)
        self._index = index
        self._adjacency = adjacency

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MoveGraph)
            and self.model == other.model
            and self.w == other.w
            and self.vertices == other.vertices
            and self.edges == other.edges
            and self.ranks == other.ranks
            and self.table == other.table
        )

    def __repr__(self) -> str:
        return (
            f"MoveGraph(model={self.model!r}, w={self.w}, "
            f"|V|={len(self.vertices)}, |E|={len(self.edges)})"
        )

    def index_of(self, vertex: Vertex) -> int:
        try:
            return self._index[vertex]
        except KeyError:
            raise ValueError(f"vertex not in graph: {vertex}") from None

    def neighbors(self, idx: int) -> list[tuple[int, bool]]:
        return self._adjacency[idx]


def _blank(size: int, moves: int) -> tuple[array, list[list[tuple[int, bool]]]]:
    """A move table in which every move fixes each of ``size`` vertices, and
    as many empty neighbour lists."""
    return array("i", range(size)) * moves, [[] for _ in range(size)]


def build_graph(
    w: Permutation,
    model: str = "words",
    max_vertices: int = DEFAULT_VERTEX_BUDGET,
) -> MoveGraph:
    """Full move graph on R(w) or on the balanced tableaux of w.

    Refuses to enumerate past ``max_vertices``.  Edge labels carry the
    right-to-left index (words) or entry value (tableaux) of the move, so
    the two models are comparable under the matching bijection.  Each move
    is applied once to each vertex; its image fills the move table and,
    from the lower end, the edge list and both ends' neighbour lists.
    """
    m = lookup_model(model)
    vertices: list[Vertex] = []
    for element in m.elements(w):
        vertices.append(element)
        if len(vertices) > max_vertices:
            raise ValueError(
                f"vertex budget exceeded: more than {max_vertices} elements"
            )
    vertices.sort(key=m.order)
    ranks = [m.rank(element) for element in vertices]

    size = len(vertices)
    index = {v: k for k, v in enumerate(vertices)}
    moves = [
        (getattr(move, m.act), move.kind == "b", move.label, slot * size)
        for slot, move in enumerate(moves_for(w.length))
    ]
    table, adjacency = _blank(size, len(moves))
    edges: list[tuple[int, int, str]] = []
    for k, element in enumerate(vertices):
        for act, braid, label, base in moves:
            other = act(element)
            if other is not element:
                try:
                    j = index[other]
                except KeyError:
                    raise ValueError(
                        f"move {label} takes {element} to {other}, which is not an element of {w}"
                    ) from None
                table[base + k] = j
                if k < j:  # every move is an involution: record each edge once
                    edges.append((k, j, label))
                    adjacency[k].append((j, braid))
                    adjacency[j].append((k, braid))
    edges.sort()
    return MoveGraph(model, w, vertices, ranks, index, table, edges, adjacency)


def _bfs(g: MoveGraph, source: int) -> list[int]:
    dist = [-1] * len(g.vertices)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v, _ in g.neighbors(u):
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def bfs_distance(g: MoveGraph, a: Vertex, b: Vertex) -> int:
    """Shortest-path length between two vertices."""
    ia, ib = g.index_of(a), g.index_of(b)
    dist = _bfs(g, ia)
    if dist[ib] < 0:
        raise ValueError("vertices are not connected")
    return dist[ib]


def shortest_paths(g: MoveGraph, source: Vertex) -> tuple[list[int], list[int]]:
    """Distances from ``source`` and the fewest braid edges over the
    shortest paths from it, both indexed like ``g.vertices``; an unreached
    vertex reads -1 in both.

    One BFS, then one pass in order of distance: a vertex's braid count is
    the least over its neighbours one step closer to the source.
    """
    dist = _bfs(g, g.index_of(source))
    braids = [0 if d == 0 else -1 for d in dist]
    for v in sorted(range(len(dist)), key=dist.__getitem__):
        if dist[v] > 0:
            braids[v] = min(
                braids[u] + braid
                for u, braid in g.neighbors(v)
                if dist[u] == dist[v] - 1
            )
    return dist, braids


def min_braid_count(g: MoveGraph, a: Vertex, b: Vertex) -> int:
    """Minimum number of braid-labeled edges over all shortest paths."""
    dist, braids = shortest_paths(g, a)
    ib = g.index_of(b)
    if dist[ib] < 0:
        raise ValueError("vertices are not connected")
    return braids[ib]


def is_connected(g: MoveGraph) -> bool:
    if not g.vertices:
        return True
    return all(d >= 0 for d in _bfs(g, 0))


def diameter(g: MoveGraph, w0_shortcut: bool = False) -> int:
    """Largest BFS distance between any two vertices.

    Certified by BFS from the super element a and from the first vertex b
    farthest from a: if d(a,x) + d(x,b) = d(a,b) for every x, the diameter
    is d(a,b), as d(x,y) is at most d(x,a) + d(a,y) and d(x,b) + d(b,y),
    which sum to 2 d(a,b).  Otherwise, or if a is not a vertex (an edited
    JSON import), one BFS per vertex finds it.

    With ``w0_shortcut`` (valid for the longest permutation only) it is one
    BFS between the super element and its complement, which attain the
    diameter by theorem; nothing is certified.
    """
    if w0_shortcut:
        if g.w != Permutation.longest(g.w.n):
            raise ValueError("shortcut applies only to the longest permutation")
        bottom = psi(super_tableau(g.w))
        if g.model == "words":  # the word matched to the bottom tableau
            bottom = tableau_to_word(bottom)
        return bfs_distance(g, lookup_model(g.model).top(g.w), bottom)
    a = g._index.get(lookup_model(g.model).top(g.w))
    if a is not None:
        da = _bfs(g, a)
        if min(da) < 0:
            raise ValueError("graph is not connected")
        b = da.index(max(da))
        if all(x + y == da[b] for x, y in zip(da, _bfs(g, b))):
            return da[b]
    best = 0
    for source in range(len(g.vertices)):
        dist = _bfs(g, source)
        if min(dist) < 0:
            raise ValueError("graph is not connected")
        best = max(best, max(dist))
    return best


def validate_ranked_poset(g: MoveGraph) -> list[CheckResult]:
    """Rank sanity for the move graph: edges step ranks by one, a single
    rank-zero vertex exists, covers go down, and rank equals the BFS
    distance to the rank-zero vertex."""
    results = []

    bad_edge = next(
        (
            (u, v)
            for u, v, _ in g.edges
            if abs(g.ranks[u] - g.ranks[v]) != 1
        ),
        None,
    )
    results.append(
        CheckResult(
            "edges_step_rank_by_one",
            bad_edge is None,
            None if bad_edge is None else f"edge {bad_edge}",
        )
    )

    zeros = [k for k, r in enumerate(g.ranks) if r == 0]
    results.append(
        CheckResult(
            "unique_rank_zero",
            len(zeros) == 1,
            None if len(zeros) == 1 else f"rank-0 vertices: {len(zeros)}",
        )
    )

    uncovered = next(
        (
            k
            for k, r in enumerate(g.ranks)
            if r > 0 and not any(g.ranks[v] == r - 1 for v, _ in g.neighbors(k))
        ),
        None,
    )
    results.append(
        CheckResult(
            "covers_descend",
            uncovered is None,
            None if uncovered is None else f"vertex {uncovered}",
        )
    )

    if len(zeros) == 1:
        dist = _bfs(g, zeros[0])
        mismatch = next(
            (k for k in range(len(g.vertices)) if dist[k] != g.ranks[k]), None
        )
        results.append(
            CheckResult(
                "rank_is_distance_to_zero",
                mismatch is None,
                None if mismatch is None else f"vertex {mismatch}",
            )
        )
    else:
        results.append(
            CheckResult("rank_is_distance_to_zero", False, "no unique rank-0 vertex")
        )
    return results


def to_dot(g: MoveGraph) -> str:
    """Graphviz text: undirected, nodes annotated with rank, edges with the
    move label."""
    lines = ["graph {"]
    for k in range(len(g.vertices)):
        lines.append(
            f'  {k} [label="{g.vertices[k].to_text()}" rank={g.ranks[k]}];'
        )
    for u, v, label in g.edges:
        lines.append(f'  {u} -- {v} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines)


def to_json(g: MoveGraph) -> str:
    payload = {
        "model": g.model,
        "w": str(g.w),
        "vertices": [
            {"id": k, "elem": g.vertices[k].to_text(), "rank": g.ranks[k]}
            for k in range(len(g.vertices))
        ],
        "edges": [{"u": u, "v": v, "move": label} for u, v, label in g.edges],
    }
    return json.dumps(payload, indent=2)


def export(g: MoveGraph, format: str) -> str:
    if format == "dot":
        return to_dot(g)
    if format == "json":
        return to_json(g)
    raise ValueError(f"unknown format: {format!r}")


def graph_from_json(text: str) -> MoveGraph:
    """Rebuild a graph from its JSON export; its edges fill the move table."""
    payload = json.loads(text)
    model = payload["model"]
    parse = lookup_model(model).type.from_text
    w = Permutation.from_text(payload["w"])
    records = sorted(payload["vertices"], key=lambda rec: rec["id"])
    vertices = [parse(rec["elem"]) for rec in records]
    ranks = [rec["rank"] for rec in records]
    size = len(vertices)
    moves = {
        move.label: (slot * size, move.kind == "b")
        for slot, move in enumerate(moves_for(w.length))
    }
    table, adjacency = _blank(size, len(moves))
    edges = []
    for e in payload["edges"]:
        u, v, label = e["u"], e["v"], e["move"]
        if label not in moves or u == v or not (0 <= u < size and 0 <= v < size):
            raise ValueError(f"not a move of {w}: {label} from {u} to {v}")
        base, braid = moves[label]
        if table[base + u] != u or table[base + v] != v:
            raise ValueError(f"move {label} given twice at vertex {u} or {v}")
        table[base + u], table[base + v] = v, u
        adjacency[u].append((v, braid))
        adjacency[v].append((u, braid))
        edges.append((u, v, label))
    index = {v: k for k, v in enumerate(vertices)}
    return MoveGraph(model, w, vertices, ranks, index, table, edges, adjacency)
