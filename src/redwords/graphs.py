"""Move graphs on reduced words or balanced tableaux: construction, BFS
distances, single-source shortest paths with their fewest braids, diameter,
ranked poset validation, and DOT/JSON export.

Vertices are deduplicated by ``MoveGraph._index``, a dict keyed by the
element, and sorted by the model's key: a word's integer letters, or a
tableau's ``entries``.  Neither is text order once a letter or an entry
reaches 10.
"""

from __future__ import annotations

import json
from array import array
from collections import deque
from functools import cached_property
from operator import attrgetter
from typing import Callable, Iterable, Iterator, NamedTuple

from . import diagrams, tableaux, words
from .bijection import moves_for, tableau_to_word
from .diagrams import Filling, super_tableau
from .perms import Permutation
from .report import CheckResult
from .tableaux import psi
from .words import Word
from .words import iter_reduced_words  # unused here; perfbench's tracer patches graphs.iter_reduced_words

Vertex = Word | Filling

DEFAULT_VERTEX_BUDGET = 10**6

_BLOCK = 4096  # vertices whose edges ``MoveGraph.iter_edges`` sorts at once


class Model(NamedTuple):
    """A model's element type (``from_text``, ``to_text``); the elements of
    w, an element's rank and the super element of w; the key sorting
    elements into vertex order; the ``Move`` method acting on them."""

    type: type
    elements: Callable[[Permutation], Iterable[Vertex]]
    rank: Callable[[Vertex], int]
    top: Callable[[Permutation], Vertex]
    order: Callable[[Vertex], object] | None
    act: str


# Per model, its ``Model``, made on each lookup from the functions of the
# modules that define them, so that a function rebound there is the one called.
MODELS = {
    "words": lambda: Model(
        Word, words.iter_reduced_words, words.word_inversions, words.super_word, None, "on_word"
    ),
    "tableaux": lambda: Model(
        Filling, tableaux._iter_sbt, tableaux.tab_inversions, diagrams.super_tableau,
        attrgetter("entries"), "on_tableau",
    ),
}


def lookup_model(name: str) -> Model:
    """The ``Model`` called ``name``, made from its modules' functions as they stand now."""
    if name not in MODELS:
        raise ValueError(f"unknown model: {name!r}")
    return MODELS[name]()


class MoveGraph:
    """Undirected simple graph whose edges are single nontrivial moves,
    with a rank (inversion number) per vertex, stored as its move table.
    Ranks given are kept; else the first read of ``ranks`` computes them.

    For move slot m of ``moves_for(w.length)`` (c1..c(ell-1), then
    b2..b(ell-1)), ``table[m * len(vertices) + k]`` is the index of that
    move's image of vertex k, or k when the move leaves it unchanged.  The
    graph makes its vertex index and a table in which every move fixes every
    vertex; a builder writes the images.  The table is the whole graph: each
    vertex's images, its neighbours and the edge list are read from it.
    """

    def __init__(self, model: str, w: Permutation, vertices: Iterable[Vertex], ranks: Iterable[int] | None = None):
        self.model = model
        self.w = w
        self.vertices: tuple[Vertex, ...] = tuple(vertices)
        if ranks is not None:
            self.ranks = tuple(ranks)
        self._index = {v: k for k, v in enumerate(self.vertices)}
        self._moves = moves_for(w.length)  # the move of each slot
        self.table = array("i", range(len(self.vertices))) * len(self._moves)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MoveGraph)
            and self.model == other.model
            and self.w == other.w
            and self.vertices == other.vertices
            and self.ranks == other.ranks
            and self.table == other.table
        )

    def __repr__(self) -> str:
        size = len(self.vertices)  # an edge is an image k < j of vertex k
        return (
            f"MoveGraph(model={self.model!r}, w={self.w}, "
            f"|V|={size}, |E|={sum(i % size < j for i, j in enumerate(self.table))})"
        )

    @cached_property
    def ranks(self) -> tuple[int, ...]:
        """Each vertex's rank, in vertex order, by the model's rank function as
        looked up at the first read; kept from then on."""
        return tuple(map(lookup_model(self.model).rank, self.vertices))

    @property
    def edges(self) -> tuple[tuple[int, int, str], ...]:
        """Every edge of ``iter_edges``, in its order."""
        return tuple(self.iter_edges())

    def iter_edges(self) -> Iterator[tuple[int, int, str]]:
        """Every (k, j, label) with k < j the image of vertex k under the
        move ``label``, sorted, one block of ``_BLOCK`` vertices at a time:
        no list holds more than one block's edges."""
        size, table = len(self.vertices), self.table
        slots = [(slot * size, move.label) for slot, move in enumerate(self._moves)]
        for start in range(0, size, _BLOCK):
            stop = min(start + _BLOCK, size)
            block = []
            for base, label in slots:  # each slot's images of the block's vertices
                images = enumerate(table[base + start : base + stop], start)
                block += [(k, j, label) for k, j in images if k < j]
            block.sort()
            yield from block

    def index_of(self, vertex: Vertex) -> int:
        try:
            return self._index[vertex]
        except KeyError:
            raise ValueError(f"vertex not in graph: {vertex}") from None

    def images(self, k: int) -> array:
        """Vertex k's image under each move, in move-slot order."""
        return self.table[k :: len(self.vertices)]


def build_graph(
    w: Permutation,
    model: str = "words",
    max_vertices: int = DEFAULT_VERTEX_BUDGET,
) -> MoveGraph:
    """Full move graph on R(w) or on the balanced tableaux of w.

    Refuses to enumerate past ``max_vertices``.  Edge labels carry the
    right-to-left index (words) or entry value (tableaux) of the move, so
    the two models are comparable under the matching bijection.  Each move
    is applied once to each vertex, and its image fills the move table.
    No rank is computed here: ``MoveGraph.ranks`` ranks on its first read.
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
    g = MoveGraph(model, w, vertices)
    size, index, table = len(vertices), g._index, g.table
    moves = [(getattr(move, m.act), move.label, slot * size) for slot, move in enumerate(g._moves)]
    for k, element in enumerate(vertices):
        for act, label, base in moves:
            other = act(element)
            if other is not element:
                try:
                    table[base + k] = index[other]
                except KeyError:
                    raise ValueError(
                        f"move {label} takes {element} to {other}, which is not an element of {w}"
                    ) from None
    return g


def _bfs(g: MoveGraph, source: int, target: int = -1) -> list[int]:
    """Each vertex's distance from ``source``, or -1 if unreached.  A search
    for a ``target`` stops once it labels it: vertices are labelled in order
    of distance, so the target's is final, and later ones still read -1."""
    size, table = len(g.vertices), g.table
    dist = [-1] * size
    dist[source] = 0
    if source == target:
        return dist
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in table[u::size]:  # u itself is already reached
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                if v == target:
                    return dist
                queue.append(v)
    return dist


def bfs_distance(g: MoveGraph, a: Vertex, b: Vertex) -> int:
    """Shortest-path length between two vertices, by a search that stops at b."""
    ia, ib = g.index_of(a), g.index_of(b)
    dist = _bfs(g, ia, ib)
    if dist[ib] < 0:
        raise ValueError("vertices are not connected")
    return dist[ib]


def shortest_paths(g: MoveGraph, source: Vertex) -> tuple[list[int], list[int]]:
    """Distances from ``source`` and the fewest braid edges over the
    shortest paths from it, both indexed like ``g.vertices``; an unreached
    vertex reads -1 in both.

    One BFS, then one pass in order of distance: each vertex offers its
    braid count, plus one for a braid, to its images one step farther out,
    which keep the least offer.
    """
    dist = _bfs(g, g.index_of(source))
    braids = [0 if d == 0 else -1 for d in dist]
    kinds = [move.kind == "b" for move in g._moves]  # per move slot, whether it is a braid
    for u in sorted(range(len(dist)), key=dist.__getitem__):
        for v, braid in zip(g.images(u), kinds):
            if dist[v] == dist[u] + 1 > 0:  # one step farther out from a reached u; never u itself
                offer = braids[u] + braid
                if not 0 <= braids[v] <= offer:
                    braids[v] = offer
    return dist, braids


def min_braid_count(g: MoveGraph, a: Vertex, b: Vertex) -> int:
    """Minimum number of braid-labeled edges over all shortest paths."""
    g.index_of(a)  # both ends are looked up, a first, before the search
    ib = g.index_of(b)
    dist, braids = shortest_paths(g, a)
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
    distance to the rank-zero vertex.  A failure names the first edge
    (u, v), u < v, or the first vertex at fault, an unreached one whatever
    its rank.  The BFS runs only when the first three fail or a rank is
    negative: else each vertex descends to rank 0 in rank-many steps of
    one, and no path is shorter."""
    ranks = g.ranks
    bad_edge = next(((u, v) for u, v, _ in g.iter_edges() if abs(ranks[u] - ranks[v]) != 1), None)
    zeros = [k for k, r in enumerate(ranks) if r == 0]
    uncovered = next(
        (k for k, r in enumerate(ranks) if r > 0 and all(ranks[v] != r - 1 for v in g.images(k))),
        None,
    )
    distance_fail = "no unique rank-0 vertex"
    if len(zeros) == 1:
        proven = bad_edge is None and uncovered is None and min(ranks) >= 0
        dist = ranks if proven else _bfs(g, zeros[0])
        mismatch = next((k for k, (d, r) in enumerate(zip(dist, ranks)) if d != r or d < 0), None)
        distance_fail = None if mismatch is None else f"vertex {mismatch}"
    details = {
        "edges_step_rank_by_one": None if bad_edge is None else f"edge {bad_edge}",
        "unique_rank_zero": None if len(zeros) == 1 else f"rank-0 vertices: {len(zeros)}",
        "covers_descend": None if uncovered is None else f"vertex {uncovered}",
        "rank_is_distance_to_zero": distance_fail,
    }
    return [CheckResult(name, detail is None, detail) for name, detail in details.items()]


def export_records(g: MoveGraph, format: str) -> Iterator[str]:
    """``export(g, format)`` one vertex or edge record at a time: Graphviz
    text, nodes annotated with rank and edges with the move label, or indent-2
    JSON; edges in ``iter_edges`` order.  No element text, label or w needs escaping."""
    vertices = ((k, v.to_text(), r) for k, (v, r) in enumerate(zip(g.vertices, g.ranks)))
    if format == "dot":
        yield "graph {"
        yield from (f'\n  {k} [label="{text}" rank={r}];' for k, text, r in vertices)
        yield from (f'\n  {u} -- {v} [label="{label}"];' for u, v, label in g.iter_edges())
        yield "\n}"
    elif format == "json":
        yield f'{{\n  "model": "{g.model}",\n  "w": "{g.w}",\n  "vertices": '
        yield from _json_list('"id": {},\n      "elem": "{}",\n      "rank": {}', vertices)
        yield ',\n  "edges": '
        yield from _json_list('"u": {},\n      "v": {},\n      "move": "{}"', g.iter_edges())
        yield "\n}"
    else:
        raise ValueError(f"unknown format: {format!r}")


def _json_list(fields: str, rows: Iterable[tuple]) -> Iterator[str]:
    """A list at depth 1 of an indent-2 JSON document: an object per row, ``fields`` filled in."""
    opening = "["
    for row in rows:
        yield f"{opening}\n    {{\n      {fields.format(*row)}\n    }}"
        opening = ","
    yield "[]" if opening == "[" else "\n  ]"


def export(g: MoveGraph, format: str) -> str:
    return "".join(export_records(g, format))


def to_dot(g: MoveGraph) -> str:
    return export(g, "dot")


def to_json(g: MoveGraph) -> str:
    return export(g, "json")


def _int(value, what: str) -> int:
    """``value`` if it is an int (JSON's ``true`` is not), else a TypeError."""
    if type(value) is not int:  # bool, float, str or None
        raise TypeError(f"{what} {value!r} is not an int")
    return value


def graph_from_json(text: str) -> MoveGraph:
    """Rebuild a graph from its JSON export; its edges fill the move table.

    The vertex ids must be the ints 0..V-1, each once, with no element twice
    and an int rank each; each edge must be a move of w between two of them,
    given once.  Any other shape is a ``ValueError``; elements need not be of w."""
    payload = json.loads(text)
    try:
        model = payload["model"]
        parse = lookup_model(model).type.from_text
        w = Permutation.from_text(payload["w"])
        records = sorted(payload["vertices"], key=lambda rec: rec["id"])
        size = len(records)
        ids = [_int(rec["id"], "vertex id") for rec in records]
        if ids != list(range(size)):
            twice = next((a for a, b in zip(ids, ids[1:]) if a == b), None)
            if twice is not None:
                raise ValueError(f"vertex id {twice} given twice")
            raise ValueError(f"vertex ids are not 0..{size - 1}")
        ranks = [_int(rec["rank"], "vertex rank") for rec in records]
        g = MoveGraph(model, w, [parse(rec["elem"]) for rec in records], ranks)
        if len(g._index) < size:
            twice = next(v for k, v in enumerate(g.vertices) if g._index[v] != k)
            raise ValueError(f"element {twice} given twice")
        table, bases = g.table, {move.label: slot * size for slot, move in enumerate(g._moves)}
        for e in payload["edges"]:
            u, v, label = _int(e["u"], "edge end"), _int(e["v"], "edge end"), e["move"]
            if label not in bases or u == v or not (0 <= u < size and 0 <= v < size):
                raise ValueError(f"not a move of {w}: {label} from {u} to {v}")
            base = bases[label]
            if table[base + u] != u or table[base + v] != v:
                raise ValueError(f"move {label} given twice at vertex {u} or {v}")
            table[base + u], table[base + v] = v, u
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed graph payload: {type(exc).__name__}: {exc}") from None
    return g
