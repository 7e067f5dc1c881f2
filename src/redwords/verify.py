"""Exhaustive brute-force verification over all of S_n.

Every property checked is one of a single permutation w (and, for reversal
and flip, of its inverse), so each check is a public method of ``_Checks``,
the context of one w, returning a counterexample detail or None; ``CHECKS``
lists their names in definition order, the report order.  The ``w0_``
checks run only at the longest permutation; ``yang_baxter_pairwise_scope``
is a tally for n <= 4 that always passes.

``run_suite`` sweeps S_n once, one inversion orbit {w, w^-1} at a time from
its lexicographically smaller member.  ``_check_orbit(w)`` runs each check
on w and, if it passed, on w^-1, as ``_Checks(v, orbit)`` over one
``_Orbit`` that builds the move graphs on first request, keeps the scope
tally and is let go once the first failure per check and the tally return;
``run_suite`` keeps the lexicographically first failure and sums the tallies.

Six rules keep a run from doing the same work twice:

- each (w, model) is enumerated once, as the vertices of its move graph,
  built once per run; the bijection checks read those vertex lists;
- the words of w are matched with its tableaux once, by
  ``bijection.match_by_permutation`` over those two vertex lists, as a list
  giving each word vertex its tableau's vertex index, from which
  ``_Checks._correspondence`` compares the move tables and the ranks once,
  into the one record that both correspondence checks read;
- a question asked of every vertex (its distance to the super element, or
  the fewest braids on a shortest path there) is answered by one
  ``graphs.shortest_paths`` pass from the super element, which the orbit
  holds once per (member, model) for every check that asks it, not by one
  search per vertex; that pass also shows whether the graph is connected;
- each move is applied once, by ``graphs.build_graph``; checks read each
  vertex's images through ``MoveGraph.images``; only ``graph_connected_ranked``
  reads an edge list, as ``graphs.validate_ranked_poset`` finds its first
  bad edge in ``MoveGraph.iter_edges``;
- each element's rank is computed once, on the first read of
  ``MoveGraph.ranks``, and read from there; each other statistic of each
  tableau (column inversions, balance, flip, complement) is computed into
  a list filled once per (member, statistic) that every check reading it
  shares; both are called through the module defining them, so that a
  rebound function still reaches the check; flip and complement are listed
  as vertex indices, -1 outside the inverse's graph, so their involution
  tests compare indices; both move checks share one loop, in which a move
  image equal to its source is not examined again;
- the super word of w is built once, by ``words.super_word``, which keeps
  it for the calls that follow on the same w; no check hands it on.
"""

from __future__ import annotations

import functools
import math

from . import bijection, diagrams, graphs, tableaux, words
from .perms import Permutation, all_permutations
from .report import CheckResult



def staircase_tableau_count(n: int) -> int:
    """Standard Young tableaux of staircase shape (n-1, n-2, ..., 1), by the
    hook length formula.  Independent of the word enumeration it checks.
    Cell (r, c), from 0, has hook 2k+1 with k = n-2-r-c, and n-1-k cells
    share that k.

    >>> [staircase_tableau_count(n) for n in (3, 4, 5)]
    [2, 16, 768]
    """
    hooks = math.prod((2 * k + 1) ** (n - 1 - k) for k in range(n - 1))
    return math.factorial(n * (n - 1) // 2) // hooks


def verify_poset_isomorphism(w: Permutation) -> list[CheckResult]:
    """Exhaustive checks that matching by permutation is a bijection that
    preserves ranks, move edges, and the flip/reversal square."""
    parts, _ = _Checks(w, _Orbit())._correspondence
    return [CheckResult(name, detail is None, detail) for name, detail in parts.items()]


def run_suite(n: int) -> list[CheckResult]:
    """Run every brute-force check over S_n and report one line each."""
    if n < 1:
        raise ValueError("rank must be positive")
    failures: dict[str, tuple[Permutation, str]] = {}  # name -> first failure
    scope = [0, 0]  # pairs where the braid formula agrees, differs
    for w in all_permutations(n):
        if w <= w.inverse():
            found, tally = _check_orbit(w)
            for name, failure in found.items():
                failures[name] = min(failures.get(name, failure), failure)
            scope = [a + b for a, b in zip(scope, tally)]
    details = {name: detail for name, (_, detail) in failures.items()}
    details["yang_baxter_pairwise_scope"] = (
        f"formula matches the shortest-path braid count on {scope[0]} of "
        f"{sum(scope)} pairs; {scope[1]} arbitrary pairs differ "
        "(the formula is only exact toward the super word)"
        if n <= 4
        else f"skipped for n={n} > 4"
    )
    return [CheckResult(name, name not in failures, details.get(name)) for name in CHECKS]


def _check_orbit(w: Permutation) -> tuple[dict[str, tuple[Permutation, str]], list[int]]:
    """Run the checks on w and then its inverse, from one set of move graphs
    and tables that is released on return; return each failing check's
    first (member, detail) and the pair's scope tally."""
    orbit, found, longest = _Orbit(), {}, Permutation.longest(w.n)
    for v in dict.fromkeys((w, w.inverse())):  # one member for an involution
        checks = _Checks(v, orbit)
        for name in CHECKS:
            if name in found or name.startswith("w0_") and v != longest:
                continue
            detail = getattr(checks, name)()
            if detail is not None:
                found[name] = (v, detail)
    return found, orbit.scope


# The statistics whose values, elements of the inverse permutation, are listed as vertex indices.
_MAPS = ("flip", "psi")


class _Orbit:
    """The move graphs of an inverse pair {w, w^-1}, their shortest paths
    from the super element and the lists of their elements' statistics,
    each made on first request, and the pair's scope tally."""

    def __init__(self):
        self.scope = [0, 0]  # pairs where the braid formula agrees, differs
        self._graphs: dict[tuple[Permutation, str], graphs.MoveGraph] = {}
        self._paths: dict[tuple[Permutation, str], tuple[list[int], list[int]]] = {}
        self._tables: dict[tuple[Permutation, str], list] = {}

    def graph(self, v: Permutation, model: str) -> graphs.MoveGraph:
        if (v, model) not in self._graphs:
            self._graphs[v, model] = graphs.build_graph(v, model)
        return self._graphs[v, model]

    def paths(self, v: Permutation, model: str) -> tuple[list[int], list[int]]:
        """Distance and fewest braids from v's super element, per vertex of
        v's graph of model."""
        if (v, model) not in self._paths:
            top = graphs.lookup_model(model).top(v)
            self._paths[v, model] = graphs.shortest_paths(self.graph(v, model), top)
        return self._paths[v, model]

    def table(self, v: Permutation, name: str) -> list:
        """The statistic ``name`` of ``tableaux`` on each vertex of v's
        tableau graph, in vertex order, called through the module once per
        vertex.  A flip or psi image is listed as its index in the graph of
        v^-1, or -1 outside it, as soon as it is made."""
        key = (v, name)
        if key not in self._tables:
            values = map(getattr(tableaux, name), self.graph(v, "tableaux").vertices)
            if name in _MAPS:
                inverse = self.graph(v.inverse(), "tableaux")
                values = (_index_or_outside(inverse, e) for e in values)
            self._tables[key] = list(values)
        return self._tables[key]


def _index_or_outside(g: graphs.MoveGraph, element) -> int:
    """element's vertex index in g, or -1 when it is not a vertex of g."""
    try:
        return g.index_of(element)
    except ValueError:
        return -1


def _first_bad_move(g: graphs.MoveGraph, valid: list, invalid: str):
    """The first (vertex, move, fault), in vertex then move order, at which
    a move of g takes a vertex to an image that is not ``valid`` (fault
    ``invalid``), is not an involution, or does not step the rank by one;
    None when every move passes."""
    moves, rank = bijection.moves_for(g.w.length), g.ranks
    for k, (stays, inv) in enumerate(zip(valid, rank)):
        for slot, j in enumerate(g.images(k)):
            if j == k and stays:  # an unmoved image has its source's tests
                continue
            if not valid[j]:
                return k, moves[slot], invalid
            if g.images(j)[slot] != k:
                return k, moves[slot], "not an involution"
            if abs(rank[j] - inv) != 1:
                return k, moves[slot], "rank step != 1"
    return None


class _Checks:
    """The checks of one permutation w of S_n, on the move graphs of w's
    orbit: each public method is a check that returns a counterexample
    detail or None, in report order."""

    def __init__(self, w: Permutation, orbit: _Orbit):
        self.w, self.n, self.orbit = w, w.n, orbit
        self.word_graph, self.tableau_graph = orbit.graph(w, "words"), orbit.graph(w, "tableaux")

    @functools.cached_property
    def _correspondence(self) -> tuple[dict[str, str | None], words.Word | None]:
        """The word-tableau poset isomorphism on w, from one matching: each
        part's first counterexample or None, in report order (the matching
        alone when there is none), and the first word whose tableau does
        not keep its rank.  Edges correspond when the word table, carried
        through the matching, equals the tableau table."""
        w, gw, gt = self.w, self.word_graph, self.tableau_graph
        to_tab = bijection.match_by_permutation(gw.vertices, gt.vertices)
        if to_tab is None:
            return {"perm_matching_bijection": f"w={w}"}, None
        rank_word = next((rho for rho, r, j in zip(gw.vertices, gw.ranks, to_tab) if r != gt.ranks[j]), None)
        moves = bijection.moves_for(w.length)
        edges = next(
            (
                f"w={w} word={rho} move={move.label}"
                for k, rho in enumerate(gw.vertices)
                for move, j, t in zip(moves, gw.images(k), gt.images(to_tab[k]))
                if to_tab[j] != t
            ),
            None,
        )
        flipped, inverse = self.orbit.table(w, "flip"), self.orbit.graph(w.inverse(), "tableaux")
        square = next(
            (
                f"w={w} word={rho}"
                for rho, j in zip(gw.vertices, to_tab)
                if flipped[j] < 0  # a flip outside the graph of w^-1
                or bijection.word_to_tableau(rho.reverse()) != inverse.vertices[flipped[j]]
            ),
            None,
        )
        return {
            "perm_matching_bijection": None,
            "rank_preserved": None if rank_word is None else f"w={w} word={rank_word}",
            "edges_correspond": edges,
            "flip_matches_reversal": square,
        }, rank_word

    @functools.cached_property
    def _w0_extremes(self) -> tuple[list[int], list[int], int]:
        """Distances from the super tableau and from its complement, and the
        distance between the two."""
        bottom = tableaux.psi(diagrams.super_tableau(self.w))
        dtop = self.orbit.paths(self.w, "tableaux")[0]
        dbot, _ = graphs.shortest_paths(self.tableau_graph, bottom)
        return dtop, dbot, dtop[self.tableau_graph.index_of(bottom)]

    # --- permutation basics -------------------------------------------------

    def perm_inverse_same_length(self) -> str | None:
        return None if self.w.length == self.w.inverse().length else f"w={self.w}"

    def perm_longest_is_maximal(self) -> str | None:
        top_len = self.n * (self.n - 1) // 2
        if self.w == Permutation.longest(self.n):
            maximal = self.w.length == top_len
        else:
            maximal = self.w.length < top_len
        return None if maximal else f"n={self.n}"

    def perm_swap_steps_length(self) -> str | None:
        w = self.w
        for i in range(1, self.n):
            if abs(w.swap(i).length - w.length) != 1:
                return f"w={w} i={i}"
        return None

    # --- words ---------------------------------------------------------------

    def word_super_exists_unique(self) -> str | None:
        w, n = self.w, self.n
        pi = words.super_word(w)
        if not words.is_reduced(pi, n):
            return f"w={w}: super word not reduced"
        if words.word_to_permutation(pi, n) != w:
            return f"w={w}: super word is for the wrong permutation"
        supers = [r for r in self.word_graph.vertices if words.is_super_yamanouchi(r)]
        if supers != [pi]:
            return f"w={w}: super words {supers}"
        return None

    def word_moves_involutive_rank_step(self) -> str | None:
        w, n, g, ell = self.w, self.n, self.word_graph, self.w.length
        reduced = [  # a word of w is reduced iff it is as long as w
            words.word_to_permutation(word, n) == w and len(word) == ell for word in g.vertices
        ]
        bad = _first_bad_move(g, reduced, "left R(w)")
        return None if bad is None else f"w={w} rho={g.vertices[bad[0]]} {bad[1].label}: {bad[2]}"

    def word_inversions_equal_bfs_distance(self) -> str | None:
        dist, _ = self.orbit.paths(self.w, "words")
        for rho, d, r in zip(self.word_graph.vertices, dist, self.word_graph.ranks):
            if d != r:
                return f"w={self.w} rho={rho}"
        return None

    def word_pairing_identity_iff_super(self) -> str | None:
        pi = words.super_word(self.w)
        for rho in self.word_graph.vertices:
            ident = words.pairing_permutation(rho) == Permutation.identity(len(rho))
            if ident != (rho == pi):
                return f"w={self.w} rho={rho}"
        return None

    def word_reversal_inverts(self) -> str | None:
        expected = set(self.orbit.graph(self.w.inverse(), "words").vertices)
        for rho in self.word_graph.vertices:
            if rho.reverse() not in expected:
                return f"w={self.w} rho={rho}"
        return None

    def naive_metric_agrees_at_super(self) -> str | None:
        pi = words.super_word(self.w)
        for rho, r in zip(self.word_graph.vertices, self.word_graph.ranks):
            if words.naive_pair_inversions(rho, pi) != r:
                return f"w={self.w} rho={rho}"
        return None

    def yang_baxter_count_to_super(self) -> str | None:
        pi = words.super_word(self.w)
        _, braids = self.orbit.paths(self.w, "words")
        for rho, b in zip(self.word_graph.vertices, braids):
            if words.yang_baxter_count(rho, pi) != b:
                return f"w={self.w} rho={rho}"
        return None

    def yang_baxter_pairwise_scope(self) -> None:
        """Tally, for n <= 4, the pairs of R(w) on which the braid-count
        formula agrees with the shortest paths.  It is exact only toward the
        super word, so a disagreement is counted, not reported."""
        if self.n > 4:
            return None
        g = self.word_graph
        for k, rho in enumerate(g.vertices[:-1]):
            _, braids = graphs.shortest_paths(g, rho)
            for sigma, b in zip(g.vertices[k + 1 :], braids[k + 1 :]):
                self.orbit.scope[words.yang_baxter_count(rho, sigma) != b] += 1

    # --- diagrams -------------------------------------------------------------

    def diagram_shape_and_transpose(self) -> str | None:
        w = self.w
        d = diagrams.rothe_diagram(w)
        if len(d) != w.length:
            return f"w={w}: cells {len(d)} != length {w.length}"
        if not diagrams.is_rothe_diagram(d):
            return f"w={w}: failed the interval test"
        if diagrams.rothe_diagram(w.inverse()) != d.transpose():
            return f"w={w}: transpose mismatch"
        return None

    def diagram_reading_word_is_super(self) -> str | None:
        filling = diagrams.row_interval_filling(diagrams.rothe_diagram(self.w))
        return None if diagrams.reading_word(filling) == words.super_word(self.w) else f"w={self.w}"

    # --- tableaux ---------------------------------------------------------------

    def tableau_super_balanced_rank_zero(self) -> str | None:
        w = self.w
        t = diagrams.super_tableau(w)
        if not tableaux.is_balanced(t):
            return f"w={w}: super tableau unbalanced"
        if tableaux.tab_inversions(t) != 0:
            return f"w={w}: super tableau has inversions"
        if tableaux.tab_permutation(t) != Permutation.identity(len(t)):
            return f"w={w}: super tableau permutation not identity"
        return None

    def tableau_moves_balanced_involutive(self) -> str | None:
        bad = _first_bad_move(self.tableau_graph, self.orbit.table(self.w, "is_balanced"), "unbalanced image")
        return None if bad is None else f"w={self.w} {bad[1].label}: {bad[2]}"

    def tableau_inversion_identity(self) -> str | None:
        for t, r in zip(self.tableau_graph.vertices, self.tableau_graph.ranks):
            if r != tableaux.tab_permutation(t).length - tableaux.row_coinversions(t):
                return f"w={self.w} tableau={t.to_text()}"
        return None

    def tableau_inv_and_braids_by_bfs(self) -> str | None:
        w, g = self.w, self.tableau_graph
        (dist, braids), inversions = self.orbit.paths(w, "tableaux"), self.orbit.table(w, "column_inversions")
        for t, d, b, r, c in zip(g.vertices, dist, braids, g.ranks, inversions):
            if d != r:
                return f"w={w} tableau={t.to_text()}"
            if b != c:
                return f"w={w} tableau={t.to_text()}: braid count"
        return None

    def tableau_row_sort_reconstruction(self) -> str | None:
        d = diagrams.rothe_diagram(self.w)
        for t in self.tableau_graph.vertices:
            rows = t.rows()
            contents = [[e for _, e in rows[r]] for r in sorted(rows)]
            if tableaux.reconstruct_from_row_multisets(d, contents) != t:
                return f"w={self.w} tableau={t.to_text()}"
        return None

    def tableau_descent_sequence_counts(self) -> str | None:
        g = self.tableau_graph
        for t, r, c in zip(g.vertices, g.ranks, self.orbit.table(self.w, "column_inversions")):
            seq = bijection.descent_to_super(t)
            if len(seq) != r:
                return f"w={self.w} tableau={t.to_text()}: length"
            braids = sum(1 for m in seq if m.kind == "b")
            if braids != c:
                return f"w={self.w} tableau={t.to_text()}: braid count"
        return None

    def tableau_flip_involution_intertwines(self) -> str | None:
        """Flip maps w's tableaux onto w^-1's and carries c_i to c_(ell-i)
        and b_i to b_(ell-i+1), reversing each kind's block of move slots:
        one flip index map compares the two move tables."""
        w, g, gi = self.w, self.tableau_graph, self.orbit.graph(self.w.inverse(), "tableaux")
        moves, ell = bijection.moves_for(w.length), w.length
        partners = [*range(ell - 2, -1, -1), *range(2 * ell - 4, ell - 2, -1)]
        flipped = self.orbit.table(w, "flip")
        back = self.orbit.table(w.inverse(), "flip")  # gi's flip map into g
        for k, t in enumerate(g.vertices):
            f = flipped[k]
            if f < 0:
                return f"w={w} tableau={t.to_text()}: image not balanced for inverse"
            if back[f] != k:
                return f"w={w} tableau={t.to_text()}: not an involution"
            theirs = gi.images(f)
            for move, j, partner in zip(moves, g.images(k), partners):
                if flipped[j] != theirs[partner]:
                    kind = "commutation" if move.kind == "c" else "braid"
                    return f"w={w} tableau={t.to_text()}: {kind} intertwine i={move.index}"
        return None

    # --- counts and the bijection ---------------------------------------------

    def word_and_tableau_counts_agree(self) -> str | None:
        n_words, n_tableaux = len(self.word_graph.vertices), len(self.tableau_graph.vertices)
        return None if n_words == n_tableaux else f"w={self.w}: {n_words} vs {n_tableaux}"

    def bijection_poset_isomorphism(self) -> str | None:
        parts, _ = self._correspondence
        return next((f"{name}: {detail}" for name, detail in parts.items() if detail is not None), None)

    # --- graphs ------------------------------------------------------------------

    def graph_connected_ranked(self) -> str | None:
        for model in graphs.MODELS:
            dist, _ = self.orbit.paths(self.w, model)
            if -1 in dist:  # unreached from the super element
                return f"w={self.w} {model}: disconnected"
            for res in graphs.validate_ranked_poset(self.orbit.graph(self.w, model)):
                if not res.passed:
                    return f"w={self.w} {model} {res.name}: {res.detail}"
        return None

    def graph_models_isomorphic(self) -> str | None:
        w, (parts, rank_word) = self.w, self._correspondence
        if parts["perm_matching_bijection"] is not None:
            return f"w={w}: no bijection"
        if parts["edges_correspond"] is not None:
            return f"w={w}: edge sets differ"
        return None if rank_word is None else f"w={w}: rank mismatch at {rank_word}"

    # --- the longest permutation only ------------------------------------------

    def w0_complement_reverses_rank(self) -> str | None:
        expected = tableaux.min_inv_w0(self.n)
        comp, rank = self.orbit.table(self.w, "psi"), self.tableau_graph.ranks
        for k, (t, c) in enumerate(zip(self.tableau_graph.vertices, comp)):
            if c < 0 or comp[c] != k:  # an image outside the graph, or not back
                return f"tableau={t.to_text()}: not an involution"
            if rank[k] + rank[c] != expected:
                return f"tableau={t.to_text()}: ranks do not complement"
        return None

    def w0_diameter_formula(self) -> str | None:
        expected = tableaux.min_inv_w0(self.n)
        diam = graphs.diameter(self.tableau_graph)
        if diam != expected:
            return f"diameter {diam} != {expected}"
        if self._w0_extremes[2] != expected:
            return "extremes do not attain the diameter"
        return None

    def w0_distances_split_through_extremes(self) -> str | None:
        dtop, dbot, span = self._w0_extremes
        for k, (up, down) in enumerate(zip(dtop, dbot)):
            if up + down != span:
                return f"vertex {k}"
        return None

    def w0_count_matches_hook_formula(self) -> str | None:
        n_w0, expected = len(self.word_graph.vertices), staircase_tableau_count(self.n)
        return None if n_w0 == expected else f"{n_w0} != {expected}"


CHECKS = tuple(name for name in vars(_Checks) if not name.startswith("_"))
