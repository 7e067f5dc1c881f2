"""Exhaustive brute-force verification over all of S_n.

Each check sweeps every permutation of the given rank (or the longest one,
for the staircase checks) and records the first counterexample.  All-pairs
checks that grow quadratically in the word count are gated to rank 4 and
reported as skipped above it.

Four rules keep a run from doing the same work twice:

- each (w, model) is enumerated once, as the vertices of its move graph,
  built once per run; the bijection checks read those vertex lists;
- a question asked of every vertex (its distance to the super element, or
  the fewest braids on a shortest path there) is answered by one
  ``graphs.shortest_paths`` pass from the super element, not by one search
  per vertex;
- a move image equal to its source is not examined again; a vertex's rank
  is read from its graph;
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

    >>> [staircase_tableau_count(n) for n in (3, 4, 5)]
    [2, 16, 768]
    """
    shape = list(range(n - 1, 0, -1))
    boxes = sum(shape)
    hooks = 1
    for r, row_len in enumerate(shape):
        for c in range(row_len):
            arm = row_len - c - 1
            leg = sum(1 for rr in range(r + 1, len(shape)) if shape[rr] > c)
            hooks *= arm + leg + 1
    return math.factorial(boxes) // hooks


def _sweep(n: int, predicate) -> str | None:
    """First counterexample over S_n, or None."""
    for w in all_permutations(n):
        detail = predicate(w)
        if detail is not None:
            return detail
    return None


def run_suite(n: int) -> list[CheckResult]:
    """Run every brute-force check over S_n and report one line each."""
    if n < 1:
        raise ValueError("rank must be positive")
    graph_of = functools.cache(graphs.build_graph)
    results: list[CheckResult] = []

    def check(name: str, detail: str | None) -> None:
        results.append(CheckResult(name, detail is None, detail))

    # --- permutation basics -------------------------------------------------
    check(
        "perm_inverse_same_length",
        _sweep(n, lambda w: None if w.length == w.inverse().length else f"w={w}"),
    )

    longest = Permutation.longest(n)
    top_len = n * (n - 1) // 2
    check(
        "perm_longest_is_maximal",
        None
        if longest.length == top_len
        and all(w.length < top_len for w in all_permutations(n) if w != longest)
        else f"n={n}",
    )

    def swap_steps(w: Permutation) -> str | None:
        for i in range(1, n):
            if abs(w.swap(i).length - w.length) != 1:
                return f"w={w} i={i}"
        return None

    check("perm_swap_steps_length", None if n == 1 else _sweep(n, swap_steps))

    # --- words ---------------------------------------------------------------
    def super_unique(w: Permutation) -> str | None:
        pi = words.super_word(w)
        if not words.is_reduced(pi, n):
            return f"w={w}: super word not reduced"
        if words.word_to_permutation(pi, n) != w:
            return f"w={w}: super word is for the wrong permutation"
        supers = [r for r in graph_of(w, "words").vertices if words.is_super_yamanouchi(r)]
        if supers != [pi]:
            return f"w={w}: super words {supers}"
        return None

    check("word_super_exists_unique", _sweep(n, super_unique))

    def reduced_for(word: words.Word, w: Permutation) -> bool:
        v = words.word_to_permutation(word, n)
        return v == w and v.length == len(word)  # reduced iff as long as w

    def moves_closed(w: Permutation) -> str | None:
        g = graph_of(w, "words")
        for rho, inv in zip(g.vertices, g.ranks):
            stays = reduced_for(rho, w)
            for move in bijection.moves_for(len(rho)):
                out = move.on_word(rho)
                if out == rho and stays:  # an unmoved image has its source's tests
                    continue
                if move.on_word(out) != rho:
                    return f"w={w} rho={rho} {move.label}: not an involution"
                if not reduced_for(out, w):
                    return f"w={w} rho={rho} {move.label}: left R(w)"
                if abs(words.word_inversions(out) - inv) != 1:
                    return f"w={w} rho={rho} {move.label}: rank step != 1"
        return None

    check("word_moves_involutive_rank_step", _sweep(n, moves_closed))

    def inv_is_distance(w: Permutation) -> str | None:
        g = graph_of(w, "words")
        pi = words.super_word(w)
        dist, _ = graphs.shortest_paths(g, pi)
        for rho, d in zip(g.vertices, dist):
            if d != words.word_inversions(rho):
                return f"w={w} rho={rho}"
        return None

    check("word_inversions_equal_bfs_distance", _sweep(n, inv_is_distance))

    def pairing_identity(w: Permutation) -> str | None:
        pi = words.super_word(w)
        for rho in graph_of(w, "words").vertices:
            if not rho:
                continue
            ident = words.pairing_permutation(rho) == Permutation.identity(len(rho))
            if ident != (rho == pi):
                return f"w={w} rho={rho}"
        return None

    check("word_pairing_identity_iff_super", _sweep(n, pairing_identity))

    def reversal(w: Permutation) -> str | None:
        winv = w.inverse()
        expected = set(graph_of(winv, "words").vertices)
        for rho in graph_of(w, "words").vertices:
            if rho.reverse() not in expected:
                return f"w={w} rho={rho}"
        return None

    check("word_reversal_inverts", _sweep(n, reversal))

    def naive_against_super(w: Permutation) -> str | None:
        pi = words.super_word(w)
        for rho in graph_of(w, "words").vertices:
            if not rho:
                continue
            if words.naive_pair_inversions(rho, pi) != words.word_inversions(rho):
                return f"w={w} rho={rho}"
        return None

    check("naive_metric_agrees_at_super", _sweep(n, naive_against_super))

    def yang_baxter_to_super(w: Permutation) -> str | None:
        g = graph_of(w, "words")
        pi = words.super_word(w)
        _, braids = graphs.shortest_paths(g, pi)
        for rho, b in zip(g.vertices, braids):
            if rho and words.yang_baxter_count(rho, pi) != b:
                return f"w={w} rho={rho}"
        return None

    check("yang_baxter_count_to_super", _sweep(n, yang_baxter_to_super))

    # The pairwise braid-count formula is exact only toward the super word;
    # between arbitrary pairs it can disagree with actual shortest paths.
    # Measure the disagreement and report it instead of asserting.
    if n <= 4:
        agree = 0
        differ = 0
        for w in all_permutations(n):
            g = graph_of(w, "words")
            for k, rho in enumerate(g.vertices[:-1]):
                _, braids = graphs.shortest_paths(g, rho)
                for sigma, b in zip(g.vertices[k + 1 :], braids[k + 1 :]):
                    if words.yang_baxter_count(rho, sigma) == b:
                        agree += 1
                    else:
                        differ += 1
        detail = (
            f"formula matches the shortest-path braid count on {agree} of "
            f"{agree + differ} pairs; {differ} arbitrary pairs differ "
            "(the formula is only exact toward the super word)"
        )
        results.append(
            CheckResult("yang_baxter_pairwise_scope", True, detail)
        )
    else:
        results.append(
            CheckResult("yang_baxter_pairwise_scope", True, f"skipped for n={n} > 4")
        )

    # --- diagrams -------------------------------------------------------------
    def diagram_shape(w: Permutation) -> str | None:
        d = diagrams.rothe_diagram(w)
        if len(d) != w.length:
            return f"w={w}: cells {len(d)} != length {w.length}"
        if not diagrams.is_rothe_diagram(d):
            return f"w={w}: failed the interval test"
        if diagrams.rothe_diagram(w.inverse()) != d.transpose():
            return f"w={w}: transpose mismatch"
        return None

    check("diagram_shape_and_transpose", _sweep(n, diagram_shape))

    check(
        "diagram_reading_word_is_super",
        _sweep(
            n,
            lambda w: None
            if diagrams.reading_word(
                diagrams.row_interval_filling(diagrams.rothe_diagram(w))
            )
            == words.super_word(w)
            else f"w={w}",
        ),
    )

    # --- tableaux ---------------------------------------------------------------
    def super_tab(w: Permutation) -> str | None:
        t = diagrams.super_tableau(w)
        if not tableaux.is_balanced(t):
            return f"w={w}: super tableau unbalanced"
        if tableaux.tab_inversions(t) != 0:
            return f"w={w}: super tableau has inversions"
        if len(t) and tableaux.tab_permutation(t) != Permutation.identity(len(t)):
            return f"w={w}: super tableau permutation not identity"
        return None

    check("tableau_super_balanced_rank_zero", _sweep(n, super_tab))

    def tab_moves(w: Permutation) -> str | None:
        g = graph_of(w, "tableaux")
        for t, inv in zip(g.vertices, g.ranks):
            balanced = tableaux.is_balanced(t)
            for move in bijection.moves_for(len(t)):
                out = move.on_tableau(t)
                if out == t and balanced:  # an unmoved image has its source's tests
                    continue
                if not tableaux.is_balanced(out):
                    return f"w={w} {move.label}: unbalanced image"
                if move.on_tableau(out) != t:
                    return f"w={w} {move.label}: not an involution"
                if abs(tableaux.tab_inversions(out) - inv) != 1:
                    return f"w={w} {move.label}: rank step != 1"
        return None

    check("tableau_moves_balanced_involutive", _sweep(n, tab_moves))

    def tab_inv_formula(w: Permutation) -> str | None:
        for t in graph_of(w, "tableaux").vertices:
            if not len(t):
                continue
            lhs = tableaux.tab_inversions(t)
            rhs = tableaux.tab_permutation(t).length - tableaux.row_coinversions(t)
            if lhs != rhs:
                return f"w={w} tableau={t.to_text()}"
        return None

    check("tableau_inversion_identity", _sweep(n, tab_inv_formula))

    def tab_inv_distance(w: Permutation) -> str | None:
        g = graph_of(w, "tableaux")
        dist, braids = graphs.shortest_paths(g, diagrams.super_tableau(w))
        for t, d, b in zip(g.vertices, dist, braids):
            if d != tableaux.tab_inversions(t):
                return f"w={w} tableau={t.to_text()}"
            if b != tableaux.column_inversions(t):
                return f"w={w} tableau={t.to_text()}: braid count"
        return None

    check("tableau_inv_and_braids_by_bfs", _sweep(n, tab_inv_distance))

    def reconstruct(w: Permutation) -> str | None:
        d = diagrams.rothe_diagram(w)
        for t in graph_of(w, "tableaux").vertices:
            rows = t.rows()
            contents = [[e for _, e in rows[r]] for r in sorted(rows)]
            if tableaux.reconstruct_from_row_multisets(d, contents) != t:
                return f"w={w} tableau={t.to_text()}"
        return None

    check("tableau_row_sort_reconstruction", _sweep(n, reconstruct))

    def descent_lengths(w: Permutation) -> str | None:
        for t in graph_of(w, "tableaux").vertices:
            seq = bijection.descent_to_super(t)
            if len(seq) != tableaux.tab_inversions(t):
                return f"w={w} tableau={t.to_text()}: length"
            braids = sum(1 for m in seq if m.kind == "b")
            if braids != tableaux.column_inversions(t):
                return f"w={w} tableau={t.to_text()}: braid count"
        return None

    check("tableau_descent_sequence_counts", _sweep(n, descent_lengths))

    def flip_props(w: Permutation) -> str | None:
        winv = w.inverse()
        target = set(graph_of(winv, "tableaux").vertices)
        for t in graph_of(w, "tableaux").vertices:
            image = tableaux.flip(t)
            if image not in target:
                return f"w={w} tableau={t.to_text()}: image not balanced for inverse"
            if tableaux.flip(image) != t:
                return f"w={w} tableau={t.to_text()}: not an involution"
            ell = len(t)
            for i in range(1, ell):
                moved = tableaux.tab_commutation(t, i)
                flipped = image if moved == t else tableaux.flip(moved)
                if flipped != tableaux.tab_commutation(image, ell - i):
                    return f"w={w} tableau={t.to_text()}: commutation intertwine i={i}"
            for i in range(2, ell):
                moved = tableaux.tab_braid(t, i)
                flipped = image if moved == t else tableaux.flip(moved)
                if flipped != tableaux.tab_braid(image, ell - i + 1):
                    return f"w={w} tableau={t.to_text()}: braid intertwine i={i}"
        return None

    check("tableau_flip_involution_intertwines", _sweep(n, flip_props))

    # --- counts and the bijection ---------------------------------------------
    def counts_agree(w: Permutation) -> str | None:
        n_words = len(graph_of(w, "words").vertices)
        n_tableaux = len(graph_of(w, "tableaux").vertices)
        return None if n_words == n_tableaux else f"w={w}: {n_words} vs {n_tableaux}"

    check("word_and_tableau_counts_agree", _sweep(n, counts_agree))

    def isomorphism(w: Permutation) -> str | None:
        gw, gt = graph_of(w, "words"), graph_of(w, "tableaux")
        for res in bijection.check_poset_isomorphism(w, gw.vertices, gt.vertices):
            if not res.passed:
                return f"{res.name}: {res.detail}"
        return None

    check("bijection_poset_isomorphism", _sweep(n, isomorphism))

    # --- graphs ------------------------------------------------------------------
    def graph_checks(w: Permutation) -> str | None:
        for model in graphs.MODELS:
            g = graph_of(w, model)
            if not graphs.is_connected(g):
                return f"w={w} {model}: disconnected"
            for res in graphs.validate_ranked_poset(g):
                if not res.passed:
                    return f"w={w} {model} {res.name}: {res.detail}"
        return None

    check("graph_connected_ranked", _sweep(n, graph_checks))

    def graphs_isomorphic(w: Permutation) -> str | None:
        gw = graph_of(w, "words")
        gt = graph_of(w, "tableaux")
        mapping = bijection.match_by_permutation(gw.vertices, gt.vertices)
        if mapping is None:
            return f"w={w}: no bijection"
        to_tab = {
            gw.index_of(rho): gt.index_of(t) for rho, t in mapping.items()
        }
        word_edges = {
            (min(to_tab[u], to_tab[v]), max(to_tab[u], to_tab[v]), label)
            for u, v, label in gw.edges
        }
        if word_edges != set(gt.edges):
            return f"w={w}: edge sets differ"
        for rho, t in mapping.items():
            if gw.ranks[gw.index_of(rho)] != gt.ranks[gt.index_of(t)]:
                return f"w={w}: rank mismatch at {rho}"
        return None

    check("graph_models_isomorphic", _sweep(n, graphs_isomorphic))

    # --- longest permutation -----------------------------------------------------
    g0 = graph_of(longest, "tableaux")
    top = diagrams.super_tableau(longest)
    bottom = tableaux.psi(top) if len(top) else top
    expected = tableaux.min_inv_w0(n)

    psi_fail = None
    for t in g0.vertices:
        if not len(t):
            continue
        image = tableaux.psi(t)
        if tableaux.psi(image) != t:
            psi_fail = f"tableau={t.to_text()}: not an involution"
            break
        if tableaux.tab_inversions(t) + tableaux.tab_inversions(image) != expected:
            psi_fail = f"tableau={t.to_text()}: ranks do not complement"
            break
    check("w0_complement_reverses_rank", psi_fail)

    dtop, _ = graphs.shortest_paths(g0, top)
    dbot, _ = graphs.shortest_paths(g0, bottom)
    span = dtop[g0.index_of(bottom)]

    diam_detail = None
    diam = graphs.diameter(g0)
    if diam != expected:
        diam_detail = f"diameter {diam} != {expected}"
    elif span != expected:
        diam_detail = "extremes do not attain the diameter"
    check("w0_diameter_formula", diam_detail)

    dist_split = None
    for k in range(len(g0.vertices)):
        if dtop[k] + dbot[k] != span:
            dist_split = f"vertex {k}"
            break
    check("w0_distances_split_through_extremes", dist_split)

    n_w0 = len(graph_of(longest, "words").vertices)
    check(
        "w0_count_matches_hook_formula",
        None
        if n_w0 == staircase_tableau_count(n)
        else f"{n_w0} != {staircase_tableau_count(n)}",
    )

    return results


if __name__ == "__main__":
    import doctest

    doctest.testmod()
