"""The rank-preserving correspondence between reduced words and standard
balanced tableaux: two elements match exactly when their associated
permutations agree.

The tableau side has a constructive descent to the super tableau, so the
tableau-to-word direction transports that move sequence instead of
searching; the word-to-tableau direction inverts the reverse reading that
defines the tableau's permutation and reconstructs rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Sequence

from .diagrams import Filling, permutation_of_diagram, rothe_diagram, super_tableau
from .perms import Permutation
from .report import CheckResult
from .tableaux import (
    _braidable,
    enumerate_sbt,
    flip,
    is_balanced,
    reconstruct_from_row_multisets,
    tab_braid,
    tab_commutation,
    tab_inversions,
    tab_permutation,
)
from .words import (
    Word,
    braid_move,
    commutation_move,
    enumerate_reduced_words,
    pairing_permutation,
    super_word,
    word_inversions,
    word_to_permutation,
)


@dataclass(frozen=True)
class Move:
    """One labeled Coxeter move: kind "c" (commutation) or "b" (Yang-Baxter),
    with the right-to-left letter index on words or the entry value on
    tableaux."""

    kind: str
    index: int

    @property
    def label(self) -> str:
        return f"{self.kind}{self.index}"

    def on_word(self, word: Word) -> Word:
        if self.kind == "c":
            return commutation_move(word, self.index)
        return braid_move(word, self.index)

    def on_tableau(self, f: Filling) -> Filling:
        if self.kind == "c":
            return tab_commutation(f, self.index)
        return tab_braid(f, self.index)


@cache
def moves_for(ell: int) -> tuple[Move, ...]:
    """Every move on an element of length ell: commutations c1..c(ell-1),
    then braids b2..b(ell-1).  Shared and immutable, so built once per
    length."""
    return tuple(Move("c", i) for i in range(1, ell)) + tuple(
        Move("b", i) for i in range(2, ell)
    )


def descent_to_super(f: Filling) -> list[Move]:
    """A minimal move sequence taking the tableau to the super tableau.

    While some pair (i, i+1) has i strictly above i+1: if any such pair sits
    in different columns, commute the smallest such i; otherwise braid at
    i+1 for the largest such i.  Each step removes exactly one inversion.
    Runs on a value -> cell list, where a move swaps two slots.
    """
    ell = len(f)
    if ell < 2:
        return []
    pos = f.positions()
    cell_of = [None] + [pos[v] for v in range(1, ell + 1)]
    table = moves_for(ell)  # c1..c(ell-1), then b2..b(ell-1)
    moves: list[Move] = []
    while True:
        braid = 0  # i+1 for the largest i seen strictly above i+1
        for i in range(1, ell):
            (r1, c1), (r2, c2) = cell_of[i], cell_of[i + 1]
            if r1 > r2:
                if c1 != c2:
                    cell_of[i], cell_of[i + 1] = cell_of[i + 1], cell_of[i]
                    moves.append(table[i - 1])
                    break
                braid = i + 1
        else:  # nothing to commute
            if not braid:
                return moves
            if braid == ell:  # tab_braid's range check
                raise ValueError(f"entry {ell} out of range 2..{ell - 1}")
            if not _braidable(*cell_of[braid - 1 : braid + 2]):
                stalled = Filling((cell_of[v], v) for v in range(1, ell + 1))
                raise RuntimeError(f"descent stalled at {stalled.to_text()}")
            cell_of[braid - 1], cell_of[braid + 1] = cell_of[braid + 1], cell_of[braid - 1]
            moves.append(table[ell + braid - 3])


def word_to_tableau(word: Word) -> Filling:
    """The unique balanced tableau whose permutation matches the word's.

    Splits the pairing permutation into consecutive blocks sized by the row
    lengths of the diagram, bottom row first (inverting the reverse row
    reading), reconstructs from those row contents, then verifies balance
    and the permutation match.
    """
    word = Word(word)
    if not word:
        return Filling({})
    v = pairing_permutation(word)  # raises unless the word is reduced
    w = word_to_permutation(word)
    d = rothe_diagram(w)
    rows = d.rows()
    blocks: list[tuple[int, ...]] = []
    start = 0
    for r in sorted(rows):
        size = len(rows[r])
        blocks.append(tuple(v[start : start + size]))
        start += size
    tableau = reconstruct_from_row_multisets(d, blocks)
    if tableau is None or not is_balanced(tableau) or tab_permutation(tableau) != v:
        raise RuntimeError(f"no balanced tableau matches word {word}")
    return tableau


def tableau_to_word(f: Filling) -> Word:
    """The unique reduced word whose pairing permutation matches the
    tableau's, obtained by replaying the tableau's descent sequence
    backwards from the super-Yamanouchi word."""
    if len(f) == 0:
        return Word()
    w = permutation_of_diagram(f.diagram)
    moves = descent_to_super(f)
    word = super_word(w)
    for move in reversed(moves):
        word = move.on_word(word)
    if pairing_permutation(word) != tab_permutation(f):
        raise RuntimeError(f"word transport failed for {f.to_text()}")
    return word


def match_by_permutation(
    words: Sequence[Word], tableaux: Sequence[Filling]
) -> dict[Word, Filling] | None:
    """Pair the words with the tableaux that have the same permutation;
    None when that pairing is not a bijection between the two lists."""
    if len(words) == 1 and len(words[0]) == 0:
        return {words[0]: tableaux[0]} if len(tableaux) == 1 else None
    by_perm: dict[Permutation, Filling] = {}
    for t in tableaux:
        p = tab_permutation(t)
        if p in by_perm:
            return None
        by_perm[p] = t
    mapping: dict[Word, Filling] = {}
    for rho in words:
        p = pairing_permutation(rho)
        if p not in by_perm:
            return None
        mapping[rho] = by_perm.pop(p)
    if by_perm:
        return None
    return mapping


def verify_poset_isomorphism(w: Permutation) -> list[CheckResult]:
    """Exhaustive checks that matching by permutation is a bijection that
    preserves ranks, move edges, and the flip/reversal square."""
    words = enumerate_reduced_words(w)
    tableaux = enumerate_sbt(w)
    mapping = match_by_permutation(words, tableaux)
    results = [
        CheckResult(
            "perm_matching_bijection",
            mapping is not None and len(words) == len(tableaux),
            None if mapping is not None else f"w={w}",
        )
    ]
    if mapping is None:
        return results

    bad_rank = next(
        (
            rho
            for rho, t in mapping.items()
            if word_inversions(rho) != tab_inversions(t)
        ),
        None,
    )
    results.append(
        CheckResult(
            "rank_preserved",
            bad_rank is None,
            None if bad_rank is None else f"w={w} word={bad_rank}",
        )
    )

    edge_fail = None
    for rho, t in mapping.items():
        for move in moves_for(len(rho)):
            rho2 = move.on_word(rho)
            t2 = move.on_tableau(t)
            if (rho2 == rho) != (t2 == t) or (rho2 != rho and mapping[rho2] != t2):
                edge_fail = f"w={w} word={rho} move={move.label}"
                break
        if edge_fail:
            break
    results.append(CheckResult("edges_correspond", edge_fail is None, edge_fail))

    square_fail = None
    for rho, t in mapping.items():
        if word_to_tableau(rho.reverse()) != flip(t):
            square_fail = f"w={w} word={rho}"
            break
    results.append(
        CheckResult("flip_matches_reversal", square_fail is None, square_fail)
    )
    return results
