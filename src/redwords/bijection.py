"""The rank-preserving correspondence between reduced words and standard
balanced tableaux: two elements match exactly when their associated
permutations agree.

Both directions are the Edelman–Greene labelling ("Balanced tableaux",
1987), read forwards and backwards: entry k marks the inversion that the
word's k-th swap creates, in its cell of the Rothe diagram.  A word's replay,
``words._replay``, lists those cells; its swaps listed row by row are its
pairing permutation.  A tableau is read by making its swaps in entry order,
which reaches the permutation its row sizes decode to exactly when it is
balanced.  The empty word and the empty tableau match like any other pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Sequence

from .diagrams import Filling, _decode_rows, _filling, permutation_of_diagram
from .tableaux import _braidable, _check_standard, tab_braid, tab_commutation, tab_permutation
from .words import Word, _as_word, _replay, braid_move, commutation_move, pairing_permutation
from .words import super_word  # unused here; perfbench's tracer patches bijection.super_word


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
    Runs on a value -> cell list, where a move swaps two slots.  A scan
    resumes just below the last step's slots, or at 1 if it found nothing.
    """
    ell = len(f)
    pos = f.positions()
    cell_of = [None] + [pos[v] for v in range(1, ell + 1)]
    table = moves_for(ell)  # c1..c(ell-1), then b2..b(ell-1)
    moves: list[Move] = []
    start = 1  # no pair below start commutes
    while True:
        braid = 0  # i+1 for the largest i seen strictly above i+1
        for i in range(start, ell):
            (r1, c1), (r2, c2) = cell_of[i], cell_of[i + 1]
            if r1 > r2:
                if c1 != c2:
                    cell_of[i], cell_of[i + 1] = cell_of[i + 1], cell_of[i]
                    moves.append(table[i - 1])
                    start = max(1, i - 1)
                    break
                braid = i + 1
        else:  # nothing to commute
            if not braid:
                if start == 1:
                    return moves
                start = 1  # a braid may wait below the scanned pairs
                continue
            if braid == ell:  # tab_braid's range check
                raise ValueError(f"entry {ell} out of range 2..{ell - 1}")
            if not _braidable(*cell_of[braid - 1 : braid + 2]):
                stalled = Filling((cell_of[v], v) for v in range(1, ell + 1))
                raise RuntimeError(f"descent stalled at {stalled.to_text()}")
            cell_of[braid - 1], cell_of[braid + 1] = cell_of[braid + 1], cell_of[braid - 1]
            moves.append(table[ell + braid - 3])
            start = max(1, braid - 2)


def word_to_tableau(word: Word) -> Filling:
    """The unique balanced tableau whose permutation matches the word's:
    the Edelman–Greene inversion labelling.

    Entry k goes in the Rothe cell that the word's replay
    (``words._replay``) lists for swap k, and the cells are sorted into
    row-major order.  A word that is not reduced raises.

    >>> word_to_tableau(Word([1, 4, 2, 3, 1])).to_text()
    '1,1,3;1,2,5;1,3,2;2,1,1;4,3,4'
    """
    w, cells = _replay(_as_word(word))  # entry k's cell, at k - 1
    n = len(w)
    order = sorted(range(len(cells)), key=[r * n + x for r, x in cells].__getitem__)  # x < n
    return _filling(tuple(map(cells.__getitem__, order)), tuple(k + 1 for k in order))


def tableau_to_word(f: Filling) -> Word:
    """The unique reduced word whose tableau is f: the inverse labelling.

    Entry k in the Rothe cell (i, x) of w is the swap that puts x < w(i) out
    of order.  From the identity, with w decoded from f's row sizes, entry k
    must be k and swap k must find w(i) just right of x; its letter is x's
    position.  Passing every step certifies the cells: the replay reaches w.

    >>> str(tableau_to_word(Filling.from_text("1,1,3;1,2,5;1,3,2;2,1,1;4,3,4")))
    '1,4,2,3,1'
    """
    w = _decode_rows(f.cells)
    pos = list(range(len(w) + 1))  # value -> position, from the identity
    letters = []
    for k, (e, (i, x)) in enumerate(sorted(zip(f.entries, f.cells)), 1):  # in entry order
        y = w[i - 1]
        if e != k or not x < y or pos[y] != pos[x] + 1:
            break
        pos[x], pos[y] = pos[y], pos[x]
        letters.append(pos[y])
    else:  # w(i) got one smaller value on its right per cell of row i, as in w: the replay is at w
        return tuple.__new__(Word, letters[::-1])
    permutation_of_diagram(f.diagram)  # a refusal names the Rothe test first, then the standard check
    _check_standard(f)
    raise ValueError(f"tableau is not balanced: {f.to_text()}")


def match_by_permutation(words: Sequence[Word], tableaux: Sequence[Filling]) -> list[int] | None:
    """For each word, in order, the index in ``tableaux`` of the tableau
    with the same permutation; None when that pairing is not a bijection
    between the two lists."""
    by_perm = {tab_permutation(t): j for j, t in enumerate(tableaux)}
    matching = [by_perm.pop(pairing_permutation(rho), None) for rho in words]
    return None if by_perm or None in matching or len(words) != len(tableaux) else matching
