"""Reduced words, runs, the super-Yamanouchi word, Coxeter moves, and the
inversion statistic, read from ``_replay``: the one pass that checks a word
is reduced and lists the Rothe cell of the inversion each swap creates.
It keeps the last ``_HELD`` = 64 words' results, as ``_super_word`` does.

Enumeration lists the words of each permutation left with ``_TAIL`` letters
once per call.  The rank counts the inversions among the cells' rows; only
``_pairing`` sorts the swaps by row into the pairing.

Index conventions, fixed once
-----------------------------
A word is *stored* in display order: ``word[0]`` is the leftmost printed
letter.  The combinatorics indexes letters from the right, mirroring how a
word acts on a permutation (rightmost letter first), so combinatorial index
``i`` lives at display position ``len(word) - i``.  ``Word.letter(i)`` does
that conversion; nothing else in the package mixes the two silently.
The empty word, the identity's one reduced word, is read like any other.

``Word(...)`` and ``from_text`` validate every letter; a public function
passes a plain iterable through ``Word`` but trusts a ``Word`` as it is.
Words the package derives from valid ones (moves, reversal, runs,
enumeration) are built unchecked with ``tuple.__new__(Word, letters)``; use
that form only where the letters are positive by construction.
"""

from __future__ import annotations

from bisect import bisect
from functools import lru_cache
from typing import Iterable, Iterator

from .perms import Permutation, _inversions, _read_ints


class Word(tuple):
    """A sequence of simple-transposition indices, in display order.

    >>> w = Word([1, 4, 2, 3, 1])
    >>> w.letter(1), w.letter(5)
    (1, 1)
    >>> w.letter(2)
    3
    >>> str(w)
    '1,4,2,3,1'
    """

    __slots__ = ()

    def __new__(cls, letters: Iterable[int] = ()) -> "Word":
        letters = tuple(map(int, letters))
        if letters and min(letters) < 1:
            raise ValueError(f"letters must be positive: {letters}")
        return tuple.__new__(cls, letters)

    @classmethod
    def from_text(cls, text: str) -> "Word":
        """Parse comma-separated letters; the empty string is the empty word."""
        try:
            return cls(_read_ints(text, "word"))
        except ValueError:  # a letter below 1 too
            raise ValueError(f"malformed word text: {text.strip()!r}") from None

    def letter(self, i: int) -> int:
        """Letter at right-to-left index i (i = 1 is the rightmost letter)."""
        if not 1 <= i <= len(self):
            raise ValueError(f"letter index {i} out of range 1..{len(self)}")
        return self[len(self) - i]

    def reverse(self) -> "Word":
        """Reversal; takes a word for w to a word for the inverse of w."""
        return tuple.__new__(Word, self[::-1])

    def to_text(self) -> str:
        """Comma-separated letters, as ``from_text`` reads them."""
        return ",".join(str(x) for x in self)

    __str__ = to_text

    def __repr__(self) -> str:
        return f"Word({tuple(self)!r})"


def _as_word(word: Word | Iterable[int]) -> Word:
    return word if isinstance(word, Word) else Word(word)


def word_to_permutation(word: Word | Iterable[int], n: int | None = None) -> Permutation:
    """Apply the letters right to left, as position swaps, to the identity.

    No reducedness check.  When ``n`` is omitted the smallest rank that
    fits every letter is used.

    >>> str(word_to_permutation(Word([1, 4, 2, 3, 1])))
    '4,2,1,5,3'
    """
    word = _as_word(word)
    top = max(word, default=0)
    rank = n if n is not None else top + 1
    if word and top >= rank:
        raise ValueError(f"letter {top} out of range for rank {rank}")
    if rank < 0:
        raise ValueError(f"rank must be non-negative, not {rank}")
    v = list(range(1, rank + 1))
    for letter in word[::-1]:
        v[letter - 1], v[letter] = v[letter], v[letter - 1]
    return tuple.__new__(Permutation, v)


def is_reduced(word: Word | Iterable[int], n: int | None = None) -> bool:
    """True iff the word's length equals the length of the permutation it makes."""
    word = _as_word(word)
    return len(word) == word_to_permutation(word, n).length


_TAIL = 4  # letters left when iter_reduced_words reuses a listed tail
_HELD = 64  # results kept by each memo: _super_word, _replay, tableaux._rows_and_braids


def _peel(v: tuple[int, ...], depth: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Each way to peel ``depth`` leftmost letters off a reduced word for v,
    as (what is left of v, the peeled prefix), in lexicographic order.

    A leftmost letter must be a descent position, and the remainder is a
    reduced word for v with that descent swapped away.  Depth-first over an
    explicit stack, so the depth is not limited by the recursion limit.
    """
    n = len(v)
    stack = [(v, ())]
    while stack:
        v, prefix = stack.pop()
        if len(prefix) == depth:
            yield v, prefix
            continue
        for i in range(n - 1, 0, -1):  # largest descent first, so popped last
            if v[i - 1] > v[i]:
                stack.append((v[: i - 1] + (v[i], v[i - 1]) + v[i + 1 :], prefix + (i,)))


def iter_reduced_words(w: Permutation) -> Iterator[Word]:
    """All reduced words for w, in lexicographic display order.

    Peels all but the last ``_TAIL`` letters; the words of each permutation
    left over are listed once, the first time a prefix reaches it, and
    every later prefix reuses that list.
    """
    v = tuple(w)
    ell = len(_super_word(v))  # the length of w, at a cost that follows the output
    top = max(ell - _TAIL, 0)
    tails: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for rest, prefix in _peel(v, top):
        tail = tails.get(rest)
        if tail is None:
            tail = tails[rest] = [t for _, t in _peel(rest, ell - top)]
        for t in tail:
            yield tuple.__new__(Word, prefix + t)


def enumerate_reduced_words(w: Permutation) -> list[Word]:
    """The set R(w) as a lexicographically sorted list.

    >>> [str(r) for r in enumerate_reduced_words(Permutation([3, 2, 1]))]
    ['1,2,1', '2,1,2']
    """
    return list(iter_reduced_words(w))


def run_decomposition(word: Word | Iterable[int]) -> list[Word]:
    """Split into maximal runs, each strictly decreasing read right to left.

    In display order a run is a maximal strictly increasing segment.  The
    empty word decomposes into no runs.

    >>> [str(r) for r in run_decomposition(Word([5, 6, 3, 4, 5, 7, 3, 1, 4, 2, 3, 6]))]
    ['5,6', '3,4,5,7', '3', '1,4', '2,3,6']
    """
    word = _as_word(word)
    runs: list[Word] = []
    current: list[int] = []
    for letter in word:
        if current and letter <= current[-1]:
            runs.append(tuple.__new__(Word, current))
            current = []
        current.append(letter)
    if current:
        runs.append(tuple.__new__(Word, current))
    return runs


def is_super_yamanouchi(word: Word | Iterable[int]) -> bool:
    """True iff every run is an integer interval and the run minima strictly
    decrease from the leftmost run to the rightmost."""
    runs = run_decomposition(word)
    for run in runs:
        if any(b - a != 1 for a, b in zip(run, run[1:])):
            return False
    minima = [run[0] for run in runs]
    return all(a > b for a, b in zip(minima, minima[1:]))


def super_word(w: Permutation) -> Word:
    """The unique super-Yamanouchi reduced word for w.

    Repeatedly takes the last descent i of the working permutation, finds
    the first position j > i holding a larger value (n+1 if none), appends
    the interval i..j-2, and applies those swaps; the entries from position
    i on then increase, so one right-to-left walk meets every descent.  The
    words of the last few permutations asked for are kept.

    >>> str(super_word(Permutation([4, 2, 1, 5, 3])))
    '4,2,1,2,3'
    """
    return _super_word(tuple(w))


@lru_cache(maxsize=_HELD)
def _super_word(entries: tuple[int, ...]) -> Word:
    v = list(entries)
    n = len(v)
    out: list[int] = []
    for i in range(n - 1, 0, -1):  # v[i:] increases, so i is the last descent
        vi = v[i - 1]
        if vi > v[i]:
            j = bisect(v, vi, i, n)  # 0-based slot of the first larger value
            out.extend(range(i, j))
            v[i - 1 : j - 1] = v[i:j]
            v[j - 1] = vi
    return tuple.__new__(Word, out)


def commutation_move(word: Word, i: int) -> Word:
    """Exchange the letters at right-to-left indices i and i+1 when they
    differ by more than one; otherwise return the word unchanged."""
    ell = len(word)
    if not 1 <= i < ell:
        raise ValueError(f"commutation index {i} out of range 1..{ell - 1}")
    hi = ell - i  # 0-based display slot of letter i
    a, b = word[hi], word[hi - 1]  # letters i, i+1
    if abs(a - b) <= 1:
        return word
    letters = list(word)
    letters[hi], letters[hi - 1] = b, a
    return tuple.__new__(Word, letters)


def braid_move(word: Word, i: int) -> Word:
    """Braid the letters at right-to-left indices i-1, i, i+1: when they
    read (a, b, a) with a = b +/- 1, rewrite to (b, a, b); else unchanged."""
    ell = len(word)
    if not 1 < i < ell:
        raise ValueError(f"braid index {i} out of range 2..{ell - 1}")
    lo = ell - i - 1  # 0-based display slot of letter i+1
    a, b, c = word[lo], word[lo + 1], word[lo + 2]  # letters i+1, i, i-1
    if a != c or abs(a - b) != 1:
        return word
    letters = list(word)
    letters[lo : lo + 3] = (b, a, b)
    return tuple.__new__(Word, letters)


@lru_cache(maxsize=_HELD)
def _replay(word: Word) -> tuple[Permutation, tuple[tuple[int, int], ...]]:
    """Apply the letters right to left to the identity: the permutation w
    of rank max(word) + 1, and each swap's Rothe cell.  Swap k puts values
    x < y out of order, and its cell, at k - 1, is (position of y in w, x).
    A swap that finds the larger value on the left raises, and nothing is
    kept; the last 64 words' results are kept, as tuples no caller can alter."""
    v = list(range(1, max(word, default=0) + 2))
    created = []
    for letter in word[::-1]:  # a plain tuple: reversed() on a Word is slower
        x, y = v[letter - 1], v[letter]
        if x > y:
            raise ValueError(f"word is not reduced: {word}")
        v[letter - 1] = y
        v[letter] = x
        created.append((y, x))
    row = sorted(range(1, len(v) + 1), key=(0, *v).__getitem__)  # value y's position in w, at y - 1
    return tuple.__new__(Permutation, v), tuple([(row[y - 1], x) for y, x in created])


def _pairing(word: Word) -> tuple[Permutation, Permutation]:
    """A reduced word's pairing permutation and its permutation w: the
    swaps stably sorted by their Rothe row; see ``pairing_permutation``."""
    w, cells = _replay(word)
    rows = (0, *(r for r, _ in cells))
    pairing = sorted(range(1, len(cells) + 1), key=rows.__getitem__)  # stable: ties by k
    return tuple.__new__(Permutation, pairing), w


def pairing_permutation(word: Word | Iterable[int]) -> Permutation:
    """Match the letters of a reduced word against its super-Yamanouchi word.

    Scans the super word left to right in display order; for each of its
    letters, scans the input word left to right for the first unmatched
    letter equal to a falling target value k: a letter equal to k matches
    and ends the scan, a letter equal to k-1 lowers k and is passed over,
    anything else is skipped.  The result sends the right-to-left index of
    each super letter to the index of its match.

    It is computed with no scan, as the labelling read row by row,
    ``tab_permutation(word_to_tableau(word))``; the test
    ``test_pairing_equals_the_reference_scan`` checks that the two agree.

    >>> rho = Word([5, 6, 3, 4, 5, 7, 3, 1, 4, 2, 3, 6])
    >>> str(pairing_permutation(rho))
    '2,3,5,1,8,9,10,4,6,7,11,12'
    """
    return _pairing(_as_word(word))[0]


def word_inversions(word: Word | Iterable[int]) -> int:
    """Inversion number: length of the pairing permutation minus the
    letterwise surplus of the super word.  Equals the minimum number of
    Coxeter moves from the word to its super-Yamanouchi word.

    >>> word_inversions(Word([5, 6, 3, 4, 5, 7, 3, 1, 4, 2, 3, 6]))
    11
    """
    word = _as_word(word)
    w, cells = _replay(word)  # earlier swaps in higher rows are the pairing's inversions
    return _inversions(r for r, _ in cells) - (sum(_super_word(w)) - sum(word))


def _pair_displacement(rho: Word, sigma: Word) -> tuple[Permutation, int]:
    """The pair permutation u, perm(sigma) composed with the inverse of
    perm(rho), after checking both words reduce to the same permutation;
    and the letterwise displacement, the sum over i of |rho_i - sigma_u(i)|.
    Sigma is not paired when it is the super word of rho's permutation,
    whose pairing is the identity.  When both are bad, sigma's error is raised."""
    try:
        u_rho, w_rho = _pairing(rho)
    except ValueError:
        _pairing(sigma)  # raises sigma's error, if any, first
        raise
    u = u_rho.inverse()
    if sigma != _super_word(w_rho):
        u_sigma, w_sigma = _pairing(sigma)
        if w_sigma != w_rho:  # reduced words of one permutation share their largest letter
            n = max(rho + sigma) + 1  # one of the two is not empty
            w_rho, w_sigma = (word_to_permutation(x, n) for x in (rho, sigma))
            raise ValueError(f"words are for different permutations: {w_rho} vs {w_sigma}")
        u = u_sigma * u
    return u, sum(abs(rho[-i] - sigma[-j]) for i, j in enumerate(u, 1))  # letter i is word[-i]


def yang_baxter_count(rho: Word | Iterable[int], sigma: Word | Iterable[int]) -> int:
    """Number of Yang-Baxter moves on a minimal move sequence from rho to
    sigma, computed from the pair permutation without any search.

    Exact whenever sigma is the super-Yamanouchi word (checked exhaustively
    through rank 5), where it is the letter-sum surplus sum(sigma) - sum(rho):
    each match of the pairing only lowers its super letter.  That test reads
    w from rho's replay, one of the last 64 kept, and pairs no word.  For
    arbitrary pairs it can disagree with the braid count of actual shortest
    paths, e.g. (1,2,3,2,1,2) to (2,3,2,1,2,3) gives 2 here while every
    shortest path uses 4 braids; treat the arbitrary-pair value as a
    formula, not a measurement.

    >>> rho = Word([5, 6, 3, 4, 5, 7, 3, 1, 4, 2, 3, 6])
    >>> yang_baxter_count(rho, super_word(word_to_permutation(rho)))
    2
    """
    rho, sigma = _as_word(rho), _as_word(sigma)
    try:  # a rho that is not reduced is left to _pair_displacement, for its errors
        if len(rho) == len(sigma) and sigma == _super_word(_replay(rho)[0]):
            return sum(sigma) - sum(rho)
    except ValueError:
        pass
    return _pair_displacement(rho, sigma)[1]


def naive_pair_inversions(rho: Word | Iterable[int], sigma: Word | Iterable[int]) -> int:
    """Kendall-style pairwise statistic: length of the pair permutation
    minus the letterwise displacement.

    This is a heuristic only.  It agrees with the move distance when sigma
    is the super-Yamanouchi word but can be wrong in either direction for
    arbitrary pairs, and is returned unclamped (it may in principle be
    negative).  Toward the super word only rho is paired.
    """
    u, displacement = _pair_displacement(_as_word(rho), _as_word(sigma))
    return u.length - displacement
