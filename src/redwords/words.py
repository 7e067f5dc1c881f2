"""Reduced words, runs, the super-Yamanouchi word, Coxeter moves, and the
inversion statistic.

Index conventions, fixed once
-----------------------------
A word is *stored* in display order: ``word[0]`` is the leftmost printed
letter.  The combinatorics indexes letters from the right, mirroring how a
word acts on a permutation (rightmost letter first), so combinatorial index
``i`` lives at display position ``len(word) - i``.  ``Word.letter(i)`` does
that conversion; nothing else in the package mixes the two silently.

``Word(...)`` and ``from_text`` validate every letter; a public function
passes a plain iterable through ``Word`` but trusts a ``Word`` as it is.
Words the package derives from valid ones (moves, reversal, runs,
enumeration) are built unchecked with ``tuple.__new__(Word, letters)``; use
that form only where the letters are positive by construction.  Functions
that need a reduced word check reducedness once per call.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .perms import Permutation


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
        letters = tuple(int(x) for x in letters)
        if any(x < 1 for x in letters):
            raise ValueError(f"letters must be positive: {letters}")
        return tuple.__new__(cls, letters)

    @classmethod
    def from_text(cls, text: str) -> "Word":
        """Parse comma-separated letters; the empty string is the empty word."""
        text = text.strip()
        if not text:
            return cls()
        try:
            return cls(int(part) for part in text.split(","))
        except ValueError:
            raise ValueError(f"malformed word text: {text!r}") from None

    def letter(self, i: int) -> int:
        """Letter at right-to-left index i (i = 1 is the rightmost letter)."""
        if not 1 <= i <= len(self):
            raise ValueError(f"letter index {i} out of range 1..{len(self)}")
        return self[len(self) - i]

    def reverse(self) -> "Word":
        """Reversal; takes a word for w to a word for the inverse of w."""
        return tuple.__new__(Word, self[::-1])

    def __str__(self) -> str:
        return ",".join(str(x) for x in self)

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
    rank = n if n is not None else (max(word) + 1 if word else 1)
    if word and max(word) >= rank:
        raise ValueError(f"letter {max(word)} out of range for rank {rank}")
    v = list(Permutation.identity(rank))
    for letter in reversed(word):
        v[letter - 1], v[letter] = v[letter], v[letter - 1]
    return tuple.__new__(Permutation, v)


def is_reduced(word: Word | Iterable[int], n: int | None = None) -> bool:
    """True iff the word's length equals the length of the permutation it makes."""
    word = _as_word(word)
    return len(word) == word_to_permutation(word, n).length


def iter_reduced_words(w: Permutation) -> Iterator[Word]:
    """All reduced words for w, in lexicographic display order.

    Peels the leftmost letter: it must be a descent position of w, and the
    remainder is a reduced word for w with that descent swapped away.
    Depth-first over an explicit stack of (permutation, prefix) tuples, so
    the length of w is not limited by the recursion limit.
    """
    n = len(w)
    stack = [(tuple(w), ())]
    while stack:
        v, prefix = stack.pop()
        descents = [i for i in range(1, n) if v[i - 1] > v[i]]
        if not descents:
            yield tuple.__new__(Word, prefix)
        for i in reversed(descents):
            stack.append((v[: i - 1] + (v[i], v[i - 1]) + v[i + 1 :], prefix + (i,)))


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
    the interval i..j-2, and applies those swaps.

    >>> str(super_word(Permutation([4, 2, 1, 5, 3])))
    '4,2,1,2,3'
    """
    v = list(w)
    n = len(v)
    out: list[int] = []
    while True:
        i = next((k for k in range(n - 1, 0, -1) if v[k - 1] > v[k]), None)
        if i is None:
            break
        vi = v[i - 1]
        j = next((k for k in range(i + 1, n + 1) if v[k - 1] > vi), n + 1)
        out.extend(range(i, j - 1))
        v[i - 1 : j - 1] = v[i : j - 1] + [vi]
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


def pairing_permutation(word: Word | Iterable[int], _super: Word | None = None) -> Permutation:
    """Match the letters of a reduced word against its super-Yamanouchi word.

    Scans the super word left to right in display order; for each of its
    letters, scans the input word left to right for the first unmatched
    letter equal to a falling target value k: a letter equal to k matches
    and ends the scan, a letter equal to k-1 lowers k and is passed over,
    anything else is skipped.  The result sends the right-to-left index of
    each super letter to the index of its match.

    >>> rho = Word([5, 6, 3, 4, 5, 7, 3, 1, 4, 2, 3, 6])
    >>> str(pairing_permutation(rho))
    '2,3,5,1,8,9,10,4,6,7,11,12'
    """
    word = _as_word(word)
    ell = len(word)
    if ell == 0:
        raise ValueError("the empty word has no pairing permutation")
    # Reduced iff every swap, applied right to left, lengthens the permutation.
    v = list(range(1, max(word) + 2))
    for letter in reversed(word):
        a, b = v[letter - 1], v[letter]
        if a > b:
            raise ValueError(f"word is not reduced: {word}")
        v[letter - 1], v[letter] = b, a
    pi = _super if _super is not None else super_word(tuple.__new__(Permutation, v))
    unmatched = list(range(ell))  # display slots of the input word
    out = [0] * ell
    for i, k in zip(range(ell, 0, -1), pi):
        for pos, slot in enumerate(unmatched):
            letter = word[slot]
            if letter == k:
                del unmatched[pos]
                out[i - 1] = ell - slot
                break
            if letter == k - 1:
                k -= 1
    return tuple.__new__(Permutation, out)


def word_inversions(word: Word | Iterable[int], _super: Word | None = None) -> int:
    """Inversion number: length of the pairing permutation minus the
    letterwise surplus of the super word.  Equals the minimum number of
    Coxeter moves from the word to its super-Yamanouchi word.

    >>> word_inversions(Word([5, 6, 3, 4, 5, 7, 3, 1, 4, 2, 3, 6]))
    11
    """
    word = _as_word(word)
    if not word:
        return 0
    pi = _super if _super is not None else super_word(word_to_permutation(word))
    perm = pairing_permutation(word, _super=pi)
    return perm.length - (sum(pi) - sum(word))


def _pair_permutation(rho: Word, sigma: Word) -> Permutation:
    """perm(sigma) composed with the inverse of perm(rho), after checking
    both words reduce to the same permutation."""
    n = max(max(rho), max(sigma)) + 1
    w_rho = word_to_permutation(rho, n)
    w_sigma = word_to_permutation(sigma, n)
    if w_rho != w_sigma:
        raise ValueError(
            f"words are for different permutations: {w_rho} vs {w_sigma}"
        )
    pi = super_word(w_rho)
    return pairing_permutation(sigma, _super=pi) * pairing_permutation(rho, _super=pi).inverse()


def yang_baxter_count(rho: Word | Iterable[int], sigma: Word | Iterable[int]) -> int:
    """Number of Yang-Baxter moves on a minimal move sequence from rho to
    sigma, computed from the pair permutation without any search.

    Exact whenever sigma is the super-Yamanouchi word (checked exhaustively
    through rank 5).  For arbitrary pairs it can disagree with the braid
    count of actual shortest paths, e.g. (1,2,3,2,1,2) to (2,3,2,1,2,3)
    gives 2 here while every shortest path uses 4 braids; treat the
    arbitrary-pair value as a formula, not a measurement.

    >>> rho = Word([5, 6, 3, 4, 5, 7, 3, 1, 4, 2, 3, 6])
    >>> yang_baxter_count(rho, super_word(word_to_permutation(rho)))
    2
    """
    rho, sigma = _as_word(rho), _as_word(sigma)
    if not rho and not sigma:
        return 0
    u = _pair_permutation(rho, sigma)
    return sum(abs(rho.letter(i) - sigma.letter(u(i))) for i in range(1, len(rho) + 1))


def naive_pair_inversions(rho: Word | Iterable[int], sigma: Word | Iterable[int]) -> int:
    """Kendall-style pairwise statistic: length of the pair permutation
    minus the letterwise displacement.

    This is a heuristic only.  It agrees with the move distance when sigma
    is the super-Yamanouchi word but can be wrong in either direction for
    arbitrary pairs, and is returned unclamped (it may in principle be
    negative).
    """
    rho, sigma = _as_word(rho), _as_word(sigma)
    if not rho and not sigma:
        return 0
    u = _pair_permutation(rho, sigma)
    displacement = sum(
        abs(rho.letter(i) - sigma.letter(u(i))) for i in range(1, len(rho) + 1)
    )
    return u.length - displacement


if __name__ == "__main__":
    import doctest

    doctest.testmod()
