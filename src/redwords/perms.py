"""Permutations of {1..n} in one-line notation.

Everything downstream (words, diagrams, tableaux) indexes from 1, so a
permutation ``p`` is applied as ``p(i)`` rather than ``p[i-1]``; the tuple
storage is an implementation detail.  The empty tuple is the permutation
of rank 0, S_0's one element: the pairing permutation of the empty word.

``_read_ints`` is the package's one text reader: every ``from_text`` reads
through it.  ``Permutation(...)`` and ``from_text`` validate every input.
Values the package derives from valid ones (swap, inverse, product) are
built unchecked with ``tuple.__new__(Permutation, entries)``; use that form
only where the entries are a bijection on 1..n by construction.
"""

from __future__ import annotations

import itertools
from bisect import bisect
from typing import Iterable, Iterator


def _inversions(values: Iterable[int]) -> int:
    """Number of pairs i < j with values[i] > values[j], the package's one
    inversion count: each value adds the earlier ones above it, bisected
    from those seen so far, kept sorted.  Equal values make no pair."""
    seen, count = [], 0
    for x in values:
        at = bisect(seen, x)
        count += len(seen) - at
        seen.insert(at, x)
    return count


def _read_ints(text: str, what: str, width: int = 0) -> list:
    """The integers of ``text``, stripped; blank text has none.  Width 0
    reads one comma-separated list, any other width ``;``-separated groups
    of exactly that many.  Each error names ``what`` was being read."""
    text = text.strip()
    if not text:
        return []
    groups = []
    for group in text.split(";") if width else [text]:
        parts = group.split(",")
        if width and len(parts) != width:
            raise ValueError(f"malformed {what} cell {group!r}")
        try:
            groups.append([int(part) for part in parts])
        except ValueError:
            raise ValueError(f"malformed {what} text: {text!r}") from None
    return groups if width else groups[0]


class Permutation(tuple):
    """A bijection on {1..n}, stored in one-line notation (position 1 first).

    >>> p = Permutation([4, 2, 1, 5, 3])
    >>> p(1), p(5)
    (4, 3)
    >>> p.length
    5
    >>> str(p.inverse())
    '3,2,5,1,4'
    """

    __slots__ = ()

    def __new__(cls, entries: Iterable[int]) -> "Permutation":
        entries = tuple(map(int, entries))
        n = len(entries)
        if sorted(entries) != list(range(1, n + 1)):
            raise ValueError(f"not a bijection on 1..{n}: {entries}")
        return tuple.__new__(cls, entries)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        if n < 0:
            raise ValueError(f"rank must be non-negative, not {n}")
        return tuple.__new__(cls, range(1, n + 1))  # a bijection by construction

    @classmethod
    def longest(cls, n: int) -> "Permutation":
        """The longest permutation n, n-1, ..., 2, 1.

        >>> str(Permutation.longest(4))
        '4,3,2,1'
        """
        return tuple.__new__(cls, cls.identity(n)[::-1])

    @classmethod
    def from_text(cls, text: str) -> "Permutation":
        """Parse comma-separated one-line notation, e.g. ``4,2,1,5,3``.

        Values may exceed 9, so a bare digit string is not accepted.  The
        empty string is the permutation of rank 0.
        """
        return cls(_read_ints(text, "permutation"))

    @property
    def n(self) -> int:
        return len(self)

    def __call__(self, i: int) -> int:
        """Value at position i, 1-based."""
        if not 1 <= i <= len(self):
            raise ValueError(f"position {i} out of range 1..{len(self)}")
        return self[i - 1]

    @property
    def length(self) -> int:
        """Number of pairs i < j with entry at i greater than entry at j."""
        return _inversions(self)

    def descents(self) -> list[int]:
        """Positions i (1-based) where the entry at i exceeds the entry at i+1."""
        return [i for i in range(1, len(self)) if self[i - 1] > self[i]]

    def swap(self, i: int) -> "Permutation":
        """Exchange the entries at positions i and i+1.

        Rejects out-of-range i rather than clamping; a silent no-op here
        would mask a malformed word upstream.

        >>> str(Permutation([2, 4, 1, 5, 3]).swap(1))
        '4,2,1,5,3'
        """
        if not 1 <= i <= len(self) - 1:
            raise ValueError(f"swap position {i} out of range 1..{len(self) - 1}")
        entries = list(self)
        entries[i - 1], entries[i] = entries[i], entries[i - 1]
        return tuple.__new__(Permutation, entries)

    def inverse(self) -> "Permutation":
        out = [0] * len(self)
        for pos, value in enumerate(self, start=1):
            out[value - 1] = pos
        return tuple.__new__(Permutation, out)

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Compose: (p * q)(i) = p(q(i)).  Sizes must match.

        >>> p, q = Permutation([2, 1, 3, 4, 5]), Permutation([1, 3, 2, 4, 5])
        >>> str(p * q)
        '2,3,1,4,5'
        """
        if not isinstance(other, tuple):
            return NotImplemented
        if len(self) != len(other):
            raise ValueError(f"size mismatch: {len(self)} vs {len(other)}")
        if not isinstance(other, Permutation):
            other = Permutation(other)
        return tuple.__new__(Permutation, [self[q - 1] for q in other])

    def __str__(self) -> str:
        return ",".join(str(x) for x in self)

    def __repr__(self) -> str:
        return f"Permutation({tuple(self)!r})"


def all_permutations(n: int) -> Iterator[Permutation]:
    """All of S_n in lexicographic order."""
    if n < 1:
        raise ValueError("rank must be positive")
    for entries in itertools.permutations(range(1, n + 1)):
        yield tuple.__new__(Permutation, entries)
