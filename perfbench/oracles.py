"""Reference answers computed without the package under test.

Everything here works on plain tuples of ints and shares no code with
``redwords``, so a fault in the package cannot also hide in the oracle.
Conventions follow the package: a word is stored in display order and acts
on a permutation right to left, the leftmost letter being a descent of the
permutation the word spells.
"""

from __future__ import annotations

import math
from collections import defaultdict


def perm_length(p: tuple[int, ...]) -> int:
    """Number of inversions of a permutation in one-line notation."""
    n = len(p)
    return sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j])


def descents(p: tuple[int, ...]) -> list[int]:
    """1-based positions i with p(i) > p(i+1)."""
    return [i for i in range(1, len(p)) if p[i - 1] > p[i]]


def swap(p: tuple[int, ...], i: int) -> tuple[int, ...]:
    """Exchange the entries at 1-based positions i and i+1."""
    q = list(p)
    q[i - 1], q[i] = q[i], q[i - 1]
    return tuple(q)


def apply_word(word: tuple[int, ...], n: int) -> tuple[int, ...]:
    """The permutation of rank n that the word spells."""
    v = list(range(1, n + 1))
    for letter in reversed(word):
        v[letter - 1], v[letter] = v[letter], v[letter - 1]
    return tuple(v)


def is_reduced_word_for(word: tuple[int, ...], w: tuple[int, ...]) -> bool:
    """True when the word spells w with no more letters than w's length."""
    return (
        all(1 <= x < len(w) for x in word)
        and apply_word(word, len(w)) == w
        and len(word) == perm_length(w)
    )


def count_reduced_words(w: tuple[int, ...], memo: dict | None = None) -> int:
    """|R(w)| = sum over descents i of |R(w s_i)|, memoised on the interval
    below w; ``memo`` may be shared between calls of one rank."""
    memo = {} if memo is None else memo
    stack = [w]
    while stack:
        v = stack[-1]
        if v in memo:
            stack.pop()
            continue
        below = [swap(v, i) for i in descents(v)]
        missing = [u for u in below if u not in memo]
        if missing:
            stack.extend(missing)
            continue
        memo[v] = sum(memo[u] for u in below) if below else 1
        stack.pop()
    return memo[w]


def count_words_and_edges(w: tuple[int, ...]) -> tuple[int, int]:
    """(|R(w)|, edges of its move graph) by dynamic programming over prefixes.

    An edge joins two reduced words one commutation (adjacent letters
    differing by at least two) or one braid (a, a+-1, a) apart.  Distinct
    applicable moves give distinct neighbours, so the edge count is half the
    number of (word, applicable move) pairs.  States are the permutation
    left to spell plus the last two letters read; each carries the number of
    prefixes reaching it and the moves they contain.
    """
    level = {(w, 0, 0): (1, 0)}
    words = moves = 0
    while level:
        nxt: dict = defaultdict(lambda: [0, 0])
        for (v, a, b), (count, found) in level.items():
            ds = descents(v)
            if not ds:
                words += count
                moves += found
                continue
            for x in ds:
                new = 0
                if a and abs(a - x) >= 2:
                    new += 1
                if b and b == x and abs(a - x) == 1:
                    new += 1
                slot = nxt[(swap(v, x), x, a)]
                slot[0] += count
                slot[1] += found + new * count
        level = {key: (c, m) for key, (c, m) in nxt.items()}
    return words, moves // 2


def staircase_count(n: int) -> int:
    """|R(w0)| for rank n: standard Young tableaux of the staircase shape
    (n-1, ..., 1) by the hook-length formula."""
    shape = list(range(n - 1, 0, -1))
    hooks = 1
    for r, row in enumerate(shape):
        for c in range(row):
            leg = sum(1 for lower in shape[r + 1 :] if lower > c)
            hooks *= row - c + leg
    return math.factorial(sum(shape)) // hooks


def w0_diameter(n: int) -> int:
    """Diameter of the move graph of the longest permutation of rank n."""
    return (n - 2) * (n - 1) * n * (3 * n - 5) // 24


def super_word(w: tuple[int, ...]) -> tuple[int, ...]:
    """The super-Yamanouchi reduced word of w: take the last descent i,
    the first later position j holding a larger value (n+1 if none), emit
    the run i..j-2 and apply its swaps; repeat until sorted."""
    v = list(w)
    n = len(v)
    out: list[int] = []
    while True:
        ds = [i for i in range(1, n) if v[i - 1] > v[i]]
        if not ds:
            return tuple(out)
        i = ds[-1]
        j = next((k for k in range(i + 1, n + 1) if v[k - 1] > v[i - 1]), n + 1)
        for k in range(i, j - 1):
            out.append(k)
            v[k - 1], v[k] = v[k], v[k - 1]


def word_inversions(word: tuple[int, ...], n: int) -> int:
    """Minimum number of Coxeter moves from a reduced word to the super word.

    Pairs each letter of the super word, scanned left to right, with the
    first unmatched letter of the word equal to a falling target (a letter
    one below the target lowers it), then takes the inversions of that
    pairing minus the letterwise surplus of the super word.
    """
    ell = len(word)
    if ell == 0:
        return 0
    pi = super_word(apply_word(word, n))
    matched = [False] * ell
    pairing = [0] * ell
    for slot_pi, k in enumerate(pi):
        for slot in range(ell):
            if matched[slot]:
                continue
            if word[slot] == k:
                matched[slot] = True
                pairing[slot_pi] = slot
                break
            if word[slot] == k - 1:
                k -= 1
    return perm_length(tuple(pairing)) - (sum(pi) - sum(word))
