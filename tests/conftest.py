"""Shared frozen fixtures: the reference move graphs on R(42153), R(4321),
and their tableau counterparts, transcribed as letter tuples / cell fillings,
plus small graph-search oracles that are independent of the library's graph
code, the paper's pairing scan as a reference for the pairing
permutation, the braid statistic as a count of triples, a plain
depth-first enumeration of reduced words, and the balance check cell
against cell; and an autouse fixture that empties the package's memos
before each test."""

from collections import defaultdict, deque
from itertools import combinations
from typing import Iterator

import pytest

from redwords import Filling, Permutation, Word, super_word
from redwords.tableaux import _rows_and_braids
from redwords.words import _replay, _super_word


@pytest.fixture(autouse=True)
def empty_memos():
    """Each test starts with empty memos: a result kept by an earlier test
    cannot hide a fault this one injects, and ``cache_info`` counts start
    at zero."""
    for memo in (_replay, _rows_and_braids, _super_word):
        memo.cache_clear()

# ---------------------------------------------------------------------------
# The eleven reduced words for 42153 and the thirteen labeled moves between
# them, keyed by their grid position in the reference picture (top to
# bottom, left to right).
# ---------------------------------------------------------------------------

WORD_GRID_42153 = {
    "C5": (4, 2, 1, 2, 3),
    "B4": (2, 4, 1, 2, 3),
    "D4": (4, 1, 2, 1, 3),
    "A3": (2, 1, 4, 2, 3),
    "C3": (1, 4, 2, 1, 3),
    "E3": (4, 1, 2, 3, 1),
    "A2": (2, 1, 2, 4, 3),
    "C2": (1, 2, 4, 1, 3),
    "E2": (1, 4, 2, 3, 1),
    "B1": (1, 2, 1, 4, 3),
    "D1": (1, 2, 4, 3, 1),
}

EDGE_GRID_42153 = [
    ("C5", "B4", "c4"),
    ("C5", "D4", "b3"),
    ("B4", "A3", "c3"),
    ("D4", "C3", "c4"),
    ("D4", "E3", "c1"),
    ("A3", "A2", "c2"),
    ("C3", "C2", "c3"),
    ("C3", "E2", "c1"),
    ("E3", "E2", "c4"),
    ("A2", "B1", "b4"),
    ("C2", "B1", "c2"),
    ("C2", "D1", "c1"),
    ("E2", "D1", "c3"),
]

# The eleven balanced tableaux for 42153 on cells
# (1,1),(1,2),(1,3),(2,1),(4,3), same grid positions as the words above.
# Recorded as (row4 entry, row2 entry, row1 entries left to right).

TABLEAU_GRID_42153 = {
    "C5": (5, 4, (3, 2, 1)),
    "B4": (4, 5, (3, 2, 1)),
    "D4": (5, 2, (3, 4, 1)),
    "A3": (3, 5, (4, 2, 1)),
    "C3": (4, 2, (3, 5, 1)),
    "E3": (5, 1, (3, 4, 2)),
    "A2": (2, 5, (4, 3, 1)),
    "C2": (3, 2, (4, 5, 1)),
    "E2": (4, 1, (3, 5, 2)),
    "B1": (2, 3, (4, 5, 1)),
    "D1": (3, 1, (4, 5, 2)),
}

# ---------------------------------------------------------------------------
# The sixteen reduced words for 4321 and the eighteen moves between them.
# ---------------------------------------------------------------------------

WORD_GRID_4321 = {
    "R37": (3, 2, 3, 1, 2, 3),
    "R26": (2, 3, 2, 1, 2, 3),
    "R46": (3, 2, 1, 3, 2, 3),
    "R15": (2, 3, 1, 2, 1, 3),
    "R55": (3, 2, 1, 2, 3, 2),
    "R04": (2, 3, 1, 2, 3, 1),
    "R24": (2, 1, 3, 2, 1, 3),
    "R64": (3, 1, 2, 1, 3, 2),
    "R13": (2, 1, 3, 2, 3, 1),
    "R53": (1, 3, 2, 1, 3, 2),
    "R73": (3, 1, 2, 3, 1, 2),
    "R22": (2, 1, 2, 3, 2, 1),
    "R62": (1, 3, 2, 3, 1, 2),
    "R31": (1, 2, 1, 3, 2, 1),
    "R51": (1, 2, 3, 2, 1, 2),
    "R40": (1, 2, 3, 1, 2, 1),
}

EDGE_GRID_4321 = [
    ("R37", "R26", "b5"),
    ("R37", "R46", "c3"),
    ("R26", "R15", "b3"),
    ("R46", "R55", "b2"),
    ("R15", "R04", "c1"),
    ("R15", "R24", "c4"),
    ("R55", "R64", "b4"),
    ("R04", "R13", "c4"),
    ("R24", "R13", "c1"),
    ("R64", "R53", "c5"),
    ("R64", "R73", "c2"),
    ("R13", "R22", "b3"),
    ("R53", "R62", "c2"),
    ("R73", "R62", "c5"),
    ("R22", "R31", "b5"),
    ("R62", "R51", "b4"),
    ("R31", "R40", "c3"),
    ("R51", "R40", "b2"),
]

# The sixteen balanced tableaux for 4321 on the staircase cells
# (1,1),(1,2),(1,3),(2,1),(2,2),(3,1), same grid positions and edges.
# Recorded as (row3 entry, row2 entries, row1 entries), left to right.

TABLEAU_GRID_4321 = {
    "R37": (6, (5, 4), (3, 2, 1)),
    "R26": (4, (5, 6), (3, 2, 1)),
    "R46": (6, (5, 3), (4, 2, 1)),
    "R15": (2, (5, 6), (3, 4, 1)),
    "R55": (6, (5, 1), (4, 2, 3)),
    "R04": (1, (5, 6), (3, 4, 2)),
    "R24": (2, (4, 6), (3, 5, 1)),
    "R64": (6, (3, 1), (4, 2, 5)),
    "R13": (1, (4, 6), (3, 5, 2)),
    "R53": (5, (3, 1), (4, 2, 6)),
    "R73": (6, (2, 1), (4, 3, 5)),
    "R22": (1, (2, 6), (3, 5, 4)),
    "R62": (5, (2, 1), (4, 3, 6)),
    "R31": (1, (2, 4), (3, 5, 6)),
    "R51": (3, (2, 1), (4, 5, 6)),
    "R40": (1, (2, 3), (4, 5, 6)),
}


def tableau_42153(entry: tuple) -> Filling:
    row4, row2, row1 = entry
    return Filling(
        {
            (4, 3): row4,
            (2, 1): row2,
            (1, 1): row1[0],
            (1, 2): row1[1],
            (1, 3): row1[2],
        }
    )


def tableau_4321(entry: tuple) -> Filling:
    row3, row2, row1 = entry
    return Filling(
        {
            (3, 1): row3,
            (2, 1): row2[0],
            (2, 2): row2[1],
            (1, 1): row1[0],
            (1, 2): row1[1],
            (1, 3): row1[2],
        }
    )


def grid_edges(grid: dict, edges: list, make=lambda x: Word(x)):
    """Frozen edges as (element, element, label) triples."""
    return [(make(grid[a]), make(grid[b]), label) for a, b, label in edges]


def random_reduced_word(rng, n: int) -> Word:
    """A reduced word of a random permutation of rank n, drawn with the
    given ``random.Random``: shuffle 1..n, then sort it by adjacent swaps at
    randomly chosen descents, recording each swap's position."""
    v = list(range(1, n + 1))
    rng.shuffle(v)
    letters = []
    while True:
        descents = [i for i in range(1, n) if v[i - 1] > v[i]]
        if not descents:
            return Word(letters)
        i = rng.choice(descents)
        letters.append(i)
        v[i - 1], v[i] = v[i], v[i - 1]


def reference_reduced_words(w: Permutation) -> Iterator[Word]:
    """R(w) in lexicographic display order, peeling every letter afresh:
    the leftmost letter is a descent position of w, and the remainder is a
    reduced word for w with that descent swapped away.  Depth-first over an
    explicit stack of (permutation, prefix) tuples; no prefix or tail is
    shared between words."""
    n = len(w)
    stack = [(tuple(w), ())]
    while stack:
        v, prefix = stack.pop()
        depth = len(stack)
        for i in range(n - 1, 0, -1):  # largest descent first, so popped last
            if v[i - 1] > v[i]:
                stack.append((v[: i - 1] + (v[i], v[i - 1]) + v[i + 1 :], prefix + (i,)))
        if len(stack) == depth:
            yield tuple.__new__(Word, prefix)


def reference_pairing(word: Word) -> tuple[Permutation, Permutation, int]:
    """The paper's pairing scan: the pairing permutation, the word's
    permutation w and the pairing's inversion number, computed by matching
    the word against ``super_word(w)``.

    For each super letter, left to right, the first unmatched letter of the
    word equal to a falling target k matches; a letter equal to k-1 lowers
    k and is passed over.  Inversions are counted as the matches are made.
    """
    ell = len(word)
    v = list(range(1, max(word, default=0) + 2))
    for letter in reversed(word):
        a, b = v[letter - 1], v[letter]
        if a > b:
            raise ValueError(f"word is not reduced: {word}")
        v[letter - 1], v[letter] = b, a
    w = Permutation(v)
    pi = super_word(w)
    letters, slots = list(word), list(range(ell))  # unmatched letters, their display slots
    out, inversions = [0] * ell, 0
    for i, k in zip(range(ell - 1, -1, -1), pi):
        p = 0
        if letters[0] != k:  # else the first unmatched letter matches at once
            below = k - 1
            for letter in letters:  # a reduced word always holds a match
                if letter == k:
                    break
                if letter == below:
                    k, below = below, below - 1
                p += 1
        del letters[p]
        slot = slots.pop(p)
        out[i] = ell - slot
        # entries placed so far sit right of i; those of later slots are smaller
        inversions += ell - 1 - slot - (len(slots) - p)
    return Permutation(out), w, inversions


def reference_braid_triples(word) -> int:
    """The braid statistic as a count of triples: replay the word from the
    identity, rightmost letter first, noting the step at which each pair of
    values x < y is swapped; count the triples x < y < z whose three pairs
    are all swapped, in the order xy, xz, yz.  (A triple's three swaps come
    in that order or in the reverse one; a commutation swaps the pairs of
    four distinct values, so it reorders no triple's swaps.)"""
    v = list(range(1, max(word, default=0) + 2))
    step = {}  # (x, y) -> the step that swapped it
    for k, letter in enumerate(reversed(word)):
        x, y = v[letter - 1], v[letter]
        if x > y:
            raise ValueError(f"word is not reduced: {word}")
        v[letter - 1], v[letter] = y, x
        step[x, y] = k
    return sum(
        1
        for x, y, z in combinations(range(1, len(v) + 1), 3)
        if {(x, y), (x, z), (y, z)} <= step.keys() and step[x, y] < step[x, z] < step[y, z]
    )


def reference_is_balanced(f):
    """The balance check cell against cell, O(ell^2) per filling."""
    items = f.items()
    for (r, c), e in items:
        right_greater = sum(1 for (r2, c2), e2 in items if r2 == r and c2 > c and e2 > e)
        above_smaller = sum(1 for (r2, c2), e2 in items if c2 == c and r2 > r and e2 < e)
        if right_greater != above_smaller:
            return False
    return True


# ---------------------------------------------------------------------------
# Graph-search oracles over explicit edge lists; deliberately separate from
# the library's graph module.
# ---------------------------------------------------------------------------


def _adjacency(edges):
    adj = defaultdict(list)
    for u, v, label in edges:
        adj[u].append((v, label))
        adj[v].append((u, label))
    return adj


def oracle_distance(edges, a, b) -> int:
    adj = _adjacency(edges)
    dist = {a: 0}
    queue = deque([a])
    while queue:
        u = queue.popleft()
        if u == b:
            return dist[u]
        for v, _ in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    raise AssertionError(f"{b} unreachable from {a}")


def oracle_min_braids(edges, a, b) -> int:
    """Fewest braid-labeled edges over all shortest paths from a to b."""
    adj = _adjacency(edges)
    dist = {a: 0}
    queue = deque([a])
    while queue:
        u = queue.popleft()
        for v, _ in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    best = {a: 0}
    for u in sorted(dist, key=dist.get):
        if u == a:
            continue
        best[u] = min(
            best[v] + (1 if label.startswith("b") else 0)
            for v, label in adj[u]
            if dist.get(v) == dist[u] - 1
        )
    return best[b]


@pytest.fixture
def words_42153():
    return {name: Word(letters) for name, letters in WORD_GRID_42153.items()}


@pytest.fixture
def tableaux_42153():
    return {name: tableau_42153(entry) for name, entry in TABLEAU_GRID_42153.items()}


@pytest.fixture
def words_4321():
    return {name: Word(letters) for name, letters in WORD_GRID_4321.items()}


@pytest.fixture
def tableaux_4321():
    return {name: tableau_4321(entry) for name, entry in TABLEAU_GRID_4321.items()}


@pytest.fixture
def rank_calls(monkeypatch):
    """Every element that ``word_inversions`` or ``tab_inversions``, rebound
    in its defining module, is called on, in call order."""
    from redwords import tableaux, words

    calls = []
    for module, name in ((words, "word_inversions"), (tableaux, "tab_inversions")):

        def counted(element, honest=getattr(module, name)):
            calls.append(element)
            return honest(element)

        monkeypatch.setattr(module, name, counted)
    return calls
