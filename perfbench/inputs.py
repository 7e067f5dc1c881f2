"""Seeded input generation, stdlib only.

The same seed always gives the same inputs.  The package never sees the
seed or the generator: it receives the words and permutations made here.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter

import oracles

QUERY_RANKS = range(7, 15)

# The bulk-graph class: every permutation of rank 7 and length 11 with
# exactly 2,310 reduced words.  Its 68 members' move graphs differ in shape
# (6,322 to 7,389 edges); a pass builds each of them once, so every seed
# does the same work in its own order and with its own target words.
GRAPH_RANK = 7
GRAPH_LENGTH = 11
GRAPH_WORDS = 2310

def random_permutation(rng: random.Random, n: int) -> tuple[int, ...]:
    entries = list(range(1, n + 1))
    rng.shuffle(entries)
    return tuple(entries)


def random_reduced_word(rng: random.Random, w: tuple[int, ...]) -> tuple[int, ...]:
    """Walk random descents from w down to the identity; the letters read
    in order form a reduced word for w in display order."""
    v = w
    word = []
    while True:
        ds = oracles.descents(v)
        if not ds:
            return tuple(word)
        i = rng.choice(ds)
        word.append(i)
        v = oracles.swap(v, i)


def query_stream(seed: int, count: int) -> tuple[list, dict]:
    """``count`` (rank, permutation, word) queries, plus a record of the draw.

    Each query's rank is uniform over QUERY_RANKS, drawn without replacement
    from equal shares (the remainder at random), so a seed changes the
    permutations and the order but not the rank mix: per-query cost grows
    steeply with rank, and a drawn mix would move the latency median.
    """
    rng = random.Random(seed)
    share, rest = divmod(count, len(QUERY_RANKS))
    ranks = [n for n in QUERY_RANKS for _ in range(share)]
    ranks += rng.sample(QUERY_RANKS, rest)
    rng.shuffle(ranks)
    queries = []
    for n in ranks:
        w = random_permutation(rng, n)
        while oracles.perm_length(w) == 0:  # the empty word has no query
            w = random_permutation(rng, n)
        queries.append((n, w, random_reduced_word(rng, w)))
    mix = Counter(n for n, _, _ in queries)
    record = {
        "seed": seed,
        "queries": count,
        "rank_mix": {str(n): mix[n] for n in QUERY_RANKS},
        "letters": sum(len(word) for _, _, word in queries),
    }
    return queries, record


def graph_class() -> list[tuple[int, ...]]:
    """The bulk-graph class in lexicographic order."""
    memo: dict = {}
    return [
        w
        for w in itertools.permutations(range(1, GRAPH_RANK + 1))
        if oracles.perm_length(w) == GRAPH_LENGTH
        and oracles.count_reduced_words(w, memo) == GRAPH_WORDS
    ]


def graph_jobs(seed: int, passes: int) -> tuple[list, dict]:
    """``passes`` passes over the class, each in its own random order, each
    job with a random target word and the oracle answers for its graph."""
    rng = random.Random(seed)
    members = graph_class()
    answers = {w: oracles.count_words_and_edges(w) for w in members}
    jobs = []
    for _ in range(passes):
        for w in rng.sample(members, len(members)):
            target = random_reduced_word(rng, w)
            words, edges = answers[w]
            jobs.append(
                {
                    "w": w,
                    "target": target,
                    "vertices": words,
                    "edges": edges,
                    "distance": oracles.word_inversions(target, GRAPH_RANK),
                }
            )
    record = {
        "seed": seed,
        "passes": passes,
        "jobs": len(jobs),
        "class_size": len(members),
        "first_permutations": [",".join(map(str, job["w"])) for job in jobs[:5]],
    }
    return jobs, record
