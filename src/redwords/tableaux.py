"""Standard balanced tableaux: the balance predicate, enumeration, moves,
inversion statistics, row-sort reconstruction, and the flip and complement
involutions.

A standard balanced tableau is a bijective filling of a Rothe diagram with
1..cell-count such that at every cell, the number of larger entries to its
right equals the number of smaller entries above it.  All moves here act on
entry *values*, not cell positions.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .diagrams import (
    Cell,
    Diagram,
    Filling,
    _filling,
    permutation_of_diagram,
    rothe_diagram,
    super_tableau,
)
from .perms import Permutation


def _check_standard(f: Filling) -> None:
    if sorted(f.entries) != list(range(1, len(f) + 1)):
        raise ValueError(f"entries are not a bijection onto 1..{len(f)}")


def is_balanced(f: Filling) -> bool:
    """Balance check at every cell.  Rejects non-bijective fillings.

    >>> is_balanced(Filling({(1, 1): 3, (1, 2): 5, (1, 3): 2, (2, 1): 1, (4, 3): 4}))
    True
    """
    _check_standard(f)
    items = f.items()
    for (r, c), e in items:
        right_greater = sum(
            1 for (r2, c2), e2 in items if r2 == r and c2 > c and e2 > e
        )
        above_smaller = sum(
            1 for (r2, c2), e2 in items if c2 == c and r2 > r and e2 < e
        )
        if right_greater != above_smaller:
            return False
    return True


def _iter_sbt(w: Permutation) -> Iterator[Filling]:
    """Backtracking enumeration of the balanced fillings of the diagram of w.

    Values are placed in increasing order, so a cell's balance is final once
    it is filled: it is kept iff its ``need``, empty cells to its right
    minus filled cells above it, is 0.  Filling a cell lowers, for good, the
    need of the cells left of it in its row and below it in its column, so
    it is also skipped while one of those is empty with need 0.  The stack
    of filled cells is explicit, so no recursion limit applies.
    """
    cells = rothe_diagram(w).cells
    ell = len(cells)
    # lowered[k]: the cells whose need falls by one when cell k is filled.
    # Cells are in row-major order, so these are the earlier cells sharing
    # k's row or column; nearest first, where a blocking cell usually is.
    lowered = [
        [j for j in reversed(range(k)) if cells[j][0] == r or cells[j][1] == c]
        for k, (r, c) in enumerate(cells)
    ]
    need = [
        sum(1 for (r2, c2) in cells if r2 == r and c2 > c) for (r, c) in cells
    ]
    filled = [0] * ell  # 0 = empty, else the entry value
    path: list[int] = []  # the cell holding each value placed so far
    k = 0  # the next cell to try for value len(path) + 1
    while True:
        if len(path) == ell:
            yield _filling(cells, tuple(filled))
        while k < ell and (
            filled[k]
            or need[k]
            or any(need[j] == 0 and not filled[j] for j in lowered[k])
        ):
            k += 1
        if k < ell:
            path.append(k)
            filled[k] = len(path)
            for j in lowered[k]:
                need[j] -= 1
            k = 0
        elif path:
            k = path.pop()
            filled[k] = 0
            for j in lowered[k]:
                need[j] += 1
            k += 1
        else:
            return


def enumerate_sbt(w: Permutation) -> list[Filling]:
    """All standard balanced tableaux on the diagram of w, sorted by their
    entry sequence in row-major cell order."""
    return sorted(_iter_sbt(w), key=lambda f: f.entries)


def tab_commutation(f: Filling, i: int) -> Filling:
    """Exchange entries i and i+1 when they share neither row nor column;
    otherwise return the tableau unchanged."""
    ell = len(f)
    if not 1 <= i < ell:
        raise ValueError(f"entry {i} out of range 1..{ell - 1}")
    a, b = f.entries.index(i), f.entries.index(i + 1)
    (r1, c1), (r2, c2) = f.cells[a], f.cells[b]
    if r1 == r2 or c1 == c2:
        return f
    swapped = list(f.entries)
    swapped[a], swapped[b] = i + 1, i
    return _filling(f.cells, tuple(swapped))


def _braidable(lo: Cell, mid: Cell, hi: Cell) -> bool:
    """The braid condition on the cells of entries i-1, i, i+1: one of lo
    and hi sits above mid in its column, the other right of it in its row."""
    r, c = mid
    return (lo[1] == c and lo[0] > r and hi[0] == r and hi[1] > c) or (
        hi[1] == c and hi[0] > r and lo[0] == r and lo[1] > c
    )


def tab_braid(f: Filling, i: int) -> Filling:
    """Exchange entries i-1 and i+1 when one sits above i in its column and
    the other sits right of i in its row; otherwise unchanged."""
    ell = len(f)
    if not 1 < i < ell:
        raise ValueError(f"entry {i} out of range 2..{ell - 1}")
    a, m, b = (f.entries.index(v) for v in (i - 1, i, i + 1))
    if _braidable(f.cells[a], f.cells[m], f.cells[b]):
        swapped = list(f.entries)
        swapped[a], swapped[b] = i + 1, i - 1
        return _filling(f.cells, tuple(swapped))
    return f


def inversion_pairs(f: Filling) -> list[tuple[int, int]]:
    """Pairs i < j with i in a strictly higher row and a different column."""
    pos = f.positions()
    ell = len(f)
    return [
        (i, j)
        for i in range(1, ell + 1)
        for j in range(i + 1, ell + 1)
        if pos[i][0] > pos[j][0] and pos[i][1] != pos[j][1]
    ]


def tab_inversions(f: Filling) -> int:
    """Number of inversion pairs; the minimum number of moves to the
    super-Yamanouchi tableau.

    >>> tab_inversions(super_tableau(Permutation([4, 2, 1, 5, 3])))
    0
    """
    return len(inversion_pairs(f))


def column_inversions(f: Filling) -> int:
    """Pairs i < j with i strictly above j in the same column; counts the
    Yang-Baxter moves on any minimal path to the super tableau."""
    pos = f.positions()
    ell = len(f)
    return sum(
        1
        for i in range(1, ell + 1)
        for j in range(i + 1, ell + 1)
        if pos[i][0] > pos[j][0] and pos[i][1] == pos[j][1]
    )


def tab_permutation(f: Filling) -> Permutation:
    """Sort each row decreasing, then read right to left within rows, bottom
    row first.  Reading a decreasing row right to left is reading its
    entries in increasing order.

    >>> str(tab_permutation(super_tableau(Permutation([4, 2, 1, 5, 3]))))
    '1,2,3,4,5'
    """
    if len(f) == 0:
        raise ValueError("empty tableau has no associated permutation")
    out: list[int] = []
    rows = f.rows()
    for r in sorted(rows):
        out.extend(sorted(e for _, e in rows[r]))
    return Permutation(out)


def row_coinversions(f: Filling) -> int:
    """Pairs of entries i < j in one row with i left of j, summed over rows."""
    total = 0
    for entries_by_col in f.rows().values():
        entries = [e for _, e in entries_by_col]
        total += sum(
            1
            for a in range(len(entries))
            for b in range(a + 1, len(entries))
            if entries[a] < entries[b]
        )
    return total


def reconstruct_from_row_multisets(
    d: Diagram, rows: Sequence[Iterable[int]]
) -> Filling | None:
    """The unique balanced filling of d whose row contents are the given
    multisets (listed bottom occupied row first), or None if none exists.

    Works top row down: the top row must be decreasing; in each lower row,
    filled left to right, a candidate entry is forced by requiring its count
    of smaller entries already placed above to equal the count of remaining
    row entries that would exceed it.
    """
    occupied = sorted(d.rows())
    row_sets = [sorted(set_, reverse=True) for set_ in map(list, rows)]
    if len(row_sets) != len(occupied):
        raise ValueError(
            f"expected {len(occupied)} row multisets, got {len(row_sets)}"
        )
    drows = d.rows()
    ell = len(d)
    flat = sorted(x for row in row_sets for x in row)
    if flat != list(range(1, ell + 1)):
        raise ValueError(f"row multisets do not partition 1..{ell}")
    for r, content in zip(occupied, row_sets):
        if len(drows[r]) != len(content):
            raise ValueError(f"row {r} needs {len(drows[r])} entries")

    entry_map: dict[Cell, int] = {}
    for r, content in sorted(zip(occupied, row_sets), reverse=True):
        remaining = list(content)  # decreasing
        for c in drows[r]:
            placed = None
            for idx, candidate in enumerate(remaining):
                above_smaller = sum(
                    1
                    for (r2, c2), e in entry_map.items()
                    if c2 == c and r2 > r and e < candidate
                )
                if above_smaller == idx:
                    placed = idx
                    break
            if placed is None:
                return None
            entry_map[(r, c)] = remaining.pop(placed)
    return _filling(d.cells, tuple(entry_map[cell] for cell in d.cells))


def _complement(f: Filling) -> tuple[int, ...]:
    """Entries e -> cell-count - e + 1, in cell order."""
    ell = len(f)
    if any(e > ell for e in f.entries):
        raise ValueError(f"entries must lie in 1..{ell} to be complemented")
    return tuple(ell - e + 1 for e in f.entries)


def flip(f: Filling) -> Filling:
    """Transpose and complement: cell (r, c) moves to (c, r) and entry e
    becomes cell-count - e + 1.  Takes balanced tableaux for w to balanced
    tableaux for the inverse of w."""
    items = sorted(zip([(c, r) for r, c in f.cells], _complement(f)))
    return _filling(tuple(cell for cell, _ in items), tuple(e for _, e in items))


def psi(f: Filling) -> Filling:
    """Entrywise complement on tableaux for the longest permutation.

    Only the staircase diagram guarantees the complement stays balanced, so
    any other shape is rejected.  Reverses the inversion ranking; applied to
    the super tableau it gives the unique minimal element.
    """
    w = permutation_of_diagram(f.diagram)
    if w != Permutation.longest(w.n):
        raise ValueError(f"complement applies only to the longest permutation, not {w}")
    return _filling(f.cells, _complement(f))


def min_inv_w0(n: int) -> int:
    """Inversion number of the minimal tableau for the longest permutation
    of rank n: (n-2)(n-1)n(3n-5)/24.  Also the diameter of the move graph.

    >>> [min_inv_w0(n) for n in range(1, 7)]
    [0, 0, 1, 7, 25, 65]
    """
    if n < 1:
        raise ValueError("rank must be positive")
    return (n - 2) * (n - 1) * n * (3 * n - 5) // 24


if __name__ == "__main__":
    import doctest

    doctest.testmod()
