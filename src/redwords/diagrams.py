"""Inversion (Rothe) diagrams and fillings.

Cells live in the first quadrant: ``(row, col)`` with row 1 at the bottom,
so "above" always means a strictly larger row index.  This is the opposite
of English Young-tableau habits; every formula here assumes it.

``Diagram(...)``, ``Filling(...)`` and their ``from_text`` validate every
input.  Values the package derives from valid ones are built unchecked: the
Rothe diagram with ``object.__new__(Diagram)``, fillings (moves, enumeration,
flip, complement, super, row-interval and reconstructed fillings) with
``_filling(cells, entries)``; use that form only where the cells are
distinct, positive and in row-major order, and the entries positive, by
construction.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .perms import Permutation
from .words import Word

Cell = tuple[int, int]


class Diagram:
    """A finite set of first-quadrant cells, canonically sorted row-major."""

    __slots__ = ("cells",)

    def __init__(self, cells: Iterable[Cell] = ()):
        cells = tuple(sorted({(int(r), int(c)) for r, c in cells}))
        for r, c in cells:
            if r < 1 or c < 1:
                raise ValueError(f"cell off the first quadrant: {(r, c)}")
        self.cells = cells

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self):
        return iter(self.cells)

    def __contains__(self, cell: Cell) -> bool:
        return cell in self.cells

    def __eq__(self, other) -> bool:
        return isinstance(other, Diagram) and self.cells == other.cells

    def __hash__(self) -> int:
        return hash(self.cells)

    def __repr__(self) -> str:
        return f"Diagram({list(self.cells)!r})"

    def rows(self) -> dict[int, list[int]]:
        """Occupied rows, bottom to top: row index -> sorted column list."""
        out: dict[int, list[int]] = {}
        for r, c in self.cells:
            out.setdefault(r, []).append(c)
        return out

    def columns(self) -> dict[int, list[int]]:
        """Occupied columns: column index -> sorted row list."""
        out: dict[int, list[int]] = {}
        for r, c in self.cells:
            out.setdefault(c, []).append(r)
        for rows in out.values():
            rows.sort()
        return out

    def transpose(self) -> "Diagram":
        return Diagram((c, r) for r, c in self.cells)

    def to_text(self) -> str:
        """Semicolon-separated ``row,col`` pairs in row-major order."""
        return ";".join(f"{r},{c}" for r, c in self.cells)

    @classmethod
    def from_text(cls, text: str) -> "Diagram":
        text = text.strip()
        if not text:
            return cls()
        cells = []
        for chunk in text.split(";"):
            parts = chunk.split(",")
            if len(parts) != 2:
                raise ValueError(f"malformed cell {chunk!r}")
            cells.append((int(parts[0]), int(parts[1])))
        return cls(cells)


class Filling:
    """An assignment of one positive integer to each cell of a diagram."""

    __slots__ = ("cells", "entries")

    def __init__(self, entry_map: Mapping[Cell, int] | Iterable[tuple[Cell, int]]):
        items = sorted(
            ((int(r), int(c)), int(e))
            for (r, c), e in (
                entry_map.items() if isinstance(entry_map, Mapping) else entry_map
            )
        )
        cells = tuple(cell for cell, _ in items)
        if len(set(cells)) != len(cells):
            raise ValueError("duplicate cells in filling")
        for r, c in cells:
            if r < 1 or c < 1:
                raise ValueError(f"cell off the first quadrant: {(r, c)}")
        entries = tuple(e for _, e in items)
        if any(e < 1 for e in entries):
            raise ValueError("entries must be positive")
        self.cells = cells
        self.entries = entries

    @property
    def diagram(self) -> Diagram:
        return Diagram(self.cells)

    def __len__(self) -> int:
        return len(self.cells)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Filling)
            and self.cells == other.cells
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.cells, self.entries))

    def __repr__(self) -> str:
        return f"Filling({dict(self.items())!r})"

    def items(self) -> list[tuple[Cell, int]]:
        return list(zip(self.cells, self.entries))

    def entry(self, cell: Cell) -> int:
        try:
            return self.entries[self.cells.index(cell)]
        except ValueError:
            raise ValueError(f"cell {cell} not in filling") from None

    def position(self, value: int) -> Cell:
        """Cell holding the given entry."""
        try:
            return self.cells[self.entries.index(value)]
        except ValueError:
            raise ValueError(f"entry {value} not in filling") from None

    def positions(self) -> dict[int, Cell]:
        """Entry value -> cell, for every entry."""
        return {e: cell for cell, e in zip(self.cells, self.entries)}

    def rows(self) -> dict[int, list[tuple[int, int]]]:
        """Occupied rows, bottom to top: row -> [(col, entry)] left to right."""
        out: dict[int, list[tuple[int, int]]] = {}
        for (r, c), e in zip(self.cells, self.entries):
            out.setdefault(r, []).append((c, e))
        return out

    def to_text(self) -> str:
        """Semicolon-separated ``row,col,entry`` triples in row-major order."""
        return ";".join(
            f"{r},{c},{e}" for (r, c), e in zip(self.cells, self.entries)
        )

    @classmethod
    def from_text(cls, text: str) -> "Filling":
        text = text.strip()
        if not text:
            return cls({})
        items = []
        for chunk in text.split(";"):
            parts = chunk.split(",")
            if len(parts) != 3:
                raise ValueError(f"malformed filling cell {chunk!r}")
            items.append(((int(parts[0]), int(parts[1])), int(parts[2])))
        return cls(items)

    def render(self) -> str:
        """Multi-line picture, rows top to bottom with aligned columns.

        Display helper only; parse the ``to_text`` form instead.
        """
        if not self.cells:
            return ""
        by_cell = dict(zip(self.cells, self.entries))
        top = max(r for r, _ in self.cells)
        right = max(c for _, c in self.cells)
        width = max(len(str(e)) for e in self.entries)
        lines = []
        for r in range(top, 0, -1):
            parts = [
                str(by_cell[(r, c)]).rjust(width) if (r, c) in by_cell else " " * width
                for c in range(1, right + 1)
            ]
            lines.append(" ".join(parts).rstrip())
        return "\n".join(lines)


def _filling(cells: tuple[Cell, ...], entries: tuple[int, ...]) -> Filling:
    """A filling built without the checks of ``Filling(...)``."""
    f = object.__new__(Filling)
    f.cells, f.entries = cells, entries
    return f


def rothe_diagram(w: Permutation) -> Diagram:
    """Cells (i, w(j)) over the inversion pairs i < j with w(i) > w(j).

    >>> rothe_diagram(Permutation([4, 2, 1, 5, 3])).cells
    ((1, 1), (1, 2), (1, 3), (2, 1), (4, 3))
    """
    n = len(w)
    cells = sorted((i + 1, w[j]) for i in range(n) for j in range(i + 1, n) if w[i] > w[j])
    d = object.__new__(Diagram)  # the cells are distinct and positive
    d.cells = tuple(cells)
    return d


def row_interval_filling(d: Diagram) -> Filling:
    """Fill row r with r, r+1, r+2, ... from left to right."""
    rows = d.rows().items()  # in the row-major order of d.cells
    return _filling(d.cells, tuple(r + k for r, cols in rows for k in range(len(cols))))


def is_rothe_diagram(d: Diagram | Iterable[Cell]) -> bool:
    """True iff the row-interval filling makes every column an increasing
    interval from the bottom up, starting with c at the bottom of column c."""
    d = d if isinstance(d, Diagram) else Diagram(d)
    filling = row_interval_filling(d)
    by_cell = dict(zip(filling.cells, filling.entries))
    for c, rows in d.columns().items():
        entries = [by_cell[(r, c)] for r in rows]
        if entries[0] != c:
            return False
        if any(b - a != 1 for a, b in zip(entries, entries[1:])):
            return False
    return True


def reading_word(f: Filling) -> Word:
    """Rows top to bottom, each left to right, concatenated in display order.

    >>> str(reading_word(row_interval_filling(rothe_diagram(Permutation([4, 2, 1, 5, 3])))))
    '4,2,1,2,3'
    """
    letters = []
    rows = f.rows()
    for r in sorted(rows, reverse=True):
        letters.extend(e for _, e in rows[r])
    return Word(letters)


def super_tableau(w: Permutation) -> Filling:
    """The filling of the Rothe diagram whose reverse row reading word
    (right to left within rows, bottom row first) is the identity.

    Rows decrease left to right and columns increase upward, so it is
    balanced.
    """
    d = rothe_diagram(w)
    entries: list[int] = []
    for cols in d.rows().values():  # bottom row first, each left to right
        entries.extend(range(len(entries) + len(cols), len(entries), -1))
    return _filling(d.cells, tuple(entries))


def permutation_of_diagram(d: Diagram) -> Permutation:
    """The permutation whose Rothe diagram this is, with no trailing fixed
    points beyond the occupied rows.

    Decodes the row sizes as an inversion table and verifies the resulting
    diagram matches, so non-Rothe cell sets are rejected.
    """
    rows = d.rows()
    # rank must fit the inversion table: row r with k cells forces r + k <= n
    n = max((r + len(cols) for r, cols in rows.items()), default=1)
    code = [len(rows.get(r, ())) for r in range(1, n + 1)]
    available = list(range(1, n + 1))
    entries = []
    for c in code:
        if c >= len(available):
            raise ValueError("cell set is not the diagram of a permutation")
        entries.append(available.pop(c))
    w = Permutation(entries)
    if rothe_diagram(w) != d:
        raise ValueError("cell set is not the diagram of a permutation")
    return w


if __name__ == "__main__":
    import doctest

    doctest.testmod()
