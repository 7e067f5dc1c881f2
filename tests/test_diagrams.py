import os
import pickle
import time
from itertools import permutations as itertools_permutations

import pytest

from redwords import (
    Diagram,
    Filling,
    Permutation,
    Word,
    all_permutations,
    is_balanced,
    is_rothe_diagram,
    permutation_of_diagram,
    reading_word,
    rothe_diagram,
    row_interval_filling,
    super_tableau,
    super_word,
)

W8 = Permutation([4, 1, 7, 5, 8, 2, 3, 6])


def test_rothe_diagram_examples():
    assert rothe_diagram(Permutation([4, 2, 1, 5, 3])).cells == (
        (1, 1),
        (1, 2),
        (1, 3),
        (2, 1),
        (4, 3),
    )
    assert rothe_diagram(Permutation.identity(4)) == Diagram()
    d8 = rothe_diagram(W8)
    assert len(d8) == W8.length == 12
    assert d8.rows() == {1: [1, 2, 3], 3: [2, 3, 5, 6], 4: [2, 3], 5: [2, 3, 6]}


def test_rothe_diagram_cost_follows_its_cells():
    # one inversion among 20,000 positions, where testing all pairs makes 2 * 10**8 tests
    w = Permutation([2, 1] + list(range(3, 20001)))
    start = time.perf_counter()
    assert rothe_diagram(w).cells == ((1, 1),)
    assert time.perf_counter() - start < 1.0


def test_permutation_of_diagram_cost_follows_its_cells():
    # one cell in rank 100,001, where taking each value from the front of a
    # rising list moves about 5 * 10**9 values
    start = time.perf_counter()
    w = permutation_of_diagram(Diagram([(100000, 100000)]))
    assert w == Permutation([*range(1, 100000), 100001, 100000])
    assert time.perf_counter() - start < 1.0
    start = time.perf_counter()
    assert is_rothe_diagram(Diagram([(100000, 100000)]))
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("n", range(1, 7))
def test_rothe_diagram_equals_public_diagram(n):
    for w in all_permutations(n):
        d = rothe_diagram(w)
        public = Diagram(
            (i, w(j))
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
            if w(i) > w(j)
        )
        assert type(d) is Diagram
        assert d == public and hash(d) == hash(public)


def test_row_interval_filling():
    f = row_interval_filling(rothe_diagram(W8))
    assert dict(f.items()) == {
        (1, 1): 1, (1, 2): 2, (1, 3): 3,
        (3, 2): 3, (3, 3): 4, (3, 5): 5, (3, 6): 6,
        (4, 2): 4, (4, 3): 5,
        (5, 2): 5, (5, 3): 6, (5, 6): 7,
    }
    assert row_interval_filling(Diagram()) == Filling({})
    f2 = row_interval_filling(rothe_diagram(Permutation([4, 2, 1, 5, 3])))
    assert dict(f2.items()) == {(1, 1): 1, (1, 2): 2, (1, 3): 3, (2, 1): 2, (4, 3): 4}


def test_reading_word_gives_super_word():
    f = row_interval_filling(rothe_diagram(W8))
    assert reading_word(f) == super_word(W8)
    assert reading_word(Filling({})) == Word()
    f2 = row_interval_filling(rothe_diagram(Permutation([4, 2, 1, 5, 3])))
    assert reading_word(f2) == Word([4, 2, 1, 2, 3])


@pytest.mark.parametrize("n", range(1, 5))
def test_reading_word_is_super_exhaustive(n):
    for w in all_permutations(n):
        assert reading_word(row_interval_filling(rothe_diagram(w))) == super_word(w)


def test_is_rothe_diagram():
    for n in range(1, 7):
        for w in all_permutations(n):
            assert is_rothe_diagram(rothe_diagram(w)), w
    assert not is_rothe_diagram(Diagram([(1, 2)]))
    # every column reads an interval under the row-interval filling, yet no
    # permutation draws these
    assert not is_rothe_diagram(Diagram([(1, 1), (2, 2)]))
    assert not is_rothe_diagram(Diagram([(1, 1), (1, 2), (2, 1), (2, 3)]))
    assert is_rothe_diagram(Diagram())


def _drawn_in_grid(rows, cols):
    """Every Rothe diagram inside the grid, drawn from the definition: the
    cells (i, w(j)) over i < j with w(i) > w(j).  A row of the grid holds at
    most ``cols`` cells, so every diagram inside it is drawn in S_{rows+cols}."""
    n = rows + cols
    drawn = set()
    for w in itertools_permutations(range(1, n + 1)):
        cells = frozenset(
            (i + 1, w[j]) for i in range(n) for j in range(i + 1, n) if w[i] > w[j]
        )
        if all(r <= rows and c <= cols for r, c in cells):
            drawn.add(cells)
    return drawn


def _accepted_in_grid(rows, cols):
    """Check the Rothe test against the definition and against the decoding
    on every subset of the grid; return how many subsets it accepts."""
    grid = [(r, c) for r in range(1, rows + 1) for c in range(1, cols + 1)]
    drawn = _drawn_in_grid(rows, cols)
    accepted = 0
    for mask in range(1 << len(grid)):
        d = Diagram(cell for k, cell in enumerate(grid) if mask >> k & 1)
        rothe = is_rothe_diagram(d)
        assert rothe == (frozenset(d.cells) in drawn), d
        assert rothe == isinstance(_decoded(permutation_of_diagram, d), Permutation), d
        accepted += rothe
    return accepted


@pytest.mark.parametrize("rows,cols", [(3, 4), (4, 3)])
def test_is_rothe_diagram_equals_the_definition_on_every_subset(rows, cols):
    assert _accepted_in_grid(rows, cols) == 73


@pytest.mark.skipif(
    os.environ.get("REDWORDS_STRESS") != "1",
    reason="4x4 grid stress run; set REDWORDS_STRESS=1 to enable",
)
def test_is_rothe_diagram_equals_the_definition_on_the_4x4_grid_stress():
    assert _accepted_in_grid(4, 4) == 209


def test_super_tableau_examples():
    st8 = super_tableau(W8)
    assert dict(st8.items()) == {
        (1, 1): 3, (1, 2): 2, (1, 3): 1,
        (3, 2): 7, (3, 3): 6, (3, 5): 5, (3, 6): 4,
        (4, 2): 9, (4, 3): 8,
        (5, 2): 12, (5, 3): 11, (5, 6): 10,
    }
    st5 = super_tableau(Permutation([4, 2, 1, 5, 3]))
    assert dict(st5.items()) == {
        (1, 1): 3, (1, 2): 2, (1, 3): 1, (2, 1): 4, (4, 3): 5,
    }
    assert dict(super_tableau(Permutation([2, 1])).items()) == {(1, 1): 1}


@pytest.mark.parametrize("n", range(1, 5))
def test_super_tableau_is_balanced(n):
    for w in all_permutations(n):
        assert is_balanced(super_tableau(w))


@pytest.mark.parametrize("n", range(1, 5))
def test_transpose_is_diagram_of_inverse(n):
    for w in all_permutations(n):
        assert rothe_diagram(w.inverse()) == rothe_diagram(w).transpose()


@pytest.mark.parametrize("n", range(1, 5))
def test_permutation_of_diagram_round_trip(n):
    for w in all_permutations(n):
        d = rothe_diagram(w)
        recovered = permutation_of_diagram(d)
        # recovery drops trailing fixed points but keeps the diagram
        assert rothe_diagram(recovered) == d
        assert all(recovered(i) == w(i) for i in range(1, recovered.n + 1))


def test_permutation_of_diagram_rejects_non_rothe():
    with pytest.raises(ValueError):
        permutation_of_diagram(Diagram([(1, 2)]))
    with pytest.raises(ValueError):
        permutation_of_diagram(Diagram([(2, 1), (2, 2)]))


def _reference_permutation_of_diagram(d):
    """The decoding with a checked ``Permutation``."""
    rows = d.rows()
    n = max((r + len(cols) for r, cols in rows.items()), default=1)
    available = list(range(1, n + 1))
    entries = []
    for r in range(1, n + 1):
        c = len(rows.get(r, ()))
        if c >= len(available):
            raise ValueError("cell set is not the diagram of a permutation")
        entries.append(available.pop(c))
    w = Permutation(entries)
    if rothe_diagram(w) != d:
        raise ValueError("cell set is not the diagram of a permutation")
    return w


def _decoded(decode, d):
    try:
        return decode(d)
    except ValueError as exc:
        return ValueError, str(exc)


def test_permutation_of_diagram_matches_reference_on_every_cell_set():
    box = [(r, c) for r in range(1, 4) for c in range(1, 4)]
    decoded = 0
    for mask in range(1 << len(box)):
        cells = [cell for k, cell in enumerate(box) if mask >> k & 1]
        d = Diagram(cells)
        f = Filling({cell: k + 1 for k, cell in enumerate(reversed(cells))})
        assert f.diagram == d
        expected = _decoded(_reference_permutation_of_diagram, d)
        assert _decoded(permutation_of_diagram, d) == expected
        decoded += isinstance(expected, Permutation)
    assert decoded == 34


def test_every_cell_set_in_a_box_decodes_exactly_when_it_is_a_rothe_diagram():
    """A cell set in the 3 x 3 box is accepted exactly when it is the Rothe
    diagram of the permutation returned; any other is refused with one
    message.  Rows 1..3 with at most 3 cells each fit inside S_6."""
    box = [(r, c) for r in range(1, 4) for c in range(1, 4)]
    perms = (w for n in range(1, 7) for w in all_permutations(n))
    inside = {d for d in map(rothe_diagram, perms) if set(d) <= set(box)}
    accepted = 0
    for mask in range(1 << len(box)):
        d = Diagram(cell for k, cell in enumerate(box) if mask >> k & 1)
        if d in inside:
            assert rothe_diagram(permutation_of_diagram(d)) == d
            accepted += 1
        else:
            with pytest.raises(ValueError) as exc:
                permutation_of_diagram(d)
            assert str(exc.value) == "cell set is not the diagram of a permutation"
    assert accepted == len(inside) == 34


def test_cells_off_the_quadrant_and_entries_below_one_are_refused():
    with pytest.raises(ValueError) as exc:
        Diagram([(1, 1), (0, 2)])
    assert str(exc.value) == "cell off the first quadrant: (0, 2)"
    with pytest.raises(ValueError) as exc:
        Filling({(1, 1): 1, (2, 0): 2})
    assert str(exc.value) == "cell off the first quadrant: (2, 0)"
    with pytest.raises(ValueError) as exc:
        Filling({(1, 1): 1, (1, 2): 0})
    assert str(exc.value) == "entries must be positive"


def test_a_column_that_is_not_an_interval_is_not_a_rothe_diagram():
    # column 1 reads 1 at the bottom, then 3 in row 3: it skips 2
    assert not is_rothe_diagram(Diagram([(1, 1), (3, 1)]))
    assert not is_rothe_diagram([(1, 1), (3, 1)])


def test_diagram_text_round_trip():
    d = rothe_diagram(Permutation([4, 2, 1, 5, 3]))
    assert d.to_text() == "1,1;1,2;1,3;2,1;4,3"
    assert Diagram.from_text(d.to_text()) == d
    assert eval(repr(d)) == d
    assert Diagram.from_text("") == Diagram()
    with pytest.raises(ValueError):
        Diagram.from_text("1,2,3")


def test_a_diagram_is_the_tuple_of_its_cells():
    d = rothe_diagram(W8)
    assert isinstance(d, tuple)
    assert d.cells == tuple(d) and type(d.cells) is tuple
    assert hash(d) == hash(d.cells)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(d, protocol))
        assert type(back) is Diagram and back == d
    assert Diagram() == ()
    assert Diagram([(2, 1), (1, 3), (2, 1)]).cells == ((1, 3), (2, 1))
    with pytest.raises(ValueError) as exc:
        Diagram([(1, 1), (0, 2)])
    assert str(exc.value) == "cell off the first quadrant: (0, 2)"
    for w in all_permutations(5):
        built = super_tableau(w).diagram
        assert type(built) is Diagram and built == rothe_diagram(w)


def test_text_forms_name_a_malformed_field():
    with pytest.raises(ValueError, match="malformed diagram text: '1,x'"):
        Diagram.from_text("1,x")
    with pytest.raises(ValueError, match="malformed filling text: '1,1,x'"):
        Filling.from_text("1,1,x")
    st5 = super_tableau(Permutation([4, 2, 1, 5, 3]))
    assert str(st5) == st5.to_text()


def test_filling_text_round_trip():
    st5 = super_tableau(Permutation([4, 2, 1, 5, 3]))
    assert st5.to_text() == "1,1,3;1,2,2;1,3,1;2,1,4;4,3,5"
    assert Filling.from_text(st5.to_text()) == st5
    assert eval(repr(st5)) == st5
    assert Filling.from_text("") == Filling({})
    with pytest.raises(ValueError):
        Filling.from_text("1,1")
    with pytest.raises(ValueError):
        Filling([((1, 1), 1), ((1, 1), 2)])


def test_render_layout():
    st5 = super_tableau(Permutation([4, 2, 1, 5, 3]))
    assert st5.render().splitlines() == [
        "    5",
        "",
        "4",
        "3 2 1",
    ]
    assert Filling({}).render() == ""
