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
    for w in all_permutations(4):
        assert is_rothe_diagram(rothe_diagram(w))
    assert not is_rothe_diagram(Diagram([(1, 2)]))
    assert is_rothe_diagram(Diagram())


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


def test_diagram_text_round_trip():
    d = rothe_diagram(Permutation([4, 2, 1, 5, 3]))
    assert d.to_text() == "1,1;1,2;1,3;2,1;4,3"
    assert Diagram.from_text(d.to_text()) == d
    assert Diagram.from_text("") == Diagram()
    with pytest.raises(ValueError):
        Diagram.from_text("1,2,3")


def test_filling_text_round_trip():
    st5 = super_tableau(Permutation([4, 2, 1, 5, 3]))
    assert st5.to_text() == "1,1,3;1,2,2;1,3,1;2,1,4;4,3,5"
    assert Filling.from_text(st5.to_text()) == st5
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
