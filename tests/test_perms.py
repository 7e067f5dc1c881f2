import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from redwords import Diagram, Filling, Permutation, Word, all_permutations
from redwords.perms import _inversions

perm_strategy = st.integers(1, 6).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))
)


def test_rejects_non_bijections():
    for entries, message in (
        ([1, 1, 2], "not a bijection on 1..3: (1, 1, 2)"),
        ([1, 1], "not a bijection on 1..2: (1, 1)"),
        ([0, 1], "not a bijection on 1..2: (0, 1)"),
        ([2, 3], "not a bijection on 1..2: (2, 3)"),
        (iter(["2", 3.0]), "not a bijection on 1..2: (2, 3)"),
    ):
        with pytest.raises(ValueError) as caught:
            Permutation(entries)
        assert str(caught.value) == message


def test_length_examples():
    assert Permutation([4, 2, 1, 5, 3]).length == 5
    assert Permutation.identity(7).length == 0
    assert Permutation([2, 3, 5, 1, 8, 9, 10, 4, 6, 7, 11, 12]).length == 13


def _pair_inversions(values):
    """The pair definition: i < j with values[i] > values[j]."""
    return sum(
        1 for i in range(len(values)) for j in range(i + 1, len(values)) if values[i] > values[j]
    )


def test_inversions_count_the_pairs():
    assert _inversions(()) == 0
    assert _inversions([7]) == 0
    assert _inversions([3, 1, 3, 2]) == 3  # equal values make no pair
    rng = random.Random(27)
    for size in range(2, 60):
        for top in (1, 2, size // 3 + 1, 3 * size):  # few values, so many ties, up to none
            values = [rng.randint(1, top) for _ in range(size)]
            assert _inversions(values) == _pair_inversions(values), values
            assert _inversions(iter(values)) == _pair_inversions(values)


def test_length_counts_the_pairs():
    for n in range(1, 7):
        for p in all_permutations(n):
            assert p.length == _pair_inversions(p), p
    rng = random.Random(7)
    for n in range(7, 51):
        entries = list(range(1, n + 1))
        rng.shuffle(entries)
        assert Permutation(entries).length == _pair_inversions(entries), entries


def test_swap_examples():
    assert Permutation([2, 4, 1, 5, 3]).swap(1) == Permutation([4, 2, 1, 5, 3])
    assert Permutation.identity(5).swap(3) == Permutation([1, 2, 4, 3, 5])
    assert Permutation([2, 1, 3, 4, 5]).swap(1) == Permutation.identity(5)


def test_swap_rejects_out_of_range():
    p = Permutation([2, 1, 3])
    for i in (0, 3, -1):
        with pytest.raises(ValueError):
            p.swap(i)


def test_compose():
    p = Permutation([4, 2, 1, 5, 3])
    assert p * Permutation.identity(5) == p
    assert p * p.inverse() == Permutation.identity(5)
    assert p * (1, 3, 2, 4, 5) == p * Permutation([1, 3, 2, 4, 5])
    with pytest.raises(ValueError):
        p * (1, 1, 2, 3, 4)
    # hand evaluation of (p o q)(i) = p(q(i))
    assert Permutation([2, 1, 3, 4, 5]) * Permutation([1, 3, 2, 4, 5]) == Permutation(
        [2, 3, 1, 4, 5]
    )
    with pytest.raises(ValueError):
        p * Permutation([2, 1])
    with pytest.raises(TypeError):
        Permutation([2, 1]) * 2


def test_derived_permutations_equal_public_ones():
    p = Permutation([4, 2, 1, 5, 3])
    derived = [p.swap(2), p.inverse(), p * p, *all_permutations(3)]
    for q in derived:
        rebuilt = Permutation(list(q))
        assert type(q) is Permutation
        assert q == rebuilt and hash(q) == hash(rebuilt)
        assert eval(repr(q)) == q


def test_all_permutations_rejects_empty_rank():
    with pytest.raises(ValueError, match="rank must be positive"):
        list(all_permutations(0))


def test_rank_zero_permutation():
    """The empty permutation, of S_0, is the identity and the longest
    permutation of rank 0, with the empty string as its text."""
    e = Permutation(())
    assert e == Permutation([]) == Permutation.identity(0) == Permutation.longest(0)
    assert type(Permutation.identity(0)) is Permutation
    assert e.n == e.length == 0
    assert e.descents() == []
    assert e.inverse() == e * e == e
    assert str(e) == ""
    assert Permutation.from_text("") == Permutation.from_text(" ") == e
    with pytest.raises(ValueError, match="malformed permutation text"):
        Permutation.from_text(",")


@pytest.mark.parametrize("n", [-1, -2])
def test_identity_and_longest_refuse_negative_ranks(n):
    for make in (Permutation.identity, Permutation.longest):
        with pytest.raises(ValueError, match=f"rank must be non-negative, not {n}"):
            make(n)


def test_inverse():
    assert Permutation.identity(4).inverse() == Permutation.identity(4)
    assert Permutation([4, 2, 1, 5, 3]).inverse() == Permutation([3, 2, 5, 1, 4])
    for p in all_permutations(4):
        assert p.inverse().inverse() == p


def test_longest():
    assert Permutation.longest(4) == Permutation([4, 3, 2, 1])
    assert Permutation.longest(1) == Permutation([1])
    w0 = Permutation.longest(5)
    assert w0 == Permutation([5, 4, 3, 2, 1])
    assert w0.length == 10


@pytest.mark.parametrize("n", range(1, 6))
def test_longest_has_maximal_length(n):
    w0 = Permutation.longest(n)
    assert all(p.length <= w0.length for p in all_permutations(n))
    assert sum(1 for p in all_permutations(n) if p.length == w0.length) == 1


@pytest.mark.parametrize("n", range(1, 6))
def test_length_invariant_under_inverse(n):
    for p in all_permutations(n):
        assert p.length == p.inverse().length


def test_adjacent_swap_changes_length_by_one():
    for p in all_permutations(4):
        for i in range(1, 4):
            assert abs(p.swap(i).length - p.length) == 1


def test_text_round_trip():
    p = Permutation([4, 2, 1, 5, 3])
    assert str(p) == "4,2,1,5,3"
    assert Permutation.from_text("4,2,1,5,3") == p
    # values may exceed 9, so no digit-string form
    twelve = Permutation([2, 3, 5, 1, 8, 9, 10, 4, 6, 7, 11, 12])
    assert Permutation.from_text(str(twelve)) == twelve
    with pytest.raises(ValueError):
        Permutation.from_text("42153")
    with pytest.raises(ValueError):
        Permutation.from_text("4;2;1")


def test_call_is_one_based():
    p = Permutation([4, 2, 1, 5, 3])
    assert [p(i) for i in range(1, 6)] == [4, 2, 1, 5, 3]
    with pytest.raises(ValueError):
        p(0)
    with pytest.raises(ValueError):
        p(6)


def test_descents():
    assert Permutation([4, 2, 1, 5, 3]).descents() == [1, 2, 4]
    assert Permutation.identity(4).descents() == []


@given(perm_strategy)
def test_inverse_is_involution(entries):
    p = Permutation(entries)
    assert p.inverse().inverse() == p
    assert p * p.inverse() == Permutation.identity(p.n)


@given(perm_strategy, st.data())
def test_swap_steps_length(entries, data):
    p = Permutation(entries)
    if p.n == 1:
        return
    i = data.draw(st.integers(1, p.n - 1))
    assert abs(p.swap(i).length - p.length) == 1


TEXT_FORMS = [
    (Permutation, "permutation", Permutation([4, 2, 1, 5, 3])),
    (Word, "word", Word([1, 4, 2, 3, 1])),
    (Diagram, "diagram", Diagram([(1, 1), (1, 2), (2, 1), (4, 3)])),
    (Filling, "filling", Filling({(1, 1): 3, (1, 2): 2, (4, 3): 5})),
]


@pytest.mark.parametrize("cls,what,element", TEXT_FORMS)
def test_every_text_form_is_read_by_one_reader(cls, what, element):
    text = element.to_text() if hasattr(element, "to_text") else str(element)
    assert cls.from_text(text) == element
    assert cls.from_text(f"  {text}\n") == element
    empty = cls.from_text("")
    assert len(empty) == 0
    assert cls.from_text(" \t\n") == empty
    bad = text[: text.rindex(",") + 1] + "x"
    with pytest.raises(ValueError) as exc:
        cls.from_text(f" {bad} ")
    assert str(exc.value) == f"malformed {what} text: {bad!r}"


@pytest.mark.parametrize(
    "cls,what,good", [(Diagram, "diagram", "1,1"), (Filling, "filling", "1,1,1")]
)
def test_a_group_of_the_wrong_width_names_its_type(cls, what, good):
    for group in ("1", "1,2,3,4"):
        with pytest.raises(ValueError) as exc:
            cls.from_text(f"{good};{group}")
        assert str(exc.value) == f"malformed {what} cell {group!r}"


def test_a_letter_below_one_is_malformed_word_text():
    with pytest.raises(ValueError) as exc:
        Word.from_text(" 0 ")
    assert str(exc.value) == "malformed word text: '0'"
