import hashlib
import json
import os
import time

import pytest

from redwords import Filling, Permutation, build_graph, export, super_tableau
from redwords.cli import main

from conftest import WORD_GRID_42153


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_words(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "-w", "4,2,1,5,3")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 11
    assert set(lines) == {
        ",".join(map(str, letters)) for letters in WORD_GRID_42153.values()
    }


def test_enumerate_deep_input(capsys):
    w = ",".join(map(str, [*range(2, 1202), 1]))
    code, out, _ = run_cli(capsys, "enumerate", "-w", w)
    assert code == 0
    assert out.splitlines() == [",".join(map(str, range(1200, 0, -1)))]


def test_enumerate_json_matches_plain(capsys):
    code, plain, _ = run_cli(capsys, "enumerate", "-w", "4,2,1,5,3")
    code2, as_json, _ = run_cli(capsys, "enumerate", "--json", "-w", "4,2,1,5,3")
    assert code == code2 == 0
    payload = json.loads(as_json)
    assert payload["elements"] == plain.splitlines()
    assert payload["w"] == "4,2,1,5,3"
    assert payload["model"] == "words"
    # the global flag also works ahead of the subcommand
    _, early_flag, _ = run_cli(capsys, "--json", "enumerate", "-w", "4,2,1,5,3")
    assert json.loads(early_flag) == payload


def test_enumerate_tableaux(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "-w", "4,2,1,5,3", "--model", "tableaux")
    assert code == 0
    assert len(out.splitlines()) == 11
    assert "1,1,3;1,2,2;1,3,1;2,1,4;4,3,5" in out.splitlines()


def test_super_word(capsys):
    code, out, _ = run_cli(capsys, "super", "-w", "4,1,7,5,8,2,3,6")
    assert code == 0
    assert out.strip() == "5,6,7,4,5,3,4,5,6,1,2,3"


def test_super_tableau_shows_rendering(capsys):
    code, out, _ = run_cli(capsys, "super", "-w", "4,2,1,5,3", "--model", "tableaux")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "1,1,3;1,2,2;1,3,1;2,1,4;4,3,5"
    assert lines[1:] == ["    5", "", "4", "3 2 1"]
    _, as_json, _ = run_cli(
        capsys, "super", "--json", "-w", "4,2,1,5,3", "--model", "tableaux"
    )
    payload = json.loads(as_json)
    assert payload["element"] == lines[0]
    assert payload["display"].splitlines() == lines[1:]


def test_inv_word(capsys):
    code, out, _ = run_cli(capsys, "inv", "--word", "5,6,3,4,5,7,3,1,4,2,3,6")
    assert code == 0
    assert out.splitlines() == [
        "inversions: 11",
        "permutation: 2,3,5,1,8,9,10,4,6,7,11,12",
        "yang_baxter: 2",
    ]
    _, as_json, _ = run_cli(
        capsys, "inv", "--json", "--word", "5,6,3,4,5,7,3,1,4,2,3,6"
    )
    payload = json.loads(as_json)
    assert payload == {
        "inversions": 11,
        "permutation": "2,3,5,1,8,9,10,4,6,7,11,12",
        "yang_baxter": 2,
    }


def test_inv_tableau(tmp_path, capsys):
    path = tmp_path / "tableau.txt"
    path.write_text(
        "1,1,5;1,2,3;1,3,2;3,2,9;3,3,8;3,5,10;3,6,1;4,2,6;4,3,4;5,2,12;5,3,11;5,6,7\n"
    )
    code, out, _ = run_cli(capsys, "inv", "--tableau", str(path))
    assert code == 0
    assert out.splitlines() == [
        "inversions: 11",
        "permutation: 2,3,5,1,8,9,10,4,6,7,11,12",
        "yang_baxter: 2",
    ]


def test_inv_reads_its_element_once(tmp_path, capsys):
    """``inv --word`` replays its word once, for all three lines, and
    ``inv --tableau`` walks its tableau's cells once, for both counts; the
    output is the one the other ``inv`` tests pin."""
    from redwords.tableaux import _rows_and_braids
    from redwords.words import _replay

    expected = "inversions: 11\npermutation: 2,3,5,1,8,9,10,4,6,7,11,12\nyang_baxter: 2\n"
    path = tmp_path / "tableau.txt"
    path.write_text(
        "1,1,5;1,2,3;1,3,2;3,2,9;3,3,8;3,5,10;3,6,1;4,2,6;4,3,4;5,2,12;5,3,11;5,6,7\n"
    )
    for memo, source in (
        (_replay, ["--word", "5,6,3,4,5,7,3,1,4,2,3,6"]),
        (_rows_and_braids, ["--tableau", str(path)]),
    ):
        before = memo.cache_info()
        assert run_cli(capsys, "inv", *source) == (0, expected, "")
        after = memo.cache_info()
        assert (after.misses - before.misses, after.currsize - before.currsize) == (1, 1)
        assert after.hits > before.hits


def test_inv_of_the_empty_word_and_the_empty_tableau(tmp_path, capsys):
    """Both empty elements print the same payload: rank 0, the empty
    permutation and no braid."""
    path = tmp_path / "empty.txt"
    path.write_text("")
    plain = "inversions: 0\npermutation: \nyang_baxter: 0\n"
    as_json = '{\n  "inversions": 0,\n  "permutation": "",\n  "yang_baxter": 0\n}\n'
    for source in (["--word", ""], ["--tableau", str(path)]):
        assert run_cli(capsys, "inv", *source) == (0, plain, "")
        assert run_cli(capsys, "inv", "--json", *source) == (0, as_json, "")


def test_inv_rejects_unbalanced_tableau(tmp_path, capsys):
    path = tmp_path / "tableau.txt"
    path.write_text("1,1,5;1,2,3;1,3,2;2,1,1;4,3,4\n")
    code, _, err = run_cli(capsys, "inv", "--tableau", str(path))
    assert code == 1
    assert "not balanced" in err


_TABLEAU_REFUSALS = {
    "entry_twice": ("1,1,1;2,1,1", "entries are not a bijection onto 1..2"),
    "entry_out_of_range": ("1,1,2", "entries are not a bijection onto 1..1"),
    "not_rothe": ("1,2,1", "cell set is not the diagram of a permutation"),
    "unbalanced": ("1,1,1;1,2,2", "tableau in {path} is not balanced"),
    "not_rothe_and_unbalanced": ("1,2,1;1,3,2", "tableau in {path} is not balanced"),
}


@pytest.mark.parametrize(
    "command,text,message",
    [
        # inv's cases carry the bare class name
        pytest.param(command, text, message, id=name if command == "inv" else f"{command}-{name}")
        for command in ("inv", "biject", "flip", "psi")
        for name, (text, message) in _TABLEAU_REFUSALS.items()
    ],
)
def test_inv_tableau_refusals_keep_their_messages(tmp_path, capsys, command, text, message):
    """Each command that reads a tableau file refuses it naming the first
    failing check in the order balance, then shape, as the checks
    themselves word it."""
    path = tmp_path / "tableau.txt"
    path.write_text(text + "\n")
    assert run_cli(capsys, command, "--tableau", str(path)) == (
        1,
        "",
        f"redwords: error: {message.format(path=path)}\n",
    )


def test_dist(capsys):
    code, out, _ = run_cli(
        capsys,
        "dist",
        "-w", "4,3,2,1",
        "--from", "1,2,1,3,2,1",
        "--to", "1,3,2,1,3,2",
    )
    assert code == 0
    assert out.splitlines() == ["distance: 4", "min_braids: 2"]
    _, as_json, _ = run_cli(
        capsys,
        "dist", "--json",
        "-w", "4,3,2,1",
        "--from", "1,2,1,3,2,1",
        "--to", "1,3,2,1,3,2",
    )
    assert json.loads(as_json) == {"distance": 4, "min_braids": 2}


def test_dist_tableau_model(capsys):
    top = super_tableau(Permutation([4, 3, 2, 1]))
    from redwords import psi

    bottom = psi(top)
    code, out, _ = run_cli(
        capsys,
        "dist",
        "-w", "4,3,2,1",
        "--model", "tableaux",
        "--from", top.to_text(),
        "--to", bottom.to_text(),
    )
    assert code == 0
    assert out.splitlines()[0] == "distance: 7"


def test_diameter_exact_and_formula_agree(capsys):
    code, exact, _ = run_cli(capsys, "diameter", "-n", "4", "--exact")
    code2, formula, _ = run_cli(capsys, "diameter", "-n", "4", "--formula")
    assert code == code2 == 0
    assert exact == formula == "7\n"
    _, shortcut, _ = run_cli(capsys, "diameter", "-n", "4", "--shortcut")
    assert shortcut == "7\n"
    _, as_json, _ = run_cli(capsys, "diameter", "--json", "-n", "4")
    assert json.loads(as_json) == {"diameter": 7}


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["dist", "-w", "4,3,2,1", "--from", "1,2,1,3,2,1", "--to", "1,3,2,1,3,2"], "distance: 4\nmin_braids: 2\n"),
        (
            ["dist", "-w", "4,3,2,1", "--model", "tableaux",
             "--from", "1,1,3;1,2,2;1,3,1;2,1,5;2,2,4;3,1,6", "--to", "1,1,4;1,2,5;1,3,6;2,1,2;2,2,3;3,1,1"],
            "distance: 7\nmin_braids: 4\n",
        ),
        (["diameter", "-n", "5"], "25\n"),
        (["diameter", "-n", "5", "--shortcut"], "25\n"),
    ],
)
def test_distance_commands_make_no_rank_call(capsys, rank_calls, argv, expected):
    assert run_cli(capsys, *argv) == (0, expected, "")
    assert rank_calls == []


@pytest.mark.skipif(
    os.environ.get("REDWORDS_STRESS") != "1",
    reason="rank-6 stress run; set REDWORDS_STRESS=1 to enable",
)
def test_diameter_exact_at_rank_6_stress(capsys):
    """The exact diameter, with no shortcut, finishes at rank 6."""
    assert run_cli(capsys, "diameter", "-n", "6") == (0, "65\n", "")


def test_biject_round_trip(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "biject", "--word", "5,6,3,4,5,7,3,1,4,2,3,6")
    assert code == 0
    tableau_text = out.splitlines()[0]
    path = tmp_path / "t.txt"
    path.write_text(tableau_text + "\n")
    code, word_out, _ = run_cli(capsys, "biject", "--tableau", str(path))
    assert code == 0
    assert word_out.strip() == "5,6,3,4,5,7,3,1,4,2,3,6"


def test_flip_and_psi(tmp_path, capsys):
    top = super_tableau(Permutation([4, 3, 2, 1]))
    path = tmp_path / "top.txt"
    path.write_text(top.to_text() + "\n")

    code, out, _ = run_cli(capsys, "psi", "--tableau", str(path))
    assert code == 0
    assert out.splitlines()[0] == "1,1,4;1,2,5;1,3,6;2,1,2;2,2,3;3,1,1"

    code, out, _ = run_cli(capsys, "flip", "--tableau", str(path))
    assert code == 0
    assert Filling.from_text(out.splitlines()[0]) == Filling(
        {(1, 1): 4, (1, 2): 2, (1, 3): 1, (2, 1): 5, (2, 2): 3, (3, 1): 6}
    )


def test_tableau_commands_json_matches_plain(tmp_path, capsys):
    top = super_tableau(Permutation([4, 3, 2, 1]))
    path = tmp_path / "top.txt"
    path.write_text(top.to_text() + "\n")
    for command in ("flip", "psi"):
        _, plain, _ = run_cli(capsys, command, "--tableau", str(path))
        _, as_json, _ = run_cli(capsys, command, "--json", "--tableau", str(path))
        payload = json.loads(as_json)
        assert plain.splitlines() == [payload["tableau"]] + payload[
            "display"
        ].splitlines()
    _, plain, _ = run_cli(capsys, "biject", "--tableau", str(path))
    _, as_json, _ = run_cli(capsys, "biject", "--json", "--tableau", str(path))
    assert plain.splitlines() == [json.loads(as_json)["word"]]


def test_psi_rejects_non_staircase(tmp_path, capsys):
    path = tmp_path / "t.txt"
    path.write_text(super_tableau(Permutation([4, 2, 1, 5, 3])).to_text())
    code, _, err = run_cli(capsys, "psi", "--tableau", str(path))
    assert code == 1
    assert "longest" in err


def test_psi_error_names_the_rank_not_the_permutation(tmp_path, capsys):
    """One cell at (20000, 20000) is of a permutation of rank 20001, whose
    one-line form alone would be over 100 KB."""
    path = tmp_path / "t.txt"
    path.write_text("20000,20000,1")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "psi", "--tableau", str(path))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert "rank 20001" in err
    assert len(err.encode()) < 200


@pytest.mark.parametrize(
    "command", [["biject", "--word", "2"], ["super", "--model", "tableaux", "-w", "1,3,2"]]
)
def test_plain_picture_keeps_an_empty_bottom_row(capsys, command):
    """The picture of 2,2,1 is its one cell over an empty bottom row."""
    _, plain, _ = run_cli(capsys, *command)
    _, as_json, _ = run_cli(capsys, *command[:1], "--json", *command[1:])
    display = json.loads(as_json)["display"]
    assert display == "  1\n"
    assert plain.split("\n")[1:-1] == display.split("\n")


def test_graph_dot(capsys):
    code, out, _ = run_cli(capsys, "graph", "-w", "4,3,2,1", "--format", "dot")
    assert code == 0
    assert out.splitlines()[0] == "graph {"
    assert out.count(" -- ") == 18


def test_graph_json_to_file(tmp_path, capsys):
    target = tmp_path / "graph.json"
    code, out, _ = run_cli(
        capsys, "graph", "-w", "4,3,2,1", "--format", "json", "-o", str(target)
    )
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert len(payload["vertices"]) == 16
    assert len(payload["edges"]) == 18
    assert {"u", "v", "move"} <= set(payload["edges"][0])


@pytest.mark.parametrize("model", ["words", "tableaux"])
@pytest.mark.parametrize("fmt", ["dot", "json"])
def test_graph_writes_the_export_and_a_newline(tmp_path, capsys, model, fmt):
    g = build_graph(Permutation([4, 2, 1, 5, 3]), model)
    command = ["graph", "-w", "4,2,1,5,3", "--model", model, "--format", fmt]
    assert run_cli(capsys, *command) == (0, export(g, fmt) + "\n", "")
    target = tmp_path / "graph.out"
    assert run_cli(capsys, *command, "-o", str(target)) == (0, "", "")
    assert target.read_text() == export(g, fmt) + "\n"


def test_graph_opens_its_output_only_after_the_build(tmp_path, capsys):
    target = tmp_path / "graph.out"
    code, _, err = run_cli(capsys, "graph", "-w", "4,3,2,1", "--budget", "3", "-o", str(target))
    assert code == 1
    assert "budget" in err
    assert not target.exists()


@pytest.mark.parametrize("budget", ["0", "-1", "abc", "1.5"])
@pytest.mark.parametrize(
    "command",
    [
        ["dist", "-w", "7,6,5,4,3,2,1", "--from", "1", "--to", "1"],
        ["diameter", "-n", "7"],
        ["graph", "-w", "7,6,5,4,3,2,1"],
    ],
)
def test_budget_below_one_is_refused_as_read(capsys, command, budget):
    """A budget below 1, or not an integer, is a usage error when the
    arguments are read, before any of the 1,100,742,656 elements is
    enumerated."""
    start = time.monotonic()
    with pytest.raises(SystemExit) as exc:
        main([*command, "--budget", budget])
    elapsed = time.monotonic() - start
    captured = capsys.readouterr()
    assert exc.value.code == 1
    assert elapsed < 1.0
    assert captured.out == ""
    assert captured.err.startswith(f"usage: redwords {command[0]} ")
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert errors == [
        f"redwords {command[0]}: error: argument --budget: "
        f"must be an integer of at least 1, not '{budget}'"
    ]


def test_graph_budget_exceeded(capsys):
    code, _, err = run_cli(capsys, "graph", "-w", "4,3,2,1", "--budget", "3")
    assert code == 1
    assert "budget" in err


def test_verify_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "-n", "2")
    assert code == 0
    lines = out.splitlines()
    assert all(line.startswith("CHECK ") for line in lines[:-1])
    assert all(": PASS" in line for line in lines[:-1])
    assert lines[-1].startswith("RESULT: PASS")


def test_verify_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--json", "-n", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 2
    assert payload["passed"] is True
    assert all(check["passed"] for check in payload["checks"])


# sha256 of `verify --json -n k` stdout: the report's names, order, verdicts
# and details are pinned byte for byte, however the suite is organised.
VERIFY_JSON_SHA256 = {
    1: "c810678db23e028f50021165525a69113dfab0c4ec0db0978f119eddcfce32d7",
    2: "ca5eec909db1b5a62b299a73d369a68b956d56ae1766efd96a0ee379cd8adb4a",
    3: "feca7c592058363e3d9fb4886f8d9f7b8f5fa14c66d2a16dd07997e5a94d77a2",
    4: "85a6346e26612107521edfd85ae1b81237ef61d0bf0962f1efb64d9d0194078f",
    5: "44fa35daa807439dfb895924962556a54eea2a8486351e6f34d663529cf2717d",
}


def _verify_json_digest(capsys, n):
    code, out, _ = run_cli(capsys, "verify", "--json", "-n", str(n))
    assert code == 0
    return hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_verify_json_is_pinned(capsys, n):
    assert _verify_json_digest(capsys, n) == VERIFY_JSON_SHA256[n]


@pytest.mark.skipif(
    os.environ.get("REDWORDS_STRESS") != "1",
    reason="rank-5 stress run; set REDWORDS_STRESS=1 to enable",
)
def test_verify_json_is_pinned_at_rank_5_stress(capsys):
    assert _verify_json_digest(capsys, 5) == VERIFY_JSON_SHA256[5]


def test_malformed_input_exits_one(capsys):
    code, _, err = run_cli(capsys, "enumerate", "-w", "4,2")
    assert code == 1
    assert "error" in err

    code, _, err = run_cli(capsys, "inv", "--word", "1,x")
    assert code == 1

    code, _, err = run_cli(capsys, "inv", "--tableau", "/nonexistent/file.txt")
    assert code == 1


def test_unknown_tableau_is_shown_as_typed(capsys):
    code, _, err = run_cli(
        capsys, "dist", "-w", "2,1", "--model", "tableaux", "--from", "1,1,1", "--to", "1,1,2"
    )
    assert code == 1
    assert "vertex not in graph: 1,1,2" in err


def test_dist_looks_up_both_ends_before_searching(capsys, monkeypatch):
    from redwords import graphs

    runs = []
    honest = graphs._bfs
    monkeypatch.setattr(graphs, "_bfs", lambda *args: runs.append(args) or honest(*args))
    for src, message in [("1,2,1,3,2,1", "9,9"), ("8,8", "8,8")]:
        code, _, err = run_cli(capsys, "dist", "-w", "4,3,2,1", "--from", src, "--to", "9,9")
        assert code == 1
        assert f"vertex not in graph: {message}" in err
    assert runs == []


def test_dist_parses_both_ends_before_building(capsys, monkeypatch):
    """A malformed endpoint is refused before the graph is built; a
    malformed permutation is still reported ahead of it."""
    import redwords.cli

    def no_build(*args, **kwargs):
        raise AssertionError("build_graph called")

    monkeypatch.setattr(redwords.cli, "build_graph", no_build)
    for w, src, message in [("6,5,4,3,2,1", "x", "malformed word text: 'x'"), ("1,1", "x", "not a bijection")]:
        code, out, err = run_cli(capsys, "dist", "-w", w, "--from", src, "--to", "1")
        assert code == 1
        assert out == ""
        assert message in err


def test_dist_reports_vertices_that_are_not_connected(capsys, monkeypatch):
    from redwords import bijection

    monkeypatch.setattr(bijection.Move, "on_word", lambda move, word: word)  # no edges
    code, out, err = run_cli(capsys, "dist", "-w", "3,2,1", "--from", "1,2,1", "--to", "2,1,2")
    assert code == 1
    assert out == ""
    assert err == "redwords: error: vertices are not connected\n"


def test_malformed_tableau_file_exits_one(tmp_path, capsys):
    path = tmp_path / "tableau.txt"
    path.write_text("1,x,1")
    code, _, err = run_cli(capsys, "inv", "--tableau", str(path))
    assert code == 1
    assert "malformed filling text: '1,x,1'" in err


@pytest.mark.parametrize(
    "command,letter",
    [("inv", "99999999999999999999"), ("biject", "99999999999999999999"), ("inv", "1000000000000")],
)
def test_oversize_word_letter_exits_one(capsys, command, letter):
    """A letter past the vertex budget is refused before any kernel runs,
    not ended in an OverflowError or MemoryError traceback."""
    code, out, err = run_cli(capsys, command, "--word", f"1,{letter},2")
    assert code == 1
    assert out == ""
    assert err == f"redwords: error: letter {letter} is over the limit of 1000000\n"


@pytest.mark.parametrize("command", ["inv", "biject", "flip", "psi"])
def test_oversize_tableau_cell_exits_one(tmp_path, capsys, command):
    """A one-cell tableau at row 10^8 is refused up front instead of running
    until killed."""
    path = tmp_path / "tableau.txt"
    path.write_text("100000000,1,1")
    code, out, err = run_cli(capsys, command, "--tableau", str(path))
    assert code == 1
    assert out == ""
    assert err == (
        f"redwords: error: tableau in {path} has a cell in row or column 100000000, "
        "over the limit of 1000000\n"
    )


@pytest.mark.parametrize(
    "command,rows,cols",
    [
        (["biject", "--word", "1001"], 1001, 1001),
        (["super", "--model", "tableaux", "-w", ",".join(map(str, [*range(1, 1001), 1002, 1001]))], 1001, 1001),
        (["flip", "--tableau"], 20000, 20000),
        (["biject", "--json", "--word", "2,1,3000"], 3000, 3000),
    ],
    ids=["biject", "super", "flip", "biject --json"],
)
def test_picture_past_the_budget_is_refused(tmp_path, capsys, command, rows, cols):
    """A picture of more than 10^6 positions is refused before it is drawn;
    a one-cell tableau at (20000, 20000) drew 4 * 10**8 of them."""
    if command[-1] == "--tableau":
        path = tmp_path / "tableau.txt"
        path.write_text("20000,20000,1")
        command = [*command, str(path)]
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *command)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert err == (
        f"redwords: error: a picture of {rows} rows and {cols} columns is over "
        "the limit of 1000000 positions\n"
    )


@pytest.mark.parametrize("model", ["words", "tableaux"])
def test_super_refuses_a_length_past_the_budget_before_building(capsys, model):
    """The super element of w has w.length letters or cells; w0 of rank 1415
    has 1,000,405, refused before any is made."""
    w0 = ",".join(map(str, range(1415, 0, -1)))
    start = time.perf_counter()
    result = run_cli(capsys, "super", "-w", w0, "--model", model)
    assert time.perf_counter() - start < 1.0
    assert result == (1, "", "redwords: error: w has length 1000405, over the limit of 1000000\n")


def test_super_at_a_length_within_the_budget_is_printed(capsys):
    code, out, err = run_cli(capsys, "super", "-w", ",".join(map(str, range(1414, 0, -1))))
    assert (code, err) == (0, "")
    letters = out.rstrip("\n").split(",")
    assert len(letters) == 998_991  # the length of w0 of rank 1414
    assert letters[:4] == ["1413", "1412", "1413", "1411"]
    assert out.count("\n") == 1


def test_picture_at_the_budget_is_drawn(capsys):
    code, out, _ = run_cli(capsys, "biject", "--word", "1000")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "1000,1000,1"
    assert lines[1] == " " * 1998 + "1"  # 1000 columns, one space apart
    assert len(lines) == 1001  # the text, then 1000 rows, all but the top empty


@pytest.mark.parametrize("n", ["-2", "0"])
@pytest.mark.parametrize("mode", [[], ["--exact"], ["--formula"], ["--shortcut"]])
def test_diameter_refuses_a_rank_below_one(capsys, n, mode):
    assert run_cli(capsys, "diameter", "-n", n, *mode) == (
        1,
        "",
        "redwords: error: rank must be positive\n",
    )


@pytest.mark.parametrize("model", ["words", "tableaux"])
@pytest.mark.parametrize(
    "command",
    [["enumerate"], ["super"], ["dist", "--from", "", "--to", ""], ["graph"], ["graph", "--format", "json"]],
    ids=lambda c: " ".join(c),
)
def test_commands_on_the_rank_0_permutation(capsys, command, model):
    """``-w ""`` is the empty permutation, whose one element is empty."""
    code, out, err = run_cli(capsys, *command[:1], "-w", "", "--model", model, *command[1:])
    assert (code, err) == (0, "")
    if command[0] in ("enumerate", "super"):
        assert out == "\n"
    elif command[0] == "dist":
        assert out == "distance: 0\nmin_braids: 0\n"


def test_diameter_shortcut_excludes_formula(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["diameter", "-n", "4", "--formula", "--shortcut"])
    assert exc.value.code == 1
    assert "not allowed with argument" in capsys.readouterr().err


def test_usage_error_exits_one():
    with pytest.raises(SystemExit) as exc:
        main(["enumerate"])  # missing -w
    assert exc.value.code == 1


def test_enumerate_deep_input_tableaux(capsys):
    w = ",".join(map(str, [*range(2, 1202), 1]))
    code, out, _ = run_cli(capsys, "enumerate", "-w", w, "--model", "tableaux")
    assert code == 0
    assert out.splitlines() == [";".join(f"{r},1,{r}" for r in range(1, 1201))]
