"""Command-line front end.

Each command returns its ``--json`` payload and its plain lines, and ``main``
alone prints them and picks the exit code: 0 on success, 1 on malformed
input, 2 when a verification run reports a failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from pathlib import Path

from .bijection import tableau_to_word, word_to_tableau
from .diagrams import Filling, permutation_of_diagram
from .graphs import (
    DEFAULT_VERTEX_BUDGET,
    MODELS,
    build_graph,
    diameter,
    export_records,
    lookup_model,
    shortest_paths,
)
from .perms import Permutation
from .tableaux import (
    column_inversions,
    flip,
    is_balanced,
    min_inv_w0,
    psi,
    tab_inversions,
    tab_permutation,
)
from .verify import run_suite
from .words import (
    Word,
    pairing_permutation,
    super_word,
    word_inversions,
    word_to_permutation,
    yang_baxter_count,
)


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; malformed input is 1 here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _budget(text: str) -> int:
    """A vertex budget: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer of at least 1, not {text!r}")
    return value


def _read_word(text: str) -> Word:
    rho = Word.from_text(text)
    if max(rho, default=0) > DEFAULT_VERTEX_BUDGET:  # a letter k acts on k+1 points
        raise ValueError(f"letter {max(rho)} is over the limit of {DEFAULT_VERTEX_BUDGET}")
    return rho


def _read_tableau(path: str) -> Filling:
    text = Path(path).read_text()
    filling = Filling.from_text(text)
    far = max((max(cell) for cell in filling.cells), default=0)
    if far > DEFAULT_VERTEX_BUDGET:  # a cell in row or column k needs more than k points
        raise ValueError(
            f"tableau in {path} has a cell in row or column {far}, "
            f"over the limit of {DEFAULT_VERTEX_BUDGET}"
        )
    if not is_balanced(filling):
        raise ValueError(f"tableau in {path} is not balanced")
    permutation_of_diagram(filling.diagram)  # rejects non-Rothe shapes
    return filling


def _tableau_payload(f: Filling) -> tuple[dict, list[str]]:
    """f's text and picture, and its lines: the text, then each picture row
    (none if f is empty).  The picture is refused when its grid is past the
    vertex budget."""
    top, right = (max(axis) for axis in zip((0, 0), *f.cells))  # (0, 0) if f is empty
    if top * right > DEFAULT_VERTEX_BUDGET:
        raise ValueError(
            f"a picture of {top} rows and {right} columns is over the limit of "
            f"{DEFAULT_VERTEX_BUDGET} positions"
        )
    text, display = f.to_text(), f.render()
    return {"tableau": text, "display": display}, [text] + (display.split("\n") if display else [])


def _cmd_enumerate(args) -> tuple[dict, list[str]]:
    w = Permutation.from_text(args.w)
    m = lookup_model(args.model)
    elements = [e.to_text() for e in sorted(m.elements(w), key=m.order)]
    return {"w": str(w), "model": args.model, "elements": elements}, elements


def _cmd_super(args) -> tuple[dict, list[str]]:
    w = Permutation.from_text(args.w)
    if (ell := w.length) > DEFAULT_VERTEX_BUDGET:  # the element has ell letters or cells
        raise ValueError(f"w has length {ell}, over the limit of {DEFAULT_VERTEX_BUDGET}")
    top = lookup_model(args.model).top(w)
    payload = {"w": str(w), "model": args.model, "element": top.to_text()}
    if args.model != "tableaux":
        return payload, [payload["element"]]
    shown, lines = _tableau_payload(top)  # a tableau also gets its picture
    return {**payload, "display": shown["display"]}, lines


def _cmd_inv(args) -> tuple[dict, None]:
    if args.word is not None:
        rho = _read_word(args.word)
        return {
            "inversions": word_inversions(rho),
            "permutation": str(pairing_permutation(rho)),
            "yang_baxter": yang_baxter_count(rho, super_word(word_to_permutation(rho))),
        }, None
    t = _read_tableau(args.tableau)
    return {
        "inversions": tab_inversions(t),
        "permutation": str(tab_permutation(t)),
        "yang_baxter": column_inversions(t),
    }, None


def _cmd_dist(args) -> tuple[dict, None]:
    w = Permutation.from_text(args.w)
    parse = lookup_model(args.model).type.from_text
    a, b = parse(args.src), parse(args.dst)
    g = build_graph(w, args.model, max_vertices=args.budget)
    g.index_of(a)  # both ends are looked up, a first, before the search
    ib = g.index_of(b)
    dist, braids = shortest_paths(g, a)
    if dist[ib] < 0:
        raise ValueError("vertices are not connected")
    return {"distance": dist[ib], "min_braids": braids[ib]}, None


def _cmd_diameter(args) -> tuple[dict, list[str]]:
    value = min_inv_w0(args.n)  # refuses a rank below 1 in every mode
    if not args.formula:
        g = build_graph(Permutation.longest(args.n), "words", max_vertices=args.budget)
        value = diameter(g, w0_shortcut=args.shortcut)
    return {"diameter": value}, [str(value)]


def _cmd_biject(args) -> tuple[dict, list[str]]:
    if args.word is not None:
        return _tableau_payload(word_to_tableau(_read_word(args.word)))
    word = str(tableau_to_word(_read_tableau(args.tableau)))
    return {"word": word}, [word]


def _cmd_tableau_map(args) -> tuple[dict, list[str]]:
    """flip or psi, whichever the subcommand set as ``tableau_map``."""
    return _tableau_payload(args.tableau_map(_read_tableau(args.tableau)))


def _cmd_graph(args) -> None:
    """Writes its document itself, each record as it is made."""
    w = Permutation.from_text(args.w)
    g = build_graph(w, args.model, max_vertices=args.budget)
    with open(args.output, "w") if args.output else nullcontext(sys.stdout) as out:
        out.writelines(export_records(g, args.format))
        out.write("\n")


def _cmd_verify(args) -> tuple[dict, list[str]]:
    results = run_suite(args.n)
    ok = all(r.passed for r in results)
    payload = {
        "n": args.n,
        "passed": ok,
        "checks": [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results],
    }
    lines = [r.line() for r in results]
    lines.append(f"RESULT: {'PASS' if ok else 'FAIL'} ({len(results)} checks, n={args.n})")
    return payload, lines


def _build_parser() -> _Parser:
    # SUPPRESS keeps a --json given before the subcommand from being reset
    # by the subparser's default when it parses the remaining arguments.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json",
        action="store_true",
        default=argparse.SUPPRESS,
        help="machine-readable output",
    )

    # The permutation and model of the commands that work on one element.
    element = argparse.ArgumentParser(add_help=False)
    element.add_argument("-w", required=True, help="permutation, e.g. 4,2,1,5,3")
    element.add_argument("--model", choices=tuple(MODELS), default="words")

    # The vertex budget of the commands that build a move graph.
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--budget", type=_budget, default=DEFAULT_VERTEX_BUDGET)

    parser = _Parser(prog="redwords", parents=[common])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", parents=[common, element], help="list R(w) or the balanced tableaux of w")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("super", parents=[common, element], help="the super-Yamanouchi word or tableau")
    p.set_defaults(func=_cmd_super)

    p = sub.add_parser("inv", parents=[common], help="inversion number, permutation, Yang-Baxter count")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--word", help="comma-separated letters")
    group.add_argument("--tableau", help="file holding a tableau text form")
    p.set_defaults(func=_cmd_inv)

    p = sub.add_parser("dist", parents=[common, element, budget], help="BFS distance and minimum braid count")
    p.add_argument("--from", dest="src", required=True, help="start element text form")
    p.add_argument("--to", dest="dst", required=True, help="end element text form")
    p.set_defaults(func=_cmd_dist)

    p = sub.add_parser("diameter", parents=[common, budget], help="diameter of the move graph of the longest permutation")
    p.add_argument("-n", type=int, required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true", help="build the graph and measure (default)")
    mode.add_argument("--formula", action="store_true", help="closed form, no graph")
    mode.add_argument(
        "--shortcut",
        action="store_true",
        help="measure only between the super element and its complement",
    )
    p.set_defaults(func=_cmd_diameter)

    p = sub.add_parser("biject", parents=[common], help="convert across the word/tableau bijection")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--word")
    group.add_argument("--tableau")
    p.set_defaults(func=_cmd_biject)

    p = sub.add_parser("flip", parents=[common], help="transpose-complement involution")
    p.add_argument("--tableau", required=True)
    p.set_defaults(func=_cmd_tableau_map, tableau_map=flip)

    p = sub.add_parser("psi", parents=[common], help="entry complement on the longest permutation")
    p.add_argument("--tableau", required=True)
    p.set_defaults(func=_cmd_tableau_map, tableau_map=psi)

    p = sub.add_parser("graph", parents=[common, element, budget], help="export the move graph")
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("verify", parents=[common], help="exhaustive brute-force checks over S_n")
    p.add_argument("-n", type=int, required=True)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command.  A command without lines prints one ``key: value``
    line per payload field; ``graph`` writes its own document."""
    args = _build_parser().parse_args(argv)
    try:
        output = args.func(args)
        if output is None:
            return 0
        payload, lines = output
        if getattr(args, "json", False):
            lines = [json.dumps(payload, indent=2)]
        elif lines is None:
            lines = [f"{key}: {value}" for key, value in payload.items()]
        for line in lines:
            print(line)
    except (ValueError, OSError) as exc:
        print(f"redwords: error: {exc}", file=sys.stderr)
        return 1
    return 2 if payload.get("passed") is False else 0  # only verify reports "passed"


if __name__ == "__main__":
    sys.exit(main())
