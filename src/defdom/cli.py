"""Command-line interface.

Subcommands: solve, verify, oracle, bubbles, gen, bench.  Instance files use
the formats documented in defdom.io.  Parse and validation failures exit
with status 2 and a one-line diagnostic; verify exits 1 when the defenders
fail, reporting the first undefended consecutive attack.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys

from . import io as dio
from .bubbles import (
    CompactBubbles,
    LinearBubbles,
    bubbles_from_pig,
    check_expansion,
    linear_from_compact,
    pig_from_bubbles,
)
from .bubble_solver import solve_bubble
from .defense import Attack, defends_consecutive, first_undefended_attack
from .errors import BadParameters, DefdomError, TooLarge
from .generators import (
    _family_sizes,
    compact_for_family,
    gen_family,
    gen_random_bubbles,
    gen_random_unit_intervals,
    random_unit_intervals,
)
from .greedy import solve_greedy
from .oracle import MINIMUM_CAP, min_defensive_bruteforce
from .bench import bench_rows, rows_to_csv
from .pig import ProperIntervalGraph


#: Answer lines formatted into one string per write: few writes, a bounded buffer.
_ANSWER_CHUNK = 1024
_COMMA = re.compile(",")
#: A defenders file separates vertices by commas and by whitespace as ``str.split()``
#: reads it: ``\s`` matches exactly the characters ``str.isspace`` accepts.
_FILE_SEPARATOR = re.compile(r"[\s,]")
_FILE_TOKEN = re.compile(r"[^\s,]+")


def _load(path: str):
    """The parsed payload: a ProperIntervalGraph, or CompactBubbles for a bubbles file."""
    with open(path, "rb") as fh:
        return dio.parse_instance(fh.read())[1]


def _graph(payload) -> ProperIntervalGraph:
    """The vertex-level graph; a compact structure is expanded to n vertices."""
    return pig_from_bubbles(payload) if isinstance(payload, CompactBubbles) else payload


def _model(payload) -> LinearBubbles:
    """The linear bubble model, read straight off a compact structure."""
    if isinstance(payload, CompactBubbles):
        return linear_from_compact(payload)
    return bubbles_from_pig(payload)


def _defender_text(args) -> str:
    """The whole text of ``--defenders``, or of ``--defenders-file`` (``-`` for stdin)."""
    if args.defenders_file is None:
        return args.defenders
    if args.defenders_file == "-":
        return sys.stdin.read()
    with open(args.defenders_file, encoding="utf-8") as fh:
        return fh.read()


def _defender_tokens(text: str, in_file: bool) -> list[str]:
    """The whole text's tokens, split once: ``--defenders`` at commas, a file at
    commas and whitespace, after its optional ``size=N`` line, whose N must
    match the count.  Built only to name the first fault."""
    if not in_file:
        return text.split(",")
    tokens = text.replace(",", " ").split()
    if tokens and tokens[0].startswith("size="):
        size = tokens.pop(0)[5:]
        if size != str(len(tokens)):
            raise BadParameters(f"defenders file says size={size} but lists {len(tokens)} vertices")
    return tokens


def _file_slices(path: str):
    """The slices (``defdom.io._slices``) of a named file, read a slice's
    length at a time and each read finished to the end of its line, so a file
    of many lines is never held whole."""
    with open(path, encoding="utf-8") as fh:
        while part := fh.read(dio._SLICE):
            yield from dio._slices(part + fh.readline(), _FILE_SEPARATOR)


def _sliced_ints(args, text: str | None) -> tuple[str | None, list[int]]:
    """A file's ``size=N`` value (None without that line) and the vertices,
    converted into one int list a slice at a time: slices of ``text``, or of
    the named file when ``text`` is None.  Each slice's tokens are freed
    before the next slice is split."""
    in_file = args.defenders_file is not None
    size, head, out = None, in_file, []
    sep = _FILE_SEPARATOR if in_file else _COMMA
    for part in dio._slices(text, sep) if text is not None else _file_slices(args.defenders_file):
        if head and (first := _FILE_TOKEN.search(part)):
            head = False
            if first[0].startswith("size="):
                size, part = first[0][5:], part[first.end() :]
        out += map(int, part.replace(",", " ").split() if in_file else part.split(","))
    return size, out


def _defenders(args, n: int) -> list[int]:
    """The defenders in ascending order, duplicates kept (the verifier's own
    dedupe is the only one).  They are converted slice by slice into one int
    list (``_sliced_ints``), sorted and range-checked at its two ends, so no
    token list of the whole text is built, and a regular file of many lines
    is never held whole.  On any failure, a bad token, a wrong ``size=N`` or
    bad UTF-8, the whole text is read and split once and the per-token loop
    names the first fault."""
    named = args.defenders_file not in (None, "-") and os.path.isfile(args.defenders_file)
    text = None if named else _defender_text(args)  # a pipe or stdin is read once, whole
    if args.defenders_file is None and (not text or text.isspace()):
        return []
    try:
        size, out = _sliced_ints(args, text)
    except ValueError:
        pass
    else:
        out.sort()
        if (size is None or size == str(len(out))) and (not out or (1 <= out[0] and out[-1] <= n)):
            return out
        del out
    text = _defender_text(args) if text is None else text
    for part in _defender_tokens(text, args.defenders_file is not None):  # name the first fault
        try:
            v = int(part)
        except ValueError:
            raise BadParameters(f"defender {part.strip()!r} is not a vertex number") from None
        if not 1 <= v <= n:
            raise BadParameters(f"defender {v} outside 1..{n}")
    raise AssertionError("the sliced pass refused no defender")


def _sizes(text: str) -> list[int]:
    """``--sizes`` as ints; a bad token is reported against the option."""
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise BadParameters(f"--sizes needs comma-separated integers, got {text!r}") from None


def _cmd_solve(args, out) -> int:
    payload = _load(args.input)
    # expanded before anything is printed, so a refused expansion prints nothing
    g = _graph(payload) if args.algo == "greedy" or args.emit_defense else None
    if args.algo == "bubble":
        lbm = _model(payload)
        del payload  # the input goes once the model is built, the model once the solve returns
        result = solve_bubble(lbm, args.k)
        del lbm
    else:
        result = solve_greedy(g, args.k)
    out.write(f"size={len(result)}\n")
    for i in range(0, len(result), _ANSWER_CHUNK):
        chunk = tuple(result[i : i + _ANSWER_CHUNK])
        out.write("%d\n" * len(chunk) % chunk)
    if args.emit_defense:
        ds = tuple(result)
        m = min(args.k, g.n)
        for i in range(1, g.n - m + 2):
            a = Attack(i, i + m - 1)
            defense = defends_consecutive(g, ds, a)
            body = " ".join(f"{d}>{x}" for d, x in defense)
            print(f"defense {a.first}..{a.last}: {body}", file=out)
    return 0


def _cmd_verify(args, out) -> int:
    payload = _load(args.input)
    # a compact structure is verified on its bubble model, never expanded
    g = linear_from_compact(payload) if isinstance(payload, CompactBubbles) else payload
    del payload  # a compact payload goes once its model is built
    defenders = _defenders(args, g.n)
    bad = first_undefended_attack(g, defenders, args.k)
    if bad is None:
        print("OK", file=out)
        return 0
    print(f"FAIL {bad}", file=out)
    return 1


def _cmd_oracle(args, out) -> int:
    payload = _load(args.input)
    if payload.n > MINIMUM_CAP:  # before a compact file is expanded
        raise TooLarge(payload.n, MINIMUM_CAP)
    g = _graph(payload)
    size, witness = min_defensive_bruteforce(g.n, g.edges(), args.k)
    print(f"size={size}", file=out)
    for v in witness:
        print(v, file=out)
    return 0


def _cmd_bubbles(args, out) -> int:
    lbm = _model(_load(args.input))
    if args.dot:
        print("digraph bubbles {", file=out)
        print("  rankdir=LR;", file=out)
        for i in range(lbm.count):
            print(f'  B{i + 1} [label="B{i + 1}({lbm.sizes[i]})" shape=box];', file=out)
        for i in range(lbm.count):
            target = lbm.reach[i]
            if target != i + 1:
                print(f"  B{i + 1} -> B{target};", file=out)
        print("}", file=out)
        return 0
    for i in range(lbm.count):
        print(
            f"{i + 1} {lbm.sizes[i]} {lbm.min_v[i]}..{lbm.max_v[i]} "
            f"{lbm.min_nbr[i]} {lbm.max_nbr[i]}",
            file=out,
        )
    return 0


def _cmd_gen(args, out) -> int:
    sizes = _sizes(args.sizes) if args.sizes else None
    if args.family == "random" and (args.n is None or args.n < 1):
        raise BadParameters("random instances need --n >= 1")
    if args.family == "clique_chain":
        # checked first, so a bad list gets the same message in every format
        sizes = _family_sizes(args.family, args.n, sizes)
    # Only a compact complete graph or clique chain is written without a per-vertex loop.
    if args.format != "bubbles" or args.family in ("path", "random"):
        n = sum(sizes) - len(sizes) + 1 if args.family == "clique_chain" else args.n
        if n is not None:
            check_expansion(n, f"generated {args.family} instance")
    if args.format == "bubbles":
        if args.family == "random":
            cb = gen_random_bubbles(args.n, seed=args.seed)
        else:
            cb = compact_for_family(args.family, args.n, sizes)
        text = dio.format_bubbles(cb)
    elif args.format == "intervals":
        if args.family == "random":
            entries = random_unit_intervals(args.n, args.spread, args.seed)
        else:
            entries = gen_family(args.family, args.n, sizes).canonical_intervals()
        text = dio.format_intervals(entries)
    else:
        if args.family == "random":
            g = gen_random_unit_intervals(args.n, args.spread, args.seed)
        else:
            g = gen_family(args.family, args.n, sizes)
        text = dio.format_pig(g)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        out.write(text)
    return 0


def _cmd_bench(args, out) -> int:
    sizes = _sizes(args.sizes)
    if args.repeats < 1:
        raise BadParameters("bench needs --repeats >= 1")
    if min(sizes) < 1:
        raise BadParameters("bench needs every size >= 1")
    for n in sizes:
        check_expansion(n, f"benchmark {args.family} instance")
    rows = bench_rows(args.family, sizes, args.k, args.repeats)
    out.write(rows_to_csv(rows))
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: building it costs more than a parse."""
    p = argparse.ArgumentParser(prog="defdom", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="solve an instance")
    sp.add_argument("--input", required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--algo", choices=("greedy", "bubble"), default="greedy")
    sp.add_argument("--emit-defense", action="store_true")
    sp.set_defaults(fn=_cmd_solve)

    sp = sub.add_parser("verify", help="check a defender set")
    sp.add_argument("--input", required=True)
    sp.add_argument("--k", type=int, required=True)
    src = sp.add_mutually_exclusive_group(required=True)
    src.add_argument("--defenders", help="comma separated vertices")
    src.add_argument("--defenders-file", metavar="PATH", help="vertices from a file, or - for stdin")
    sp.set_defaults(fn=_cmd_verify)

    sp = sub.add_parser("oracle", help="brute-force minimum (small instances)")
    sp.add_argument("--input", required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.set_defaults(fn=_cmd_oracle)

    sp = sub.add_parser("bubbles", help="print the linear bubble model")
    sp.add_argument("--input", required=True)
    sp.add_argument("--dot", action="store_true")
    sp.set_defaults(fn=_cmd_bubbles)

    sp = sub.add_parser("gen", help="write an instance")
    sp.add_argument("--family", required=True, choices=("path", "complete", "clique_chain", "random"))
    sp.add_argument("--n", type=int)
    sp.add_argument("--sizes", help="clique sizes for clique_chain, comma separated")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--spread", default="2")
    sp.add_argument("--format", choices=("pig", "intervals", "bubbles"), default="pig")
    sp.add_argument("--output")
    sp.set_defaults(fn=_cmd_gen)

    sp = sub.add_parser("bench", help="time both solvers, CSV on stdout")
    sp.add_argument("--family", required=True, choices=("path", "complete", "clique_chain", "random"))
    sp.add_argument("--sizes", required=True, help="comma separated vertex counts")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--repeats", type=int, default=1)
    sp.set_defaults(fn=_cmd_bench)
    return p


def run(argv, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args, out)
    except (DefdomError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=err)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
