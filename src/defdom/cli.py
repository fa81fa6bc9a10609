"""Command-line interface.

Subcommands: solve, verify, oracle, bubbles, gen, bench.  Instance files use
the formats documented in defdom.io.  Parse and validation failures exit
with status 2 and a one-line diagnostic; verify exits 1 when the defenders
fail, reporting the first undefended consecutive attack.
"""

from __future__ import annotations

import argparse
import functools
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


def _defender_tokens(args) -> list[str]:
    """``--defenders`` split at commas, or the vertices of ``--defenders-file``.

    A file (``-`` for stdin) holds comma- or whitespace-separated vertices,
    optionally after ``solve``'s ``size=N`` line, whose N must match the count.
    """
    if args.defenders_file is None:
        return args.defenders.split(",") if args.defenders.strip() else []
    if args.defenders_file == "-":
        text = sys.stdin.read()
    else:
        with open(args.defenders_file, encoding="utf-8") as fh:
            text = fh.read()
    tokens = text.replace(",", " ").split()
    if tokens and tokens[0].startswith("size="):
        size = tokens.pop(0)[5:]
        if size != str(len(tokens)):
            raise BadParameters(f"defenders file says size={size} but lists {len(tokens)} vertices")
    return tokens


def _defenders(args, n: int) -> set[int]:
    out = set()
    for part in _defender_tokens(args):  # the token list is freed after the loop
        try:
            v = int(part)
        except ValueError:
            raise BadParameters(f"defender {part.strip()!r} is not a vertex number") from None
        if not 1 <= v <= n:
            raise BadParameters(f"defender {v} outside 1..{n}")
        out.add(v)
    return out


def _cmd_solve(args, out) -> int:
    payload = _load(args.input)
    # expanded before anything is printed, so a refused expansion prints nothing
    g = _graph(payload) if args.algo == "greedy" or args.emit_defense else None
    if args.algo == "bubble":
        result = solve_bubble(_model(payload), args.k)
    else:
        result = solve_greedy(g, args.k)
    out.write(f"size={len(result)}\n")
    out.writelines(f"{v}\n" for v in result)
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
    g = _graph(_load(args.input))
    defenders = _defenders(args, g.n)
    bad = first_undefended_attack(g, defenders, args.k)
    if bad is None:
        print("OK", file=out)
        return 0
    print(f"FAIL {bad}", file=out)
    return 1


def _cmd_oracle(args, out) -> int:
    g = _graph(_load(args.input))
    if g.n > MINIMUM_CAP:
        raise TooLarge(g.n, MINIMUM_CAP)
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
    sizes = [int(x) for x in args.sizes.split(",")] if args.sizes else None
    if args.family == "random" and (args.n is None or args.n < 1):
        raise BadParameters("random instances need --n >= 1")
    # Only a compact complete graph or clique chain is written without a per-vertex loop.
    if args.format != "bubbles" or args.family in ("path", "random"):
        n = sum(sizes) - len(sizes) + 1 if args.family == "clique_chain" and sizes else args.n
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
    sizes = [int(x) for x in args.sizes.split(",")]
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
