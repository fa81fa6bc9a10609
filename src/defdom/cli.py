"""Command-line interface.

Subcommands: solve, verify, oracle, bubbles, gen, bench.  defdom.io reads the
instance files and defender lists, in the formats it documents.  Refused input
exits with status 2 and a one-line diagnostic; verify exits 1 when the
defenders fail, reporting the first undefended consecutive attack.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import sys
from bisect import bisect_left

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


def _defenders(args, n: int) -> list[int]:
    """``--defenders``, or the ``--defenders-file`` (``-``: stdin), read by ``defdom.io.read_defenders``."""
    if args.defenders_file is None:
        return dio.read_defenders(args.defenders, n)
    if args.defenders_file == "-":
        return dio.read_defenders(sys.stdin.buffer, n)
    with open(args.defenders_file, "rb") as fh:
        return dio.read_defenders(fh, n)


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
        del payload  # the greedy reads only the graph
        result = solve_greedy(g, args.k)
    if not args.emit_defense:
        del g  # nothing reads the graph while the answer is written
    dio.write_answer(out, result)
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
    _, witness = min_defensive_bruteforce(g.n, g.edges(), args.k)
    dio.write_answer(out, witness)
    return 0


def _cmd_bubbles(args, out) -> int:
    lbm = _model(_load(args.input))
    if args.dot:
        print("digraph bubbles {", file=out)
        print("  rankdir=LR;", file=out)
        for i in range(lbm.count):
            print(f'  B{i + 1} [label="B{i + 1}({lbm.sizes[i]})" shape=box];', file=out)
        for i, hi in enumerate(lbm.max_nbr):
            target = bisect_left(lbm.max_v, hi)  # the bubble that ends i's neighborhood
            if target != i:
                print(f"  B{i + 1} -> B{target + 1};", file=out)
        print("}", file=out)
        return 0
    min_v, min_nbr = lbm.min_v, lbm.min_nbr  # derived on every read, so read once
    for i in range(lbm.count):
        print(
            f"{i + 1} {lbm.sizes[i]} {min_v[i]}..{lbm.max_v[i]} "
            f"{min_nbr[i]} {lbm.max_nbr[i]}",
            file=out,
        )
    return 0


def _cmd_gen(args, out) -> int:
    # a family reads either --n or --sizes, never both, so the other is refused, not dropped
    if args.sizes is not None and args.family != "clique_chain":
        raise BadParameters(f"--sizes is for --family clique_chain only, not {args.family}")
    if args.n is not None and args.family == "clique_chain":
        raise BadParameters("--family clique_chain takes its size from --sizes, not --n")
    # --seed and --spread default to None, so a given one can be told from the default
    if args.family != "random":
        for option in ("seed", "spread"):
            if getattr(args, option) is not None:
                raise BadParameters(f"--{option} is for --family random only, not {args.family}")
    elif args.spread is not None and args.format == "bubbles":
        raise BadParameters("--spread is for --format pig or intervals only, not bubbles")
    seed = 0 if args.seed is None else args.seed
    spread = "2" if args.spread is None else args.spread
    sizes = _sizes(args.sizes) if args.sizes else None
    if args.family == "random" and (args.n is None or args.n < 1):
        raise BadParameters("random instances need --n >= 1")
    if args.format == "bubbles":
        if args.family == "random":
            cb = gen_random_bubbles(args.n, seed=seed)
        else:
            cb = compact_for_family(args.family, args.n, sizes)
        text = dio.format_bubbles(cb)
    elif args.format == "intervals":
        if args.family == "random":
            entries = random_unit_intervals(args.n, spread, seed)
        else:
            entries = gen_family(args.family, args.n, sizes).canonical_intervals()
        text = dio.format_intervals(entries)
    else:
        if args.family == "random":
            g = gen_random_unit_intervals(args.n, spread, seed)
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


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors raise BadParameters, so ``run``
    reports them as one ``error:`` line with the other refusals."""

    def error(self, message):
        raise BadParameters(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: building it costs more than a parse."""
    p = _Parser(prog="defdom", description=__doc__)
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
    sp.add_argument("--n", type=int, help="vertex count for path, complete and random")
    sp.add_argument("--sizes", help="clique sizes for clique_chain, comma separated")
    sp.add_argument("--seed", type=int, help="for random (default 0)")
    sp.add_argument("--spread", help="for random in pig and intervals format (default 2)")
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
    try:
        with contextlib.redirect_stdout(out):  # argparse prints --help to sys.stdout
            args = _build_parser().parse_args(argv)
        return args.fn(args, out)
    except SystemExit as exc:  # --help, printed by argparse
        return int(exc.code or 0)
    except (DefdomError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=err)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
