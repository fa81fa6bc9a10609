"""Benchmark harness shared by the CLI and the acceptance suite."""

from __future__ import annotations

import time
from fractions import Fraction
from typing import Optional

from .bubbles import bubbles_from_pig
from .bubble_solver import solve_bubble
from .errors import BadParameters
from .generators import gen_family, gen_random_unit_intervals
from .greedy import solve_greedy
from .pig import ProperIntervalGraph

SEED_BASE = 0x5EED

CSV_HEADER = "instance,n,bubbles,k,algo,nanoseconds,defense_steps,heap_ops,list_ops"


#: Clique size of the benchmark's clique chains.
CHAIN_CLIQUE = 8


def chain_sizes_for(n: int) -> list[int]:
    """Clique sizes whose unit-overlap chain has exactly n vertices.

    A chain of m cliques of size c = ``CHAIN_CLIQUE`` covers m*(c-1) + 1
    vertices; a shorter final clique absorbs the remainder.
    """
    if n < 2:
        return [max(n, 1)]
    m, r = divmod(n - 1, CHAIN_CLIQUE - 1)
    sizes = [CHAIN_CLIQUE] * m
    if r:
        sizes.append(r + 1)
    return sizes


def build_instance(family: str, n: int, rep: int) -> ProperIntervalGraph:
    if family == "random":
        # Spread 1/16: each vertex meets about 32 others, and the draw is
        # redrawn until connected, so the solvers do window work at any k.
        return gen_random_unit_intervals(
            n, spread=Fraction(1, 16), seed=SEED_BASE + 1000 * rep + n, connected=True
        )
    return gen_family(family, n, chain_sizes_for(n) if family == "clique_chain" else None)


def run_once(g: ProperIntervalGraph, k: int, algo: str, bubbles: Optional[int] = None) -> dict:
    """Time one solve in wall and thread CPU time; returns counters plus the defender count.

    Every row reports the instance's bubble count.  A bubble solve counts
    them itself; a greedy row takes ``bubbles`` when the caller already
    knows it, and otherwise builds the bubble model, untimed, to count them.
    """
    stats: dict = {}
    c0, t0 = time.thread_time_ns(), time.perf_counter_ns()
    if algo == "greedy":
        result = solve_greedy(g, k, stats=stats)
    elif algo == "bubble":
        # The model build is part of the measured pipeline.
        result = solve_bubble(bubbles_from_pig(g), k, stats=stats)
    else:
        raise BadParameters(f"unknown algorithm {algo!r}")
    ns = time.perf_counter_ns() - t0
    cpu_ns = time.thread_time_ns() - c0
    if algo == "bubble":
        bubbles = stats["bubbles"]
    elif bubbles is None:
        bubbles = bubbles_from_pig(g).count
    # segments joining plus leaving the defense, under both of the CSV's names
    heap_ops = stats.get("heap_inserts", 0) + stats.get("heap_deletes", 0)
    return {
        "n": g.n,
        "bubbles": bubbles,
        "k": k,
        "algo": algo,
        "nanoseconds": ns,
        "cpu_ns": cpu_ns,
        "defense_steps": stats.get("defense_steps", 0),
        "heap_ops": heap_ops,
        "list_ops": heap_ops,
        "size": len(result),
    }


def bench_rows(family: str, sizes, k: int, repeats: int) -> list[dict]:
    rows = []
    for n in sizes:
        for rep in range(repeats):
            g = build_instance(family, n, rep)
            # the bubble solve counts the bubbles the greedy row reports
            rb = run_once(g, k, "bubble")
            rg = run_once(g, k, "greedy", bubbles=rb["bubbles"])
            for row in (rg, rb):
                row["instance"] = f"{family}-n{n}-r{rep}"
                rows.append(row)
    return rows


def rows_to_csv(rows) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r['instance']},{r['n']},{r['bubbles']},{r['k']},{r['algo']},"
            f"{r['nanoseconds']},{r['defense_steps']},{r['heap_ops']},{r['list_ops']}"
        )
    return "\n".join(lines) + "\n"
