"""Benchmark harness shared by the CLI and the acceptance suite."""

from __future__ import annotations

import time
from fractions import Fraction

from .bubbles import bubbles_from_pig
from .bubble_solver import solve_bubble
from .errors import BadParameters
from .generators import gen_family, gen_random_unit_intervals
from .greedy import solve_greedy
from .pig import ProperIntervalGraph

SEED_BASE = 0x5EED

CSV_HEADER = "instance,n,bubbles,k,algo,nanoseconds,defense_steps,heap_ops,list_ops"


def chain_sizes_for(n: int, clique: int = 8) -> list[int]:
    """Clique sizes whose unit-overlap chain has exactly n vertices.

    A chain of m cliques of size c covers m*(c-1) + 1 vertices; a shorter
    final clique absorbs the remainder.
    """
    if n < 2:
        return [max(n, 1)]
    m, r = divmod(n - 1, clique - 1)
    sizes = [clique] * m
    if r:
        sizes.append(r + 1)
    return sizes


def build_instance(family: str, n: int, rep: int) -> ProperIntervalGraph:
    if family == "path":
        return gen_family("path", n)
    if family == "complete":
        return gen_family("complete", n)
    if family == "clique_chain":
        return gen_family("clique_chain", sizes=chain_sizes_for(n))
    if family == "random":
        return gen_random_unit_intervals(n, spread=Fraction(1, 2), seed=SEED_BASE + 1000 * rep + n)
    raise BadParameters(f"unknown benchmark family {family!r}")


def run_once(g: ProperIntervalGraph, k: int, algo: str) -> dict:
    """Time one solve; returns counters plus the defender count."""
    stats: dict = {}
    t0 = time.perf_counter_ns()
    if algo == "greedy":
        result = solve_greedy(g, k, stats=stats)
    elif algo == "bubble":
        # The model build is part of the measured pipeline.
        result = solve_bubble(bubbles_from_pig(g), k, stats=stats)
    else:
        raise BadParameters(f"unknown algorithm {algo!r}")
    ns = time.perf_counter_ns() - t0
    return {
        "n": g.n,
        "bubbles": stats["bubbles"] if algo == "bubble" else bubbles_from_pig(g).count,
        "k": k,
        "algo": algo,
        "nanoseconds": ns,
        "defense_steps": stats.get("defense_steps", 0),
        "heap_ops": stats.get("heap_inserts", 0) + stats.get("heap_deletes", 0),
        "list_ops": stats.get("list_ops", 0),
        "size": len(result),
    }


def bench_rows(family: str, sizes, k: int, repeats: int) -> list[dict]:
    rows = []
    for n in sizes:
        for rep in range(repeats):
            g = build_instance(family, n, rep)
            for algo in ("greedy", "bubble"):
                row = run_once(g, k, algo)
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
