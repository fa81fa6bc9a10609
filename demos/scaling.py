#!/usr/bin/env python3
"""Watch the two solvers scale: counted work next to wall-clock time.

The window solver checks each window by Hall's condition and does work
proportional to n + |D| for every k (its counted steps stay at most
2(n + |D|)); the bubble solver counts its work in bubble events: segments
entering and leaving the defense, at most 2|B|, and loop iterations, at
most 2|B| + 3.

Run:  python demos/scaling.py
"""

from defdom.bench import build_instance, run_once

print(f"{'family':<13}{'n':>8}{'k':>5}{'|B|':>8}  {'greedy':>10}  {'bubble':>10}   greedy steps/(n+|D|)")
for family in ("path", "clique_chain", "random"):
    for n in (2_000, 20_000):
        for k in (4, 64):
            g = build_instance(family, n, 0)
            rb = run_once(g, k, "bubble")
            rg = run_once(g, k, "greedy", bubbles=rb["bubbles"])
            assert rg["size"] == rb["size"]
            print(
                f"{family:<13}{n:>8}{k:>5}{rb['bubbles']:>8}"
                f"  {rg['nanoseconds'] / 1e6:>8.1f}ms"
                f"  {rb['nanoseconds'] / 1e6:>8.1f}ms"
                f"   {rg['defense_steps'] / (n + rg['size']):.2f}"
            )

print("\nbubble-solver accounting, clique chain n=20000, k=64:")
import defdom as dd

g = build_instance("clique_chain", 20_000, 0)
stats = {}
dd.solve_bubble(dd.bubbles_from_pig(g), 64, stats=stats)
B = stats["bubbles"]
print(f"  bubbles                 {B}")
print(f"  segments in + out       {stats['heap_inserts'] + stats['heap_deletes']}  (bound: 2|B| = {2 * B})")
print(f"  main-loop iterations    {stats['iterations']}  (bound: 2|B|+3 = {2 * B + 3})")
print(f"  merge re-keys           {stats['merge_touches']}")
