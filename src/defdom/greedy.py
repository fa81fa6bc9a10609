"""Left-to-right greedy solver for minimum k-defensive dominating sets.

Slides a window of at most k consecutive attackers over the canonical vertex
order; whenever the current defenders cannot cover the window, the rightmost
non-defender in the window's neighborhood is recruited.  The feasibility
check is the rightmost monotone scan, so one iteration costs work
proportional to k and a whole run to n*k.
"""

from __future__ import annotations

from typing import Callable, Optional

from .errors import EmptyGraph
from .pig import ProperIntervalGraph


class SkipDown:
    """Largest free position at or below a query point.

    Positions start free; ``occupy`` removes one.  Path-compressed pointers
    keep queries near constant amortized.
    """

    __slots__ = ("parent",)

    def __init__(self, n):
        self.parent = list(range(n + 1))

    def find(self, x):
        p = self.parent
        root = x
        while p[root] != root:
            root = p[root]
        while p[x] != root:
            p[x], x = root, p[x]
        return root

    def occupy(self, x):
        self.parent[x] = x - 1


def solve_greedy(
    g: ProperIntervalGraph,
    k: int,
    stats: Optional[dict] = None,
    on_step: Optional[Callable[[int, tuple], None]] = None,
) -> list[int]:
    """Minimum set of defenders covering every attack of at most k vertices.

    Disconnected graphs are solved one component at a time: no window
    reaches left of its component, and a component of at most k vertices
    is required whole.  ``stats`` collects instrumentation counters;
    ``on_step`` is called after each window with the defenders chosen so far.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if g.n == 0:
        raise EmptyGraph("cannot solve on an empty graph")
    maxn, minn = g.maxn, g.minn
    n = g.n
    # Defenders as a position-indexed list of predecessors, ascending order.
    # Defenders of earlier components lie below every neighborhood of the
    # current one, so the scan fails on them exactly as on an empty list.
    dprev = [0] * (n + 2)
    dtail = 0
    spare = SkipDown(n)
    steps = 0
    result = []
    for lo, hi in g.components():
        if hi - lo + 1 <= k:
            # An attack on the whole component pins every vertex.
            result.extend(range(lo, hi + 1))
            continue
        for j in range(lo, hi + 1):
            i = max(lo, j - k + 1)
            ok = True
            ptr = dtail  # the largest defender never exceeds maxn[j]
            x = j
            while x >= i:
                steps += 1
                while ptr and ptr > maxn[x]:
                    ptr = dprev[ptr]
                    steps += 1
                if not ptr or ptr < minn[x]:
                    ok = False
                    break
                ptr = dprev[ptr]
                x -= 1
            if not ok:
                jp = spare.find(maxn[j])
                assert jp >= minn[i], "no recruit available inside the window neighborhood"
                spare.occupy(jp)
                if jp > dtail:
                    dprev[jp] = dtail
                    dtail = jp
                else:
                    # Everything from jp+1 up to maxn[j] is already a defender.
                    dprev[jp] = dprev[jp + 1]
                    dprev[jp + 1] = jp
                result.append(jp)
            if on_step is not None:
                on_step(j, tuple(sorted(result)))
    if stats is not None:
        stats.update(defense_steps=steps, additions=len(result))
    result.sort()
    return result
