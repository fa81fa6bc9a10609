"""Left-to-right greedy solver for minimum k-defensive dominating sets.

Slides a window of at most k consecutive attackers over the canonical vertex
order; whenever the current defenders cannot cover the window, the rightmost
non-defender in the window's neighborhood is recruited.  The defenders are
one ascending list, and the window check pairs attackers with the largest
defenders in order, so one window costs work proportional to k and a whole
run to n*k.
"""

from __future__ import annotations

from bisect import insort
from typing import Callable, Optional

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
    on_step: Optional[Callable[[int, list], None]] = None,
) -> list[int]:
    """Minimum set of defenders covering every attack of at most k vertices.

    Window [i..j] is checked by the rightmost monotone defense: attacker x
    takes the (j-x+1)-th largest defender, and the window fails at the first
    attacker whose defender is missing or below its neighborhood.  No
    defender above max_nbr(x) ever has to be skipped: window j' recruits at
    most one defender, at or below max_nbr(j'), so each one above max_nbr(x)
    came from one of windows x+1..j-1.  At most j-1-x of them exceed
    max_nbr(x), while x is offered the (j-x+1)-th largest.  A recruit lies
    at or above min_nbr(i), so inserting it shifts only defenders inside the
    window's neighborhood.

    Disconnected graphs are solved one component at a time: no window
    reaches left of its component, and a component of at most k vertices
    is required whole.  Defenders of earlier components lie below every
    neighborhood of the current one, so the check fails on them exactly as
    on missing ones.  ``stats`` collects instrumentation counters;
    ``on_step`` is called after each window with the defenders chosen so far:
    the solver's own ascending list, the same object on every call and the
    one returned.  The hook must not change it, and must copy it to keep a
    snapshot.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    maxn, minn = g.maxn, g.minn
    spare = SkipDown(g.n)
    steps = 0
    ds: list[int] = []
    for lo, hi in g.components():
        if hi - lo + 1 <= k:
            # An attack on the whole component pins every vertex.
            ds.extend(range(lo, hi + 1))
            continue
        for j in range(lo, hi + 1):
            i = max(lo, j - k + 1)
            x, p = j, len(ds) - 1
            while x >= i and p >= 0 and ds[p] >= minn[x]:
                x -= 1
                p -= 1
            if x >= i:  # attacker x has no defender
                steps += j - x + 1
                jp = spare.find(maxn[j])
                assert jp >= minn[i], "no recruit available inside the window neighborhood"
                spare.occupy(jp)
                insort(ds, jp)
            else:
                steps += j - x
            if on_step is not None:
                on_step(j, ds)
    if stats is not None:
        stats.update(defense_steps=steps, additions=len(ds))
    return ds
