"""Left-to-right greedy solver for minimum k-defensive dominating sets.

Slides a window of at most k consecutive attackers over the canonical vertex
order; whenever the current defenders cannot cover the window, the rightmost
non-defender in the window's neighborhood, read off a stack of defender runs,
is recruited.  Each window is decided by Hall's condition on its consecutive
sub-ranges, of which only those ending at the new window end are new, with a
monotone deque over their starts and one forward pointer into the ascending
defenders.  A run costs O(n + |D|) Python steps for every k, plus at most
one bisect per recruit.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Optional

from .pig import ProperIntervalGraph


def solve_greedy(
    g: ProperIntervalGraph,
    k: int,
    stats: Optional[dict] = None,
    on_step: Optional[Callable[[int, list], None]] = None,
) -> list[int]:
    """Minimum set of defenders covering every attack of at most k vertices.

    Window [i..j] is decided by Hall's condition (see
    ``first_undefended_attack``): with cnt(x) the number of defenders at
    most x, it fails exactly when some a in [i..j] has
    v(a) = cnt(min_nbr(a)-1) - a  >=  cnt(max_nbr(j)) - j.
    Sub-ranges ending before j lie inside window j-1, which was made to hold,
    and defenders are never removed, so only the sub-ranges [a..j] are new.
    Every defender so far was recruited at or below the max_nbr of an
    earlier window, so cnt(max_nbr(j)) is simply the number of defenders.
    cnt(min_nbr(j)-1) is one forward pointer into the ascending defenders
    that compares the next defender's maxn with j, as d < min_nbr(j) exactly
    when max_nbr(d) < j, and a monotone deque keeps the strict suffix maxima
    of v over the window, so its front is the largest.  min_nbr never
    decreases, so v(a+1) >= v(a) - 1, and between two neighbouring deque
    entries e < f every a in (e..j] has v(a) <= v(f) < v(e): so
    v(f) = v(e) - 1.  The deque's values are thus front, front-1, ..., tail,
    and it stores positions only.

    One recruit repairs a failing window.  Each [a..j-1] held, and
    max_nbr(j) >= max_nbr(j-1), so [a..j] lacks at most one defender, and
    [j..j] lacks at most one too.  The recruit is the rightmost spare at or
    below max_nbr(j), which no defender exceeds: max_nbr(j) itself, or the
    vertex just below the top run of consecutive defenders, whose starts a
    stack keeps.  As asserted, it is at or above min_nbr(i), so it lies in
    [min_nbr(a)..max_nbr(j)] for every a of the window.  It raises the
    right-hand side by one; when it lies below min_nbr(j) it also raises
    v(a) by one exactly on the deque suffix a > max_nbr(recruit), the a with
    min_nbr(a) above it, found by bisect.  The entry just before that suffix
    then ties with the suffix's first entry and leaves, by a C-level ``del``
    of at most min(k, n) entries, and the values run without gaps again.
    A suffix that took in the front would leave the window failing; the
    check after each recruit asserts that it holds.

    Work: each window pushes one entry and each entry leaves once, and the
    pointer passes each defender once.  A recruit costs one ``insert``,
    whose C-level shift moves only the top run, a stack pop and push at
    most, and, below min_nbr(j), one bisect and one suffix add.  The deque's
    dead front is dropped once it outgrows the live part, so its list stays
    near 2*min(k, n) entries; the stack holds at most |D|, so nothing of
    length n is allocated beyond the answer.  ``stats`` receives
    ``defense_steps``: pointer moves plus suffix adds, pushes and removals,
    read off the final sizes, so the loop pays nothing for it.  It is at most
    2n + |D| whatever k is.

    Disconnected graphs need no split.  A sub-range crossing a component
    gap is deficient only if its part in j's component is, which is itself
    a sub-range of the window, so every recruit lies in j's component, and
    a component of at most k vertices is recruited whole by its windows.
    ``stats`` also receives ``additions``, the number of defenders;
    ``on_step`` is called after each window, once per vertex, with the
    defenders chosen so far: the solver's own ascending list, the same
    object on every call and the one returned.  The hook must not change
    it, and must copy it to keep a snapshot.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    n, maxn = g.n, g.maxn
    ds: list[int] = []
    starts: list[int] = []  # the first vertex of each run of consecutive defenders
    # p counts the defenders below min_nbr(j), the d with maxn[d] < j; nm is
    # the maxn of the next defender, or n + 1.
    p = nd = 0
    nm = n + 1
    # Deque of window positions a, live from index h: the strict suffix
    # maxima of v over the window, whose values run front, front-1, ...,
    # tail.  The first front lies below every v, so the first push starts
    # the deque.
    q: list[int] = []
    h = 0
    front = tail = -n - 1
    for j in range(1, n + 1):
        while nm < j:
            p += 1
            nm = maxn[ds[p]] if p < nd else n + 1
        v = p - j
        if v >= front:  # every live entry leaves
            q.clear()
            h = 0
            front = v
        elif v >= tail:  # the entries valued tail..v leave
            del q[tail - v - 1 :]
        q.append(j)
        tail = v
        if q[h] <= j - k:  # slid out of the window
            h += 1
            front -= 1
            if h > len(q) - h + 32:  # drop the dead prefix, amortized O(1)
                del q[:h]
                h = 0
        if front >= nd - j:
            jp = maxn[j]
            r = nd
            if nd and ds[-1] >= jp:  # maxn(j) ends the top run: take the spare below it
                jp = starts[-1] - 1
                r = nd - ds[-1] + jp
            assert jp and maxn[jp] > j - k, "no recruit available inside the window neighborhood"
            ds.insert(r, jp)
            if r < nd:  # the top run grows down to jp
                starts.pop()
            if not r or ds[r - 1] < jp - 1:  # jp starts a run
                starts.append(jp)
            nd += 1
            if maxn[jp] < j:  # below min_nbr(j)
                p += 1
                tail += 1
                s = bisect_right(q, maxn[jp], h)
                if s > h:  # the entry before the suffix now ties with it
                    del q[s - 1]
                else:
                    front += 1
            elif r == p:  # the next defender
                nm = maxn[jp]
            assert front < nd - j, "the recruit did not repair the window"
        if on_step is not None:
            on_step(j, ds)
    steps = p + 2 * n - (len(q) - h)
    if stats is not None:
        stats.update(defense_steps=steps, additions=len(ds))
    return ds
