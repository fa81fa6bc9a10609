"""Left-to-right greedy solver for minimum k-defensive dominating sets.

Slides a window of at most k consecutive attackers over the canonical vertex
order; whenever the current defenders cannot cover the window, the rightmost
non-defender in the window's neighborhood, read off a stack of defender runs,
is recruited.  Each window is decided by Hall's condition on its consecutive
sub-ranges, of which only those ending at the new window end are new, with a
monotone deque over their starts and one forward pointer into the ascending
defenders.  A twin class wider than k makes two kinds of stretch: windows
that cannot fail, crossed in one jump, and windows that each fail and take
the next spare below the top run, recruited in one batch.  So a run costs
O(|D| + visited) Python steps for every k, visited being the windows decided
one at a time, plus at most one bisect per recruit, per jump and per batch.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Optional

from .pig import ProperIntervalGraph

_BATCH = 16  # the fewest windows a batch is tried for; see "Failing stretches" in solve_greedy


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
    right-hand side by one.  max_nbr(j) itself opens or extends the top run
    and reaches j, so it moves no v(a).  The spare below the top run moves
    the run's start down, or joins the run to the one below; when it lies
    below min_nbr(j) it also raises v(a) by one exactly on the deque suffix
    a > max_nbr(recruit), the a with min_nbr(a) above it, found by bisect.
    The entry just before that suffix
    then ties with the suffix's first entry and leaves, by a C-level ``del``
    of at most min(k, n) entries, and the values run without gaps again.
    A suffix that took in the front would leave the window failing; the
    check after each recruit asserts that it holds.

    Quiet stretches are jumped.  Let window j hold without a recruit.
    Through window stop = min(nm, n) no counted defender's maxn is passed,
    so p stays fixed, and each window only pushes its position, valued one
    below the tail, and slides at most one entry out.  The margin
    nd - j - front, positive exactly when the window holds, thus falls by
    one exactly at the windows that slide nothing out: the j' <= j + k
    whose position j' - k is not among the deque's live entries, at most
    k - live of them, as each window past j + k slides out an entry the
    stretch pushed.  So when the margin exceeds k - live, no window up to
    stop fails, and the solver goes there at once: the entries at or below
    stop - k leave by one bisect and one ``del``, which also drops the dead
    prefix; of j+1..stop only those above stop - k are pushed, by one
    ``extend``; tail is p - stop and the values run up to front without
    gaps.  That is the state the one-at-a-time loop reaches, and an assert
    checks the margin at stop.  A jump restarts the window loop and costs
    about five windows' steps, so it is taken only when nm - j exceeds
    max(k, 8).  A window that moved no pointer passes both deque-trimming
    tests with one, which pays for its jump test.

    Failing stretches are recruited in one batch.  Let window j recruit
    max_nbr(j).  Before a recruit front <= nd - j, as window j-1 held or front
    was reset to p - j, so a failing window had front = nd - j, and the margin
    nd - j - front is now exactly 1.  Let s be the top run's start and below
    the defender under it, or 0.  Window j+1 adds one attacker; if it moves no
    pointer and slides nothing out, the margin falls to 0 and the window fails.
    If it also shares max_nbr(j), which tops the top run, its recruit is s-1,
    and if max_nbr(s-1) >= j+1 that recruit moves neither p nor the deque, so
    the margin is 1 again.  Windows j+1..j+t thus fail in turn and take
    s-1, ..., s-t while t is at most the twin run's end - j, found by
    bisect, q[h] + k - 1 - j (nothing slides out), nm - j (no pointer moves)
    and s - 1 - below (the recruits stay spares), and while
    max_nbr(s-t) >= j+t.  max_nbr(s-t) falls as t grows and j+t rises, so
    the largest such t takes a few halvings at most.  The batch inserts s-1, ..., s-t by a bare ``insert`` loop, which
    grows the list as the window loop does (one slice assignment would
    over-allocate it differently), moves or pops the top run's start once,
    pushes j+1..j+t by one ``extend`` and lowers tail by t; front, h and p
    stay, and nm becomes max_nbr(s-t) only when the recruits are the next
    defenders.  An assert checks at j+t that the pointer and the deque front
    stay put and the margin is 1.  A batch restarts the window loop and costs
    about ten windows' steps, so it is tried only for a recruit of max_nbr(j)
    whose twin run and nm both reach at least _BATCH windows ahead, and so
    never when k <= _BATCH, as t < k.  With ``on_step``, the hook is called
    after each recruit of the batch.

    Work: each window decided one at a time pushes one entry and each entry
    leaves once, and the pointer passes each defender once.  A recruit costs
    one ``insert``, whose C-level shift moves only the top run, one stack
    push, pop or store, and, below min_nbr(j), one bisect and one suffix add;
    a jump costs one bisect and C-level work on at most min(k, n) entries,
    and a batch one bisect, at most log2(k) halvings and one ``insert`` per
    recruit.
    The deque's dead front is dropped once it outgrows the live part, so
    its list stays near 2*min(k, n) entries; the stack holds at most |D|,
    so nothing of length n is allocated beyond the answer.  ``stats``
    receives ``defense_steps``: pointer moves plus suffix adds, pushes and
    removals, counting each jumped or batched window's push, read off the
    final sizes, so the loop pays nothing for it.  It is at most 2n + |D|
    whatever k is.  ``visited`` is n less the jumped and batched windows, a
    running count only a jump or a batch adds to.

    Disconnected graphs need no split.  A sub-range crossing a component
    gap is deficient only if its part in j's component is, which is itself
    a sub-range of the window, so every recruit lies in j's component, and
    a component of at most k vertices is recruited whole by its windows.
    ``stats`` also receives ``additions``, the number of defenders;
    ``on_step`` is called after each window, once per vertex, jumped and
    batched windows included, with the defenders chosen so far: the
    solver's own ascending list, the same object on every call and the one
    returned.
    The hook must not change it, and must copy it to keep a snapshot.
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
    far = max(k, 8)  # a jump skips more windows than this, or is not taken
    gate = _BATCH if k > _BATCH else n + 1  # a batch is tried only past this many windows
    skipped = j = 0
    while j < n:
        for j in range(j + 1, n + 1):
            while nm < j:
                p += 1
                nm = maxn[ds[p]] if p < nd else n + 1
            v = p - j
            if v >= tail:  # the pointer moved
                if v >= front:  # every live entry leaves
                    q.clear()
                    h = 0
                    front = v
                else:  # the entries valued tail..v leave
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
                if nd and ds[-1] >= jp:  # maxn(j) ends the top run: take the spare below it
                    jp = starts[-1] - 1
                    r = nd - ds[-1] + jp
                    assert jp and maxn[jp] > j - k, "no recruit available inside the window neighborhood"
                    ds.insert(r, jp)
                    if r and ds[r - 1] == jp - 1:  # the top run joins the run below
                        starts.pop()
                    else:  # the top run grows down to jp
                        starts[-1] = jp
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
                else:  # maxn(j) itself, which reaches j, so it raises no v(a)
                    assert maxn[jp] >= j, "the recruit did not repair the window"
                    if not nd or ds[-1] < jp - 1:  # jp starts a run
                        starts.append(jp)
                    ds.append(jp)
                    if p == nd:  # the next defender
                        nm = maxn[jp]
                    nd += 1
                    if nm >= j + gate and jp >= j + gate and maxn[j + gate] == jp:
                        # Windows j+1..j+t may fail in turn and take s-1, ..., s-t.
                        s = starts[-1]
                        r = nd - 1 - jp + s  # the index of s in ds
                        below = ds[r - 1] if r else 0
                        twins = bisect_right(maxn, jp, j + gate, jp + 1) - 1  # the last window sharing maxn(j)
                        t = min(twins, q[h] + k - 1, nm, j + s - 1 - below) - j
                        if maxn[s - t] < j + t:  # the largest t whose last recruit reaches j + t
                            lo = 0
                            while t - lo > 1:
                                mid = (lo + t) // 2
                                if maxn[s - mid] >= j + mid:
                                    lo = mid
                                else:
                                    t = mid
                            t = lo
                        if t:
                            if on_step is None:
                                for x in range(s - 1, s - t - 1, -1):  # one at a time, so ds grows as in the loop
                                    ds.insert(r, x)
                            else:  # and every snapshot is the loop's
                                on_step(j, ds)
                                for i in range(1, t + 1):
                                    ds.insert(r, s - i)
                                    on_step(j + i, ds)
                            if r and below == s - t - 1:  # the top run joins the run below
                                starts.pop()
                            else:
                                starts[-1] = ds[r]  # the int ds holds, not a new one
                            if r == p:  # the next defender
                                nm = maxn[s - t]
                            nd += t
                            q.extend(range(j + 1, j + t + 1))
                            tail -= t
                            skipped += t
                            j += t
                            assert nm >= j and q[h] > j - k and front == nd - j - 1, "a batched window differs"
                            break
                assert front < nd - j, "the recruit did not repair the window"
            elif nm - j > far and nd - j - front > k - len(q) + h:  # no window up to nm fails
                # Jump over the quiet windows j+1..stop: the entries at or below
                # stop - k slide out, and of j+1..stop only those above it are pushed.
                stop = min(nm, n)
                del q[: bisect_right(q, stop - k, h)]
                h = 0
                q.extend(range(max(j, stop - k) + 1, stop + 1))
                tail = p - stop
                front = tail + len(q) - 1
                assert front < nd - stop, "a skipped window fails"
                if on_step is not None:
                    for i in range(j, stop + 1):  # window j's call, which the break skips, then each jumped one
                        on_step(i, ds)
                skipped += stop - j
                j = stop
                break
            if on_step is not None:
                on_step(j, ds)
    steps = p + 2 * n - (len(q) - h)
    if stats is not None:
        stats.update(defense_steps=steps, additions=len(ds), visited=n - skipped)
    return ds
