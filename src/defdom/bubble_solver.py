"""Bubble-model greedy solver.

Simulates the left-to-right greedy in bubble-sized chunks, in one pass over
the whole model.  The live state is an attack window
[first..last], per-bubble defender counts ``d``, and the current rightmost
monotone defense kept as one (bubble, count) segment per bubble, the bubbles
in a deque in bubble order, which is attacker order.  Because every live
defender is assigned, the defense is just the order-preserving bijection
between live defenders and attackers, so each bubble's slack (how much
further right its defenders can stretch) is key[b] - offset: sliding the
whole window right by s only bumps the offset.  Bubbles carry the model's
own 0-based indices: the solver reads the model's ``sizes`` and ``max_nbr``
in place and allocates only ``d``, ``seg`` and ``key``, |B| entries each,
and its deques.

Each step of the loop either grows the window or slides it.  Growing by m
attackers (min(k, n) at the start, and after each zero-slack step)
recruits m defenders in chunks, one per bubble holding the new right end:
the new attackers of a chunk are twins and take the rightmost spare vertices
of their neighborhood.  A chunk takes its recruits at or below R, the bubble
that ends the neighborhood of the bubble holding the new right end.  That
bubble's ``max_nbr`` never decreases, so neither does R, and one forward
cursor, summing ``sizes`` for its last vertex, finds it, as another finds
the bubble holding the new right end.  So every full bubble lies at or below
R, and the top bubble with a spare vertex at or below R is R itself, or,
when R is full, the bubble just below the top run of full bubbles.  A stack
``starts`` holds the first bubble of each run, ascending, with an empty
bubble -1 below bubble 0 as a full run at the bottom; a bubble that fills up
starts a run, extends one, or joins two, and is then checked to lie in the
top run, so a stack defect fails rather than offering a full bubble again
and again.  Each recruit goes straight into its bubble's segment.  The live
bubbles at or above the lowest receiver then come off the back of the deque,
are sorted together with the receivers that had no segment, re-keyed from
the running suffix of segment counts, and pushed back.  At positive slack
the window slides by the slack; at zero slack the bubble of least slack ends
its defenders at its last neighbor, so the attackers up to there leave,
popping whole segments off the front, and as many new ones grow the window.

A second deque, ``mins``, holds the live bubbles whose key is strictly below
the key of every live bubble above them, so its front is the least slack,
rightmost on a tie.  A merge of m recruits strictly lowers every key it
touches: ``offset - last`` falls by m, and the bubble's suffix grows by less,
as the receiver at or below it takes at least one.  Slides change no key,
and a zero-slack step only pops from the front.  So a bubble that a later
one undercuts or ties stays undercut until it leaves.  A merge walks once
down the bubbles it re-keys, setting each key and collecting those below
every key above them, pops each ``mins`` entry at or above the least (the
re-keyed old ones among them) and appends the collected ones in order.
Each collected bubble is an insert or a merge touch and each pop undoes
one, so the deque costs O(1) amortized per insert or touch.  The only step
above linear is sorting each merge's new segments in among the popped ones.

``stats`` keeps its historical counter names: ``heap_inserts`` and
``heap_deletes`` count segments joining and leaving the defense, and
``merge_touches`` counts the live bubbles a merge pops and re-keys.
``heap_deletes`` is read at the end, as the inserts no longer live.
"""

from __future__ import annotations

from collections import deque
from itertools import accumulate
from typing import Callable, Optional

from .bubbles import LinearBubbles, check_expansion


def solve_bubble(
    lbm: LinearBubbles,
    k: int,
    stats: Optional[dict] = None,
    on_step: Optional[Callable[..., None]] = None,
) -> list[int]:
    """Minimum k-defensive dominating set from a linear bubble model.

    Returns the same defender set as the vertex-by-vertex greedy.
    Disconnected models need no split.  Recruits stay in the component of
    the new attackers, as in ``solve_greedy``.  While the window spans a
    component gap, the earlier component's top live bubble covers that
    component's last vertex, which is also its last neighbor, so its slack
    is 0: the window never slides across a gap, and the next zero-slack
    step drops every attacker up to the earlier component's end.
    ``on_step(first, last, d, live, seg, key, mins)`` is called after each
    step's merge, with the window ends and the solver's own state, which the
    hook must not change: the per-bubble lists ``d``, ``seg`` and ``key``
    and the deques ``live`` and ``mins``, all in the model's 0-based bubble
    indices.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    n, count = lbm.n, lbm.count
    size, max_nbr = lbm.sizes, lbm.max_nbr  # the model's own fields, read in place
    d = [0] * count
    seg = [0] * count
    # True slack of live bubble b is key[b] - offset.
    key = [0] * count
    live: deque[int] = deque()  # the bubbles with a segment, ascending
    mins: deque[int] = deque()  # the strict suffix minima of key over live
    starts = [-1]  # the first bubble of each run of full bubbles; the empty bubble -1 is full
    first, last, offset = 1, 0, 0
    # The bubble holding ``last + 1`` when it is <= n and the bubble ending its neighborhood, and their last vertices.
    next_bubble = top = 0
    next_end = top_end = size[0]
    inserts = touches = zero = positive = chunks = 0
    grow = min(k, n)
    while True:
        if grow:
            fresh = []  # receivers that had no segment
            low = count  # the lowest receiver
            while grow > 0:
                chunks += 1
                while next_end <= last:
                    next_bubble += 1
                    next_end += size[next_bubble]
                step = next_end - last
                if step > grow:
                    step = grow
                last += step
                grow -= step
                # The rightmost `step` spare vertices of the window neighborhood.
                while top_end < max_nbr[next_bubble]:
                    top += 1
                    top_end += size[top]
                b = top
                if d[b] == size[b]:
                    b = starts[-1] - 1
                while True:
                    assert b >= 0, "recruit search left the window neighborhood"
                    if not seg[b]:
                        fresh.append(b)
                    room = size[b] - d[b]
                    if step < room:
                        d[b] += step
                        seg[b] += step
                        break
                    d[b] = size[b]
                    seg[b] += room
                    step -= room
                    if not b or d[b - 1] == size[b - 1]:  # b joins the run below
                        if starts[-1] == b + 1:  # which joins the run above
                            starts.pop()
                    elif starts[-1] == b + 1:
                        starts[-1] = b
                    else:
                        starts.append(b)
                    assert starts[-1] <= b, "run stack does not hold the bubble just filled"
                    if not step:
                        break
                    b = starts[-1] - 1
                if b < low:
                    low = b
            # ``first`` is fixed during a grow and ``max_nbr`` rises from ``low``, so this covers every receiver.
            assert max_nbr[low] >= first, "recruit search left the window neighborhood"
            # Live bubbles at or above the lowest receiver change their
            # assigned attackers, so they come off the back and are re-keyed
            # with the receivers, from the running suffix of segment counts.
            new = len(fresh)
            back = fresh
            while live and live[-1] >= low:
                back.append(live.pop())
            inserts += new
            touches += len(back) - new
            back.sort()
            # A bubble's key is max_nbr + the segments above it + offset - last.
            # Walking down, a key below all keys above it is a suffix minimum.
            suffix = offset - last
            least = max_nbr[back[-1]] + suffix + 1  # above the top bubble's key
            minima = []
            for b in reversed(back):
                kt = max_nbr[b] + suffix
                key[b] = kt
                suffix += seg[b]
                if kt < least:
                    least = kt
                    minima.append(b)
            while mins and key[mins[-1]] >= least:
                mins.pop()
            mins.extend(reversed(minima))
            live.extend(back)
        if on_step is not None:
            on_step(first, last, d, live, seg, key, mins)
        if last >= n:
            break
        # The live bubble of least key, rightmost on ties.
        b = mins[0]
        kt = key[b]
        if kt > offset:
            positive += 1
            step = kt - offset
            if step > n - last:
                step = n - last
            first += step
            last += step
            offset += step
            continue
        zero += 1
        # At zero slack the top bubble's last attacker is its last neighbor.
        grow = min(n - last, max_nbr[b] - first + 1)
        assert grow > 0, "zero-slack step made no progress"
        first += grow
        step = grow
        while step > 0:
            h = live[0]
            if seg[h] <= step:
                step -= seg[h]
                live.popleft()
                if mins[0] == h:
                    mins.popleft()
                seg[h] = 0  # a later recruit into h starts a fresh segment
            else:
                # Keys are untouched: the window start and the dropped prefix
                # cancel in every surviving bubble's assigned position.
                seg[h] -= step
                step = 0
    if stats is not None:
        stats.update(
            heap_inserts=inserts,
            heap_deletes=inserts - len(live),
            merge_touches=touches,
            zero_slack_iterations=zero,
            positive_slack_iterations=positive,
            chunks=chunks,
            # every iteration sees either zero or positive slack
            iterations=zero + positive,
            bubbles=count,
        )
    # Only d and the sizes are read from here on; the working state goes before the answer is built.
    del seg, key, live, mins, starts
    return _defenders(d, size)


def _defenders(d, sizes) -> list[int]:
    """The last d[b] vertices of every bubble b, ascending; its last vertex is a running sum of ``sizes``."""
    check_expansion(sum(d), "defender set")
    out = []
    for c, end in zip(d, accumulate(sizes)):
        if c:
            out.extend(range(end - c + 1, end + 1))
    return out

