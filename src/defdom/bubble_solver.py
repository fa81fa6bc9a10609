"""Bubble-model greedy solver.

Simulates the left-to-right greedy in bubble-sized chunks, in one loop over
the components of the model.  The live state is an attack window
[first..last], per-bubble defender counts ``d``, and the current rightmost
monotone defense kept as one (bubble, count) segment per bubble, the bubbles
in a deque in bubble order, which is attacker order.  Because every live
defender is assigned, the defense is just the order-preserving bijection
between live defenders and attackers, so each bubble's slack (how much
further right its defenders can stretch) is key[b] - offset: sliding the
whole window right by s only bumps the offset.

Each step of the loop either grows the window or slides it.  Growing by m
attackers (k at the start of a component, and after each zero-slack step)
recruits m defenders in chunks, one per bubble holding the new right end:
the new attackers of a chunk are twins and take the rightmost spare vertices
of their neighborhood.  The recruits are then merged in descending bubble
order: the live bubbles above the lowest receiver are popped off the back of
the deque, re-keyed from the running suffix of segment counts, and pushed
back with the new segments.  At positive slack the window slides by the
slack; at zero slack the bubble of least slack ends its defenders at its last
neighbor, so the attackers up to there leave, popping whole segments off the
front, and as many new ones grow the window.

A ``heapq`` list holds one packed int per key ever set,
key * (|B| + 1) + (|B| - b), so the least slack surfaces first and the
rightmost bubble wins a tie.  Re-keying pushes a new entry; an entry whose
bubble left the defense or whose key moved on is skipped when it surfaces,
and the heap is rebuilt from the live bubbles once it holds more than twice
as many entries, so it stays O(min(k, |B|)) long.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from heapq import heapify, heappop, heappush
from typing import Optional

from .bubbles import LinearBubbles, check_expansion
from .defense import Attack, defends_consecutive
from .greedy import SkipDown


def solve_bubble(
    lbm: LinearBubbles,
    k: int,
    stats: Optional[dict] = None,
    validate: bool = False,
) -> list[int]:
    """Minimum k-defensive dominating set from a linear bubble model.

    Returns the same defender set as the vertex-by-vertex greedy.  A
    component ends at a bubble whose neighborhood ends at its own last
    vertex; the window never leaves one.  A component of at most k vertices
    is pinned whole; after any other but the last, its live segments and
    heap entries are dropped.  With ``validate``, the state is checked
    against the rightmost defense of the expanded graph after every step.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    n, count = lbm.n, lbm.count
    width = count + 1
    # 1-based bubble arrays; index 0 is the artificial empty bubble.
    size = (0, *lbm.sizes)
    max_v = (0, *lbm.max_v)
    max_nbr = (0, *lbm.max_nbr)
    min_nbr = (0, *lbm.min_nbr)
    reach = (0, *lbm.reach)
    d = [0] * width
    seg = [0] * width
    # True slack of live bubble b is key[b] - offset; heap holds packed entries.
    key = [0] * width
    live: deque[int] = deque()  # the bubbles with a segment, ascending
    heap: list[int] = []
    spare = SkipDown(count)
    first, last, offset = 1, 0, 0
    # Bubbles holding ``first`` and ``last + 1``; moved only by chunks, as both end past n.
    first_bubble = next_bubble = 1
    inserts = deletes = adjusts = touches = zero = positive = chunks = 0
    graph = lbm.to_graph() if validate else None
    top = 0
    for c in range(1, width):
        end = max_v[c]
        if max_nbr[c] != end:
            continue
        if end - last <= k:
            d[top + 1 : c + 1] = size[top + 1 : c + 1]
            first, last = end + 1, end
            top = c
            continue
        top = c
        grow = k
        while True:
            if grow:
                received: dict[int, int] = {}
                while grow > 0:
                    chunks += 1
                    while max_v[first_bubble] < first:
                        first_bubble += 1
                    while max_v[next_bubble] <= last:
                        next_bubble += 1
                    step = min(grow, max_v[next_bubble] - last)
                    last += step
                    grow -= step
                    # The rightmost `step` spare vertices of the window neighborhood.
                    b = spare.find(reach[next_bubble])
                    while step > 0:
                        assert b >= 1 and max_v[b] >= min_nbr[first_bubble], (
                            "recruit search left the window neighborhood"
                        )
                        take = min(size[b] - d[b], step)
                        d[b] += take
                        step -= take
                        received[b] = received.get(b, 0) + take
                        if d[b] == size[b]:
                            spare.occupy(b)
                        if step:
                            b = spare.find(b)
                # Live bubbles at or above the lowest receiver change their
                # assigned attackers, so they come off the back and are re-keyed.
                back = []
                suffix = 0
                base = offset - last  # a bubble's key is max_nbr + suffix + base
                for b, take in sorted(received.items(), reverse=True):
                    fresh = not seg[b]
                    seg[b] += take
                    while live and live[-1] >= b:
                        t = live.pop()
                        kt = max_nbr[t] + suffix + base
                        if kt != key[t]:
                            key[t] = kt
                            heappush(heap, kt * width + count - t)
                            adjusts += 1
                        suffix += seg[t]
                        back.append(t)
                        touches += 1
                    if fresh:
                        key[b] = kt = max_nbr[b] + suffix + base
                        heappush(heap, kt * width + count - b)
                        inserts += 1
                        suffix += take
                        back.append(b)
                live.extend(reversed(back))
                if len(heap) > 2 * len(live) + 1:
                    heap = [key[b] * width + count - b for b in live]
                    heapify(heap)
            if graph is not None:
                _check(graph, k, first, last, d, max_v, live, seg, key, heap)
            if last >= end:
                break
            # The live bubble of least key, rightmost on ties; stale entries are popped.
            while True:
                kt, r = divmod(heap[0], width)
                b = count - r
                if seg[b] and key[b] == kt:
                    break
                heappop(heap)
            if kt > offset:
                positive += 1
                step = min(kt - offset, end - last)
                first += step
                last += step
                offset += step
                continue
            zero += 1
            # At zero slack the top bubble's last attacker is its last neighbor.
            grow = min(end - last, max_nbr[b] - first + 1)
            first += grow
            step = grow
            while step > 0:
                h = live[0]
                if seg[h] <= step:
                    step -= seg[h]
                    live.popleft()
                    seg[h] = 0  # its heap entries are skipped when they surface
                    deletes += 1
                else:
                    # Keys are untouched: the window start and the dropped prefix
                    # cancel in every surviving bubble's assigned position.
                    seg[h] -= step
                    step = 0
        if end < n:
            # The dropped bubbles keep their seg counts: with the heap cleared
            # and recruits confined to later components, nothing reads them.
            deletes += len(live)
            live.clear()
            heap.clear()
            first = last + 1
    if stats is not None:
        stats.update(
            heap_inserts=inserts,
            heap_deletes=deletes,
            heap_adjusts=adjusts,
            merge_touches=touches,
            zero_slack_iterations=zero,
            positive_slack_iterations=positive,
            chunks=chunks,
            # a segment joins or leaves the defense exactly where it enters or leaves the heap
            list_ops=inserts + deletes,
            # every iteration sees either zero or positive slack
            iterations=zero + positive,
            bubbles=count,
        )
    return _defenders(d, max_v)


def _defenders(d, max_v) -> list[int]:
    """The last d[b] vertices of every bubble b, ascending."""
    check_expansion(sum(d), "defender set")
    out = []
    for b in range(1, len(d)):
        if d[b]:
            out.extend(range(max_v[b] - d[b] + 1, max_v[b] + 1))
    return out


def _check(graph, k, first, last, d, max_v, live, seg, key, heap):
    """Segments must encode the rightmost monotone defense of the defenders so far."""
    count = len(d) - 1
    window = Attack(first, last)
    defense = defends_consecutive(graph, _defenders(d, max_v), window)
    assert defense is not None, f"state holds an undefendable window {window}"
    blocks: dict[int, int] = {}
    for v, _ in defense:
        b = bisect_left(max_v, v)
        blocks[b] = blocks.get(b, 0) + 1
    segments = {b: seg[b] for b in live}
    assert len(segments) == len(live), f"segment deque {list(live)} repeats a bubble"
    assert list(segments) == sorted(segments) and all(segments.values()), f"segment deque {segments} out of order"
    assert blocks == segments, f"segments {segments} disagree with the rightmost defense {blocks}"
    assert sum(segments.values()) == window.size, "segment counts do not cover the window"
    entries = set(heap)
    missing = [b for b in segments if key[b] * (count + 1) + count - b not in entries]
    assert not missing, f"live bubbles {missing} lack a current heap entry"
    bound = 2 * min(k, count) + 1
    assert len(heap) <= bound, f"heap holds {len(heap)} entries, above {bound}"
