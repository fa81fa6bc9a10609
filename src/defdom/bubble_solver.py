"""Bubble-model greedy solver.

Simulates the left-to-right greedy in bubble-sized chunks.  The live state
is an attack window, per-bubble defender counts, and the current rightmost
monotone defense kept as one (bubble, count) segment per bubble, the
bubbles in a deque in bubble order, which is attacker order.  A bottleneck
pops whole segments from the front; a merge pops the re-keyed back end and
pushes it back with the recruits.  Because every live defender is assigned,
the defense is just the order-preserving bijection between live defenders
and attackers, so each bubble's slack (how much further right its defenders
can stretch) is key[b] - offset: sliding the whole window right by s only
bumps the offset.  A ``heapq`` list holds one packed int per key ever set,
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
from .errors import EmptyGraph, Overflow
from .greedy import SkipDown


class BubbleSolverState:
    """Live state of one solver run over a linear bubble model."""

    def __init__(self, lbm: LinearBubbles, k: int, validate: bool = False):
        if lbm.count == 0 or lbm.n == 0:
            raise EmptyGraph("cannot solve on an empty bubble model")
        if k < 1:
            raise ValueError("k must be at least 1")
        self.k = k
        self.n = lbm.n
        self.count = lbm.count
        # 1-based bubble arrays; index 0 is the artificial empty bubble.
        self.size = [0] + list(lbm.sizes)
        self.max_v = [0] + list(lbm.max_v)
        self.max_nbr = [0] + list(lbm.max_nbr)
        self.min_nbr = [0] + list(lbm.min_nbr)
        self.reach = [0] + list(lbm.reach)
        self.d = [0] * (self.count + 1)
        self.first = 1
        self.last = 0
        # Bubbles holding ``first`` and ``last + 1``; moved only by chunks, as both end past n.
        self.first_bubble = self.next_bubble = 1
        self.seg = [0] * (self.count + 1)
        self.live: deque[int] = deque()  # the bubbles with a segment, ascending
        # True slack of live bubble b is key[b] - offset; heap holds packed entries.
        self.key = [0] * (self.count + 1)
        self.offset = 0
        self.heap: list[int] = []
        self.spare = SkipDown(self.count)
        # Each event is counted once, in a local of the loop that makes it and
        # added to this dict after the loop; solve_bubble derives list_ops and
        # iterations from these.
        self.counts = dict.fromkeys(
            ("heap_inserts", "heap_deletes", "heap_adjusts", "merge_touches",
             "zero_slack_iterations", "positive_slack_iterations", "chunks"),
            0,
        )
        self._graph = lbm.to_graph() if validate else None

    # -- the four state transitions -----------------------------------------

    def _top(self) -> int:
        """The live bubble of least key, rightmost on ties; stale entries are popped."""
        heap, key, seg, count = self.heap, self.key, self.seg, self.count
        while True:
            k, r = divmod(heap[0], count + 1)
            b = count - r
            if seg[b] and key[b] == k:
                return b
            heappop(heap)

    def slack(self) -> int:
        """Minimum remaining stretch over the bubbles of the defense."""
        return self.key[self._top()] - self.offset

    def bottleneck(self) -> int:
        """Rightmost attacker defended by a zero-slack bubble."""
        if self.slack() != 0:
            raise ValueError("bottleneck is only defined at zero slack")
        # at zero slack the top bubble's last attacker is its last neighbor
        return self.max_nbr[self._top()]

    def shift(self, delta: int):
        """Slide window and defense right; lazily, via the key offset."""
        self.first += delta
        self.last += delta
        self.offset += delta

    def add_new_vertices(self, delta: int):
        """Extend the window by delta attackers and recruit delta defenders.

        One chunk per bubble, up to the end of the bubble holding ``last + 1``:
        its new attackers are twins and recruit the rightmost non-defenders of
        their neighborhood.  Nothing reads the heap between chunks, so all
        recruits are merged into the defense segments in one pass at the end.
        """
        if delta < 0 or self.last + delta > self.n:
            raise Overflow(f"cannot extend window past vertex {self.n}")
        remaining = delta
        received: dict[int, int] = {}
        chunks = 0
        while remaining > 0:
            chunks += 1
            while self.max_v[self.first_bubble] < self.first:
                self.first_bubble += 1
            while self.max_v[self.next_bubble] <= self.last:
                self.next_bubble += 1
            step = min(remaining, self.max_v[self.next_bubble] - self.last)
            self.last += step
            remaining -= step
            # The rightmost `step` spare vertices of the window neighborhood.
            need = step
            b = self.spare.find(self.reach[self.next_bubble])
            while need > 0:
                assert b >= 1 and self.max_v[b] >= self.min_nbr[self.first_bubble], (
                    "recruit search left the window neighborhood"
                )
                take = min(self.size[b] - self.d[b], need)
                self.d[b] += take
                need -= take
                received[b] = received.get(b, 0) + take
                if self.d[b] == self.size[b]:
                    self.spare.occupy(b)
                if need:
                    b = self.spare.find(b)
        self.counts["chunks"] += chunks
        if received:
            self._merge_segments(sorted(received.items(), reverse=True))

    def _merge_segments(self, receivers):
        """Merge freshly recruited bubbles, in descending order, into the segments.

        Live bubbles above the lowest receiver change their assigned attackers
        (the bijection shifts under them), so they are popped off the back of
        the deque and re-keyed from the running suffix of segment counts; the
        popped back end is pushed back with the recruits in ascending order.
        Bubbles below are untouched.  A changed key and a new segment each push
        a heap entry, leaving the old one to be skipped; once the heap holds
        more than twice the live bubbles, it is rebuilt from them.  Walk touches
        are extra work beyond the insert/delete budget, tracked in merge_touches.
        """
        heap, key, seg, live, max_nbr = self.heap, self.key, self.seg, self.live, self.max_nbr
        width, count = self.count + 1, self.count
        back = []
        suffix = touches = adjusts = inserts = 0
        base = self.offset - self.last  # a bubble's key is max_nbr + suffix + base
        for b, take in receivers:
            fresh = not seg[b]
            seg[b] += take
            while live and live[-1] >= b:
                top = live.pop()
                k = max_nbr[top] + suffix + base
                if k != key[top]:
                    key[top] = k
                    heappush(heap, k * width + count - top)
                    adjusts += 1
                suffix += seg[top]
                back.append(top)
                touches += 1
            if fresh:
                key[b] = k = max_nbr[b] + suffix + base
                heappush(heap, k * width + count - b)
                inserts += 1
                suffix += take
                back.append(b)
        live.extend(reversed(back))
        if len(heap) > 2 * len(live) + 1:
            heap[:] = [key[b] * width + count - b for b in live]
            heapify(heap)
        self.counts["merge_touches"] += touches
        self.counts["heap_adjusts"] += adjusts
        self.counts["heap_inserts"] += inserts

    def remove_left(self, delta: int):
        """Drop the leftmost delta attackers, popping whole segments off the front."""
        if delta < 0 or delta > self.last - self.first + 1:
            raise ValueError("cannot remove more attackers than the window holds")
        self.first += delta
        live, seg = self.live, self.seg
        deletes = 0
        while delta > 0:
            h = live[0]
            c = seg[h]
            if c <= delta:
                delta -= c
                live.popleft()
                seg[h] = 0  # its heap entries are skipped when they surface
                deletes += 1
            else:
                # Keys are untouched: the window start and the dropped prefix
                # cancel in every surviving bubble's assigned position.
                seg[h] -= delta
                delta = 0
        self.counts["heap_deletes"] += deletes

    # -- driver --------------------------------------------------------------

    def run(self) -> list[int]:
        """Solve every component in order; the window never leaves one.

        A component ends at a bubble whose neighborhood ends at its own last
        vertex.  One of at most k vertices is pinned whole; after any other
        but the last, its live segments are dropped.
        """
        top = 0
        for b in range(1, self.count + 1):
            end = self.max_v[b]
            if self.max_nbr[b] != end:
                continue
            if end - self.last <= self.k:
                self.d[top + 1 : b + 1] = self.size[top + 1 : b + 1]
                self.first, self.last = end + 1, end
            else:
                self._solve_component(end)
                if end < self.n:
                    self.remove_left(self.last - self.first + 1)
            top = b
        return self.defenders()

    def _solve_component(self, end: int):
        """Slide the window from the component's first vertex to ``end``."""
        self.add_new_vertices(self.k)
        if self._graph is not None:
            self._check_invariant()
        positive = zero = 0
        while self.last < end:
            s = self.slack()
            if s > 0:
                positive += 1
                self.shift(min(s, end - self.last))
            else:
                zero += 1
                v = self.bottleneck()
                move = min(end - self.last, v - self.first + 1)
                self.remove_left(move)
                self.add_new_vertices(move)
            if self._graph is not None and self.last < end:
                self._check_invariant()
        self.counts["positive_slack_iterations"] += positive
        self.counts["zero_slack_iterations"] += zero

    def defenders(self) -> list[int]:
        check_expansion(sum(self.d), "defender set")
        out = []
        for b in range(1, self.count + 1):
            if self.d[b]:
                out.extend(range(self.max_v[b] - self.d[b] + 1, self.max_v[b] + 1))
        return out

    # -- debug ----------------------------------------------------------------

    def _check_invariant(self):
        """Segments must encode the rightmost monotone defense of D."""
        g = self._graph
        window = Attack(self.first, self.last)
        ds = self.defenders()
        defense = defends_consecutive(g, ds, window)
        assert defense is not None, f"state holds an undefendable window {window}"
        blocks: dict[int, int] = {}
        for d, _ in defense:
            b = bisect_left(self.max_v, d)
            blocks[b] = blocks.get(b, 0) + 1
        live = {b: self.seg[b] for b in self.live}
        assert len(live) == len(self.live), f"segment deque {list(self.live)} repeats a bubble"
        assert list(live) == sorted(live) and all(live.values()), f"segment deque {live} out of order"
        assert blocks == live, f"segments {live} disagree with the rightmost defense {blocks}"
        total = sum(live.values())
        assert total == window.size, "segment counts do not cover the window"
        entries = set(self.heap)
        missing = [b for b in live if self.key[b] * (self.count + 1) + self.count - b not in entries]
        assert not missing, f"live bubbles {missing} lack a current heap entry"
        bound = 2 * min(self.k, self.count) + 1
        assert len(self.heap) <= bound, f"heap holds {len(self.heap)} entries, above {bound}"


def solve_bubble(
    lbm: LinearBubbles,
    k: int,
    stats: Optional[dict] = None,
    validate: bool = False,
) -> list[int]:
    """Minimum k-defensive dominating set from a linear bubble model.

    Returns the same defender set as the vertex-by-vertex greedy.
    Disconnected models are solved component by component in one state.
    """
    state = BubbleSolverState(lbm, k, validate=validate)
    out = state.run()
    if stats is not None:
        c = state.counts
        stats.update(
            c,
            # a segment joins or leaves the defense exactly where it enters or leaves the heap
            list_ops=c["heap_inserts"] + c["heap_deletes"],
            # every iteration sees either zero or positive slack
            iterations=c["zero_slack_iterations"] + c["positive_slack_iterations"],
            bubbles=lbm.count,
        )
    return out
