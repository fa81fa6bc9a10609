"""Bubble-model greedy solver.

Simulates the left-to-right greedy in bubble-sized chunks.  The live state
is an attack window, per-bubble defender counts, and the current rightmost
monotone defense kept as one (bubble, count) segment per bubble in attacker
order.  Because every live defender is assigned, the defense is just the
order-preserving bijection between live defenders and attackers, so each
bubble's slack (how much further right its defenders can stretch) is
maintained in a min-heap whose keys are shifted lazily by a single offset:
sliding the whole window right by s only bumps the offset.
"""

from __future__ import annotations

from typing import Optional

from .bubbles import LinearBubbles
from .defense import Attack, defends_consecutive
from .errors import EmptyGraph, Overflow
from .greedy import SkipDown


class OffsetMinHeap:
    """Indexed binary min-heap of bubbles ordered by (key, -bubble).

    The bubble with the smallest key wins; among equal keys the rightmost
    bubble surfaces.  True slack of bubble b is key(b) - offset, so a bulk
    decrease of every slack is one offset increment.  Re-keying a single
    bubble sifts it in place and is not an insertion or deletion.
    """

    __slots__ = ("heap", "pos", "key", "offset", "inserts", "deletes", "adjusts")

    def __init__(self, count):
        self.heap = []
        self.pos = [0] * (count + 1)
        self.key = [0] * (count + 1)
        self.offset = 0
        self.inserts = 0
        self.deletes = 0
        self.adjusts = 0

    def __len__(self):
        return len(self.heap)

    def _less(self, a, b):
        ka, kb = self.key[a], self.key[b]
        return ka < kb or (ka == kb and a > b)

    def _sift_up(self, i):
        heap, pos = self.heap, self.pos
        b = heap[i]
        while i > 0:
            parent = (i - 1) >> 1
            p = heap[parent]
            if not self._less(b, p):
                break
            heap[i] = p
            pos[p] = i
            i = parent
        heap[i] = b
        pos[b] = i

    def _sift_down(self, i):
        heap, pos = self.heap, self.pos
        n = len(heap)
        b = heap[i]
        while True:
            child = 2 * i + 1
            if child >= n:
                break
            right = child + 1
            if right < n and self._less(heap[right], heap[child]):
                child = right
            c = heap[child]
            if not self._less(c, b):
                break
            heap[i] = c
            pos[c] = i
            i = child
        heap[i] = b
        pos[b] = i

    def push(self, b, key):
        self.key[b] = key
        self.heap.append(b)
        self.pos[b] = len(self.heap) - 1
        self._sift_up(len(self.heap) - 1)
        self.inserts += 1

    def remove(self, b):
        i = self.pos[b]
        last = self.heap.pop()
        if last != b:
            self.heap[i] = last
            self.pos[last] = i
            self._sift_up(i)
            self._sift_down(i)
        self.deletes += 1

    def adjust(self, b, key):
        if key == self.key[b]:
            return
        self.key[b] = key
        i = self.pos[b]
        self._sift_up(i)
        self._sift_down(self.pos[b])
        self.adjusts += 1

    def top(self):
        return self.heap[0]

    def min_key(self):
        return self.key[self.heap[0]]


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
        self.vb = lbm.vertex_bubble_map()
        self.d = [0] * (self.count + 1)
        self.first = 1
        self.last = 0
        self.seg = [0] * (self.count + 1)
        self.in_f = bytearray(self.count + 1)
        self.f_prev = [0] * (self.count + 1)
        self.f_next = [0] * (self.count + 1)
        self.f_head = 0
        self.f_tail = 0
        self.heap = OffsetMinHeap(self.count)
        self.spare = SkipDown(self.count)
        self.list_ops = 0
        self.merge_touches = 0
        self.iterations = 0
        self.zero_slack_iterations = 0
        self.positive_slack_iterations = 0
        self.chunks = 0
        self._graph = lbm.to_graph() if validate else None

    # -- f-list helpers ----------------------------------------------------

    def _list_insert_after(self, pos, b):
        self.in_f[b] = 1
        self.f_prev[b] = pos
        if pos:
            nxt = self.f_next[pos]
            self.f_next[pos] = b
        else:
            nxt = self.f_head
            self.f_head = b
        self.f_next[b] = nxt
        if nxt:
            self.f_prev[nxt] = b
        else:
            self.f_tail = b
        self.list_ops += 1

    def _list_unlink(self, b):
        prv, nxt = self.f_prev[b], self.f_next[b]
        if prv:
            self.f_next[prv] = nxt
        else:
            self.f_head = nxt
        if nxt:
            self.f_prev[nxt] = prv
        else:
            self.f_tail = prv
        self.in_f[b] = 0
        self.list_ops += 1

    # -- the four state transitions -----------------------------------------

    def slack(self) -> int:
        """Minimum remaining stretch over the bubbles of the defense."""
        return self.heap.min_key() - self.heap.offset

    def bottleneck(self) -> int:
        """Rightmost attacker defended by a zero-slack bubble."""
        if self.slack() != 0:
            raise ValueError("bottleneck is only defined at zero slack")
        b = self.heap.top()
        return self.max_nbr[b] - (self.heap.key[b] - self.heap.offset)

    def shift(self, delta: int):
        """Slide window and defense right; lazily, via the heap offset."""
        self.first += delta
        self.last += delta
        self.heap.offset += delta

    def add_new_vertices(self, delta: int):
        """Extend the window by delta attackers and recruit delta defenders.

        Advances in chunks: one vertex when entering a new bubble, otherwise
        up to the end of the current bubble.  Each chunk recruits the
        rightmost non-defenders of the window neighborhood.  Nothing reads
        the heap between chunks, so the recruits of the whole call are
        spliced into the defense segments in one pass at the end.
        """
        if delta < 0 or self.last + delta > self.n:
            raise Overflow(f"cannot extend window past vertex {self.n}")
        remaining = delta
        received: dict[int, int] = {}
        while remaining > 0:
            self.chunks += 1
            i = self.vb[self.last] if self.last >= 1 else 0
            if self.last == self.max_v[i]:
                step = 1
            else:
                step = min(remaining, self.max_v[i] - self.last)
            self.last += step
            remaining -= step
            # The rightmost `step` spare vertices of the window neighborhood.
            need = step
            b = self.spare.find(self.vb[self.max_nbr[self.vb[self.last]]])
            while need > 0:
                assert b >= 1 and self.max_v[b] >= self.min_nbr[self.vb[self.first]], (
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
        if received:
            self._merge_segments(sorted(received.items(), reverse=True))

    def _merge_segments(self, receivers):
        """Splice freshly recruited bubbles into the defense segments.

        Nodes above the lowest landing bubble change their assigned attackers
        (the bijection shifts under them), so their keys are recomputed from
        the running suffix of segment counts; nodes below are untouched.
        Walk touches and re-key sifts are extra work beyond the enter/leave
        budget, tracked separately in merge_touches.
        """
        heap, seg = self.heap, self.seg
        pos = self.f_tail
        suffix = 0
        for b, take in receivers:
            while pos and pos > b:
                heap.adjust(pos, self.max_nbr[pos] - (self.last - suffix) + heap.offset)
                suffix += seg[pos]
                pos = self.f_prev[pos]
                self.merge_touches += 1
            if pos == b:
                seg[b] += take
                heap.adjust(b, self.max_nbr[b] - (self.last - suffix) + heap.offset)
                suffix += seg[b]
                pos = self.f_prev[b]
                self.merge_touches += 1
            else:
                self._list_insert_after(pos, b)
                seg[b] = take
                heap.push(b, self.max_nbr[b] - (self.last - suffix) + heap.offset)
                suffix += take

    def remove_left(self, delta: int):
        """Drop the leftmost delta attackers and their defense segments."""
        if delta < 0 or delta > self.last - self.first + 1:
            raise ValueError("cannot remove more attackers than the window holds")
        self.first += delta
        while delta > 0:
            h = self.f_head
            c = self.seg[h]
            if c <= delta:
                delta -= c
                self.seg[h] = 0
                self._list_unlink(h)
                self.heap.remove(h)
            else:
                # Keys are untouched: the window start and the dropped prefix
                # cancel in every surviving bubble's assigned position.
                self.seg[h] -= delta
                delta = 0

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
        while self.last < end:
            self.iterations += 1
            s = self.slack()
            if s > 0:
                self.positive_slack_iterations += 1
                self.shift(min(s, end - self.last))
            else:
                self.zero_slack_iterations += 1
                v = self.bottleneck()
                move = min(end - self.last, v - self.first + 1)
                self.remove_left(move)
                self.add_new_vertices(move)
            if self._graph is not None and self.last < end:
                self._check_invariant()

    def defenders(self) -> list[int]:
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
            b = self.vb[d]
            blocks[b] = blocks.get(b, 0) + 1
        live = {b: self.seg[b] for b in range(1, self.count + 1) if self.in_f[b]}
        assert blocks == live, f"segments {live} disagree with the rightmost defense {blocks}"
        total = sum(live.values())
        assert total == window.size, "segment counts do not cover the window"


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
        heap = state.heap
        stats.update(
            heap_inserts=heap.inserts,
            heap_deletes=heap.deletes,
            heap_adjusts=heap.adjusts,
            list_ops=state.list_ops,
            merge_touches=state.merge_touches,
            iterations=state.iterations,
            zero_slack_iterations=state.zero_slack_iterations,
            positive_slack_iterations=state.positive_slack_iterations,
            chunks=state.chunks,
            bubbles=lbm.count,
        )
    return out
