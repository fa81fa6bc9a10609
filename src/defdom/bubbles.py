"""Bubble representations of proper interval graphs.

A compact bubble structure arranges the vertices in columns of bubbles, each
bubble carrying a row number and a vertex count.  Two vertices are adjacent
exactly when they share a column, or when the later-column vertex sits in a
strictly smaller row than the earlier-column vertex in adjacent columns.
Every column is a clique and every bubble is a set of pairwise twins.

The linear model lists the bubbles column by column, row order inside a
column, and stores per bubble only what defines it: its size, its last
vertex and its last neighbor.  The bubble solver reads those three tuples
in place.  A bubble's first vertex is a prefix sum of the sizes and its
first neighbor the first vertex of the first bubble whose last neighbor
reaches it, so both are derived, not stored.  ``LinearBubbles(sizes,
max_nbr)``, and so ``linear_from_compact``, checks the two defining
sequences; ``bubbles_from_pig`` builds the model unchecked from the twin
runs of a graph, which are valid by construction.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import accumulate, chain, islice
from operator import index, itemgetter
from typing import Iterator, Sequence

from .errors import InvalidBubbles, InvalidRanges, TooLarge
from .pig import ProperIntervalGraph, _check_maxn, _run_vertices

#: Most vertices a bubble model is ever expanded into.  pig_from_bubbles keeps
#: two tuples of n references plus a few lists per bubble, so a path, one
#: bubble per vertex, is the worst shape: its peak is about 175 bytes per
#: vertex (20 on a clique chain of 100-cliques, 18 on one clique; tracemalloc
#: at n = 10^5 and 3*10^5), and the cap keeps it near 350 MB.
MAX_EXPANDED_VERTICES = 2_000_000


def check_expansion(count: int, what: str) -> None:
    """Raise TooLarge before ``count`` vertices are expanded past the cap."""
    if count > MAX_EXPANDED_VERTICES:
        raise TooLarge(
            count,
            MAX_EXPANDED_VERTICES,
            f"{what} has {count} vertices, above the expansion cap of {MAX_EXPANDED_VERTICES}",
        )


class CompactBubbles:
    """Columns of (row, size) bubbles; rows strictly increase in a column."""

    __slots__ = ("columns", "n")

    def __init__(self, columns: Sequence[Sequence[tuple[int, int]]]):
        cols = []
        total = 0
        if not columns:
            raise InvalidBubbles("need at least one column")
        for j, col in enumerate(columns, start=1):
            entries = []
            prev_row = 0  # below every row, so the first is checked against 1 alone
            for r, s in col:
                row, size = index(r), index(s)
                if size <= 0:
                    raise InvalidBubbles(f"column {j} stores an empty bubble at row {row}")
                if row <= prev_row:
                    if row < 1:
                        raise InvalidBubbles(f"column {j} has row {row} below 1")
                    raise InvalidBubbles(f"column {j} rows must strictly increase (row {row})")
                prev_row = row
                total += size
                entries.append((row, size))
            if not entries:
                raise InvalidBubbles(f"column {j} is empty")
            cols.append(tuple(entries))
        self.columns = tuple(cols)
        self.n = total

    def __eq__(self, other):
        return isinstance(other, CompactBubbles) and self.columns == other.columns

    def __repr__(self):
        return f"CompactBubbles({[list(c) for c in self.columns]!r})"


def _starts(sizes: Sequence[int]) -> Iterator[int]:
    """The first vertex of each bubble, lazily: the prefix sums of ``sizes`` from 1."""
    return accumulate(islice(sizes, len(sizes) - 1), initial=1)


class LinearBubbles:
    """Ordered bubbles with their sizes, last vertices and last neighbors.

    Three per-bubble tuples are stored: ``sizes``, ``max_v`` and
    ``max_nbr``.  ``min_v`` and ``min_nbr``, each bubble's first vertex and
    first neighbor, are derived on every read, so a caller that needs one
    in a loop reads it once.
    """

    __slots__ = ("sizes", "max_v", "max_nbr", "count", "n")

    def __init__(self, sizes, max_nbr):
        sizes, max_nbr = tuple(map(index, sizes)), tuple(map(index, max_nbr))
        if not sizes:
            raise InvalidBubbles("need at least one bubble")
        if len(sizes) != len(max_nbr):
            raise InvalidBubbles("bubble field lengths differ")
        if min(sizes) <= 0:
            raise InvalidBubbles("bubble sizes must be positive")
        max_v = tuple(accumulate(sizes))
        try:
            _check_maxn(_run_vertices(zip(max_nbr, sizes)), max_v[-1])
        except InvalidRanges as exc:
            raise InvalidBubbles(f"bubble model induces invalid neighbor ranges: {exc}") from exc
        ends = set(max_v)
        for i, hi in enumerate(max_nbr, start=1):
            if hi not in ends:  # twin classes: a neighborhood covers whole bubbles
                raise InvalidBubbles(f"bubble {i} neighborhood splits a bubble")
        self._keep(sizes, max_nbr, max_v)

    def _keep(self, sizes, max_nbr, max_v) -> None:
        """Keep the fields of a valid model; no checks."""
        self.sizes, self.max_nbr = tuple(sizes), tuple(max_nbr)
        self.max_v, self.count, self.n = max_v, len(max_v), max_v[-1]

    @property
    def min_v(self) -> tuple[int, ...]:
        """The first vertex of each bubble, derived from ``sizes`` on every read."""
        return tuple(_starts(self.sizes))

    @property
    def min_nbr(self) -> tuple[int, ...]:
        """The first neighbor of each bubble, derived on every read.

        min_nbr(v) is the least u with max_nbr(u) >= v: the first vertex of
        the first bubble reaching v, found by one forward pointer.
        """
        starts, max_nbr, out, r = self.min_v, self.max_nbr, [], 0
        for a in starts:
            while max_nbr[r] < a:
                r += 1
            out.append(starts[r])
        return tuple(out)

    def to_graph(self) -> ProperIntervalGraph:
        check_expansion(self.n, "bubble model")
        return ProperIntervalGraph.from_runs(self.sizes, self.max_nbr)

    def __eq__(self, other):
        return (
            isinstance(other, LinearBubbles)
            and self.sizes == other.sizes
            and self.max_nbr == other.max_nbr
        )

    def __repr__(self):
        rows = [
            f"(size={s}, v={a}..{b}, nbr={lo}..{hi})"
            for s, a, b, lo, hi in zip(self.sizes, self.min_v, self.max_v, self.min_nbr, self.max_nbr)
        ]
        return "LinearBubbles[" + ", ".join(rows) + "]"


def bubbles_from_pig(g: ProperIntervalGraph) -> LinearBubbles:
    """Group maximal runs of twins into bubbles, in vertex order."""
    sizes, max_nbr = [], []
    minn, maxn = g.minn, g.maxn
    run_start = 1
    for v in range(2, g.n + 1):
        if minn[v] != minn[run_start] or maxn[v] != maxn[run_start]:
            sizes.append(v - run_start)
            max_nbr.append(maxn[run_start])
            run_start = v
    sizes.append(g.n + 1 - run_start)
    max_nbr.append(maxn[run_start])
    lb = LinearBubbles.__new__(LinearBubbles)  # twin runs of a valid graph: a valid model
    lb._keep(sizes, max_nbr, tuple(accumulate(sizes)))
    return lb


def linear_from_compact(cb: CompactBubbles) -> LinearBubbles:
    """Linear model of a compact structure, in time linear in the bubble count.

    A bubble's neighborhood ends at the last bubble of the next column in a
    strictly lower row; with none, its own column bounds it.  That end is
    found by a lagging pointer into the next column that walks up the rows
    with the bubble.

    Every structure that ``CompactBubbles`` accepts defines a valid model,
    so the checks of ``LinearBubbles(...)`` never fail here.  Rows strictly
    increase within a column, so a bubble's neighbors in the next column
    are a prefix of it, and its later neighbors are the rest of its own
    column and that prefix: a range that ends at ``max_nbr``, the last
    vertex of a bubble, inside 1..n, covering the bubble's own vertices.
    Up a column the prefix grows, so ``max_nbr`` does not decrease; nor
    does it into the next column: the last bubble of column j reaches at
    most to the end of column j+1, where every bubble of column j+1 reaches
    at least.  The later neighbors of every vertex are so a range ending at
    its ``max_nbr``, which fixes the graph, and the ``min_nbr`` that the
    model derives from it is the rule's first neighbor.
    """
    cols = cb.columns
    sizes = [size for col in cols for _, size in col]
    tops = list(accumulate(sizes, initial=0))  # tops[i]: the vertex before bubble i
    base = list(accumulate(map(len, cols), initial=0))  # base[j]: column j's first bubble
    max_nbr = []
    for j, col in enumerate(cols):
        nxt = cols[j + 1] if j + 1 < len(cols) else ()
        nb, p_end = base[j + 1], len(nxt)
        p = 0  # next-column rows below the bubble's
        for row, _ in col:
            while p < p_end and nxt[p][0] < row:
                p += 1
            max_nbr.append(tops[nb + p])
    return LinearBubbles(sizes, max_nbr)


def pig_from_bubbles(cb: CompactBubbles) -> ProperIntervalGraph:
    """Expand the adjacency rule bubble by bubble into a canonical graph.

    Deliberately independent of linear_from_compact: each bubble finds its
    neighbors by a binary search over the rows of each adjacent column, not
    by the lagging pointers, and ``min_nbr`` is derived from ``max_nbr`` and
    checked against the rule's first neighbor, so the two routes cross-check
    each other.  The graph is built run by run (``from_runs``), one run per
    bubble, so no Python loop visits a vertex.
    """
    check_expansion(cb.n, "bubble structure")
    cols, row_of = cb.columns, itemgetter(0)
    sizes = list(map(itemgetter(1), chain.from_iterable(cols)))
    tops = list(accumulate(sizes, initial=0))  # tops[i]: the vertex before bubble i
    base = list(accumulate(map(len, cols), initial=0))  # base[j]: column j's first bubble
    lasts, befores = [], []  # per bubble: last neighbor, the vertex before the first
    for j, col in enumerate(cols):
        nxt = cols[j + 1] if j + 1 < len(cols) else ()
        prv = cols[j - 1] if j else ()
        nb, pb = base[j + 1], base[j - 1] if j else 0
        for row, size in col:
            # The next column's bubbles in strictly lower rows are a prefix of
            # it, and the previous column's in strictly higher rows a suffix;
            # with none, the bubble's own column ends its neighborhood.
            lasts.append(tops[nb + bisect_left(nxt, row, key=row_of)])
            befores.append(tops[pb + bisect_right(prv, row, key=row_of)])
    try:
        g = ProperIntervalGraph.from_runs(sizes, lasts)
    except InvalidRanges as exc:
        raise InvalidBubbles(f"bubble structure induces invalid neighbor ranges: {exc}") from exc
    # min_nbr never decreases, so its two ends pin a whole bubble
    minn = g.minn
    for lo, hi, before in zip(tops, islice(tops, 1, None), befores):
        if not minn[lo + 1] == minn[hi] == before + 1:
            raise InvalidBubbles("bubble structure breaks adjacency symmetry")
    return g
