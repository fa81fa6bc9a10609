"""Shared corpus builders for the test suite."""

from __future__ import annotations

import re
from bisect import bisect_left
from fractions import Fraction
from itertools import combinations
from typing import Callable, Optional

from defdom import (
    Attack,
    CompactBubbles,
    FormatError,
    ProperIntervalGraph,
    ProperViolation,
    SplitMix64,
    bubbles_from_pig,
    compact_for_family,
    defends_consecutive,
    defends_matching,
    gen_random_unit_intervals,
    pig_from_bubbles,
    solve_bubble,
    solve_greedy,
)
from defdom.bubble_solver import _defenders
from defdom.io import _Reader


def p3():
    return ProperIntervalGraph([2, 3, 3])


def p5():
    return ProperIntervalGraph([2, 3, 4, 5, 5])


def diamond():
    return ProperIntervalGraph([3, 4, 4, 4])


def k4():
    return ProperIntervalGraph([4, 4, 4, 4])


def random_maxn(rng: SplitMix64, n: int, hop: int = 6) -> list[int]:
    """A random valid max-neighbor sequence, possibly disconnected."""
    maxn = []
    prev = 1
    for j in range(1, n + 1):
        lo = max(prev, j)
        hi = min(n, lo + hop)
        m = lo + rng.below(hi - lo + 1)
        maxn.append(m)
        prev = m
    maxn[-1] = n
    return maxn


def random_components(rng: SplitMix64, k: int, count: int) -> ProperIntervalGraph:
    """``count`` random connected components side by side, of 1 to 2k+4 vertices."""
    maxn = []
    for _ in range(count):
        base, m = len(maxn), 1 + rng.below(2 * k + 4)
        sub = random_maxn(rng, m, hop=1 + rng.below(6))
        prev = 0
        for j, v in enumerate(sub, start=1):
            prev = max(prev, v, min(j + 1, m))  # no edge-free cut inside
            maxn.append(base + prev)
    return ProperIntervalGraph(maxn)


def random_graph(rng: SplitMix64, n: int, seed_tag: int = 0) -> ProperIntervalGraph:
    """Mixed-shape random instance: interval-drawn or neighbor-range-drawn."""
    if rng.below(2):
        return ProperIntervalGraph(random_maxn(rng, n))
    return gen_random_unit_intervals(n, spread=1 + rng.below(4), seed=seed_tag + rng.below(1 << 30))


def union(g: ProperIntervalGraph, h: ProperIntervalGraph) -> ProperIntervalGraph:
    """H's vertices numbered after G's, with no edge between the two."""
    return ProperIntervalGraph([*g.maxn[1:], *(g.n + m for m in h.maxn[1:])])


def fat_chain() -> ProperIntervalGraph:
    """A clique chain shaped like perfbench's bubbles_fat: 100 seeded cliques of
    50 to 150 vertices, n = 10,088, expanded from its compact bubbles."""
    rng = SplitMix64(3701)
    sizes = []
    while sum(sizes) - len(sizes) + 1 < 10_000:
        sizes.append(50 + rng.below(101))
    return pig_from_bubbles(compact_for_family("clique_chain", sizes=sizes))


def random_subset(rng: SplitMix64, n: int) -> list[int]:
    return [v for v in range(1, n + 1) if rng.below(2)]


def scan_first_undefended(g: ProperIntervalGraph, defenders, k: int):
    """Reference verifier: the rightmost monotone scan of every window in turn."""
    if k < 1:
        raise ValueError("k must be at least 1")
    ds = tuple(sorted(set(defenders)))
    m = min(k, g.n)
    for i in range(1, g.n - m + 2):
        a = Attack(i, i + m - 1)
        if defends_consecutive(g, ds, a) is None:
            return a
    return None


class SkipDown:
    """Largest free position at or below a query point, by path-compressed
    pointers; positions start free and ``occupy`` removes one."""

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


def scan_greedy(
    g: ProperIntervalGraph,
    k: int,
    stats: Optional[dict] = None,
    on_step: Optional[Callable[[int, list], None]] = None,
) -> list[int]:
    """Reference vertex greedy: the same recruits as ``solve_greedy``, with
    the defenders as a predecessor list walked by the rightmost monotone
    scan, which skips any defender above an attacker's neighborhood.
    ``on_step`` gets the defenders in recruit order."""
    if k < 1:
        raise ValueError("k must be at least 1")
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
                on_step(j, result)
    if stats is not None:
        stats.update(defense_steps=steps, additions=len(result))
    result.sort()
    return result


def bubble_checker(lbm, steps=None):
    """An ``on_step`` hook for ``solve_bubble`` on ``lbm``: after every step the
    segments must encode the rightmost monotone defense of the defenders so
    far, and ``mins`` the strict suffix minima of their keys.  The expanded
    graph is built once.  With ``steps`` a list, each step also appends
    (first, last, defenders, live bubbles, bubbles in the minima deque, its length)."""
    graph = lbm.to_graph()
    max_v = lbm.max_v

    def check(first, last, d, live, seg, key, mins):
        defenders = _defenders(d, max_v)
        if steps is not None:
            steps.append((first, last, defenders, list(live), sorted(mins), len(mins)))
        window = Attack(first, last)
        defense = defends_consecutive(graph, defenders, window)
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
        want: list[int] = []
        for b in reversed(live):
            if not want or key[b] < key[want[-1]]:
                want.append(b)
        assert list(mins) == want[::-1], f"minima deque {list(mins)} is not the suffix minima {want[::-1]}"

    return check


def first_divergence(g: ProperIntervalGraph, k: int):
    """The first window end ``last`` of a bubble-solver step after which its
    defenders differ from the vertex greedy's after window ``last``, or None."""
    lbm = bubbles_from_pig(g)
    max_v = lbm.max_v
    ends = []
    solve_bubble(lbm, k, on_step=lambda first, last, d, *_: ends.append((last, _defenders(d, max_v))))
    at = dict.fromkeys(last for last, _ in ends)

    def snapshot(j, ds):
        if j in at:
            at[j] = list(ds)

    solve_greedy(g, k, on_step=snapshot)
    for last, defenders in ends:
        if defenders != at[last]:
            return last
    return None


def reference_is_k_defensive(n, adjacency, defenders, k) -> bool:
    """Reference k-defense check: every attack of each size 1..min(k, n), by maximum matching."""
    return all(
        defends_matching(adjacency, defenders, attack)
        for size in range(1, min(k, n) + 1)
        for attack in combinations(range(1, n + 1), size)
    )


def all_maxn(n: int):
    """Every canonical max-neighbor sequence on n vertices, disconnected ones included."""

    def rec(prefix):
        j = len(prefix) + 1
        if j > n:
            yield tuple(prefix)
            return
        for m in range(max(prefix[-1] if prefix else 1, j), n + 1):
            yield from rec(prefix + [m])

    yield from rec([])


def connected_graphs(n: int):
    """Every connected canonical graph on n vertices, in ``all_maxn`` order."""
    for maxn in all_maxn(n):
        if all(maxn[j - 1] > j for j in range(1, n)):
            yield ProperIntervalGraph(maxn)


def are_twins(g: ProperIntervalGraph, u: int, v: int) -> bool:
    """True when u < v are adjacent with identical closed neighborhoods."""
    maxn, minn = g.maxn, g.minn  # minn is derived on every read, so read once
    return maxn[u] >= v and (minn[u], maxn[u]) == (minn[v], maxn[v])


def is_valid_defense(g: ProperIntervalGraph, pairs, attack: Attack) -> bool:
    """True when the (defender, attacker) pairs cover every attacker of the
    window once, each by its own defender from its closed neighborhood."""
    covered = sorted(a for _, a in pairs)
    if covered != list(range(attack.first, attack.last + 1)):
        return False
    if len({d for d, _ in pairs}) != len(pairs):
        return False
    return all(g.maxn[min(d, a)] >= max(d, a) for d, a in pairs)


def is_bridged(g: ProperIntervalGraph, attack) -> bool:
    """True when every gap in the attack's interval union is spanned.

    Consecutive sorted attackers u < v leave a gap when non-adjacent; the
    gap is bridged exactly when u's furthest neighbor reaches v.
    """
    vs = sorted(set(attack))
    if not vs:
        raise ValueError("attack must be nonempty")
    maxn = g.maxn
    for u, v in zip(vs, vs[1:]):
        if maxn[u] >= v:
            continue
        if maxn[maxn[u]] < v:
            return False
    return True


def range_of(attack) -> Attack:
    """Smallest consecutive range containing the attack."""
    vs = list(attack)
    if not vs:
        raise ValueError("attack must be nonempty")
    return Attack(min(vs), max(vs))


_TOKEN = re.compile(rb"\S+")


def reference_tokenize(data: bytes):
    """Reference tokenizer: (token_text, byte_offset) pairs, comments stripped, line by line."""
    out = []
    pos = 0
    for line in data.split(b"\n"):
        cut = line.find(b"#")
        body = line if cut < 0 else line[:cut]
        for m in _TOKEN.finditer(body):
            try:
                text = m.group().decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FormatError(pos + m.start() + exc.start, "invalid UTF-8") from None
            out.append((text, pos + m.start()))
        pos += len(line) + 1
    return out


def reference_from_intervals(entries) -> ProperIntervalGraph:
    """Reference ``from_intervals``: every endpoint made a Fraction and compared as one."""
    items = []
    for idx, (left, right) in enumerate(entries):
        l, r = _as_fraction(left), _as_fraction(right)
        if l > r:
            raise ValueError(f"interval {idx + 1} has left endpoint above right endpoint")
        items.append((l, r, idx))
    if not items:
        raise ValueError("need at least one interval")
    items.sort()
    for (l1, r1, i1), (l2, r2, i2) in zip(items, items[1:]):
        # Proper family: sorted-consecutive entries are equal or strictly
        # increase in both endpoints; anything else nests one in the other.
        if (l1, r1) != (l2, r2) and not (l1 < l2 and r1 < r2):
            raise ProperViolation(sorted((i1 + 1, i2 + 1)))
    n = len(items)
    maxn = [0] * n
    m = 0  # highest index known to intersect (0-based)
    for j in range(n):
        if m < j:
            m = j
        rj = items[j][1]
        while m + 1 < n and items[m + 1][0] <= rj:
            m += 1
        maxn[j] = m + 1
    return ProperIntervalGraph(maxn)


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        raise TypeError(f"endpoint {x!r} is a string, not a number")
    return Fraction(x)


def _reference_rational(rd: _Reader, what):
    text = rd.next(what)
    num, _, den = text.partition("/")
    try:
        if den:
            return Fraction(int(num), int(den))
        return Fraction(int(num))
    except (ValueError, ZeroDivisionError):
        raise rd.error(rd.i - 1, f"expected rational {what}, got '{text}'") from None


def reference_parse_intervals(data: bytes) -> ProperIntervalGraph:
    """Reference reading of an ``intervals`` file: one Fraction per endpoint token."""
    rd = _Reader(data)
    if rd.at_end():
        raise FormatError(0, "empty file")
    rd.word("intervals")
    n = rd.integer("interval count")
    if n < 1:
        raise rd.error(0, "interval count must be positive")
    entries = []
    for j in range(1, n + 1):
        left = _reference_rational(rd, f"left endpoint {j}")
        right = _reference_rational(rd, f"right endpoint {j}")
        entries.append((left, right))
    rd.done()
    for j, (left, right) in enumerate(entries, start=1):
        if left > right:  # token 2j is interval j's left endpoint
            raise rd.error(2 * j, f"interval {j} has left endpoint above right endpoint")
    return reference_from_intervals(entries)


def reference_parse_pig(data: bytes) -> ProperIntervalGraph:
    """Reference reading of a ``pig`` file: one ``_Reader.integer`` call per token."""
    rd = _Reader(data)
    if rd.at_end():
        raise FormatError(0, "empty file")
    rd.word("pig")
    n = rd.integer("vertex count")
    if n < 1:
        raise rd.error(0, "vertex count must be positive")
    rd.word("maxn")
    maxn = [rd.integer(f"max neighbor of vertex {j}") for j in range(1, n + 1)]
    rd.done()
    return ProperIntervalGraph(maxn)


def reference_parse_bubbles(data: bytes) -> CompactBubbles:
    """Reference reading of a ``bubbles`` file: one ``_Reader`` call per token."""
    rd = _Reader(data)
    if rd.at_end():
        raise FormatError(0, "empty file")
    rd.word("bubbles")
    c = rd.integer("column count")
    if c < 1:
        raise rd.error(0, "column count must be positive")
    columns = []
    for j in range(1, c + 1):
        rd.word("col")
        got = rd.integer("column index")
        if got != j:
            raise rd.error(rd.i - 1, f"expected column {j}, got {got}")
        cnt = rd.integer("bubble count")
        col = []
        for _ in range(cnt):
            row = rd.integer("row")
            size = rd.integer("size")
            col.append((row, size))
        columns.append(col)
    rd.done()
    return CompactBubbles(columns)


def outcome(fn, *args):
    """What a call gives: ('ok', result) or (error class, message, byte offset or None)."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # noqa: BLE001 - every error class is compared
        return type(exc), str(exc), getattr(exc, "offset", None)
