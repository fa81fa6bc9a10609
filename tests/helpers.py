"""Shared corpus builders for the test suite."""

from __future__ import annotations

import re

from defdom import Attack, FormatError, ProperIntervalGraph, SplitMix64, defends_consecutive, gen_random_unit_intervals


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
