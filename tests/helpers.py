"""Shared corpus builders for the test suite."""

from __future__ import annotations

from defdom import ProperIntervalGraph, SplitMix64, gen_random_unit_intervals


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
