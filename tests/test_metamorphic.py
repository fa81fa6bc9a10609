"""Metamorphic relations: the solvers checked against themselves on a
mirrored graph and on a disjoint union, at sizes far past the oracle's cap.

- Mirror.  G^R, with maxn^R(i) = n + 1 - minn(n + 1 - i), is G with its
  vertex order reversed, so it has the same minimum.  The greedy sweeps it
  the other way, so its recruits differ, and the mirrored answer
  {n + 1 - v} is a second minimum set of G that the verifier must accept.
- Union.  An attack on G ⊔ H is one attack of at most k vertices on each
  part, and no defender crosses a part, so min(G ⊔ H, k) = min(G, k) +
  min(H, k), whichever part comes first.
"""

import pytest

from defdom import ProperIntervalGraph, SplitMix64, bubbles_from_pig, first_undefended_attack, solve_bubble, solve_greedy
from defdom.bench import build_instance
from helpers import random_components, random_graph


def mirror(g: ProperIntervalGraph) -> ProperIntervalGraph:
    n, minn = g.n, g.minn  # derived on every read, so read once
    return ProperIntervalGraph([n + 1 - minn[n + 1 - i] for i in range(1, n + 1)])


def union(g: ProperIntervalGraph, h: ProperIntervalGraph) -> ProperIntervalGraph:
    """H's vertices numbered after G's, with no edge between the two."""
    return ProperIntervalGraph([*g.maxn[1:], *(g.n + m for m in h.maxn[1:])])


def check_mirror(g: ProperIntervalGraph, k: int) -> None:
    n, gr = g.n, mirror(g)
    assert mirror(gr) == g
    want, got = solve_greedy(g, k), solve_greedy(gr, k)
    assert len(got) == len(want), (g, k)
    assert first_undefended_attack(g, [n + 1 - v for v in got], k) is None, (g, k)
    assert solve_bubble(bubbles_from_pig(gr), k) == got, (g, k)


def check_union(g: ProperIntervalGraph, h: ProperIntervalGraph, k: int) -> None:
    parts = len(solve_greedy(g, k)) + len(solve_greedy(h, k))
    for both in (union(g, h), union(h, g)):
        assert len(solve_greedy(both, k)) == parts, (g, h, k)


def test_mirror_and_union_on_random_graphs():
    """Seeded random graphs and side-by-side components with n <= 60, at
    k = 1, 2, 3, a random k and n; each is joined with the one before."""
    rng = SplitMix64(909)
    prev = ProperIntervalGraph([1])
    for case in range(400):
        if case % 2:
            g = random_graph(rng, 1 + rng.below(60), seed_tag=case)
        else:
            g = random_components(rng, 1 + rng.below(4), 1 + rng.below(5))  # at most 5 x 12 vertices
        assert g.n <= 60
        for k in sorted({1, 2, 3, 1 + rng.below(g.n), g.n}):
            check_mirror(g, k)
            check_union(g, prev, k)
        prev = g


@pytest.fixture(scope="module")
def bench_shapes():
    """The benchmark's path, clique chain and connected random unit intervals at n = 10^4."""
    return [build_instance(family, 10**4, 0) for family in ("path", "clique_chain", "random")]


@pytest.mark.parametrize("k", [1, 8, 256])
def test_mirror_and_union_on_bench_shapes(bench_shapes, k):
    """Each shape is mirrored, and joined with the next."""
    shapes = bench_shapes
    for g, h in zip(shapes, shapes[1:] + shapes[:1]):
        check_mirror(g, k)
        check_union(g, h, k)
