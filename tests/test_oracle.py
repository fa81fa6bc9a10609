from itertools import combinations, compress, product

import pytest

from defdom import (
    ProperIntervalGraph,
    SplitMix64,
    TooLarge,
    is_k_defensive,
    is_k_defensive_bruteforce,
    min_defensive_bruteforce,
)
from defdom.defense import _neighbor_map
from helpers import all_maxn, k4, p3, p5, random_graph, reference_is_k_defensive


def test_examples():
    edges3 = p3().edges()
    assert is_k_defensive_bruteforce(3, edges3, {2}, 1)
    assert not is_k_defensive_bruteforce(3, edges3, {2}, 2)
    assert is_k_defensive_bruteforce(5, p5().edges(), {2, 3, 5}, 2)


def test_minimum_examples():
    size, witness = min_defensive_bruteforce(3, p3().edges(), 2)
    assert size == 2 and is_k_defensive_bruteforce(3, p3().edges(), witness, 2)
    size, witness = min_defensive_bruteforce(5, p5().edges(), 2)
    assert size == 3
    size, witness = min_defensive_bruteforce(4, k4().edges(), 3)
    assert size == 3 and len(witness) == 3


def test_witness_is_deterministic():
    a = min_defensive_bruteforce(5, p5().edges(), 2)
    b = min_defensive_bruteforce(5, p5().edges(), 2)
    assert a == b


def test_caps():
    with pytest.raises(TooLarge):
        is_k_defensive_bruteforce(17, [], {1}, 1)
    with pytest.raises(TooLarge):
        min_defensive_bruteforce(13, [], 1)
    with pytest.raises(ValueError, match="^k must be at least 1$"):
        is_k_defensive_bruteforce(3, p3().edges(), {2}, 0)
    with pytest.raises(ValueError, match="^k must be at least 1$"):
        min_defensive_bruteforce(3, p3().edges(), 0)


def test_agrees_with_structured_checker():
    rng = SplitMix64(99)
    for trial in range(120):
        n = 1 + rng.below(9)
        g = random_graph(rng, n, seed_tag=9)
        edges = g.edges()
        defenders = {v for v in range(1, n + 1) if rng.below(2)}
        k = 1 + rng.below(4)
        assert is_k_defensive(g, defenders, k) == is_k_defensive_bruteforce(
            n, edges, defenders, k
        ), (g.maxn, defenders, k)


def test_supersets_stay_defensive():
    """Every superset of a defensive set stays defensive; all subsets tried."""
    rng = SplitMix64(123)
    graphs = [random_graph(rng, 5 + rng.below(3), seed_tag=10) for _ in range(6)]
    for g in graphs:
        n = g.n
        edges = g.edges()
        k = 1 + rng.below(3)
        verdict = {}
        for size in range(0, n + 1):
            for base in combinations(range(1, n + 1), size):
                verdict[base] = size > 0 and is_k_defensive_bruteforce(n, edges, base, k)
        for base, good in verdict.items():
            if not good:
                continue
            for extra in range(1, n + 1):
                if extra in base:
                    continue
                assert verdict[tuple(sorted(base + (extra,)))], (g.maxn, k, base, extra)


def test_exact_size_attacks_agree_with_every_size():
    """Attacks of exactly min(k, n) vertices decide what attacks of every size
    up to k do: every proper interval graph with n <= 6 and every graph on 4
    vertices, every defender subset, every k up to n."""
    graphs = [(g.n, g.edges()) for n in range(1, 7) for g in map(ProperIntervalGraph, all_maxn(n))]
    pairs = list(combinations(range(1, 5), 2))
    graphs += [(4, list(compress(pairs, bits))) for bits in product((0, 1), repeat=len(pairs))]
    cases = 0
    for n, edges in graphs:
        nbr = _neighbor_map(edges)
        for size in range(n + 1):
            for defenders in combinations(range(1, n + 1), size):
                for k in range(1, n + 1):
                    want = reference_is_k_defensive(n, nbr, defenders, k)
                    assert is_k_defensive_bruteforce(n, nbr, defenders, k) == want, (n, edges, defenders, k)
                    cases += 1
    assert cases == 62_538, cases
