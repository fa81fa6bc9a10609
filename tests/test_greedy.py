import pytest

from defdom import (
    ProperIntervalGraph,
    SplitMix64,
    defends_matching,
    enumerate_connected_graphs,
    is_k_defensive,
    min_defensive_bruteforce,
    solve_greedy,
)
from helpers import p3, p5, k4, random_components, random_graph


def test_examples():
    assert solve_greedy(p3(), 2) == [2, 3]
    assert solve_greedy(p5(), 2) == [2, 3, 5]
    r = solve_greedy(k4(), 2)
    assert len(r) == 2


def test_output_is_defensive_and_optimal_small():
    for n in range(1, 7):
        for g in enumerate_connected_graphs(n):
            for k in range(1, min(n, 4) + 1):
                d = solve_greedy(g, k)
                assert is_k_defensive(g, d, k), (g.maxn, k, d)
                size, _ = min_defensive_bruteforce(n, g.edges(), k)
                assert len(d) == size, (g.maxn, k, d, size)


def test_optimal_on_random_instances():
    rng = SplitMix64(4242)
    for trial in range(60):
        n = 2 + rng.below(8)
        g = random_graph(rng, n, seed_tag=11)
        k = 1 + rng.below(4)
        d = solve_greedy(g, k)
        size, _ = min_defensive_bruteforce(n, g.edges(), k)
        assert len(d) == size, (g.maxn, k, d)


def test_k_at_least_n_returns_all_vertices():
    g = p5()
    assert solve_greedy(g, 5) == [1, 2, 3, 4, 5]
    assert solve_greedy(g, 12) == [1, 2, 3, 4, 5]


def test_disconnected_components_solved_independently():
    rng = SplitMix64(496)
    for trial in range(150):
        k = 1 + rng.below(12)
        g = random_components(rng, k, 2 + rng.below(5))
        snapshots = []
        d = solve_greedy(g, k, on_step=lambda j, ds: snapshots.append(ds))
        assert is_k_defensive(g, d, k), (g.maxn, k, d)
        want = []
        for lo, hi in g.components():
            sub = ProperIntervalGraph([g.maxn[v] - lo + 1 for v in range(lo, hi + 1)])
            want.extend(v + lo - 1 for v in solve_greedy(sub, k))
        assert d == want, (g.maxn, k)
        if g.n <= 9:  # brute force grows steeply past this
            assert len(d) == min_defensive_bruteforce(g.n, g.edges(), k)[0], (g.maxn, k)
        lo, hi = g.components()[-1]
        if hi - lo + 1 > k:
            assert list(snapshots[-1]) == d, (g.maxn, k)


def test_monotone_in_k():
    rng = SplitMix64(55)
    for trial in range(30):
        n = 2 + rng.below(20)
        g = random_graph(rng, n, seed_tag=12)
        sizes = [len(solve_greedy(g, k)) for k in range(1, n + 1)]
        assert sizes == sorted(sizes), (g.maxn, sizes)


def test_prefix_invariant_via_matching_oracle():
    """After step j the chosen defenders cover every k-attack within [1..j]."""
    from itertools import combinations

    rng = SplitMix64(66)
    for trial in range(12):
        n = 4 + rng.below(5)
        g = random_graph(rng, n, seed_tag=13)
        if not g.is_connected():
            continue
        k = 1 + rng.below(3)
        edges = g.edges()
        snapshots = []
        solve_greedy(g, k, on_step=lambda j, d: snapshots.append((j, d)))
        for j, d in snapshots:
            for size in range(1, min(k, j) + 1):
                for attack in combinations(range(1, j + 1), size):
                    assert defends_matching(edges, set(d), attack), (g.maxn, k, j, d, attack)


def test_step_counter_scales_with_nk():
    stats = {}
    n, k = 3000, 6
    g = ProperIntervalGraph([min(j + 1, n) for j in range(1, n + 1)])
    solve_greedy(g, k, stats=stats)
    assert 0 < stats["defense_steps"] <= 4 * n * k


def test_rejects_bad_k():
    with pytest.raises(ValueError):
        solve_greedy(p3(), 0)
