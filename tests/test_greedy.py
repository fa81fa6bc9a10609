import tracemalloc
from bisect import bisect_right
from types import SimpleNamespace

import pytest

from defdom import (
    ProperIntervalGraph,
    SplitMix64,
    defends_matching,
    gen_family,
    gen_random_unit_intervals,
    is_k_defensive,
    min_defensive_bruteforce,
    solve_greedy,
)
from helpers import all_maxn, connected_graphs, diamond, p3, p5, k4, random_components, random_graph, scan_greedy


def test_examples():
    assert solve_greedy(p3(), 2) == [2, 3]
    assert solve_greedy(p5(), 2) == [2, 3, 5]
    r = solve_greedy(k4(), 2)
    assert len(r) == 2


def test_output_is_defensive_and_optimal_small():
    for n in range(1, 7):
        for g in connected_graphs(n):
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
        d = solve_greedy(g, k, on_step=lambda j, ds: snapshots.append(sorted(ds)))
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
            assert snapshots[-1] == d, (g.maxn, k)


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
        solve_greedy(g, k, on_step=lambda j, d: snapshots.append((j, sorted(d))))
        for j, d in snapshots:
            for size in range(1, min(k, j) + 1):
                for attack in combinations(range(1, j + 1), size):
                    assert defends_matching(edges, set(d), attack), (g.maxn, k, j, d, attack)


def test_on_step_gets_the_live_list_once_per_window():
    """A hooked run stays linear: the hook sees the solver's own list, never a copy."""
    n, k = 20_000, 4
    g = ProperIntervalGraph([min(j + 1, n) for j in range(1, n + 1)])
    windows = []
    first = []

    def hook(j, ds):
        windows.append(j)
        if not first:
            first.append(ds)
        elif ds is not first[0]:
            raise AssertionError(f"window {j} got a new defender list")

    d = solve_greedy(g, k, on_step=hook)
    assert windows == list(range(1, n + 1))
    assert first[0] is d


def test_on_step_runs_once_per_vertex_past_small_components():
    """A component of at most k vertices is recruited by its own windows, so
    the hook still sees every vertex, in order."""
    g = ProperIntervalGraph([2, 2, 5, 5, 5, 7, 8, 9, 9])  # components [1..2], [3..5], [6..9]
    for k in (1, 2, 3, 4, 9):
        windows = []
        d = solve_greedy(g, k, on_step=lambda j, ds: windows.append((j, len(ds))))
        assert [j for j, _ in windows] == list(range(1, g.n + 1)), (k, windows)
        assert windows[-1][1] == len(d), (k, windows)


def _agrees_with_scan(g, k):
    """Same defenders as the predecessor-list scan; the step counts differ by design."""
    assert solve_greedy(g, k) == scan_greedy(g, k), (g.maxn, k)


def test_matches_scan_reference_exhaustive():
    for n in range(1, 8):
        for maxn in all_maxn(n):
            g = ProperIntervalGraph(maxn)
            for k in range(1, n + 2):
                _agrees_with_scan(g, k)


def test_matches_scan_reference_random():
    rng = SplitMix64(8080)
    cases = []
    for trial in range(200):
        cases.append(random_components(rng, 1 + rng.below(12), 1 + rng.below(12)))
    for n in (50, 500, 2000):
        cases.append(gen_random_unit_intervals(n, spread="1/16", seed=n + rng.below(1 << 20)))
        sizes = []
        while sum(sizes) - len(sizes) + 1 < n:
            sizes.append(2 + rng.below(9))
        cases.append(gen_family("clique_chain", sizes=sizes))
    for g in cases:
        n = g.n
        for k in {1, 2, 1 + rng.below(min(n, 300)), n, n + 1}:
            _agrees_with_scan(g, k)


def test_matches_scan_reference_large():
    """Connected unit intervals at n = 20,000 from k = 1 to 1,000, where
    the deque runs long and suffix adds land deep inside it, and many small
    components up to n = 2,000."""
    g = gen_random_unit_intervals(20_000, spread="1/16", seed=1, connected=True)
    for k in (1, 8, 128, 1000):
        _agrees_with_scan(g, k)
    rng = SplitMix64(2020)
    for trial in range(40):
        k = 1 + rng.below(64)
        g = random_components(rng, k, 1 + rng.below(2000 // (2 * k + 4)))
        for kk in {k, 1 + rng.below(k), 2 * k}:
            _agrees_with_scan(g, kk)


def test_post_recruit_assert_catches_a_bad_recruit():
    """A duck-typed graph, only a ``maxn``, of (1, 3, 1), which breaks
    monotonicity.  Window [1..2] fails with defender 1 alone, and its recruit
    maxn(2) = 3 lies in the window neighborhood, but read through maxn(3) = 1
    it lies below min_nbr(2) and cannot defend vertex 2; the Hall check after
    the recruit must notice."""
    g = SimpleNamespace(n=3, maxn=(0, 1, 3, 1))
    with pytest.raises(AssertionError, match="did not repair the window"):
        solve_greedy(g, 2)


def test_recruit_assert_catches_a_missing_spare():
    """With maxn (1, 2, 1), vertices 1 and 2 are already defenders when
    vertex 3 fails, so no spare lies at or below maxn(3)."""
    g = SimpleNamespace(n=3, maxn=(0, 1, 2, 1))
    with pytest.raises(AssertionError, match="no recruit available"):
        solve_greedy(g, 2)


def _check_no_skip_invariant(g, k):
    """After window j, at most j-x defenders exceed max_nbr(x) for each x of
    j's component up to j, so attacker x is never offered one above it."""
    first = {}
    for lo, hi in g.components():
        for v in range(lo, hi + 1):
            first[v] = lo
    maxn = g.maxn

    def hook(j, ds):
        assert all(a < b for a, b in zip(ds, ds[1:])), (g.maxn, k, j, ds)
        for x in range(first[j], j + 1):
            assert len(ds) - bisect_right(ds, maxn[x]) <= j - x, (g.maxn, k, j, x, ds)

    solve_greedy(g, k, on_step=hook)


def test_no_defender_is_ever_skipped():
    for n in range(1, 8):
        for maxn in all_maxn(n):
            g = ProperIntervalGraph(maxn)
            for k in range(1, n + 2):
                _check_no_skip_invariant(g, k)
    rng = SplitMix64(9191)
    for trial in range(30):
        k = 1 + rng.below(15)
        _check_no_skip_invariant(random_components(rng, k, 2 + rng.below(6)), k)
    for seed in range(4):
        g = gen_random_unit_intervals(150, spread="1/16", seed=seed)
        for k in (1, 3, 10, 40):
            _check_no_skip_invariant(g, k)


_CHAIN = gen_family("clique_chain", sizes=[2, 2, 3, 4])
_SCATTERED = random_components(SplitMix64(13), 10, 3)
_FIXED_RUNS = (
    (p5(), 2, [2, 3, 5]),
    (diamond(), 2, [3, 4]),
    (_CHAIN, 2, [2, 3, 7, 8]),
    (_SCATTERED, 3, [2, 4, 6, 8, 13, 16, 20, 28, 29, 30, 35, 36, 37]),
    (_SCATTERED, 10, [*range(1, 9), 13, 16, *range(19, 27), 28, 29, 30, 31, *range(33, 40)]),
)


def _check_fixed_runs(solve, steps):
    for (g, k, want), want_steps in zip(_FIXED_RUNS, steps):
        stats = {}
        assert solve(g, k, stats=stats) == want, (g.maxn, k)
        assert stats == dict(defense_steps=want_steps, additions=len(want)), (g.maxn, k, stats)


def test_exact_counters():
    """Defenders and every counter of a few fixed runs, so a refactor that moves a step shows."""
    _check_fixed_runs(solve_greedy, (11, 6, 16, 87, 99))


def test_scan_reference_exact_counters():
    """The reference scan's own counters on the same runs, so the reference stays pinned."""
    _check_fixed_runs(scan_greedy, (8, 7, 15, 105, 218))


def test_peak_memory_is_the_answer():
    """Nothing of length n besides the answer: a chain of 1,000 100-cliques
    (n = 99,001, 7,001 defenders at k = 8) peaks under 1 MB."""
    g = gen_family("clique_chain", sizes=[100] * 1000)
    tracemalloc.start()
    try:
        solve_greedy(g, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_steps_linear_in_n_plus_defenders():
    """Pushes, removals, pointer moves and suffix adds: at most 2n + |D| for any k."""
    g = gen_random_unit_intervals(5_000, spread="1/16", seed=7, connected=True)
    for k in (1, 2, 8, 64, 512, g.n - 1):
        stats = {}
        d = solve_greedy(g, k, stats=stats)
        assert stats["defense_steps"] <= 2 * g.n + len(d), (k, stats)


def test_step_counter_scales_with_nk():
    stats = {}
    n, k = 3000, 6
    g = ProperIntervalGraph([min(j + 1, n) for j in range(1, n + 1)])
    solve_greedy(g, k, stats=stats)
    assert 0 < stats["defense_steps"] <= 4 * n * k


def test_rejects_bad_k():
    with pytest.raises(ValueError):
        solve_greedy(p3(), 0)
