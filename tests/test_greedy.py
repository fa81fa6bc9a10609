import hashlib
import tracemalloc
from bisect import bisect_right
from types import SimpleNamespace

import pytest

from defdom import (
    ProperIntervalGraph,
    SplitMix64,
    bubbles_from_pig,
    defends_matching,
    gen_family,
    gen_random_bubbles,
    gen_random_unit_intervals,
    is_k_defensive,
    min_defensive_bruteforce,
    pig_from_bubbles,
    solve_greedy,
)
from defdom.greedy import _BATCH
from helpers import (
    all_maxn,
    connected_graphs,
    diamond,
    fat_chain,
    k4,
    p3,
    p5,
    random_components,
    random_graph,
    scan_greedy,
    union,
)


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
    """A hooked run stays linear: the hook sees the solver's own list, never a
    copy, once per window, also over the quiet windows of a 100-clique chain
    that the solver jumps and, at k above the batch gate, the failing ones it
    recruits in batches."""
    n = 20_000
    path = ProperIntervalGraph([min(j + 1, n) for j in range(1, n + 1)])
    for g, k in ((path, 4), (_CHAIN_100, 8), (_CHAIN_100, 2 * _BATCH)):
        windows = []
        first = []

        def hook(j, ds):
            windows.append(j)
            if not first:
                first.append(ds)
            elif ds is not first[0]:
                raise AssertionError(f"window {j} got a new defender list")

        stats = {}
        d = solve_greedy(g, k, stats=stats, on_step=hook)
        assert windows == list(range(1, g.n + 1)), k
        assert first[0] is d, k
    assert stats["visited"] < g.n // 10, stats  # the chain's calls came mostly from jumped windows


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
    # Twin classes far wider than k: most windows lie in quiet stretches that the solver jumps.
    wide = [gen_family("clique_chain", sizes=[20 + rng.below(131) for _ in range(1 + rng.below(8))]) for _ in range(12)]
    wide += [
        pig_from_bubbles(gen_random_bubbles(1 + rng.below(600), 1 + rng.below(12), 1 + rng.below(5), seed=rng.next()))
        for _ in range(24)
    ]
    for g in wide:
        for k in {1, 2, 8, 32, g.n}:
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
_CHAIN_100 = gen_family("clique_chain", sizes=[100] * 1000)
_SCATTERED = random_components(SplitMix64(13), 10, 3)
_FIXED_RUNS = (
    (p5(), 2, [2, 3, 5]),
    (diamond(), 2, [3, 4]),
    (_CHAIN, 2, [2, 3, 7, 8]),
    (_SCATTERED, 3, [2, 4, 6, 8, 13, 16, 20, 28, 29, 30, 35, 36, 37]),
    (_SCATTERED, 10, [*range(1, 9), 13, 16, *range(19, 27), 28, 29, 30, 31, *range(33, 40)]),
)


def _check_fixed_runs(solve, steps, visited=None):
    """Each run's defenders and counters; ``visited`` is given for the vertex greedy only."""
    for i, ((g, k, want), want_steps) in enumerate(zip(_FIXED_RUNS, steps)):
        stats = {}
        assert solve(g, k, stats=stats) == want, (g.maxn, k)
        expected = dict(defense_steps=want_steps, additions=len(want))
        if visited is not None:
            expected["visited"] = visited[i]
        assert stats == expected, (g.maxn, k, stats)


def test_exact_counters():
    """Defenders and every counter of a few fixed runs, so a refactor that moves a step shows."""
    _check_fixed_runs(solve_greedy, (11, 6, 16, 87, 99), visited=(5, 4, 8, 26, 39))
    # The bubbles_fat shape at k = 32, where 9,467 of 10,088 windows are jumped
    # or batched: its defenders and steps are those the window-by-window loop gives.
    stats = {}
    d = solve_greedy(fat_chain(), 32, stats=stats)
    assert hashlib.sha256(",".join(map(str, d)).encode()).hexdigest()[:16] == "2d9487c93653c633"
    assert stats == dict(defense_steps=23213, additions=3101, visited=621), stats


def test_scan_reference_exact_counters():
    """The reference scan's own counters on the same runs, so the reference stays pinned."""
    _check_fixed_runs(scan_greedy, (8, 7, 15, 105, 218))


def _staircase(rng, n):
    """Runs of up to 40 equal maxn values, each above the last by 0 or 1 or,
    half the time, by up to 40: twin classes whose maxn differ by one, where
    a batch's last recruits can fall short of their window ends."""
    maxn = []
    v = 0
    while len(maxn) < n:
        v = max(v, len(maxn) + 1) + rng.below(41 if rng.below(2) else 2)
        maxn += [v] * (1 + rng.below(40))
    return ProperIntervalGraph([min(n, max(m, i)) for i, m in enumerate(maxn[:n], start=1)])


def _wide_twin_cases(rng):
    """Clique chains whose twin classes run past the batch gate, alone and
    joined on either side with a random graph, and staircases."""
    cases = []
    for trial in range(24):
        chain = gen_family("clique_chain", sizes=[2 + rng.below(59) for _ in range(1 + rng.below(8))])
        other = random_graph(rng, 1 + rng.below(40), seed_tag=trial)
        cases += [chain, union(chain, other), union(other, chain)]
    cases += [_staircase(rng, 40 + rng.below(300)) for _ in range(60)]
    return cases


def test_batches_match_scan_reference():
    """Failing windows recruited in one batch give the scan's defenders and,
    window by window, its defender sets, at k on both sides of the gate.  The
    scan takes a component of at most k vertices whole, calling no hook."""
    rng = SplitMix64(3838)
    for g in _wide_twin_cases(rng):
        for k in {1 + rng.below(_BATCH), _BATCH, _BATCH + 1, _BATCH + 2 + rng.below(48), 64}:
            mine, ref = [], []
            assert solve_greedy(g, k) == scan_greedy(g, k, on_step=lambda j, ds: ref.append((j, sorted(ds)))), (g.maxn, k)
            solve_greedy(g, k, on_step=lambda j, ds: mine.append(list(ds)))  # a hooked batch inserts one at a time
            assert len(mine) == g.n and all(mine[j - 1] == want for j, want in ref), (g.maxn, k)


def test_quiet_windows_are_jumped():
    """On a chain of 1,000 100-cliques the solver decides one at a time at
    most one window per defender and per bubble, plus one."""
    bubbles = bubbles_from_pig(_CHAIN_100).count
    for k in (8, 32):
        stats = {}
        d = solve_greedy(_CHAIN_100, k, stats=stats)
        assert stats["visited"] <= len(d) + bubbles + 1, (k, len(d), bubbles, stats)


def test_failing_windows_are_batched():
    """Above the gate, a 100-clique chain is decided one window at a time at
    most three times per clique: the window that recruits the clique's last
    vertex and batches the rest, the one after the batch, which jumps, and
    the one a jump lands on.  Below it every failing window is its own."""
    stats = {}
    solve_greedy(_CHAIN_100, 32, stats=stats)
    assert stats["visited"] <= 3 * 1000, stats
    stats = {}
    d = solve_greedy(_CHAIN_100, _BATCH, stats=stats)
    assert stats["visited"] > len(d), stats


def test_peak_memory_is_the_answer():
    """Nothing of length n besides the answer: a chain of 1,000 100-cliques
    (n = 99,001, 7,001 defenders at k = 8) peaks under 1 MB."""
    tracemalloc.start()
    try:
        solve_greedy(_CHAIN_100, 8)
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
