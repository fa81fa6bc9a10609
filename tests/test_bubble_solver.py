import pytest

from defdom import (
    BubbleSolverState,
    LinearBubbles,
    Overflow,
    ProperIntervalGraph,
    SplitMix64,
    bubbles_from_pig,
    gen_family,
    gen_random_bubbles,
    gen_random_unit_intervals,
    is_k_defensive,
    linear_from_compact,
    solve_bubble,
    solve_greedy,
)
from helpers import p5, diamond, k4, random_components, random_graph


def test_examples():
    assert solve_bubble(bubbles_from_pig(p5()), 2) == [2, 3, 5]
    assert solve_bubble(bubbles_from_pig(diamond()), 2) == [3, 4]
    r = solve_bubble(bubbles_from_pig(k4()), 2)
    assert len(r) == 2


def test_initial_add_mirrors_greedy_prefix():
    # after the initial fill of a width-2 window on the path, defenders are {2,3}
    st = BubbleSolverState(bubbles_from_pig(p5()), 2)
    st.add_new_vertices(2)
    assert st.last == 2
    assert st.defenders() == [2, 3]
    # on the diamond the first two recruits are {3,4}
    st = BubbleSolverState(bubbles_from_pig(diamond()), 2)
    st.add_new_vertices(2)
    assert st.defenders() == [3, 4]


def test_add_zero_is_noop_and_overflow_raises():
    st = BubbleSolverState(bubbles_from_pig(p5()), 2)
    st.add_new_vertices(2)
    before = (st.first, st.last, st.defenders())
    st.add_new_vertices(0)
    assert (st.first, st.last, st.defenders()) == before
    with pytest.raises(Overflow):
        st.add_new_vertices(4)  # would pass the last vertex


def test_slack_and_bottleneck_on_path_trace():
    st = BubbleSolverState(bubbles_from_pig(p5()), 2)
    st.add_new_vertices(2)
    # defenders 2 and 3 can stretch to vertices 3 and 4: slack 2
    assert st.slack() == 2
    with pytest.raises(ValueError):
        st.bottleneck()
    st.shift(2)
    assert (st.first, st.last) == (3, 4)
    assert st.slack() == 0
    # rightmost zero-slack bubble is {3}, covering attacker 4
    assert st.bottleneck() == 4


def test_offset_heap_arithmetic():
    # diamond: defenders 3 (bubble {2,3}) and 4 (bubble {4}) hold attackers 1 and 2
    st = BubbleSolverState(bubbles_from_pig(diamond()), 2)
    st.add_new_vertices(2)
    assert list(st.live) == [2, 3] and st.offset == 0
    # slack is the last neighbor less the assigned attacker: 4 - 1 and 4 - 2
    assert [st.key[b] - st.offset for b in st.live] == [3, 2]
    assert st.slack() == 2
    st.shift(1)
    assert st.offset == 1 and st.slack() == 1
    # path: defenders 2 and 3 hold attackers 1 and 2, both with slack 2
    st = BubbleSolverState(bubbles_from_pig(p5()), 2)
    st.add_new_vertices(2)
    assert [st.key[b] - st.offset for b in st.live] == [2, 2]
    st.shift(2)
    # equal keys surface the rightmost bubble: {3}, whose last neighbor is 4, not {2}'s 3
    assert st.slack() == 0 and st.bottleneck() == 4


def test_offset_shift_leaves_keys_untouched():
    st = BubbleSolverState(bubbles_from_pig(p5()), 2)
    st.add_new_vertices(2)
    slack_before = st.slack()
    keys_before, heap_before = [st.key[b] for b in st.live], list(st.heap)
    st.shift(1)
    assert [st.key[b] for b in st.live] == keys_before and st.heap == heap_before
    assert st.slack() == slack_before - 1


def test_remove_left_examples():
    st = BubbleSolverState(bubbles_from_pig(p5()), 2)
    st.add_new_vertices(2)
    st.shift(2)  # window [3..4], segments for bubbles {2} and {3}
    before = (st.first, st.last, list(st.live))
    st.remove_left(0)
    assert (st.first, st.last, list(st.live)) == before
    st.remove_left(2)  # full flush
    assert not st.live
    assert st.first == 5 and st.last == 4
    assert sum(st.seg) == 0


def test_remove_left_rejects_overdraw():
    st = BubbleSolverState(bubbles_from_pig(p5()), 2)
    st.add_new_vertices(2)
    with pytest.raises(ValueError):
        st.remove_left(3)


def test_empty_model_rejected():
    from defdom import InvalidBubbles, LinearBubbles

    with pytest.raises(InvalidBubbles):
        LinearBubbles([], [], [])


def test_rejects_bad_k():
    with pytest.raises(ValueError):
        solve_bubble(bubbles_from_pig(p5()), 0)


def test_k_at_least_n_returns_all_vertices():
    lbm = bubbles_from_pig(p5())
    assert solve_bubble(lbm, 5) == [1, 2, 3, 4, 5]
    assert solve_bubble(lbm, 50) == [1, 2, 3, 4, 5]


def test_agreement_with_greedy_random():
    rng = SplitMix64(2718)
    for trial in range(250):
        n = 2 + rng.below(200)
        g = random_graph(rng, n, seed_tag=14)
        k = 1 + rng.below(max(1, n - 1))
        dg = solve_greedy(g, k)
        db = solve_bubble(bubbles_from_pig(g), k)
        assert dg == db, (g.maxn, k)


def test_agreement_with_validation_mode():
    """Validation mode re-derives the rightmost defense every iteration."""
    rng = SplitMix64(3141)
    for trial in range(40):
        n = 3 + rng.below(60)
        g = gen_random_unit_intervals(n, spread=1 + rng.below(3), seed=trial + 7000)
        k = 1 + rng.below(max(1, min(n - 1, 12)))
        dg = solve_greedy(g, k)
        db = solve_bubble(bubbles_from_pig(g), k, validate=True)
        assert dg == db


def test_counter_bounds():
    rng = SplitMix64(1618)
    for trial in range(120):
        n = 2 + rng.below(300)
        g = random_graph(rng, n, seed_tag=15)
        k = 1 + rng.below(max(1, n - 1))
        stats = {}
        d = solve_bubble(bubbles_from_pig(g), k, stats=stats)
        assert is_k_defensive(g, d, k)
        B = stats["bubbles"]
        assert stats["heap_inserts"] + stats["heap_deletes"] <= 2 * B, (g.maxn, k, stats)
        assert stats["iterations"] <= 2 * B + 3, (g.maxn, k, stats)
        # segments joining and leaving the defense: once in, once out, per bubble
        assert stats["list_ops"] <= 2 * B, (g.maxn, k, stats)


def test_heap_stays_within_twice_the_live_bound():
    """Stale entries are dropped by a rebuild, so the heap never passes 2*min(k, |B|) + 1."""
    rng = SplitMix64(2718)
    worst = 0.0
    for trial in range(150):
        n = 2 + rng.below(300)
        g = random_graph(rng, n, seed_tag=21) if trial % 3 else random_components(rng, 1 + rng.below(12), 2 + rng.below(5))
        k = 1 + rng.below(max(1, g.n - 1))
        st = BubbleSolverState(bubbles_from_pig(g), k)
        merge, peak = st._merge_segments, [0]

        def watched(receivers):  # entries are pushed only inside a merge
            merge(receivers)
            peak[0] = max(peak[0], len(st.heap))

        st._merge_segments = watched
        assert st.run() == solve_greedy(g, k), (g.maxn, k)
        bound = 2 * min(k, st.count) + 1
        assert peak[0] <= bound, (g.maxn, k, peak[0], bound)
        worst = max(worst, peak[0] / bound)
    assert worst > 0.5  # the runs do fill the heap towards the bound


def test_exact_counters():
    """Every counter of a few fixed runs, so a refactor that moves an event shows."""
    chain = gen_family("clique_chain", sizes=[2, 2, 3, 4])
    scattered = linear_from_compact(gen_random_bubbles(60, seed=13))
    cases = (
        (bubbles_from_pig(p5()), 2, [2, 3, 5], dict(
            heap_inserts=3, heap_deletes=1, heap_adjusts=0, merge_touches=0, zero_slack_iterations=1,
            positive_slack_iterations=1, chunks=3, list_ops=4, iterations=2, bubbles=5)),
        (bubbles_from_pig(diamond()), 2, [3, 4], dict(
            heap_inserts=2, heap_deletes=0, heap_adjusts=0, merge_touches=0, zero_slack_iterations=0,
            positive_slack_iterations=1, chunks=2, list_ops=2, iterations=1, bubbles=3)),
        (bubbles_from_pig(chain), 2, [2, 3, 7, 8], dict(
            heap_inserts=3, heap_deletes=2, heap_adjusts=1, merge_touches=1, zero_slack_iterations=2,
            positive_slack_iterations=3, chunks=4, list_ops=5, iterations=5, bubbles=6)),
        (scattered, 3, [14, 15, 16, 50, 51, 52, 58, 59, 60], dict(
            heap_inserts=4, heap_deletes=3, heap_adjusts=0, merge_touches=0, zero_slack_iterations=2,
            positive_slack_iterations=2, chunks=3, list_ops=7, iterations=4, bubbles=14)),
        (scattered, 10, [*range(13, 21), 26, 27, *range(49, 58), 59, 60], dict(
            heap_inserts=8, heap_deletes=3, heap_adjusts=7, merge_touches=7, zero_slack_iterations=4,
            positive_slack_iterations=4, chunks=11, list_ops=11, iterations=8, bubbles=14)),
    )
    for lbm, k, want, want_stats in cases:
        stats = {}
        assert solve_bubble(lbm, k, stats=stats) == want, (lbm.count, k)
        assert stats == want_stats, (lbm.count, k, stats)


def test_solver_accepts_finer_than_twin_models():
    """Bubbles may be split finer than twin classes; the answer is unchanged."""
    from defdom import LinearBubbles

    g = ProperIntervalGraph([4, 4, 4, 4])
    fine = LinearBubbles([2, 2], [1, 1], [4, 4])  # one clique, two bubbles
    for k in (1, 2, 3):
        assert solve_bubble(fine, k) == solve_greedy(g, k)


def test_disconnected_models():
    rng = SplitMix64(8128)
    for trial in range(150):
        k = 1 + rng.below(12)
        g = random_components(rng, k, 2 + rng.below(5))
        stats = {}
        d = solve_bubble(bubbles_from_pig(g), k, stats=stats, validate=True)
        assert d == solve_greedy(g, k), (g.maxn, k)
        B = stats["bubbles"]
        assert stats["heap_inserts"] + stats["heap_deletes"] <= 2 * B, (g.maxn, k, stats)
        assert stats["iterations"] <= 2 * B + 3, (g.maxn, k, stats)
        assert stats["list_ops"] <= 2 * B, (g.maxn, k, stats)


def test_state_is_per_bubble_on_huge_twin_classes():
    """Nothing is allocated per vertex: a million twins per bubble cost kilobytes."""
    import tracemalloc

    def one_bubble(m):
        return LinearBubbles([m], [1], [m]), 1

    def three_bubbles_chained(m):  # each bubble adjacent to the next only
        return LinearBubbles([m] * 3, [1, 1, m + 1], [2 * m, 3 * m, 3 * m]), 3

    for shape in (one_bubble, three_bubbles_chained):
        lbm, k = shape(40)
        assert solve_bubble(lbm, k) == solve_greedy(lbm.to_graph(), k)
    m = 10**6
    for shape, want in ((one_bubble, [m]), (three_bubbles_chained, [2 * m - 2, 2 * m - 1, 2 * m])):
        lbm, k = shape(m)
        tracemalloc.start()
        try:
            got = solve_bubble(lbm, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want, shape.__name__
        assert peak < 64 * 1024, (shape.__name__, peak)


def test_disconnected_model_from_compact_structure():
    # two apart columns: a 2-clique and a 3-clique, bubbles finer than twins
    from defdom import CompactBubbles, linear_from_compact, pig_from_bubbles

    cb = CompactBubbles([[(1, 2)], [(2, 3)]])
    lbm = linear_from_compact(cb)
    g = pig_from_bubbles(cb)
    for k in (1, 2, 3, 4):
        assert solve_bubble(lbm, k) == solve_greedy(g, k)
