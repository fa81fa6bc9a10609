import pytest

from defdom import (
    BubbleSolverState,
    Overflow,
    ProperIntervalGraph,
    SplitMix64,
    bubbles_from_pig,
    gen_random_unit_intervals,
    is_k_defensive,
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
    from defdom import OffsetMinHeap

    h = OffsetMinHeap(4)
    h.push(3, 5)
    h.offset = 5
    assert h.min_key() - h.offset == 0
    h = OffsetMinHeap(4)
    h.push(1, 7)
    h.push(2, 9)
    h.offset = 4
    assert h.min_key() - h.offset == 3
    # equal keys surface the rightmost bubble
    h.adjust(2, 7)
    assert h.top() == 2


def test_offset_shift_leaves_keys_untouched():
    st = BubbleSolverState(bubbles_from_pig(p5()), 2)
    st.add_new_vertices(2)
    keys_before = sorted(st.heap.key[b] for b in st.heap.heap)
    slack_before = st.slack()
    st.shift(1)
    assert sorted(st.heap.key[b] for b in st.heap.heap) == keys_before
    assert st.slack() == slack_before - 1


def test_remove_left_examples():
    st = BubbleSolverState(bubbles_from_pig(p5()), 2)
    st.add_new_vertices(2)
    st.shift(2)  # window [3..4], segments for bubbles {2} and {3}
    before = (st.first, st.last)
    st.remove_left(0)
    assert (st.first, st.last) == before
    st.remove_left(2)  # full flush
    assert len(st.heap) == 0
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
        # segment-list enter/leave events: once in, once out, per bubble
        assert stats["list_ops"] <= 2 * B, (g.maxn, k, stats)


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


def test_disconnected_model_from_compact_structure():
    # two apart columns: a 2-clique and a 3-clique, bubbles finer than twins
    from defdom import CompactBubbles, linear_from_compact, pig_from_bubbles

    cb = CompactBubbles([[(1, 2)], [(2, 3)]])
    lbm = linear_from_compact(cb)
    g = pig_from_bubbles(cb)
    for k in (1, 2, 3, 4):
        assert solve_bubble(lbm, k) == solve_greedy(g, k)
