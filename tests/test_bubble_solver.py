from collections import Counter
from types import SimpleNamespace

import pytest

from defdom import (
    LinearBubbles,
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
import helpers
from helpers import all_maxn, bubble_checker, diamond, first_divergence, k4, p5, random_components, random_graph


def test_examples():
    assert solve_bubble(bubbles_from_pig(p5()), 2) == [2, 3, 5]
    assert solve_bubble(bubbles_from_pig(diamond()), 2) == [3, 4]
    r = solve_bubble(bubbles_from_pig(k4()), 2)
    assert len(r) == 2


def trace(lbm, k, stats=None):
    """Solve with the checking hook; return (first, last, defenders, live bubbles,
    bubbles in the minima deque, its length) as the hook sees them after every step."""
    steps = []
    g = lbm.to_graph()
    assert solve_bubble(lbm, k, stats=stats, on_step=bubble_checker(lbm, steps)) == solve_greedy(g, k), (
        first_divergence(g, k)
    )
    return steps


def test_initial_add_mirrors_greedy_prefix():
    # after the initial fill of a width-2 window on the path, defenders are {2,3}
    assert trace(bubbles_from_pig(p5()), 2)[0][:3] == (1, 2, [2, 3])
    # on the diamond the first two recruits are {3,4}
    assert trace(bubbles_from_pig(diamond()), 2)[0][:3] == (1, 2, [3, 4])


def test_slack_and_bottleneck_on_path_trace():
    steps = [step[:4] for step in trace(bubbles_from_pig(p5()), 2)]
    assert steps == [
        (1, 2, [2, 3], [1, 2]),  # defenders 2 and 3 can stretch to attackers 3 and 4: slack 2
        (3, 4, [2, 3], [1, 2]),  # the window slides by 2, leaving zero slack
        # the rightmost zero-slack bubble {3} covers attacker 4: attacker 3 and
        # bubble {2}'s segment leave, and attacker 5 recruits vertex 5
        (4, 5, [2, 3, 5], [2, 4]),
    ]
    # on a 6-vertex path both bubbles reach zero slack at window [3..4]; the
    # tie goes to the rightmost, {3}, so attackers 3 and 4 leave in one step
    steps = [step[:4] for step in trace(bubbles_from_pig(gen_family("path", 6)), 2)]
    assert steps[1:] == [(3, 4, [2, 3], [1, 2]), (5, 6, [2, 3, 5, 6], [4, 5])]


def test_remove_left_examples():
    # two 4-vertex paths side by side, 4 bubbles each (0-3 and 4-7): the first
    # component's segments and minima have left once the window starts in the second
    g = ProperIntervalGraph([2, 3, 4, 4, 6, 7, 8, 8])
    stats = {}
    steps = trace(bubbles_from_pig(g), 2, stats)
    second = [step for step in steps if step[0] >= 5]
    assert second and second[0][:2] == (5, 6)
    for first, last, _, live, entries, _ in second:
        assert live and min(live) >= 4 and min(entries) >= 4, (first, last, live, entries)
    # every segment that joined the defense left it at a bottleneck, except
    # those of the final window
    assert stats["heap_inserts"] - stats["heap_deletes"] == len(steps[-1][3])


def test_window_spans_a_component_gap():
    # an isolated vertex, then an edge: the first window [1..2] spans the gap,
    # vertex 1 defends itself with zero slack, so it leaves and attacker 3
    # joins without a slide; the recruit for it stays in its own component
    steps = [step[:4] for step in trace(bubbles_from_pig(ProperIntervalGraph([1, 3, 3])), 2)]
    assert steps == [(1, 2, [1, 3], [0, 1]), (2, 3, [1, 2, 3], [1])]


def test_empty_model_rejected():
    from defdom import InvalidBubbles, LinearBubbles

    with pytest.raises(InvalidBubbles):
        LinearBubbles([], [])


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
        assert dg == db, (g.maxn, k, first_divergence(g, k))


def test_agreement_with_validation_mode():
    """The checking hook re-derives the rightmost defense after every step."""
    rng = SplitMix64(3141)
    for trial in range(40):
        n = 3 + rng.below(60)
        g = gen_random_unit_intervals(n, spread=1 + rng.below(3), seed=trial + 7000)
        k = 1 + rng.below(max(1, min(n - 1, 12)))
        dg = solve_greedy(g, k)
        lbm = bubbles_from_pig(g)
        db = solve_bubble(lbm, k, on_step=bubble_checker(lbm))
        assert dg == db, (g.maxn, k, first_divergence(g, k))


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
        # segments joining and leaving the defense: once in, once out, per bubble
        assert stats["heap_inserts"] + stats["heap_deletes"] <= 2 * B, (g.maxn, k, stats)
        assert stats["iterations"] <= 2 * B + 3, (g.maxn, k, stats)


def test_minima_deque_is_exact_on_random_runs():
    """Checked runs confirm at every step that the deque holds exactly the
    strict suffix minima of the live keys, and so the least slack first."""
    rng = SplitMix64(2718)
    checked = 0
    for trial in range(150):
        n = 2 + rng.below(300)
        g = random_graph(rng, n, seed_tag=21) if trial % 3 else random_components(rng, 1 + rng.below(12), 2 + rng.below(5))
        k = 1 + rng.below(max(1, g.n - 1))
        checked += len(trace(bubbles_from_pig(g), k))
    assert checked > 500  # 1167 checked steps in all


def test_summed_counters_over_a_seeded_sweep():
    """Every counter summed over 2,400 seeded runs of four shapes, so a change
    that moves one event anywhere shows."""
    rng = SplitMix64(0x5EED5)
    total = Counter()
    for trial in range(2400):
        kind = trial % 4
        if kind == 0:
            lbm = bubbles_from_pig(random_graph(rng, 2 + rng.below(120), seed_tag=30))
        elif kind == 1:
            lbm = bubbles_from_pig(random_components(rng, 1 + rng.below(12), 1 + rng.below(6)))
        elif kind == 2:
            lbm = bubbles_from_pig(gen_random_unit_intervals(2 + rng.below(150), spread=1 + rng.below(6), seed=trial))
        else:
            cb = gen_random_bubbles(1 + rng.below(300), max_columns=1 + rng.below(8), max_rows=1 + rng.below(6), seed=trial)
            lbm = linear_from_compact(cb)
        k = 1 + rng.below(max(1, min(lbm.n, 40)))
        stats = {}
        solve_bubble(lbm, k, stats=stats)
        total.update(stats)
    assert dict(total) == dict(
        heap_inserts=71054, heap_deletes=47905, merge_touches=6980, zero_slack_iterations=10553,
        positive_slack_iterations=4138, chunks=73424, iterations=14691, bubbles=80604)


def test_exhaustive_agreement_with_validation():
    """Every graph with n <= 7, connected or not, at every k from 1 to n + 1:
    the checked bubble solver returns the greedy's defenders within its
    counter bounds, and the two solvers hold the same defenders after every
    window end of a bubble step."""
    runs = 0
    for n in range(1, 8):
        for maxn in all_maxn(n):
            g = ProperIntervalGraph(maxn)
            lbm = bubbles_from_pig(g)
            B = lbm.count
            check = bubble_checker(lbm)
            for k in range(1, n + 2):
                stats = {}
                assert solve_bubble(lbm, k, stats=stats, on_step=check) == solve_greedy(g, k), (
                    maxn, k, first_divergence(g, k))
                assert stats["heap_inserts"] + stats["heap_deletes"] <= 2 * B, (maxn, k, stats)
                assert stats["iterations"] <= 2 * B + 3, (maxn, k, stats)
                # the segments still live at the end hold one attacker each at least
                assert 0 <= stats["heap_inserts"] - stats["heap_deletes"] <= min(k, B), (maxn, k, stats)
                assert first_divergence(g, k) is None, (maxn, k)
                runs += 1
    assert runs == 4706


@pytest.mark.parametrize(
    "k, bubble, want",
    [
        # attacker 4's batch recruits at max_nbr(4) = 5; lowered, it takes 4
        (1, 4, 4),
        # window [5..6] recruits 6 for attacker 5, then 7 for attacker 6;
        # with max_nbr(6) lowered to 6, a full bubble, that batch takes 5
        (2, 6, 6),
    ],
)
def test_first_divergence_names_a_corrupted_batch(monkeypatch, k, bubble, want):
    """On the 8-vertex path, one bubble's ``max_nbr`` one vertex lower breaks
    the recruit batch of the attackers in that bubble, at that batch's window end."""
    g = gen_family("path", 8)
    lbm = bubbles_from_pig(g)
    max_nbr = list(lbm.max_nbr)
    max_nbr[bubble - 1] -= 1
    broken = duck_model(lbm.sizes, tuple(max_nbr))
    monkeypatch.setattr(helpers, "bubbles_from_pig", lambda _: broken)
    assert first_divergence(g, k) == want


def test_exact_counters():
    """Every counter of a few fixed runs, so a refactor that moves an event shows."""
    chain = gen_family("clique_chain", sizes=[2, 2, 3, 4])
    scattered = linear_from_compact(gen_random_bubbles(60, seed=13))
    cases = (
        (bubbles_from_pig(p5()), 2, [2, 3, 5], dict(
            heap_inserts=3, heap_deletes=1, merge_touches=0, zero_slack_iterations=1,
            positive_slack_iterations=1, chunks=3, iterations=2, bubbles=5)),
        (bubbles_from_pig(diamond()), 2, [3, 4], dict(
            heap_inserts=2, heap_deletes=0, merge_touches=0, zero_slack_iterations=0,
            positive_slack_iterations=1, chunks=2, iterations=1, bubbles=3)),
        (bubbles_from_pig(chain), 2, [2, 3, 7, 8], dict(
            heap_inserts=3, heap_deletes=2, merge_touches=1, zero_slack_iterations=2,
            positive_slack_iterations=3, chunks=4, iterations=5, bubbles=6)),
        (scattered, 3, [14, 15, 16, 50, 51, 52, 58, 59, 60], dict(
            heap_inserts=4, heap_deletes=3, merge_touches=0, zero_slack_iterations=2,
            positive_slack_iterations=2, chunks=3, iterations=4, bubbles=14)),
        (scattered, 10, [*range(13, 21), 26, 27, *range(49, 58), 59, 60], dict(
            heap_inserts=8, heap_deletes=3, merge_touches=7, zero_slack_iterations=4,
            positive_slack_iterations=4, chunks=11, iterations=8, bubbles=14)),
    )
    for lbm, k, want, want_stats in cases:
        stats = {}
        assert solve_bubble(lbm, k, stats=stats) == want, (lbm.count, k)
        assert stats == want_stats, (lbm.count, k, stats)
    # The pig_k128 benchmark shape: connected unit intervals, n = 2,000, spread 1/16.
    wide = bubbles_from_pig(gen_random_unit_intervals(2000, spread="1/16", seed=128, connected=True))
    stats = {}
    got = solve_bubble(wide, 128, stats=stats)
    assert (len(got), sum(got)) == (1727, 1729393)
    assert stats == dict(
        heap_inserts=1217, heap_deletes=1134, merge_touches=314, zero_slack_iterations=113,
        positive_slack_iterations=113, chunks=1205, iterations=226, bubbles=1347), stats


def duck_model(sizes, max_nbr):
    """A model of only the fields the solver reads, with no checks."""
    return SimpleNamespace(n=sum(sizes), count=len(sizes), sizes=sizes, max_nbr=max_nbr)


@pytest.mark.parametrize(
    "sizes, max_nbr, k, check",
    [
        # vertex 2's neighborhood ends at bubble 0, which vertex 1's batch
        # filled, so the search falls below bubble 0
        pytest.param((1, 1), (1, 1), 1, "b >= 0", id="hop"),
        # bubble 1's last neighbor, vertex 1, lies below its own vertices, so
        # the second grow recruits in bubble 1 for attacker 2, out of its reach
        pytest.param((1, 2), (3, 1), 1, "max_nbr[low] >= first", id="grow"),
        # the second grow's first chunk takes bubble 2, inside the window
        # neighborhood, and its second chunk falls to bubble 0, below it
        pytest.param((1, 1, 1, 1), (2, 4, 3, 2), 2, "max_nbr[low] >= first", id="grow-past-first-receiver"),
    ],
)
def test_recruit_assert_catches_a_missing_spare(sizes, max_nbr, k, check):
    """Duck-typed models whose ``max_nbr`` breaks the model's rules, so the
    recruit search leaves the window neighborhood: per hop, or over a grow."""
    with pytest.raises(AssertionError, match="recruit search left the window neighborhood") as failed:
        solve_bubble(duck_model(sizes, max_nbr), k)
    assert check in str(failed.traceback[-1].statement)


def test_zero_slack_guard_catches_a_stalled_step():
    """A duck-typed model whose ``max_nbr`` falls below the window start: the
    zero-slack step would drop no attacker and loop for ever."""
    with pytest.raises(AssertionError, match="zero-slack step made no progress"):
        solve_bubble(duck_model((1, 1, 2), (2, 1, 4)), 2)


def test_solver_reads_only_the_defining_fields():
    """A model of ``n``, ``count``, ``sizes`` and ``max_nbr`` alone gives the
    real model's answer and counters: the solver reads no derived field."""
    rng = SplitMix64(3535)
    for trial in range(500):
        if trial % 2:
            lbm = linear_from_compact(gen_random_bubbles(1 + rng.below(60), seed=trial))
        else:
            g = gen_random_unit_intervals(1 + rng.below(60), spread="1/2", seed=trial)
            lbm = bubbles_from_pig(g)
        k = 1 + rng.below(lbm.n + 1)
        want, got = {}, {}
        answer = solve_bubble(lbm, k, stats=want)
        assert solve_bubble(duck_model(lbm.sizes, lbm.max_nbr), k, stats=got) == answer, (trial, k)
        assert got == want, (trial, k)


def test_solver_accepts_finer_than_twin_models():
    """Bubbles may be split finer than twin classes; the answer is unchanged."""
    from defdom import LinearBubbles

    g = ProperIntervalGraph([4, 4, 4, 4])
    fine = LinearBubbles([2, 2], [4, 4])  # one clique, two bubbles
    for k in (1, 2, 3):
        assert solve_bubble(fine, k) == solve_greedy(g, k)


def test_disconnected_models():
    rng = SplitMix64(8128)
    for trial in range(150):
        k = 1 + rng.below(12)
        g = random_components(rng, k, 2 + rng.below(5))
        stats = {}
        lbm = bubbles_from_pig(g)
        d = solve_bubble(lbm, k, stats=stats, on_step=bubble_checker(lbm))
        assert d == solve_greedy(g, k), (g.maxn, k, first_divergence(g, k))
        B = stats["bubbles"]
        assert stats["heap_inserts"] + stats["heap_deletes"] <= 2 * B, (g.maxn, k, stats)
        assert stats["iterations"] <= 2 * B + 3, (g.maxn, k, stats)


def test_state_is_per_bubble_on_huge_twin_classes():
    """Nothing is allocated per vertex: a million twins per bubble cost kilobytes."""
    import tracemalloc

    def one_bubble(m):
        return LinearBubbles([m], [m]), 1

    def three_bubbles_chained(m):  # each bubble adjacent to the next only
        return LinearBubbles([m] * 3, [2 * m, 3 * m, 3 * m]), 3

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


def test_working_state_goes_before_the_answer_is_built():
    """On the pig_k128 benchmark shape (connected unit intervals, spread 1/16,
    n = 2,000, k = 128) the solve peaks below 12 bytes per bubble beyond the
    list it returns: it reads the model's tuples in place and holds only
    ``d`` while the defenders are expanded (10.4 measured; 26.5 with a
    1-based copy of the bubble ends, 73.6 with all the per-bubble state held)."""
    import tracemalloc

    wide = bubbles_from_pig(gen_random_unit_intervals(2000, spread="1/16", seed=128, connected=True))
    tracemalloc.start()
    try:
        got = solve_bubble(wide, 128)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(got) == 1727
    assert (peak - held) / wide.count < 12, (peak - held) / wide.count


def test_disconnected_model_from_compact_structure():
    # two apart columns: a 2-clique and a 3-clique, bubbles finer than twins
    from defdom import CompactBubbles, linear_from_compact, pig_from_bubbles

    cb = CompactBubbles([[(1, 2)], [(2, 3)]])
    lbm = linear_from_compact(cb)
    g = pig_from_bubbles(cb)
    for k in (1, 2, 3, 4):
        assert solve_bubble(lbm, k) == solve_greedy(g, k)
