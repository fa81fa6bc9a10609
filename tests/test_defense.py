from itertools import combinations

import pytest

from defdom import (
    Attack,
    CompactBubbles,
    LinearBubbles,
    ProperIntervalGraph,
    SplitMix64,
    bubbles_from_pig,
    compact_for_family,
    defends_consecutive,
    defends_matching,
    first_undefended_attack,
    gen_family,
    gen_random_bubbles,
    gen_random_unit_intervals,
    is_k_defensive,
    linear_from_compact,
    pig_from_bubbles,
    solve_greedy,
)
from helpers import (
    all_maxn,
    connected_graphs,
    diamond,
    is_bridged,
    is_valid_defense,
    p3,
    p5,
    random_components,
    random_graph,
    random_subset,
    range_of,
    scan_first_undefended,
)


def square_connected(g, attack):
    """Breadth-first connectivity of the induced square graph (oracle)."""
    vs = sorted(attack)
    if len(vs) <= 1:
        return True
    inside = set(vs)
    seen = {vs[0]}
    frontier = [vs[0]]
    while frontier:
        u = frontier.pop()
        for v in inside - seen:
            # distance at most 2 in the underlying graph
            lo, hi = sorted((u, v))
            if g.maxn[lo] >= hi or g.maxn[g.maxn[lo]] >= hi:
                seen.add(v)
                frontier.append(v)
    return seen == inside


def test_defends_consecutive_examples():
    d = defends_consecutive(p3(), (1, 3), Attack(1, 2))
    assert d == [(1, 1), (3, 2)]
    assert defends_consecutive(p3(), (3,), Attack(1, 1)) is None
    d = defends_consecutive(p5(), (2, 3), Attack(3, 4))
    assert d == [(2, 3), (3, 4)]


def test_defense_object_checks():
    g = p5()
    d = defends_consecutive(g, (2, 3, 5), Attack(3, 5))
    assert d is not None
    assert all(x < y for (x, _), (y, _) in zip(d, d[1:]))
    assert is_valid_defense(g, d, Attack(3, 5))
    assert not is_valid_defense(g, d, Attack(2, 5))


def test_defends_matching_examples():
    edges = p3().edges()
    assert defends_matching(edges, {1, 3}, {1, 3})
    assert not defends_matching(edges, {2}, {1, 3})
    dedges = diamond().edges()
    assert not defends_matching(dedges, {2}, {1, 4})
    assert defends_matching(dedges, {2, 3}, {1, 4})


def test_defends_matching_isolated_attacker():
    # an isolated vertex can only defend itself
    assert defends_matching([], {4}, {4})
    assert not defends_matching([], {3}, {4})


def test_defends_matching_long_augmenting_paths():
    # every vertex of a path defends and attacks: each new attacker pushes the
    # earlier ones along a chain as long as the attack so far
    n = 3000
    edges = [(v, v + 1) for v in range(1, n)]
    assert defends_matching(edges, range(1, n + 1), range(1, n + 1))
    # one defender short: the search must unwind stacks deeper than the recursion limit
    m = 1500
    assert not defends_matching(edges[: m - 1], range(2, m + 1), range(1, m + 1))


def test_is_k_defensive_examples():
    assert is_k_defensive(p3(), [1, 3], 2)
    assert is_k_defensive(p5(), [2, 3, 5], 2)
    assert not is_k_defensive(p5(), [2, 3], 2)
    assert first_undefended_attack(p5(), [2, 3], 2) == Attack(4, 5)


def test_is_k_defensive_clamps_k():
    g = p3()
    assert is_k_defensive(g, [1, 2, 3], 99)
    assert not is_k_defensive(g, [1, 2], 99)


def test_hall_verifier_matches_scan_exhaustive():
    """Every canonical graph with n <= 6, every defender subset, every k up to n+1,
    on the graph and on its bubble model."""
    checked = 0
    for n in range(1, 7):
        for maxn in all_maxn(n):
            g = ProperIntervalGraph(maxn)
            lb = bubbles_from_pig(g)
            for mask in range(1 << n):
                ds = [v for v in range(1, n + 1) if mask >> (v - 1) & 1]
                for k in range(1, n + 2):
                    want = scan_first_undefended(g, ds, k)
                    assert first_undefended_attack(g, ds, k) == want, (maxn, ds, k)
                    stats = {}
                    assert first_undefended_attack(lb, ds, k, stats=stats) == want, (maxn, ds, k)
                    assert stats["steps"] <= 4 * lb.count, (maxn, ds, k, stats)
                    checked += 1
    assert checked == 68_508


def test_bubble_verifier_matches_vertex_pass_on_compact_models():
    """3,000 seeded compact models, near-threshold defenders: the same Attack or None as the expanded graph.

    Random scatters (often disconnected: equal rows in adjacent columns do not
    join), clique chains, and scatters over many columns with few rows.  Each
    model is tried at four k with the greedy answer, the answer minus one
    defender, one defender swapped for a non-defender, and a random set.
    """
    rng = SplitMix64(1212)
    models = disconnected = 0
    for trial in range(3000):
        style = trial % 3
        if style == 0:
            cb = gen_random_bubbles(1 + rng.below(120), 1 + rng.below(8), 1 + rng.below(8), seed=trial)
        elif style == 1:
            cb = compact_for_family("clique_chain", sizes=[2 + rng.below(12) for _ in range(1 + rng.below(25))])
        else:
            cb = gen_random_bubbles(1 + rng.below(120), 2 + rng.below(30), 1 + rng.below(3), seed=trial)
        lb = linear_from_compact(cb)
        g = pig_from_bubbles(cb)
        n = g.n
        disconnected += not g.is_connected()
        for k in (1, 1 + rng.below(min(n, 8)), 1 + rng.below(n), n + rng.below(2)):
            answer = solve_greedy(g, k)
            sets = [answer, [v for v in range(1, n + 1) if rng.below(2)]]
            i = rng.below(len(answer))
            sets.append(answer[:i] + answer[i + 1 :])
            outside = sorted(set(range(1, n + 1)).difference(answer))
            if outside:
                sets.append(answer[:i] + [outside[rng.below(len(outside))]] + answer[i + 1 :])
            for ds in sets:
                stats = {}
                assert first_undefended_attack(lb, ds, k, stats=stats) == first_undefended_attack(g, ds, k), (cb, ds, k)
                assert stats["steps"] <= 4 * lb.count, (cb, ds, k, stats)
            assert first_undefended_attack(lb, answer, k) is None
            assert first_undefended_attack(lb, sets[2], k) is not None
        models += 1
    assert models == 3000 and disconnected > 300, disconnected


def test_hall_verifier_matches_scan_near_threshold():
    """Random graphs up to n=2000 with the greedy answer, one defender less, one swapped."""
    rng = SplitMix64(606)
    shapes = 0
    for trial in range(120):
        style = trial % 3
        if style == 0:
            n = 2 + rng.below(60 if trial % 2 else 2000)
            g = random_graph(rng, n, seed_tag=6)
        elif style == 1:
            g = random_components(rng, 1 + rng.below(8), 2 + rng.below(20))
        else:  # clique chains: runs of twins
            sizes = [2 + rng.below(9) for _ in range(1 + rng.below(40))]
            g = gen_family("clique_chain", sizes=sizes)
        n = g.n
        for k in (1 + rng.below(min(n, 16)), 1 + rng.below(min(n, 200)), n, n + 1 + rng.below(3)):
            answer = solve_greedy(g, k)
            sets = [answer]
            i = rng.below(len(answer))
            sets.append(answer[:i] + answer[i + 1 :])
            outside = sorted(set(range(1, n + 1)).difference(answer))
            if outside:
                swapped = list(answer)
                swapped[i] = outside[rng.below(len(outside))]
                sets.append(swapped)
            for ds in sets:
                want = scan_first_undefended(g, ds, k)
                assert first_undefended_attack(g, ds, k) == want, (g.maxn, ds, k)
            assert first_undefended_attack(g, answer, k) is None
            assert first_undefended_attack(g, sets[1], k) is not None
            shapes += 1
    assert shapes == 480


def test_hall_verifier_exact_steps():
    """The Attack and the exact step count of a few fixed graph runs, so a
    refactor that moves a step shows.  The last three run at n = 2,000,
    where the deque drops its dead prefix."""
    chain = gen_family("clique_chain", sizes=[2, 2, 3, 4])
    scattered = random_components(SplitMix64(13), 10, 3)
    wide = gen_random_unit_intervals(2000, spread="1/16", seed=5, connected=True)
    answer = solve_greedy(wide, 64)
    runs = (
        (p5(), [2, 3], 2, Attack(4, 5), 13),
        (p5(), [2, 3, 5], 2, None, 14),
        (diamond(), [3, 4], 2, None, 8),
        (chain, [2, 3, 7, 8], 2, None, 20),
        (chain, [2, 3, 8], 2, Attack(6, 7), 17),
        (scattered, [2, 4, 6, 8, 13, 16, 20, 28, 29, 30, 35, 36, 37], 3, None, 100),
        (scattered, [2, 4, 6, 8, 13, 16, 20, 28, 29, 35, 36, 37], 3, Attack(27, 29), 71),
        (scattered, [*range(1, 9), 13, 16, *range(19, 27), 28, 29, 30, 31, *range(33, 40)], 10, None, 128),
        (wide, answer, 64, None, 6906),
        (wide, answer[:500] + answer[501:], 64, Attack(622, 685), 2331),
        (wide, answer, 8, None, 6914),
    )
    for g, ds, k, want, want_steps in runs:
        stats = {}
        assert first_undefended_attack(g, ds, k, stats=stats) == want, (g.maxn, ds, k)
        assert stats == dict(steps=want_steps), (g.maxn, ds, k, stats)


def test_bubble_verifier_exact_steps():
    """The Attack and the exact step count of a few fixed bubble-model runs.

    In ``model`` with k = 4 and defenders 2..5, the pointer stops at bubble
    2 for the last bubble, and bubble 3 decides from the stack's head, its
    P = -4 above bubble 2's -5.  In ``edge`` the pointer's own bubble 0
    decides for bubble 1.  The 10^15 twins take the same steps as 10 would.
    """
    model = LinearBubbles([2, 3, 2, 2], [5, 7, 9, 9])
    edge = LinearBubbles([1, 1, 1], [2, 2, 3])  # an edge split in two, then a lone vertex
    twins = linear_from_compact(CompactBubbles([[(1, 10**15)]]))
    runs = (
        (model, [4, 5, 6, 7], 4, None, 10),
        (model, [2, 3, 4, 5], 4, Attack(5, 8), 9),
        (edge, [2], 3, Attack(1, 3), 2),
        (twins, [1], 1, None, 2),
        (twins, [1], 2, Attack(1, 2), 1),
        (twins, [1], 10**15, Attack(1, 10**15), 1),
    )
    for lb, ds, k, want, want_steps in runs:
        stats = {}
        assert first_undefended_attack(lb, ds, k, stats=stats) == want, (lb, ds, k)
        assert stats == dict(steps=want_steps), (lb, ds, k, stats)
        if lb.n < 100:
            assert scan_first_undefended(lb.to_graph(), ds, k) == want, (lb, ds, k)


def test_hall_verifier_input_forms():
    """Duplicates, out-of-range vertices and one-shot iterators read as the scan
    reads them, on the graph and on its bubble model."""
    rng = SplitMix64(707)
    for _ in range(300):
        n = 1 + rng.below(30)
        g = random_graph(rng, n, seed_tag=7)
        n = g.n
        lb = bubbles_from_pig(g)
        ds = random_subset(rng, n)
        noisy = ds + ds[: rng.below(len(ds) + 1)] + [0, -3, n + 1, n + 7][: rng.below(5)]
        for k in (1 + rng.below(n), n + 2):
            want = scan_first_undefended(g, noisy, k)
            assert want == scan_first_undefended(g, ds, k)
            for model in (g, lb):
                assert first_undefended_attack(model, noisy, k) == want, (g.maxn, noisy, k)
                assert first_undefended_attack(model, iter(noisy), k) == want, (g.maxn, noisy, k)
    with pytest.raises(ValueError):
        first_undefended_attack(p3(), [1, 2, 3], 0)


def test_is_bridged_examples():
    g = p5()
    assert is_bridged(g, {1, 3})
    assert not is_bridged(g, {1, 4})
    assert is_bridged(g, {3})


def test_range_of_examples():
    assert range_of({2, 4}) == Attack(2, 4)
    assert range_of({3}) == Attack(3, 3)
    assert range_of({1, 4}) == Attack(1, 4)


def test_scan_equals_matching_on_consecutive_attacks():
    """Rightmost monotone scan agrees with the matching oracle."""
    rng = SplitMix64(101)
    cases = 0
    while cases < 4000:
        n = 2 + rng.below(11)
        g = random_graph(rng, n, seed_tag=1)
        edges = g.edges()
        defenders = tuple(sorted(random_subset(rng, n)))
        i = 1 + rng.below(n)
        j = i + rng.below(n - i + 1)
        a = Attack(i, j)
        got = defends_consecutive(g, defenders, a) is not None
        want = defends_matching(edges, set(defenders), range(i, j + 1))
        assert got == want, (g.maxn, defenders, a)
        cases += 1


def test_consecutive_sufficiency_small():
    """Defending all consecutive windows means defending every small attack."""
    rng = SplitMix64(202)
    for _ in range(150):
        n = 2 + rng.below(7)
        g = random_graph(rng, n, seed_tag=2)
        edges = g.edges()
        defenders = random_subset(rng, n)
        k = 1 + rng.below(4)
        consec = is_k_defensive(g, defenders, k)
        full = all(
            defends_matching(edges, set(defenders), attack)
            for size in range(1, min(k, n) + 1)
            for attack in combinations(range(1, n + 1), size)
        )
        assert consec == full, (g.maxn, defenders, k)


def test_bridged_iff_square_connected_exhaustive():
    rng = SplitMix64(303)
    graphs = list(connected_graphs(5)) + [random_graph(rng, 8, seed_tag=3) for _ in range(20)]
    for g in graphs:
        n = g.n
        for size in range(1, min(n, 5) + 1):
            for attack in combinations(range(1, n + 1), size):
                assert is_bridged(g, attack) == square_connected(g, attack), (g.maxn, attack)


def test_range_neighborhood_for_bridged_sets():
    rng = SplitMix64(404)
    for g in [random_graph(rng, 8, seed_tag=4) for _ in range(25)]:
        n = g.n
        for size in range(1, min(n, 4) + 1):
            for attack in combinations(range(1, n + 1), size):
                if not is_bridged(g, attack):
                    continue
                r = range_of(attack)
                lo, hi = g.minn[r.first], g.maxn[r.last]
                want_lo = min(g.minn[v] for v in attack)
                want_hi = max(g.maxn[v] for v in attack)
                assert (lo, hi) == (want_lo, want_hi), (g.maxn, attack)


def test_hall_count_over_bridged_attacks():
    """k-defensive iff every bridged attack of size <= k has enough
    defenders in its closed neighborhood."""
    rng = SplitMix64(909)
    for _ in range(120):
        n = 2 + rng.below(7)
        g = random_graph(rng, n, seed_tag=16)
        defenders = set(random_subset(rng, g.n))
        k = 1 + rng.below(4)
        hall = True
        for size in range(1, min(k, g.n) + 1):
            for attack in combinations(range(1, g.n + 1), size):
                if not is_bridged(g, attack):
                    continue
                lo = min(g.minn[v] for v in attack)
                hi = max(g.maxn[v] for v in attack)
                if sum(1 for d in defenders if lo <= d <= hi) < size:
                    hall = False
                    break
            if not hall:
                break
        assert hall == is_k_defensive(g, defenders, k), (g.maxn, defenders, k)


def test_shifted_defense_window_steps_back():
    """A right-shifted window that defends an attack still defends one step closer."""
    rng = SplitMix64(505)
    hits = 0
    while hits < 500:
        n = 3 + rng.below(12)
        g = random_graph(rng, n, seed_tag=5)
        i = 1 + rng.below(n - 1)
        j = i + rng.below(n - i)
        delta = 1 + rng.below(max(1, n - j))
        if j + delta > n:
            continue
        shifted = tuple(range(i + delta, j + delta + 1))
        if defends_consecutive(g, shifted, Attack(i, j)) is None:
            continue
        closer = tuple(range(i + delta - 1, j + delta))
        assert defends_consecutive(g, closer, Attack(i, j)) is not None, (g.maxn, i, j, delta)
        hits += 1


def test_attack_validation():
    with pytest.raises(ValueError):
        defends_consecutive(p5(), (1,), Attack(0, 2))
    with pytest.raises(ValueError):
        is_bridged(p5(), set())
    with pytest.raises(ValueError):
        range_of([])


def test_verifier_dedupes_any_iterable_and_leaves_the_callers_list_alone():
    """Unsorted defenders with repeats, as a list, a tuple, a generator or a set, get the
    Attack and the exact steps of their sorted distinct list, on a graph and on its model."""
    rng = SplitMix64(626)
    for _ in range(300):
        n = 1 + rng.below(14)
        g = random_graph(rng, n, seed_tag=6)
        listed = [1 + rng.below(n) for _ in range(rng.below(2 * n + 1))]
        distinct = sorted(set(listed))
        k = 1 + rng.below(n + 1)
        for structure in (g, bubbles_from_pig(g)):
            want_stats = {}
            want = first_undefended_attack(structure, distinct, k, stats=want_stats)
            for form in ("list", tuple, iter, set):
                caller = listed.copy()
                stats = {}
                given = caller if form == "list" else form(caller)
                got = first_undefended_attack(structure, given, k, stats=stats)
                assert (got, stats) == (want, want_stats), (g.maxn, listed, k, form)
                assert caller == listed, (g.maxn, listed, k, form)
