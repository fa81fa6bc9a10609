from itertools import combinations

import pytest

from defdom import (
    Attack,
    SplitMix64,
    defends_consecutive,
    defends_matching,
    enumerate_connected_graphs,
    first_undefended_attack,
    is_bridged,
    is_k_defensive,
    range_of,
)
from helpers import p3, p5, diamond, random_graph, random_subset


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
            if g.max_nbr(lo) >= hi or g.max_nbr(g.max_nbr(lo)) >= hi:
                seen.add(v)
                frontier.append(v)
    return seen == inside


def test_defends_consecutive_examples():
    d = defends_consecutive(p3(), (1, 3), Attack(1, 2))
    assert d is not None and d.pairs == ((1, 1), (3, 2))
    assert defends_consecutive(p3(), (3,), Attack(1, 1)) is None
    d = defends_consecutive(p5(), (2, 3), Attack(3, 4))
    assert d is not None and d.pairs == ((2, 3), (3, 4))


def test_defense_object_checks():
    g = p5()
    d = defends_consecutive(g, (2, 3, 5), Attack(3, 5))
    assert d is not None
    assert d.is_monotonic()
    assert d.is_valid_for(g, Attack(3, 5))
    assert not d.is_valid_for(g, Attack(2, 5))


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


def test_is_bridged_examples():
    g = p5()
    assert is_bridged(g, {1, 3})
    assert not is_bridged(g, {1, 4})
    assert is_bridged(g, {3})


def test_range_of_examples():
    assert range_of(p5(), {2, 4}) == Attack(2, 4)
    assert range_of(p5(), {3}) == Attack(3, 3)
    assert range_of(diamond(), {1, 4}) == Attack(1, 4)


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
    graphs = list(enumerate_connected_graphs(5)) + [random_graph(rng, 8, seed_tag=3) for _ in range(20)]
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
                r = range_of(g, attack)
                lo, hi = g.neighborhood_of_range(r.first, r.last)
                want_lo = min(g.min_nbr(v) for v in attack)
                want_hi = max(g.max_nbr(v) for v in attack)
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
                lo = min(g.min_nbr(v) for v in attack)
                hi = max(g.max_nbr(v) for v in attack)
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
        range_of(p5(), [])
