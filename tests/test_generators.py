import pytest

from defdom import (
    BadParameters,
    ProperIntervalGraph,
    SplitMix64,
    compact_for_family,
    gen_family,
    gen_random_bubbles,
    gen_random_unit_intervals,
    linear_from_compact,
    pig_from_bubbles,
    random_unit_intervals,
)
from helpers import connected_graphs


def test_path_complete():
    assert gen_family("path", 5).maxn[1:] == (2, 3, 4, 5, 5)
    assert gen_family("complete", 4).maxn[1:] == (4, 4, 4, 4)
    assert gen_family("path", 1).maxn[1:] == (1,)


def test_clique_chain():
    g = gen_family("clique_chain", sizes=[3, 3])
    assert g.n == 5
    assert g.edges() == [(1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5)]


def test_bad_parameters():
    with pytest.raises(BadParameters):
        gen_family("path", 0)
    with pytest.raises(BadParameters):
        gen_family("clique_chain", sizes=[3, 1])
    with pytest.raises(BadParameters):
        gen_family("nonsense", 3)
    with pytest.raises(BadParameters):
        gen_random_unit_intervals(0)


def test_splitmix_determinism():
    a = [SplitMix64(42).next() for _ in range(5)]
    b = [SplitMix64(42).next() for _ in range(5)]
    assert a == b
    assert SplitMix64(42).next() != SplitMix64(43).next()


def test_random_intervals_deterministic_per_seed():
    assert random_unit_intervals(20, 2, 7) == random_unit_intervals(20, 2, 7)
    assert random_unit_intervals(20, 2, 7) != random_unit_intervals(20, 2, 8)
    g1 = gen_random_unit_intervals(30, spread=2, seed=5)
    g2 = gen_random_unit_intervals(30, spread=2, seed=5)
    assert g1 == g2


def test_random_instances_are_valid():
    for seed in range(25):
        g = gen_random_unit_intervals(1 + seed * 3 % 40 + 1, spread=2, seed=seed)
        assert isinstance(g, ProperIntervalGraph)
    g = gen_random_unit_intervals(1, spread=2, seed=0)
    assert g.n == 1
    # tiny spread collapses everything onto one clique
    g = gen_random_unit_intervals(6, spread=0, seed=3)
    assert g.maxn[1:] == (6, 6, 6, 6, 6, 6)


def test_connected_redraw():
    from fractions import Fraction

    for seed in range(10):
        g = gen_random_unit_intervals(25, spread=Fraction(1, 3), seed=seed, connected=True)
        assert g.is_connected()
    with pytest.raises(BadParameters):
        gen_random_unit_intervals(25, spread=50, seed=0, connected=True, max_attempts=5)


def test_random_bubbles_near_partition():
    for seed in range(30):
        n = 1 + seed
        cb = gen_random_bubbles(n, max_columns=5, max_rows=4, seed=seed)
        assert sum(s for col in cb.columns for _, s in col) == n
        assert gen_random_bubbles(n, max_columns=5, max_rows=4, seed=seed) == cb
        pig_from_bubbles(cb)  # must define a valid graph


def test_single_column_bubbles_is_clique():
    cb = gen_random_bubbles(9, max_columns=1, max_rows=5, seed=2)
    g = pig_from_bubbles(cb)
    assert g.maxn[1:] == tuple([9] * 9)


def test_compact_for_family_matches_graphs():
    for n in (1, 2, 3, 7, 12):
        cb = compact_for_family("path", n)
        assert pig_from_bubbles(cb) == gen_family("path", n)
        assert linear_from_compact(cb).to_graph() == gen_family("path", n)
    for n in (1, 4, 9):
        assert pig_from_bubbles(compact_for_family("complete", n)) == gen_family("complete", n)
    for sizes in ([3, 3], [2, 5, 2], [4], [6, 2, 2, 6], [2, 2, 2, 2, 2]):
        cb = compact_for_family("clique_chain", sizes=sizes)
        assert pig_from_bubbles(cb) == gen_family("clique_chain", sizes=sizes), sizes


def test_enumerate_connected_counts():
    # one connected canonical graph for n=1,2; Catalan growth beyond
    counts = [sum(1 for _ in connected_graphs(n)) for n in range(1, 8)]
    assert counts == [1, 1, 2, 5, 14, 42, 132]
