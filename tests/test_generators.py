import tracemalloc
from itertools import product

import pytest

import defdom.bubbles
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
from defdom.errors import TooLarge
from defdom.generators import UNIT
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
        gen_random_unit_intervals(0)
    # the graph and the compact builder refuse the same input with the same message
    for sizes, message in (
        ([], "clique_chain needs a list of clique sizes"),
        (None, "clique_chain needs a list of clique sizes"),
        (iter([]), "clique_chain needs a list of clique sizes"),
        ([0], "clique sizes must be positive"),
        ([-3], "clique sizes must be positive"),
        ([2, 0], "clique sizes must be positive"),
        ([3, 1], "chained cliques must have at least 2 vertices"),
        ([1, 1], "chained cliques must have at least 2 vertices"),
    ):
        for build in (gen_family, compact_for_family):
            with pytest.raises(BadParameters) as err:
                build("clique_chain", sizes=sizes)
            assert str(err.value) == message, (build.__name__, sizes)
    for build in (gen_family, compact_for_family):
        for family in ("path", "complete"):
            for n in (None, 0, -2):
                with pytest.raises(BadParameters, match=f"^{family} needs n >= 1$"):
                    build(family, n)
        with pytest.raises(BadParameters, match="^unknown family 'nonsense'$"):
            build("nonsense", 3)
    for columns, rows in ((0, 4), (4, 0)):
        with pytest.raises(BadParameters, match="^need at least one column and one row$"):
            gen_random_bubbles(5, max_columns=columns, max_rows=rows)


@pytest.mark.parametrize(
    "build",
    [
        lambda: gen_family("path", 10**15),
        lambda: gen_family("complete", 10**15),
        lambda: gen_family("clique_chain", sizes=[10**6, 10**6 + 2]),
        lambda: compact_for_family("path", 10**21),
        lambda: random_unit_intervals(10**15, 2, 0),
        lambda: gen_random_unit_intervals(10**15),
        lambda: gen_random_bubbles(10**15),
    ],
)
def test_vertex_by_vertex_generators_refuse_above_the_cap(build):
    """Each raises TooLarge before it allocates or draws a vertex: a
    tracemalloc peak of a few KB."""
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge, match="above the expansion cap of 2000000$"):
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16, peak


def test_generator_cap_counts_vertices_exactly(monkeypatch):
    """With the cap at 10, each generator builds 10 vertices and refuses 11;
    a compact complete graph or clique chain has no per-vertex loop and no cap."""
    monkeypatch.setattr(defdom.bubbles, "MAX_EXPANDED_VERTICES", 10)
    for family, n, sizes in (("path", 10, None), ("complete", 10, None), ("clique_chain", None, [4, 4, 4])):
        assert gen_family(family, n, sizes).n == 10
        with pytest.raises(TooLarge, match="has 11 vertices"):
            gen_family(family, n and n + 1, sizes and sizes[:-1] + [5])
    assert compact_for_family("path", 10).n == 10
    with pytest.raises(TooLarge, match="has 11 vertices"):
        compact_for_family("path", 11)
    assert compact_for_family("complete", 10**15).columns == (((1, 10**15),),)
    assert compact_for_family("clique_chain", sizes=[10**15, 10**15]).n == 2 * 10**15 - 1
    assert len(random_unit_intervals(10, 2, 0)) == gen_random_bubbles(10).n == 10
    for build in (lambda: random_unit_intervals(11, 2, 0), lambda: gen_random_bubbles(11)):
        with pytest.raises(TooLarge, match="has 11 vertices"):
            build()


def test_splitmix_determinism():
    a = [SplitMix64(42).next() for _ in range(5)]
    b = [SplitMix64(42).next() for _ in range(5)]
    assert a == b
    assert SplitMix64(42).next() != SplitMix64(43).next()


def test_below_takes_one_word_up_to_2_64():
    """A bound up to 2^64 reduces one 64-bit word, as every seeded instance
    so far was drawn."""
    for m in (1, 2, 7, 10**6 + 1, 10**13 * 10**6, 2**63 + 1, 2**64 - 1, 2**64):
        rng, words = SplitMix64(99), SplitMix64(99)
        for _ in range(20):
            assert rng.below(m) == words.next() % m, m
        assert rng.state == words.state, m


def test_below_reaches_the_whole_range_past_2_64():
    """A larger bound takes one more word per 64 bits of it, so the draws
    spread over the whole range: left ends at spread 10^13 fill [0, top]."""
    for m, extra in ((2**64 + 1, 2), (2**128, 3), (2**128 + 1, 3)):
        rng, words = SplitMix64(5), SplitMix64(5)
        x = rng.below(m)
        for _ in range(1 + extra):
            words.next()
        assert rng.state == words.state and 0 <= x < m, m
    n = 1000
    top = 10**13 * n * UNIT
    lefts = sorted(left for left, _ in random_unit_intervals(n, 10**13, 1))
    assert top > 2**64 and 0 <= lefts[0] and lefts[-1] <= top
    assert lefts[n // 10] < top // 5 and lefts[-n // 10] > top * 4 // 5
    assert top * 2 // 5 < lefts[n // 2] < top * 3 // 5


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
    for n in range(1, 13):
        g = gen_family("complete", n)
        assert g.maxn[1:] == (n,) * n
        assert pig_from_bubbles(compact_for_family("complete", n)) == g
    chains = [[c] for c in range(1, 9)]
    chains += [list(s) for m in (2, 3, 4) for s in product(range(2, 7), repeat=m)]
    chains.append([2, 2, 2, 2, 2])
    for sizes in chains:
        g = gen_family("clique_chain", sizes=sizes)
        assert g == ProperIntervalGraph(chain_maxn(sizes)), sizes
        cb = compact_for_family("clique_chain", sizes=sizes)
        assert pig_from_bubbles(cb) == g, sizes
        assert linear_from_compact(cb).to_graph() == g, sizes


def chain_maxn(sizes):
    """The clique chain's ``maxn`` vertex by vertex: each vertex's largest
    neighbor is the last vertex of the last clique holding it."""
    cliques, first = [], 1
    for c in sizes:
        cliques.append((first, first + c - 1))
        first += c - 1
    return [max(hi for lo, hi in cliques if lo <= v <= hi) for v in range(1, cliques[-1][1] + 1)]


def test_enumerate_connected_counts():
    # one connected canonical graph for n=1,2; Catalan growth beyond
    counts = [sum(1 for _ in connected_graphs(n)) for n in range(1, 8)]
    assert counts == [1, 1, 2, 5, 14, 42, 132]
