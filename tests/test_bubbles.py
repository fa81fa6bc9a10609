import re
import time
import tracemalloc
from itertools import accumulate, combinations, combinations_with_replacement, product
from operator import le
from types import SimpleNamespace

import pytest

from defdom import (
    CompactBubbles,
    InvalidBubbles,
    LinearBubbles,
    ProperIntervalGraph,
    SplitMix64,
    bubbles_from_pig,
    compact_for_family,
    first_undefended_attack,
    gen_random_bubbles,
    gen_random_unit_intervals,
    linear_from_compact,
    pig_from_bubbles,
)
from helpers import all_maxn, are_twins, p5, diamond, k4, random_maxn


def coarsen(lbm):
    out = []
    for s, lo, hi in zip(lbm.sizes, lbm.min_nbr, lbm.max_nbr):
        if out and out[-1][1] == lo and out[-1][2] == hi:
            out[-1] = (out[-1][0] + s, lo, hi)
        else:
            out.append((s, lo, hi))
    return out


def test_bubbles_from_pig_path():
    lb = bubbles_from_pig(p5())
    assert lb.sizes == (1, 1, 1, 1, 1)
    assert lb.max_nbr == (2, 3, 4, 5, 5)
    assert lb.min_nbr == (1, 1, 2, 3, 4)


def test_repr_lists_each_bubble_with_its_derived_ends():
    assert repr(bubbles_from_pig(p5())) == (
        "LinearBubbles[(size=1, v=1..1, nbr=1..2), (size=1, v=2..2, nbr=1..3), "
        "(size=1, v=3..3, nbr=2..4), (size=1, v=4..4, nbr=3..5), (size=1, v=5..5, nbr=4..5)]"
    )


def test_bubbles_from_pig_diamond():
    lb = bubbles_from_pig(diamond())
    assert lb.sizes == (1, 2, 1)
    assert lb.max_nbr == (3, 4, 4)
    assert lb.min_nbr == (1, 1, 2)


def test_bubbles_from_pig_complete():
    lb = bubbles_from_pig(k4())
    assert lb.count == 1 and lb.sizes == (4,)


def test_single_column_is_clique():
    lb = linear_from_compact(CompactBubbles([[(1, 4)]]))
    assert lb.sizes == (4,) and lb.max_nbr == (4,) and lb.min_nbr == (1,)
    assert pig_from_bubbles(CompactBubbles([[(1, 3)]])) == ProperIntervalGraph([3, 3, 3])


def test_two_column_structure_with_partial_join():
    # col1: {1} at row 1, {2,3} at row 2; col2: {4} at row 1.
    # The later-column bubble joins only the strictly lower rows above it.
    cb = CompactBubbles([[(1, 1), (2, 2)], [(1, 1)]])
    lb = linear_from_compact(cb)
    assert lb.sizes == (1, 2, 1)
    assert lb.max_nbr == (3, 4, 4)
    assert lb.min_nbr == (1, 1, 2)
    g = pig_from_bubbles(cb)
    assert g == ProperIntervalGraph([3, 4, 4, 4])
    assert lb.to_graph() == g


def test_equal_rows_across_columns_do_not_join():
    cb = CompactBubbles([[(1, 2)], [(2, 3)]])
    lb = linear_from_compact(cb)
    # row 2 in the later column is not below row 1, so the columns are apart
    assert lb.sizes == (2, 3)
    assert lb.max_nbr == (2, 5)
    assert lb.min_nbr == (1, 3)
    g = pig_from_bubbles(cb)
    assert g.maxn[1:] == (2, 2, 5, 5, 5)
    assert g.components() == [(1, 2), (3, 5)]


def test_lower_row_in_later_column_joins():
    cb = CompactBubbles([[(2, 1)], [(1, 1)]])
    assert pig_from_bubbles(cb) == ProperIntervalGraph([2, 2])


def test_invalid_bubbles():
    with pytest.raises(InvalidBubbles):
        CompactBubbles([])
    with pytest.raises(InvalidBubbles):
        CompactBubbles([[]])
    with pytest.raises(InvalidBubbles):
        CompactBubbles([[(1, 0)]])
    with pytest.raises(InvalidBubbles):
        CompactBubbles([[(2, 1), (1, 1)]])  # rows must increase
    with pytest.raises(InvalidBubbles):
        CompactBubbles([[(1, 1), (1, 2)]])  # duplicate (row, column)


def test_kn_one_bubble_pn_n_bubbles():
    for n in (1, 2, 5, 9, 17):
        assert bubbles_from_pig(ProperIntervalGraph([n] * n)).count == 1
    # the two-vertex path is itself a clique of twins, so start at 3
    for n in (1, 3, 5, 9, 17):
        path = ProperIntervalGraph([min(j + 1, n) for j in range(1, n + 1)])
        assert bubbles_from_pig(path).count == n


def test_bubble_count_equals_distinct_neighborhood_pairs():
    rng = SplitMix64(606)
    for _ in range(60):
        n = 1 + rng.below(40)
        g = ProperIntervalGraph(random_maxn(rng, n))
        distinct = len(set(zip(g.minn[1:], g.maxn[1:])))
        assert bubbles_from_pig(g).count == distinct


def test_linear_from_compact_agrees_with_rule_expansion():
    """Sweep route vs direct rule expansion, plus twin-class coarsening."""
    rng = SplitMix64(707)
    for trial in range(200):
        n = 1 + rng.below(100)
        cb = gen_random_bubbles(n, max_columns=1 + rng.below(6), max_rows=1 + rng.below(6), seed=trial)
        lbm = linear_from_compact(cb)
        g = pig_from_bubbles(cb)
        assert lbm.n == n and lbm.n == g.n
        assert lbm.to_graph() == g
        tw = bubbles_from_pig(g)
        assert list(zip(tw.sizes, tw.min_nbr, tw.max_nbr)) == coarsen(lbm)
        assert tw.count <= lbm.count <= n
        assert set(lbm.max_nbr) <= set(lbm.max_v)


def test_expansion_of_long_columns_is_not_quadratic():
    """Two 20,000-row interleaved columns: each bubble finds its neighbors by
    a binary search, where a whole-column scan per bubble takes minutes."""
    rows = 20_000
    cb = CompactBubbles(
        [
            [(2 * i, 1 + i % 3) for i in range(1, rows + 1)],
            [(2 * i - 1, 1 + i % 2) for i in range(1, rows + 1)],
        ]
    )
    want = linear_from_compact(cb).to_graph()
    c0 = time.thread_time()
    g = pig_from_bubbles(cb)
    cpu = time.thread_time() - c0
    assert g == want and g.minn == want.minn
    assert cpu < 2.0, cpu


@pytest.mark.parametrize(
    "columns",
    [
        # vertex 1 reaches vertex 2, whose first neighbor by the rule is itself
        (((2, 1),), ((2, 1), (1, 1))),
        # the rule makes vertex 1 a neighbor of vertex 6, which it does not reach
        (((3, 1),), ((1, 2), (5, 2), (1, 1))),
    ],
    ids=["first-neighbor-below-the-rule", "first-neighbor-above-the-rule"],
)
def test_expansion_cross_check_catches_an_asymmetric_rule(columns):
    """Rows that fall inside a column, which ``CompactBubbles`` refuses, give a
    duck-typed structure whose rule is not symmetric: the first neighbors of
    the expanded graph's ``maxn`` then miss the rule's, at one end of a
    bubble or the other, and ``pig_from_bubbles`` says so."""
    cb = SimpleNamespace(columns=columns, n=sum(size for col in columns for _, size in col))
    with pytest.raises(InvalidBubbles, match="breaks adjacency symmetry"):
        pig_from_bubbles(cb)


def test_expansion_peak_per_vertex():
    """tracemalloc peak of pig_from_bubbles per vertex at n ~ 10^5: the graph's
    one ``maxn`` tuple plus per-bubble lists (11.2 and 9.3 bytes measured on
    the clique chain and the clique, 19.7 and 17.3 with ``minn`` stored too).
    The path, one bubble per vertex, is the worst shape; 435 bytes is the
    figure MAX_EXPANDED_VERTICES was set on."""
    shapes = {
        "clique_chain": (compact_for_family("clique_chain", sizes=[100] * 1000), 15),
        "complete": (compact_for_family("complete", 100_000), 15),
        "path": (compact_for_family("path", 100_000), 435),
    }
    for name, (cb, bound) in shapes.items():
        tracemalloc.start()
        try:
            g = pig_from_bubbles(cb)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.n == cb.n >= 99_000
        assert peak / cb.n < bound, (name, peak / cb.n)


def test_bubble_members_are_twins_columns_are_cliques():
    rng = SplitMix64(808)
    for trial in range(40):
        n = 2 + rng.below(40)
        cb = gen_random_bubbles(n, max_columns=4, max_rows=4, seed=trial + 900)
        g = pig_from_bubbles(cb)
        lbm = linear_from_compact(cb)
        for lo, hi in zip(lbm.min_v, lbm.max_v):
            for v in range(lo, hi):
                assert are_twins(g, v, v + 1)
        v = 1
        for col in cb.columns:
            members = []
            for _, size in col:
                members.extend(range(v, v + size))
                v += size
            for a in members:
                for b in members:
                    if a < b:
                        assert g.maxn[a] >= b


def test_linear_bubbles_validation():
    ranges = "bubble model induces invalid neighbor ranges: "
    cases = [
        (([], []), "need at least one bubble"),
        (([1, 1], [1]), "bubble field lengths differ"),
        (([1, 0], [1, 2]), "bubble sizes must be positive"),
        (([1, 1], [2, 1]), ranges + "max neighbor of vertex 2 is 1, below the vertex itself"),
        (([3], [2]), ranges + "max neighbor of vertex 3 is 2, below the vertex itself"),  # inside its bubble
        (([1, 1], [2, 3]), ranges + "max neighbor of vertex 2 is 3, beyond n=2"),
        (([2, 2], [4, 9]), ranges + "max neighbor of vertex 3 is 9, beyond n=4"),
        (([1, 1, 1], [3, 2, 3]), ranges + "max neighbor sequence decreases at vertex 2"),
        (([2, 2], [3, 4]), "bubble 1 neighborhood splits a bubble"),  # reach 3 splits bubble 2
    ]
    for args, message in cases:
        with pytest.raises(InvalidBubbles, match=f"^{re.escape(message)}$"):
            LinearBubbles(*args)
    LinearBubbles([1, 1], [1, 2])  # two isolated vertices: fine
    LinearBubbles([2, 2], [4, 4])  # one clique, two bubbles: fine


def _compositions(n):
    """Every list of positive sizes summing to n."""
    if n == 0:
        yield []
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield [first, *rest]


def test_every_accepted_model_agrees_with_its_graph():
    """Every (sizes, max_nbr) with n <= 6 and max_nbr nondecreasing in 1..n,
    as any accepted one is: the constructor accepts exactly the runs whose
    expansion is a valid ``maxn`` and whose values end bubbles; each
    accepted model's derived first vertices are the prefix sums of its
    sizes from 1, its first neighbors are its graph's, and the bubble pass of
    the verifier names the same attack as the graph pass for every defender
    subset at k = 1, 2 and n."""
    accepted, verdicts = 0, {}
    c0 = time.thread_time()
    for n in range(1, 7):
        subsets = [list(ds) for r in range(n + 1) for ds in combinations(range(1, n + 1), r)]
        for sizes in _compositions(n):
            ends = set(accumulate(sizes))
            for max_nbr in combinations_with_replacement(range(1, n + 1), len(sizes)):
                maxn = [m for s, m in zip(sizes, max_nbr) for _ in range(s)]
                valid = all(map(le, range(1, n + 1), maxn)) and ends.issuperset(max_nbr)
                try:
                    lb = LinearBubbles(sizes, max_nbr)
                except InvalidBubbles:
                    assert not valid, (sizes, max_nbr)
                    continue
                assert valid, (sizes, max_nbr)
                accepted += 1
                g = lb.to_graph()
                assert lb.min_v == tuple(accumulate(sizes[:-1], initial=1)), lb
                assert lb.max_v == tuple(accumulate(sizes)), lb
                minn = g.minn  # derived on every read, so read once
                assert [minn[v] for v in lb.min_v] == list(lb.min_nbr), lb
                if g not in verdicts:  # finer models of one graph share its verdicts
                    verdicts[g] = [first_undefended_attack(g, ds, k) for k in {1, 2, n} for ds in subsets]
                got = [first_undefended_attack(lb, ds, k) for k in {1, 2, n} for ds in subsets]
                assert got == verdicts[g], lb
    cpu = time.thread_time() - c0
    assert accepted == 730
    assert cpu < 2.0, cpu


def test_counterexample_model_verifies_as_its_graph():
    """A model whose old hand-given first neighbors contradicted its last
    ones read FAIL on the model and OK on the graph; derived, both read OK."""
    lb = LinearBubbles([1, 3, 3, 3], [4, 7, 7, 10])
    assert lb.min_nbr == (1, 1, 2, 8)
    assert first_undefended_attack(lb, [4, 10], 1) is None
    assert first_undefended_attack(lb.to_graph(), [4, 10], 1) is None


def _fields(lb):
    return {name: getattr(lb, name) for name in type(lb).__slots__}


def test_bubbles_from_pig_matches_validating_constructor():
    """Twin runs of a valid graph, built unchecked, give the validated model field for field."""
    rng = SplitMix64(18)
    graphs = [ProperIntervalGraph(maxn) for n in range(1, 9) for maxn in all_maxn(n)]
    graphs += [
        ProperIntervalGraph(random_maxn(rng, n, hop=hop))
        for n in (10, 100, 1_000, 10_000)
        for hop in (1, 6, 40)
    ]
    for g in graphs:
        lb = bubbles_from_pig(g)
        assert _fields(lb) == _fields(LinearBubbles(lb.sizes, lb.max_nbr)), g


def test_model_holds_only_its_defining_tuples():
    """On the pig_k128 benchmark shape (connected unit intervals, spread 1/16,
    n = 2,000, 1,347 bubbles) ``bubbles_from_pig`` holds the model in under
    20 bytes per bubble and builds it under 28 beyond its graph: 16.1 and
    24.8 measured, 52.2 and 60.9 with ``max_v`` stored, and 94.5 and 127.9
    with ``min_nbr`` and ``reach`` stored too."""
    g = gen_random_unit_intervals(2000, spread="1/16", seed=128, connected=True)
    tracemalloc.start()
    try:
        lbm = bubbles_from_pig(g)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert LinearBubbles.__slots__ == ("sizes", "max_nbr", "count", "n")
    assert lbm.count == 1347
    assert held / lbm.count < 20, held / lbm.count
    assert peak / lbm.count < 28, peak / lbm.count


def test_linear_from_compact_accepts_every_structure():
    """Every structure of at most 3 columns, rows in 1..3 and bubble sizes 1-2
    passes the model's checks, and the model expands to the graph of the
    adjacency rule."""
    column = [
        tuple(zip(rows, sizes))
        for r in range(1, 4)
        for rows in combinations(range(1, 4), r)
        for sizes in product((1, 2), repeat=r)
    ]
    checked = 0
    for width in (1, 2, 3):
        for columns in product(column, repeat=width):
            cb = CompactBubbles(columns)
            assert linear_from_compact(cb).to_graph() == pig_from_bubbles(cb), cb
            checked += 1
    assert checked == 18_278


def test_roundtrip_twin_aligned():
    # when no two consecutive bubbles are twins the roundtrip is exact
    for g in (p5(), diamond(), k4()):
        lbm = bubbles_from_pig(g)
        assert bubbles_from_pig(lbm.to_graph()) == lbm
