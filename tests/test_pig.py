from fractions import Fraction
from itertools import chain, product, repeat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defdom import (
    CompactBubbles,
    InvalidRanges,
    LinearBubbles,
    ProperIntervalGraph,
    ProperViolation,
    SplitMix64,
    compact_for_family,
    gen_family,
)
from defdom.generators import random_unit_intervals
from defdom.pig import SCALE_BITS
from helpers import all_maxn, are_twins, diamond, outcome, p5, random_maxn, reference_from_intervals


def brute_edges_from_intervals(entries):
    es = []
    fr = [(Fraction(l), Fraction(r)) for l, r in entries]
    for i in range(len(fr)):
        for j in range(i + 1, len(fr)):
            (l1, r1), (l2, r2) = fr[i], fr[j]
            if max(l1, l2) <= min(r1, r2):
                es.append((i, j))
    return es


def test_single_interval():
    g = ProperIntervalGraph.from_intervals([(0, 1)])
    assert g.n == 1 and g.maxn[1:] == (1,)


def test_p3_from_intervals():
    g = ProperIntervalGraph.from_intervals([(0, 1), (0.5, 1.5), (1.2, 2.2)])
    assert g.maxn[1:] == (2, 3, 3)


def test_proper_violation_reports_pair():
    with pytest.raises(ProperViolation) as exc:
        ProperIntervalGraph.from_intervals([(0, 2), (0.5, 1)])
    assert exc.value.pair == (1, 2)


def test_proper_violation_shared_left_endpoint():
    with pytest.raises(ProperViolation):
        ProperIntervalGraph.from_intervals([(0, 1), (0, 2)])
    with pytest.raises(ProperViolation):
        ProperIntervalGraph.from_intervals([(0.5, 2), (0, 2)])


def test_equal_intervals_are_twins():
    g = ProperIntervalGraph.from_intervals([(0, 1), (0, 1), (2, 3)])
    assert are_twins(g, 1, 2)
    assert g.maxn[2] < 3


def test_from_neighbor_ranges_path():
    g = ProperIntervalGraph([2, 3, 4, 5, 5])
    assert g.edges() == [(1, 2), (2, 3), (3, 4), (4, 5)]


def test_from_neighbor_ranges_diamond():
    g = ProperIntervalGraph([3, 4, 4, 4])
    assert g.edges() == [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)]


def test_two_isolated_vertices_is_valid():
    g = ProperIntervalGraph([1, 2])
    assert not g.is_connected()
    assert g.components() == [(1, 1), (2, 2)]
    assert g.edges() == []


@pytest.mark.parametrize(
    "maxn",
    [[], [2, 1, 3], [1, 1, 3], [2, 3, 4], [0], [3, 3]],
)
def test_invalid_ranges(maxn):
    with pytest.raises(InvalidRanges):
        ProperIntervalGraph(maxn)


def _graph_fields(fn, *args):
    got = outcome(fn, *args)
    return got if got[0] != "ok" else ("ok", got[1].n, got[1].maxn, got[1].minn)


def _expand(sizes, values):
    return [m for s, m in zip(sizes, values) for _ in range(s)]


def test_from_runs_matches_expanded_constructor():
    """Every maxn on at most 8 vertices, cut into maximal runs, into single
    vertices and at seeded random points, builds the same graph as __init__."""
    rng = SplitMix64(1313)
    count = 0
    for n in range(1, 9):
        for maxn in all_maxn(n):
            want = _graph_fields(ProperIntervalGraph, maxn)
            maximal = [[1, maxn[0]]]
            for m in maxn[1:]:
                if m == maximal[-1][1]:
                    maximal[-1][0] += 1
                else:
                    maximal.append([1, m])
            cuts = [0] + [j for j in range(1, n) if maxn[j] != maxn[j - 1] or rng.below(2)]
            splits = (
                ([s for s, _ in maximal], [m for _, m in maximal]),
                ([1] * n, list(maxn)),
                ([b - a for a, b in zip(cuts, cuts[1:] + [n])], [maxn[a] for a in cuts]),
            )
            for sizes, values in splits:
                assert _expand(sizes, values) == list(maxn)
                assert _graph_fields(ProperIntervalGraph.from_runs, sizes, values) == want, (maxn, sizes)
            count += 1
    assert count == 1430 + 429 + 132 + 42 + 14 + 5 + 2 + 1  # Catalan numbers C_1..C_8


@pytest.mark.parametrize(
    "sizes, values",
    [
        ([], []),  # empty input
        ([2, 1], [1, 3]),  # a value below its run's last vertex
        ([3, 2], [3, 4]),  # ... below a later vertex of a longer run
        ([1, 2], [2, 4]),  # a value above n
        ([2, 1, 1], [3, 2, 4]),  # a decreasing value
        ([1, 1, 1], [3, 2, 3]),  # a decreasing value past the first run
        ([2, 0, 1], [3, 3, 3]),  # a run of no vertices
        ([2, -1, 2], [3, 3, 3]),  # a run of negative length
    ],
)
def test_from_runs_errors_match_expanded_constructor(sizes, values):
    want = outcome(ProperIntervalGraph, _expand(sizes, values))
    assert outcome(ProperIntervalGraph.from_runs, sizes, values) == want
    if sizes and min(sizes) > 0:
        assert want[0] is InvalidRanges, want


def test_from_runs_matches_expanded_constructor_on_random_runs():
    """Seeded runs of every length from -1 to 3, values from 0 to n + 2, and
    now and then a non-integer size or value, an empty run's value included:
    the same graph or the same error as ``__init__`` on the expanded
    sequence, which names the first failing vertex."""
    rng = SplitMix64(4242)
    failed = 0
    for _ in range(4000):
        count = 1 + rng.below(5)
        sizes = [rng.below(5) - 1 for _ in range(count)]
        top = sum(s for s in sizes if s > 0) + 3
        values = [rng.below(top) for _ in range(count - rng.below(2))]
        if values and not rng.below(20):
            i = rng.below(len(values))
            if rng.below(2):
                values[i] += 0.5
            else:
                sizes[i] += 0.5
        want = _graph_fields(lambda: ProperIntervalGraph(list(chain.from_iterable(map(repeat, values, sizes)))))
        assert _graph_fields(ProperIntervalGraph.from_runs, sizes, values) == want, (sizes, values)
        failed += want[0] != "ok"
    assert failed > 2000


def test_from_runs_names_a_fault_past_a_billion_vertices_without_expanding():
    """A failing run after 10^9 vertices is named in closed form: no
    expanded sequence, a tracemalloc peak under 1 MB."""
    import tracemalloc

    cases = [
        ([10**9, 1], [10**9, 5], "max neighbor of vertex 1000000001 is 5, below the vertex itself"),
        ([10**9, 3], [10**9, 10**9 + 1], "max neighbor of vertex 1000000002 is 1000000001, below the vertex itself"),
        ([10**9, 1], [10**9 + 2, 10**9 + 2], "max neighbor of vertex 1 is 1000000002, beyond n=1000000001"),
        ([10**9, 2], [10**9 + 2, 10**9 + 1], "max neighbor sequence decreases at vertex 1000000001"),
    ]
    for sizes, values, message in cases:
        tracemalloc.start()
        try:
            with pytest.raises(InvalidRanges) as exc:
                ProperIntervalGraph.from_runs(sizes, values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(exc.value) == message
        assert peak < 1 << 20, (sizes, peak)


def test_from_runs_builds_every_graph_without_init(monkeypatch):
    """from_runs never enters __init__ when it returns a graph, runs of no or
    negative length included; those runs' values, 0 or above n here, would
    fail a check, and are skipped with them, unread, so no value of theirs
    is converted.  A size with no value adds no vertex, as in the expanded
    sequence."""
    splits = [([2, 0, 1], [3, 0, 3]), ([2, -1, 2], [4, 5, 4]), ([1, 1], [1])]
    splits += [([1, 0, 1], [1, 4.5]), ([1, -2], [1, "7"]), ([1, 0], [1, None])]
    for n in range(1, 7):
        for maxn in all_maxn(n):
            splits.append(([1, 0] * n, [v for m in maxn for v in (m, 0)]))
            splits.append(([-1, *[1] * n, 0], [n + 1, *maxn, 0]))
    want = [ProperIntervalGraph(_expand(sizes, values)) for sizes, values in splits]

    def entered(self, maxn):
        raise AssertionError("__init__ entered")

    monkeypatch.setattr(ProperIntervalGraph, "__init__", entered)
    for (sizes, values), g in zip(splits, want):
        got = ProperIntervalGraph.from_runs(sizes, values)
        assert (got.n, got.maxn, got.minn) == (g.n, g.maxn, g.minn), (sizes, values)


@pytest.mark.parametrize(
    "build",
    [
        lambda: ProperIntervalGraph([2.9, 3, 3]),
        lambda: ProperIntervalGraph(["2", "3", "3"]),
        lambda: ProperIntervalGraph.from_runs([1, 1], [2, 2.0]),  # a float no check reaches
        lambda: CompactBubbles([[(1, 2.7)]]),
        lambda: CompactBubbles([[("1", 2)]]),
        lambda: LinearBubbles([2.5], [2]),
        lambda: LinearBubbles([2], ["2"]),
        lambda: gen_family("clique_chain", sizes=[2, 3.5]),
        lambda: compact_for_family("clique_chain", sizes=["3"]),
        lambda: ProperIntervalGraph.from_intervals([("0", "1/2"), (" 1/4 ", "3")]),
        lambda: ProperIntervalGraph.from_intervals([(0, 1), (Fraction(1, 2), "3")]),
    ],
)
def test_constructors_take_exact_integers(build):
    """A float or a string is refused, not truncated or parsed."""
    with pytest.raises(TypeError):
        build()


def test_neighborhood_of_range_examples():
    g, d = p5(), diamond()
    assert (g.minn[3], g.maxn[4]) == (2, 5)
    assert (g.minn[1], g.maxn[1]) == (1, 2)
    assert (d.minn[2], d.maxn[3]) == (1, 4)


def test_neighborhood_of_range_matches_vertexwise_union():
    rng = SplitMix64(42)
    for _ in range(60):
        n = 1 + rng.below(30)
        g = ProperIntervalGraph(random_maxn(rng, n))
        for _ in range(10):
            i = 1 + rng.below(n)
            j = i + rng.below(n - i + 1)
            lo, hi = g.minn[i], g.maxn[j]
            want_lo = min(g.minn[v] for v in range(i, j + 1))
            want_hi = max(g.maxn[v] for v in range(i, j + 1))
            assert (lo, hi) == (want_lo, want_hi)


def test_connectivity_examples():
    assert ProperIntervalGraph([2, 3, 4, 5, 5]).is_connected()
    g = ProperIntervalGraph([2, 2, 4, 4])
    assert not g.is_connected()
    assert g.components() == [(1, 2), (3, 4)]
    assert ProperIntervalGraph([1]).is_connected()


def test_twins_examples():
    assert are_twins(diamond(), 2, 3)
    assert not are_twins(p5(), 2, 3)
    assert are_twins(ProperIntervalGraph([3, 3, 3]), 1, 3)


def test_twin_classes_are_consecutive():
    rng = SplitMix64(7)
    for _ in range(50):
        n = 2 + rng.below(25)
        g = ProperIntervalGraph(random_maxn(rng, n))
        # vertices with identical neighborhoods form consecutive runs
        for u in range(1, n + 1):
            for v in range(u + 2, n + 1):
                if g.minn[u] == g.minn[v] and g.maxn[u] == g.maxn[v]:
                    for w in range(u + 1, v):
                        assert g.minn[w] == g.minn[u]
                        assert g.maxn[w] == g.maxn[u]


def test_interval_roundtrip_against_pairwise_intersection():
    rng = SplitMix64(2024)
    for trial in range(80):
        n = 1 + rng.below(50)
        # unit intervals, integer endpoints
        entries = [(x, x + 10) for x in (rng.below(3 * n + 1) for _ in range(n))]
        g = ProperIntervalGraph.from_intervals(entries)
        order = sorted(range(n), key=lambda i: (entries[i][0], entries[i][1], i))
        relabel = {orig: new + 1 for new, orig in enumerate(order)}
        want = sorted(
            tuple(sorted((relabel[a], relabel[b]))) for a, b in brute_edges_from_intervals(entries)
        )
        assert g.edges() == want


def test_minn_maxn_symmetry():
    rng = SplitMix64(11)
    for _ in range(40):
        n = 2 + rng.below(30)
        g = ProperIntervalGraph(random_maxn(rng, n))
        for u in range(1, n + 1):
            for v in range(u + 1, n + 1):
                assert (g.maxn[u] >= v) == (g.minn[v] <= u)


def test_canonical_intervals_realize_the_graph():
    rng = SplitMix64(5)
    for _ in range(30):
        n = 1 + rng.below(25)
        g = ProperIntervalGraph(random_maxn(rng, n))
        assert ProperIntervalGraph.from_intervals(g.canonical_intervals()) == g


def test_from_intervals_matches_validating_constructor():
    """The sweep's ``maxn``, stored unchecked, gives the validated graph's ``maxn`` and ``minn``."""
    rng = SplitMix64(18)
    families = [g.canonical_intervals() for n in range(1, 8) for g in map(ProperIntervalGraph, all_maxn(n))]
    families += [
        random_unit_intervals(n, spread, rng.below(1 << 30))
        for n in (10, 1_000, 10_000)
        for spread in (Fraction(1, 16), 2)
    ]
    for entries in families:
        g = ProperIntervalGraph.from_intervals(entries)
        ref = ProperIntervalGraph(list(g.maxn[1:]))
        assert (g.n, g.maxn, g.minn) == (ref.n, ref.maxn, ref.minn)


@st.composite
def exact_value(draw, value: Fraction):
    """``value`` as an int, a Fraction or a float, whichever represent it exactly."""
    forms = [value]
    if value.denominator == 1:
        forms.append(int(value))
    if Fraction(float(value)) == value:
        forms.append(float(value))
    return draw(st.sampled_from(forms))


@st.composite
def library_entries(draw):
    """Equal-length families as int, Fraction and float mixes, some entries broken."""
    n = draw(st.integers(0, 6))
    den = draw(st.sampled_from([1, 2, 3, 4, 10, 2**60, 2 ** (SCALE_BITS - 1), 2**SCALE_BITS, 3**170]))
    length = Fraction(draw(st.integers(0, 2 * den)), den)
    entries = []
    for _ in range(n):
        left = draw(st.integers(-3, 3)) + Fraction(draw(st.integers(-4, 4)), draw(st.sampled_from([den, 2, 1])))
        entries.append((draw(exact_value(left)), draw(exact_value(left + length))))
    if entries and draw(st.integers(0, 3)) == 0:
        i = draw(st.integers(0, n - 1))
        entries[i] = draw(st.sampled_from([
            (1, 2, 3), (1,), (float("nan"), 1), (0, float("inf")), (None, 1), ("1/2", "3/2"),
            (entries[i][1], entries[i][0]), (entries[i][0], entries[i][1] + 1), (0.1, 0.3),
        ]))
    return entries


@settings(derandomize=True, database=None, deadline=None, max_examples=600)
@given(library_entries())
def test_from_intervals_differential_against_fraction_reference(entries):
    """Same graph, or the same error class and message, as comparing every endpoint as a Fraction."""
    assert outcome(ProperIntervalGraph.from_intervals, entries) == outcome(reference_from_intervals, entries)
    assert outcome(ProperIntervalGraph.from_intervals, iter(entries)) == outcome(reference_from_intervals, entries)


@pytest.mark.parametrize(
    "entries",
    [
        [(0, 1), (1, 2), (5, 6), (1, 2)],  # int tuples, taken as they are
        [(0, 1), (2, 1)],  # reversed
        [(0, 3), (1, 2)],  # nested
        [(0, 1), (0, 2)],  # nested, shared left endpoint
        [[0, 1], (1, 2)],  # a list entry
        [(0, 1), (True, 2)],  # a bool endpoint
        [(0, 1), (1, 2, 3)],  # not a pair
        [(0, 1), (1,)],
        [(0, 1), (2, 3), (Fraction(1, 2), 1)],  # ints, then a Fraction
        [(0, 2**300), (1, 2**300 + 1)],
    ],
)
def test_int_entries_match_fraction_reference(entries):
    """Plain int pairs, kept as they are, give the reference's graph, error class and message."""
    assert outcome(ProperIntervalGraph.from_intervals, entries) == outcome(reference_from_intervals, entries)
    assert outcome(ProperIntervalGraph.from_intervals, iter(entries)) == outcome(reference_from_intervals, entries)


def test_from_intervals_exhaustive_against_fraction_reference():
    """Every family of up to 4 intervals with integer endpoints in 0..3,
    reversed ones included, in every input order (the product lists each
    order of each family), as a list and as an iterator: the same graph, or
    the same error class and message, as the reference.  This pins the
    whole-list proper checks and the tuple loop that names a violation to
    the same ProperViolation pair."""
    pairs = list(product(range(4), repeat=2))
    for size in range(5):
        for entries in product(pairs, repeat=size):
            entries = list(entries)
            want = outcome(reference_from_intervals, entries)
            assert outcome(ProperIntervalGraph.from_intervals, entries) == want, entries
            assert outcome(ProperIntervalGraph.from_intervals, iter(entries)) == want, entries
