"""Acceptance suite: one test per criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.
"""

from itertools import combinations

from defdom import (
    Attack,
    CompactBubbles,
    ProperIntervalGraph,
    SplitMix64,
    bubbles_from_pig,
    defends_consecutive,
    defends_matching,
    first_undefended_attack,
    gen_random_bubbles,
    gen_random_unit_intervals,
    is_k_defensive,
    linear_from_compact,
    min_defensive_bruteforce,
    pig_from_bubbles,
    solve_bubble,
    solve_greedy,
)
from defdom.bench import build_instance, run_once
from defdom.cli import run as cli_run
from helpers import connected_graphs, first_divergence, is_bridged, range_of

import io as _io

KS = (1, 2, 3, 4)


def _random_instance(rng, n, tag):
    style = rng.below(3)
    if style == 0:
        return gen_random_unit_intervals(n, spread=1 + rng.below(4), seed=tag)
    if style == 1:
        maxn = []
        prev = 1
        for j in range(1, n + 1):
            lo = max(prev, j)
            hi = min(n, lo + 1 + rng.below(6))
            m = lo + rng.below(hi - lo + 1)
            maxn.append(m)
            prev = m
        maxn[-1] = n
        return ProperIntervalGraph(maxn)
    return pig_from_bubbles(gen_random_bubbles(n, 1 + rng.below(5), 1 + rng.below(5), seed=tag))


def test_criterion_1_oracle_optimality():
    """Both solvers hit the brute-force minimum on every small instance."""
    checked = 0
    for n in range(1, 8):
        for g in connected_graphs(n):
            edges = g.edges()
            for k in KS:
                a = solve_greedy(g, k)
                b = solve_bubble(bubbles_from_pig(g), k)
                assert a == b, (g.maxn, k, first_divergence(g, k))
                size, _ = min_defensive_bruteforce(n, edges, k)
                assert len(a) == size, (g.maxn, k, a, size)
                checked += 1
    exhaustive = checked
    rng = SplitMix64(0xACCE551)
    for trial in range(500):
        n = 1 + rng.below(9)
        g = _random_instance(rng, n, trial)
        edges = g.edges()
        for k in KS:
            a = solve_greedy(g, k)
            b = solve_bubble(bubbles_from_pig(g), k)
            assert a == b, (g.maxn, k, first_divergence(g, k))
            size, _ = min_defensive_bruteforce(g.n, edges, k)
            assert len(a) == size, (g.maxn, k, a, size)
            checked += 1
    print(
        f"PASS criterion 1: oracle optimality on {exhaustive} exhaustive runs "
        f"(all connected graphs, n<=7) + {checked - exhaustive} random runs (500 instances, n<=9)"
    )


def test_criterion_2_solver_agreement():
    """Identical defender sets from both solvers, n up to 2000, k up to n-1."""
    rng = SplitMix64(0xA9EE)
    instances = 0

    def check(n, tag):
        nonlocal instances
        g = _random_instance(rng, n, tag)
        k = 1 + rng.below(max(1, g.n - 1))
        a = solve_greedy(g, k)
        b = solve_bubble(bubbles_from_pig(g), k)
        assert a == b, (g.maxn, k, first_divergence(g, k))
        instances += 1

    for t in range(820):
        check(2 + rng.below(150), t)
    for t in range(150):
        check(151 + rng.below(650), 10_000 + t)
    for t in range(25):
        check(801 + rng.below(1199), 20_000 + t)
    for t in range(5):
        check(2000, 30_000 + t)
    assert instances >= 1000
    print(f"PASS criterion 2: solver agreement on {instances} random instances (n up to 2000)")


def test_criterion_3_structural_fact_suite():
    """Five structural facts, exhaustive at small n plus randomized volume."""
    rng = SplitMix64(0x1E44A)

    # (a) defending all consecutive windows == defending every small attack
    trials_a = 0
    for _ in range(400):
        n = 2 + rng.below(7)
        g = _random_instance(rng, n, rng.below(1 << 30))
        edges = g.edges()
        defenders = {v for v in range(1, g.n + 1) if rng.below(2)}
        k = 1 + rng.below(4)
        consec = is_k_defensive(g, defenders, k)
        full = all(
            defends_matching(edges, defenders, attack)
            for size in range(1, min(k, g.n) + 1)
            for attack in combinations(range(1, g.n + 1), size)
        )
        assert consec == full, (g.maxn, defenders, k)
        trials_a += 1

    # (b) rightmost monotone scan == matching feasibility on consecutive attacks
    trials_b = 0
    while trials_b < 10_000:
        n = 2 + rng.below(11)
        g = _random_instance(rng, n, rng.below(1 << 30))
        edges = g.edges()
        defenders = tuple(sorted(v for v in range(1, g.n + 1) if rng.below(2)))
        i = 1 + rng.below(g.n)
        j = i + rng.below(g.n - i + 1)
        got = defends_consecutive(g, defenders, Attack(i, j)) is not None
        want = defends_matching(edges, set(defenders), range(i, j + 1))
        assert got == want, (g.maxn, defenders, i, j)
        trials_b += 1

    # (c) bridged == square-graph connectivity, and (d) neighborhoods of
    # bridged sets collapse to their range, over every vertex subset
    def square_connected(g, attack):
        vs = sorted(attack)
        inside, seen, frontier = set(vs), {vs[0]}, [vs[0]]
        while frontier:
            u = frontier.pop()
            for v in inside - seen:
                lo, hi = sorted((u, v))
                if g.maxn[lo] >= hi or g.maxn[g.maxn[lo]] >= hi:
                    seen.add(v)
                    frontier.append(v)
        return seen == inside

    corpus = list(connected_graphs(5))
    corpus += [_random_instance(rng, 8, rng.below(1 << 30)) for _ in range(40)]
    trials_cd = 0
    for g in corpus:
        n, minn = g.n, g.minn  # derived on every read, so read once
        for size in range(1, n + 1):
            for attack in combinations(range(1, n + 1), size):
                bridged = is_bridged(g, attack)
                assert bridged == square_connected(g, attack), (g.maxn, attack)
                if bridged:
                    r = range_of(attack)
                    assert (minn[r.first], g.maxn[r.last]) == (
                        min(minn[v] for v in attack),
                        max(g.maxn[v] for v in attack),
                    ), (g.maxn, attack)
                trials_cd += 1

    # (e) a defending right-shifted window keeps defending
    # after stepping one back toward the attack
    trials_e = 0
    while trials_e < 10_000:
        n = 3 + rng.below(14)
        g = _random_instance(rng, n, rng.below(1 << 30))
        i = 1 + rng.below(g.n - 1)
        j = i + rng.below(g.n - i)
        room = g.n - j
        if room < 1:
            continue
        delta = 1 + rng.below(room)
        shifted = tuple(range(i + delta, j + delta + 1))
        if defends_consecutive(g, shifted, Attack(i, j)) is None:
            continue
        closer = tuple(range(i + delta - 1, j + delta))
        assert defends_consecutive(g, closer, Attack(i, j)) is not None, (g.maxn, i, j, delta)
        trials_e += 1

    print(
        "PASS criterion 3: structural fact suite, zero counterexamples "
        f"(sufficiency {trials_a}, scan-vs-matching {trials_b}, "
        f"bridged+range {trials_cd} subsets, shift {trials_e})"
    )


def test_criterion_4_complexity_instrumentation():
    """Counter bounds for both solvers and the verifier, near-linear CPU-time scaling for the solvers.

    Part (d) bounds the greedy's steps by 2(n + |D|) at every k: each
    window pushes one deque entry and each entry leaves at most once, at
    most 2n in all; the pointer passes each defender once and each recruit
    makes at most one suffix add, at most |D| in all.  So the steps are at
    most 2n + |D|, and c = 2.  Part (e) bounds the bubble-model verifier's
    steps by 4|B|, as derived in ``defense._first_undefended_bubbles``:
    no term grows with n.
    """
    import math

    families = ("path", "clique_chain", "random")
    sizes = (1_000, 10_000, 100_000)
    k = 8
    rows = {"greedy": [], "bubble": []}
    points = [(fam, n, build_instance(fam, n, 0)) for fam in families for n in sizes]
    # best of several runs per point, in rounds over all points with the two
    # solvers taking turns, so that a slow spell of the machine hits every
    # point and both solvers alike; in thread CPU time, so a busy
    # neighbour's time slices do not inflate the long runs
    best = {}
    bubbles = {}  # counted by each point's first run, reused by the rest
    for rnd in range(7):
        for fam, n, g in points:
            if rnd >= 5 and n > 10_000:
                continue  # 7 runs per point up to n = 10^4, 5 above
            for algo in rows:
                r = run_once(g, k, algo, bubbles=bubbles.get((fam, n)))
                bubbles[fam, n] = r["bubbles"]
                if (algo, fam, n) not in best or r["cpu_ns"] < best[algo, fam, n]["cpu_ns"]:
                    best[algo, fam, n] = r
    for fam, n, _ in points:
        for algo in rows:
            r = best[algo, fam, n]
            r["family"] = fam
            rows[algo].append(r)

    # (a) one fitted constant bounds greedy's counted steps at every size
    small_ratio = max(
        r["defense_steps"] / (r["n"] * k) for r in rows["greedy"] if r["n"] == 1_000
    )
    c1 = 2.0 * small_ratio
    for r in rows["greedy"]:
        assert r["defense_steps"] <= c1 * r["n"] * k, (r["family"], r["n"], r["defense_steps"], c1)

    # (b) hard counter bounds for the bubble solver, on every run
    for r in rows["bubble"]:
        assert r["heap_ops"] <= 2 * r["bubbles"], r
    rng = SplitMix64(0xB0B)
    for trial in range(200):
        n = 2 + rng.below(500)
        g = _random_instance(rng, n, trial)
        kk = 1 + rng.below(max(1, g.n - 1))
        stats = {}
        solve_bubble(bubbles_from_pig(g), kk, stats=stats)
        B = stats["bubbles"]
        assert stats["heap_inserts"] + stats["heap_deletes"] <= 2 * B, (g.maxn, kk, stats)
        assert stats["iterations"] <= 2 * B + 3, (g.maxn, kk, stats)

    # (c) verifier work is linear in n + |D| whatever k is: the same instance
    # at k = 1, 8 and n, each with that k's greedy answer so the pass runs
    # to the end; (d) so is the greedy's, on the same runs
    verify_ratio = greedy_ratio = bubble_ratio = 0.0
    for fam in families:
        g = build_instance(fam, 10_000, 0)
        for kk in (1, k, g.n):
            greedy_stats = {}
            ds = solve_greedy(g, kk, stats=greedy_stats)
            ratio = greedy_stats["defense_steps"] / (g.n + len(ds))
            assert ratio <= 2.0, (fam, kk, greedy_stats)
            greedy_ratio = max(greedy_ratio, ratio)
            stats = {}
            assert first_undefended_attack(g, ds, kk, stats=stats) is None
            ratio = stats["steps"] / (g.n + len(ds))
            assert ratio <= 2.0, (fam, kk, stats)
            verify_ratio = max(verify_ratio, ratio)
            # (e) the bubble-model verifier's work is 4|B| at most, on the
            # pass that runs to the end and on one that stops
            lb = bubbles_from_pig(g)
            bound = 4 * lb.count
            for defenders, want_ok in ((ds, True), (ds[1:], False)):
                stats = {}
                assert (first_undefended_attack(lb, defenders, kk, stats=stats) is None) == want_ok, (fam, kk)
                assert stats["steps"] <= bound, (fam, kk, lb.count, stats)
                bubble_ratio = max(bubble_ratio, stats["steps"] / lb.count)
    # (e) on one bubble of n twins the steps do not grow with n, up to 10^15
    twin_steps = set()
    for n in (10, 10**6, 10**15):
        lb = linear_from_compact(CompactBubbles([[(1, n)]]))
        for kk in (1, 2, n):
            stats = {}
            assert (first_undefended_attack(lb, [1], kk, stats=stats) is None) == (kk == 1)
            twin_steps.add(stats["steps"])
    assert max(twin_steps) <= 4 * 1, twin_steps

    # CPU time within 2x of a through-origin linear fit, per algorithm and
    # family: the fit checks growth across the three decades of n, leaving
    # each family its own constant.  The greedy's work is n + |D| at any k,
    # as (d) counts it.
    def work(algo, r):
        if algo == "greedy":
            return r["n"] + r["size"]
        return r["n"] + r["bubbles"] * math.log2(max(r["k"], 2))

    spreads = {}
    for algo, rs in rows.items():
        ends = []
        for fam in families:
            fam_rows = [r for r in rs if r["family"] == fam]
            pts = [(work(algo, r), r["cpu_ns"]) for r in fam_rows]
            alpha = sum(w * t for w, t in pts) / sum(w * w for w, _ in pts)
            for r, (w, t) in zip(fam_rows, pts):
                ratio = t / (alpha * w)
                assert 0.5 <= ratio <= 2.0, (algo, fam, r["n"], w, t, alpha, ratio)
                ends.append((ratio, f"{fam} n={r['n']}"))
        spreads[algo] = "{:.2f} ({}) - {:.2f} ({})".format(*min(ends), *max(ends))
    print(
        "PASS criterion 4: greedy steps <= "
        f"{c1:.2f}*n*k on all runs; heap ops <= 2|B| and iterations <= 2|B|+3 everywhere; "
        f"verifier steps <= {verify_ratio:.2f}*(n+|D|) and greedy steps <= {greedy_ratio:.2f}*(n+|D|) "
        f"at k=1, {k}, n; bubble verifier steps <= {bubble_ratio:.2f}*|B| there and "
        f"{max(twin_steps)} on 10^15 twins; "
        f"CPU-time fit spread greedy {spreads['greedy']}, "
        f"bubble {spreads['bubble']} (within 0.5-2.0)"
    )


def test_criterion_5_structural():
    """Bubble counts: cliques collapse, paths stay apart, twins decide."""
    for n in (1, 2, 3, 8, 40, 500):
        assert bubbles_from_pig(ProperIntervalGraph([n] * n)).count == 1
    # a two-vertex path is a clique of twins, so paths start at n=3
    for n in (1, 3, 8, 40, 500):
        path = ProperIntervalGraph([min(j + 1, n) for j in range(1, n + 1)])
        assert bubbles_from_pig(path).count == n
    rng = SplitMix64(0x57A7)
    for trial in range(300):
        n = 1 + rng.below(120)
        g = _random_instance(rng, n, trial)
        distinct = len(set(zip(g.minn[1:], g.maxn[1:])))
        assert bubbles_from_pig(g).count == distinct, g.maxn
    print("PASS criterion 5: structural bubble counts on cliques, paths, and 300 random instances")


def test_criterion_6_cli_round_trip(tmp_path):
    """gen -> solve -> verify exits 0 for 100 seeded instances per family."""
    rng = SplitMix64(0xC11)
    total = 0
    for fam in ("path", "complete", "clique_chain", "random"):
        for i in range(100):
            dest = tmp_path / f"{fam}-{i}.pig"
            if fam == "clique_chain":
                m = 1 + rng.below(6)
                sizes = ",".join(str(2 + rng.below(5)) for _ in range(m))
                args = ["gen", "--family", fam, "--sizes", sizes, "--output", str(dest)]
            elif fam == "random":
                n = 2 + rng.below(60)
                args = ["gen", "--family", fam, "--n", str(n), "--seed", str(i), "--output", str(dest)]
            else:
                n = 1 + rng.below(60)
                args = ["gen", "--family", fam, "--n", str(n), "--output", str(dest)]
            out = _io.StringIO()
            assert cli_run(args, out=out, err=out) == 0, (fam, i, out.getvalue())
            k = 1 + rng.below(5)
            out = _io.StringIO()
            code = cli_run(
                ["solve", "--input", str(dest), "--k", str(k), "--algo", "bubble"],
                out=out,
                err=out,
            )
            assert code == 0, (fam, i, out.getvalue())
            defenders = ",".join(out.getvalue().splitlines()[1:])
            out2 = _io.StringIO()
            code = cli_run(
                ["verify", "--input", str(dest), "--k", str(k), "--defenders", defenders],
                out=out2,
                err=out2,
            )
            assert code == 0, (fam, i, out2.getvalue())
            total += 1
    print(f"PASS criterion 6: CLI gen->solve->verify round trip on {total} instances")
