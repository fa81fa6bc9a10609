"""Acceptance suite: one test per criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.
"""

from itertools import combinations

from defdom import (
    Attack,
    ProperIntervalGraph,
    SplitMix64,
    bubbles_from_pig,
    defends_consecutive,
    defends_matching,
    enumerate_connected_graphs,
    gen_random_bubbles,
    gen_random_unit_intervals,
    is_k_defensive,
    min_defensive_bruteforce,
    pig_from_bubbles,
    solve_bubble,
    solve_greedy,
)
from defdom.bench import build_instance, run_once
from defdom.cli import run as cli_run

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
        for g in enumerate_connected_graphs(n):
            edges = g.edges()
            for k in KS:
                a = solve_greedy(g, k)
                b = solve_bubble(bubbles_from_pig(g), k)
                assert a == b, (g.maxn, k)
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
            assert a == b, (g.maxn, k)
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
        assert a == b, (g.maxn, k)
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
    from defdom import is_bridged, range_of

    def square_connected(g, attack):
        vs = sorted(attack)
        inside, seen, frontier = set(vs), {vs[0]}, [vs[0]]
        while frontier:
            u = frontier.pop()
            for v in inside - seen:
                lo, hi = sorted((u, v))
                if g.max_nbr(lo) >= hi or g.max_nbr(g.max_nbr(lo)) >= hi:
                    seen.add(v)
                    frontier.append(v)
        return seen == inside

    corpus = list(enumerate_connected_graphs(5))
    corpus += [_random_instance(rng, 8, rng.below(1 << 30)) for _ in range(40)]
    trials_cd = 0
    for g in corpus:
        n = g.n
        for size in range(1, n + 1):
            for attack in combinations(range(1, n + 1), size):
                bridged = is_bridged(g, attack)
                assert bridged == square_connected(g, attack), (g.maxn, attack)
                if bridged:
                    r = range_of(g, attack)
                    assert g.neighborhood_of_range(r.first, r.last) == (
                        min(g.min_nbr(v) for v in attack),
                        max(g.max_nbr(v) for v in attack),
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
    """Counter bounds and near-linear wall-clock scaling for both solvers."""
    import math

    families = ("path", "clique_chain", "random")
    sizes = (1_000, 10_000, 100_000)
    k = 8
    rows = {"greedy": [], "bubble": []}
    for fam in families:
        for n in sizes:
            g = build_instance(fam, n, 0)
            reps = 5 if n <= 10_000 else 3
            for algo in ("greedy", "bubble"):
                best = None
                for _ in range(reps):
                    r = run_once(g, k, algo)
                    if best is None or r["nanoseconds"] < best["nanoseconds"]:
                        best = r
                best["family"] = fam
                rows[algo].append(best)

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
        assert stats["list_ops"] <= 2 * B, (g.maxn, kk, stats)

    # wall clock within 2x of a through-origin linear fit, per algorithm and
    # family: the fit checks growth across the three decades of n, leaving
    # each family its own constant
    def work(algo, r):
        if algo == "greedy":
            return r["n"] * r["k"]
        return r["n"] + r["bubbles"] * math.log2(max(r["k"], 2))

    spreads = {}
    for algo, rs in rows.items():
        lo_r, hi_r = 1.0, 1.0
        for fam in families:
            pts = [(work(algo, r), r["nanoseconds"]) for r in rs if r["family"] == fam]
            alpha = sum(w * t for w, t in pts) / sum(w * w for w, _ in pts)
            for w, t in pts:
                ratio = t / (alpha * w)
                assert 0.5 <= ratio <= 2.0, (algo, fam, w, t, alpha, ratio)
                lo_r, hi_r = min(lo_r, ratio), max(hi_r, ratio)
        spreads[algo] = (lo_r, hi_r)
    print(
        "PASS criterion 4: greedy steps <= "
        f"{c1:.2f}*n*k on all runs; heap ops <= 2|B| and iterations <= 2|B|+3 everywhere; "
        f"wall-clock fit spread greedy {spreads['greedy'][0]:.2f}-{spreads['greedy'][1]:.2f}, "
        f"bubble {spreads['bubble'][0]:.2f}-{spreads['bubble'][1]:.2f} (within 0.5-2.0)"
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
