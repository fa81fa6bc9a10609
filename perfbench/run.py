#!/usr/bin/env python3
"""End-to-end benchmark of the ``defdom`` CLI.

Each timed op is one in-process call of ``defdom.cli.run(argv, out=buffer)``
with the argv a user would type: it reads an instance file from disk and ends
with the stdout text.  Ops run one at a time from one process (a closed loop
with one client), round-robin over (instance, op type), where the op types
are ``solve --algo greedy``, ``solve --algo bubble`` and ``verify`` of the
solve answer.  In-process calls keep interpreter start-up (about 0.1 s, more
than most ops) out of the measurement, and let ``verify`` take a defender
list longer than the operating system's argv limit.

    python3 perfbench/run.py --workload pig_k128 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer
metrics with ``--trace 1``).  perfbench/README.md defines every metric.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench-work"
WORKLOAD_NAMES = ("intervals_k8", "pig_k128", "bubbles_fat")
OP_TYPES = ("greedy", "bubble", "verify")
INSTANCES = 4
SETUP_REPS = 3

END_TO_END = {
    **{f"{op}_{q}_ms": "ms" for op in OP_TYPES for q in ("p50", "p90")},
    "vertices_per_s": "vertices/s",
    **{f"{op}_peak_mb": "MB" for op in OP_TYPES},
    "setup_s": "s",
}
PER_LAYER = {
    "io.parse_ms": "ms",
    "io.mb_per_s": "MB/s",
    "pig.from_intervals_ms": "ms",
    "pig.build_ms": "ms",
    "bubbles.expand_ms": "ms",
    "bubbles.expanded_vertices": "count",
    "bubbles.model_ms": "ms",
    "bubbles.validate_ms": "ms",
    "bubbles.count": "count",
    "greedy.solve_ms": "ms",
    "greedy.defense_steps": "count",
    "greedy.steps_per_nk": "1",
    "bubble_solver.solve_ms": "ms",
    "bubble_solver.ns_per_bubble": "ns",
    "bubble_solver.heap_ops": "count",
    "bubble_solver.heap_ops_per_2B": "1",
    "bubble_solver.iterations": "count",
    "bubble_solver.chunks": "count",
    "bubble_solver.merge_touches": "count",
    "defense.verify_ms": "ms",
    "defense.ns_per_nk": "ns",
    "cli.self_ms": "ms",
    "trace.overhead": "1",
}

# The box's speed drifts by up to +-30% over tens of seconds, and every op
# slows with it, so raw latencies of one seed's run differ from the next by
# 20% and more.  The reference work below (tuples, a sort, a dict, str joins:
# the kind of work the ops do) runs before every op; each op's time is scaled
# by REF_NS over the mean reference time around it, which reports it at the
# speed where the reference takes REF_NS.  Set-up time is scaled the same way,
# by the median reference time around the set-ups.  The reference code is the
# benchmark's own, so a change to defdom cannot move it.
REF_ITEMS = tuple(range(1500))
REF_NS = 750_000


def reference_ns() -> int:
    t0 = time.perf_counter_ns()
    items = [((x * 7919) % 1499, x) for x in REF_ITEMS]
    items.sort()
    acc, seen = 0, {}
    for a, b in items:
        seen[a] = seen.get(a, 0) + b
        acc += a & b
    str(acc) + ",".join(map(str, REF_ITEMS[:300]))
    return time.perf_counter_ns() - t0


class Sample(NamedTuple):
    op: str
    traced: bool
    n: int
    ns: int  # wall time
    ref_ns: float  # mean reference time before and after the op

    @property
    def scaled_ns(self) -> float:
        return self.ns * REF_NS / self.ref_ns


def _commit() -> str:
    """HEAD of the checkout's git repository, read from its files, if any."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


class Bench:
    """One workload in one process: set-up, timed loop, checks."""

    def __init__(self, workload, seed: int, scale: float, workdir: str):
        import defdom.cli

        self.cli = defdom.cli
        self.w = workload
        self.seed = seed
        self.scale = scale
        self.workdir = workdir
        self.instances = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    # -- ops ---------------------------------------------------------------

    def argv(self, op: str, inst, defenders: str | None = None):
        k = str(inst.k)
        if op == "verify":
            d = inst.defenders if defenders is None else defenders
            return ["verify", "--input", inst.path, "--k", k, "--defenders", d]
        return ["solve", "--input", inst.path, "--k", k, "--algo", op]

    def run_op(self, argv):
        """(nanoseconds, exit code or None on an exception, stdout text)."""
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter_ns()
        try:
            rc = self.cli.run(argv, out=out, err=err)
            text = out.getvalue()
        except Exception as exc:  # a crashing op is a failed op, not a crashed benchmark
            rc, text = None, f"{type(exc).__name__}: {exc}"
        return time.perf_counter_ns() - t0, rc, text

    def check(self, op: str, inst, rc, text: str):
        """Count one attempted op; greedy and bubble must print the reference answer."""
        self.attempted += 1
        if op == "verify":
            ok = rc == 0 and text == "OK\n"
        else:
            ok = rc == 0 and inst.answer is not None and text == inst.answer
        if not ok:
            self.fail(f"{op} on {os.path.basename(inst.path)}: exit {rc}, output {text[:80]!r}")

    def fail(self, why: str):
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(why)

    # -- set-up ------------------------------------------------------------

    def set_up(self):
        """Write and shape-check the instances, solve each once, warm up."""
        from workloads import write_instances

        instances = write_instances(self.w, self.seed, self.scale, INSTANCES, self.workdir)
        for inst in instances:
            _, rc, text = self.run_op(self.argv("greedy", inst))
            if rc == 0 and text.startswith("size="):
                inst.answer = text
                inst.defenders = ",".join(text.split()[1:])
        for op in ("bubble", "verify"):
            self.run_op(self.argv(op, instances[0]))
        return instances

    # -- measurement ---------------------------------------------------------

    def loop(self, seconds: float, tracer=None) -> tuple[list[Sample], list[str]]:
        """Round-robin over (instance, op type) until ``seconds`` have passed.

        With a tracer, even rounds are traced and odd rounds are not, and the
        loop ends after an odd round, so both halves run the same ops.
        Returns the samples in run order and the op type of each traced op id.
        """
        runs, refs, op_types = [], [], []
        deadline = time.perf_counter() + seconds
        rounds = 0
        while True:
            traced = tracer is not None and rounds % 2 == 0
            if traced:
                tracer.install()
            for inst in self.instances:
                for op in OP_TYPES:
                    argv = self.argv(op, inst)
                    gc.collect()
                    refs.append(reference_ns())
                    if traced:
                        tracer.op = len(op_types)
                        op_types.append(op)
                    ns, rc, text = self.run_op(argv)
                    runs.append((op, traced, inst.n, ns))
                    self.check(op, inst, rc, text)
            if traced:
                tracer.uninstall()
            rounds += 1
            if time.perf_counter() >= deadline and (tracer is None or rounds % 2 == 0):
                break
        refs.append(reference_ns())
        samples = [Sample(*r, (refs[i] + refs[i + 1]) / 2) for i, r in enumerate(runs)]
        return samples, op_types

    def peaks(self) -> dict:
        """Untimed pass: tracemalloc peak of one op, max over the instances."""
        peak = {op: 0 for op in OP_TYPES}
        for inst in self.instances:
            for op in OP_TYPES:
                argv = self.argv(op, inst)
                gc.collect()
                tracemalloc.start()
                _, rc, text = self.run_op(argv)
                peak[op] = max(peak[op], tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
                self.check(op, inst, rc, text)
        return peak

    def minimality(self):
        """Untimed: the answer minus one defender must fail verify (exit 1)."""
        from defdom.generators import SplitMix64

        rng = SplitMix64(self.seed)
        for inst in self.instances:
            ds = inst.defenders.split(",") if inst.defenders else []
            self.attempted += 1
            if not ds:
                self.fail(f"minimality on {os.path.basename(inst.path)}: no answer")
                continue
            del ds[rng.below(len(ds))]
            _, rc, text = self.run_op(self.argv("verify", inst, ",".join(ds)))
            if rc != 1 or not text.startswith("FAIL "):
                self.fail(f"minimality on {os.path.basename(inst.path)}: exit {rc}, output {text[:80]!r}")

    def counter_bounds(self, solver_notes):
        """Traced: heap inserts+deletes <= 2|B| and iterations <= 2|B|+3 per solve."""
        for s in solver_notes:
            self.attempted += 1
            heap_ops, b = s["heap_inserts"] + s["heap_deletes"], s["bubbles"]
            if heap_ops > 2 * b or s["iterations"] > 2 * b + 3:
                self.fail(f"counter bound: heap ops {heap_ops}, iterations {s['iterations']}, |B| {b}")


def _p90(xs) -> float:
    return statistics.quantiles(xs, n=10, method="inclusive")[8] if len(xs) > 1 else xs[0]


def end_to_end(samples: list[Sample], peaks: dict, setup_s: float) -> dict:
    m = {}
    for op in OP_TYPES:
        ms = [s.scaled_ns / 1e6 for s in samples if s.op == op]
        m[f"{op}_p50_ms"] = statistics.median(ms)
        m[f"{op}_p90_ms"] = _p90(ms)
    m["vertices_per_s"] = sum(s.n for s in samples) / (sum(s.scaled_ns for s in samples) / 1e9)
    for op in OP_TYPES:
        m[f"{op}_peak_mb"] = peaks[op] / 1e6
    m["setup_s"] = setup_s
    return m


def per_layer(b, samples: list[Sample]) -> dict:
    """Per-layer metrics from a Breakdown of the traced ops."""
    greedy = b.notes["greedy.solve"]
    solver = b.notes["bubble_solver.solve"]
    verify = b.notes["defense.verify"]
    bubbles_2 = sum(2 * s["bubbles"] for s in solver)
    heap_ops = sum(s["heap_inserts"] + s["heap_deletes"] for s in solver)
    parse_s = b.self_ns["io.parse"] / 1e9
    nk_verify = sum(v["n"] * min(v["k"], v["n"]) for v in verify)
    plain_ns = sum(s.scaled_ns for s in samples if not s.traced)
    traced_ns = sum(s.scaled_ns for s in samples if s.traced)

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "io.parse_ms": b.per_op_ms("io.parse"),
        "io.mb_per_s": ratio(sum(x["bytes"] for x in b.notes["io.parse"]) / 1e6, parse_s),
        "pig.from_intervals_ms": b.per_op_ms("pig.from_intervals"),
        "pig.build_ms": b.per_op_ms("pig.build"),
        "bubbles.expand_ms": b.per_op_ms("bubbles.expand"),
        "bubbles.expanded_vertices": b.per_op("bubbles.expand", "vertices"),
        "bubbles.model_ms": b.per_op_ms("bubbles.model"),
        "bubbles.validate_ms": b.per_op_ms("bubbles.validate"),
        "bubbles.count": b.per_op("bubbles.model", "bubbles"),
        "greedy.solve_ms": b.per_op_ms("greedy.solve"),
        "greedy.defense_steps": b.per_op("greedy.solve", "defense_steps"),
        "greedy.steps_per_nk": ratio(sum(s["defense_steps"] for s in greedy), sum(s["n"] * s["k"] for s in greedy)),
        "bubble_solver.solve_ms": b.per_op_ms("bubble_solver.solve"),
        "bubble_solver.ns_per_bubble": ratio(b.self_ns["bubble_solver.solve"], sum(s["bubbles"] for s in solver)),
        "bubble_solver.heap_ops": ratio(heap_ops, len(b.ops_in["bubble_solver.solve"])),
        "bubble_solver.heap_ops_per_2B": ratio(heap_ops, bubbles_2),
        "bubble_solver.iterations": b.per_op("bubble_solver.solve", "iterations"),
        "bubble_solver.chunks": b.per_op("bubble_solver.solve", "chunks"),
        "bubble_solver.merge_touches": b.per_op("bubble_solver.solve", "merge_touches"),
        "defense.verify_ms": b.per_op_ms("defense.verify"),
        "defense.ns_per_nk": ratio(b.self_ns["defense.verify"], nk_verify),
        "cli.self_ms": b.per_op_ms("cli"),
        "trace.overhead": ratio(traced_ns, plain_ns) - 1 if plain_ns else 0.0,
    }


def print_breakdown(b):
    from tracing import LAYERS

    print("traced self time, share of op time by op type:")
    print(f"  {'layer':<22}" + "".join(f"{op:>9}" for op in OP_TYPES))
    for layer in LAYERS:
        print(f"  {layer:<22}" + "".join(f"{b.share(op, layer):>9.1%}" for op in OP_TYPES))
    total = sum(b.op_ns.values())
    io_pig = sum(b.self_ns[x] for x in ("io.parse", "pig.from_intervals", "pig.build"))
    print(
        f"  io+pig of all ops {io_pig / total:.1%}; greedy of greedy ops "
        f"{b.share('greedy', 'greedy.solve'):.1%}; defense of verify ops "
        f"{b.share('verify', 'defense.verify'):.1%}; bubble_solver of bubble ops "
        f"{b.share('bubble', 'bubble_solver.solve'):.1%}"
    )


def run_workload(args) -> int:
    if not (SRC / "defdom" / "__init__.py").is_file():
        print(f"error: no defdom package under {SRC}; run from a defdom checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import defdom

    if Path(defdom.__file__).resolve().parent != (SRC / "defdom").resolve():
        print(f"error: imported defdom from {defdom.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from tracing import Breakdown, Tracer
    from workloads import WORKLOADS

    w = WORKLOADS[args.workload]
    workdir = WORKDIR / f"{w.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        bench = Bench(w, args.seed, args.scale, str(workdir))
        tracer = Tracer() if args.trace else None
        pre_s = time.perf_counter() - T_START
        reps, refs = [], [reference_ns()]
        for _ in range(SETUP_REPS):
            t = time.perf_counter()
            bench.instances = bench.set_up()
            reps.append(time.perf_counter() - t)
            refs.append(reference_ns())
        t = time.perf_counter()
        gc.collect()
        gc.freeze()
        wall_setup_s = pre_s + statistics.median(reps) + time.perf_counter() - t
        setup_s = wall_setup_s * REF_NS / statistics.median(refs)

        print(f"workload {w.name}: {w.why}")
        print(
            f"python {platform.python_version()}, nproc {os.cpu_count()}, seed {args.seed}, "
            f"commit {_commit()}, seconds {args.seconds}, trace {args.trace}, scale {args.scale}"
        )
        print(
            f"closed loop, 1 client, in-process; round-robin over {len(bench.instances)} instances x "
            f"{len(OP_TYPES)} op types; gc.freeze after set-up, gc.collect before each op; "
            f"1 warm-up op per type; set-up median of {SETUP_REPS}"
        )
        samples, op_types = bench.loop(args.seconds, tracer)
        bench.minimality()
        for i, inst in enumerate(bench.instances):
            print(f"instance {i}: {inst.facts()}")
        refs = [s.ref_ns for s in samples]
        print(
            f"reference work median {statistics.median(refs) / 1e6:.4f} ms "
            f"(quartiles {' '.join(f'{q / 1e6:.4f}' for q in statistics.quantiles(refs, n=4))}); "
            f"op and set-up times are scaled to {REF_NS / 1e6:g} ms; wall set-up {wall_setup_s:.4f} s"
        )
        for op in OP_TYPES:
            wall = [s.ns / 1e6 for s in samples if s.op == op and not s.traced]
            print(f"{op}: {len(wall)} timed ops, wall p50 {statistics.median(wall):.3f} ms, p90 {_p90(wall):.3f} ms")
        if tracer is None:
            metrics = end_to_end(samples, bench.peaks(), setup_s)
            units = END_TO_END
        else:
            breakdown = Breakdown(tracer.spans, op_types)
            bench.counter_bounds(breakdown.notes["bubble_solver.solve"])
            metrics = per_layer(breakdown, samples)
            units = PER_LAYER
            print_breakdown(breakdown)
            trace_path = WORKDIR / f"trace-{w.name}-seed{args.seed}.jsonl"
            tracer.dump(str(trace_path))
            print(f"{len(tracer.spans)} spans of {len(op_types)} traced ops written to {trace_path}")
        for name, value in metrics.items():
            print(f"{name} = {value:.6g} {units[name]}")
        print(f"failed_ratio = {bench.failed / bench.attempted:.6g} 1 ({bench.failed} of {bench.attempted})")
        for why in bench.failures:
            print(f"FAILED: {why}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, one after another."""
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), "--scale", str(args.scale),
        ]
        worst = max(worst, subprocess.run(cmd, check=False).returncode)
    return worst


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0, help="instance size factor (the self-test uses 0.1)")
    args = p.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
