#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at a tenth of its size for one second, with tracing off
and then on, each in its own process, and checks that:

- the run exits 0 with ``correct`` true and no failed op;
- every metric BENCHMARK.json names is in the result line with its unit, and
  printed by name, together with ``failed_ratio = 0``;
- the traces, taken together, hold a span of every layer;
- in a directory holding only BENCHMARK.json and perfbench/, the benchmark
  exits non-zero without printing a result.

Exits 0 when every check holds and 1 otherwise, naming each failed check.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from run import END_TO_END, PER_LAYER, WORKDIR, WORKLOAD_NAMES  # noqa: E402
from tracing import LAYERS  # noqa: E402


def bench(cwd: Path, workload: str, trace: int):
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
        "--seconds", "1", "--trace", str(trace), "--scale", "0.1",
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


def main() -> int:
    problems = []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for trace, units in ((0, END_TO_END), (1, PER_LAYER)):
        if declared[trace] != units:
            problems.append(f"BENCHMARK.json metrics for trace {trace} differ from run.py: {declared[trace]}")
    seen_layers = set()
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            proc = bench(ROOT, workload, trace)
            tag = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
                continue
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{tag}: {result['failed']} of {result['attempted']} ops failed")
            if not any(line.startswith("failed_ratio = 0 ") for line in lines):
                problems.append(f"{tag}: no 'failed_ratio = 0' line")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != declared[trace]:
                problems.append(f"{tag}: metrics {sorted(got)} differ from BENCHMARK.json")
            for name, unit in declared[trace].items():
                if not any(line.startswith(f"{name} = ") and line.endswith(f" {unit}") for line in lines):
                    problems.append(f"{tag}: {name} not printed with unit {unit}")
            if trace:
                path = WORKDIR / f"trace-{workload}-seed7.jsonl"
                with open(path, encoding="utf-8") as fh:
                    seen_layers.update(json.loads(line)["name"] for line in fh)
    missing = set(LAYERS) - seen_layers
    if missing:
        problems.append(f"layers with no span in any trace: {sorted(missing)}")

    bare = WORKDIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = bench(bare, WORKLOAD_NAMES[0], 0)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        problems.append("without src/defdom the benchmark did not fail")

    for p in problems:
        print(f"FAIL: {p}")
    print("selftest: " + ("FAILED" if problems else "all checks passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
