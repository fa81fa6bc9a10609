"""Seeded instance files for the benchmark workloads, and the shape guard.

Every instance is written through defdom's own generators and
``defdom.io.format_*`` and then parsed back, so the files the timed ops read
are exactly what a user of ``defdom gen`` would have on disk.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import defdom.io as dio
from defdom.bubbles import bubbles_from_pig, pig_from_bubbles
from defdom.generators import UNIT, SplitMix64, compact_for_family, random_unit_intervals
from defdom.pig import ProperIntervalGraph

#: Left endpoints fall in [0, n/16] units and every interval is one unit
#: long, so a vertex meets about 32 others and a gap wide enough to split
#: the graph has probability about e^-16 per vertex.  The spread-1/2 family
#: of ``defdom bench`` instead breaks into components of at most ~72
#: vertices, where the solvers do no window work once k is large.
SPREAD = Fraction(1, 16)

#: Redraws allowed before a connected unit-interval draw is given up.
MAX_DRAWS = 100


class ShapeError(RuntimeError):
    """A generated instance is not the shape its workload promises."""


def _connected_draw(n: int, seed: int):
    for attempt in range(MAX_DRAWS):
        entries = random_unit_intervals(n, SPREAD, seed + attempt)
        g = ProperIntervalGraph.from_intervals(entries)
        if g.is_connected():
            return entries, g
    raise ShapeError(f"no connected unit-interval draw for n={n} in {MAX_DRAWS} attempts")


def intervals_text(n: int, seed: int) -> str:
    """Unit intervals written as reduced rationals x/10^6 (mixed denominators)."""
    entries, _ = _connected_draw(n, seed)
    return dio.format_intervals([(Fraction(l, UNIT), Fraction(r, UNIT)) for l, r in entries])


def pig_text(n: int, seed: int) -> str:
    _, g = _connected_draw(n, seed)
    return dio.format_pig(g)


def bubbles_text(n: int, seed: int) -> str:
    """Compact bubbles of a clique chain with seeded clique sizes 50..150."""
    rng = SplitMix64(seed)
    sizes: list[int] = []
    total = 1
    while total < n:
        sizes.append(50 + rng.below(101))
        total += sizes[-1] - 1
    return dio.format_bubbles(compact_for_family("clique_chain", sizes=sizes))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make: Callable[[int, int], str]
    ext: str
    n: int
    k: int
    band: tuple[float, float]  # allowed |B|/n


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "intervals_k8",
            "rational interval files at k=8: parsing and from_intervals dominate, the solvers are cheap",
            intervals_text, "intervals", 1500, 8, (0.5, 0.8),
        ),
        Workload(
            "pig_k128",
            "pig files at k=128 with |B| ~ 0.65n: the O(n*k) greedy and scan verifier dominate",
            pig_text, "pig", 2000, 128, (0.5, 0.8),
        ),
        Workload(
            "bubbles_fat",
            "2 KB compact bubbles expanding to n=10^4 with |B| ~ 190: expansion and output dominate",
            bubbles_text, "bubbles", 10000, 32, (0.005, 0.05),
        ),
    )
}


@dataclass
class Instance:
    path: str
    n: int
    bubbles: int
    components: int
    largest: int
    k: int
    file_bytes: int
    answer: str | None = None  # stdout of the reference solve
    defenders: str = ""  # the answer as a --defenders argument

    def facts(self) -> str:
        size = len(self.answer.splitlines()) - 1 if self.answer else "?"
        return (
            f"n={self.n} |B|={self.bubbles} components={self.components} "
            f"largest={self.largest} k={self.k} |D|={size} bytes={self.file_bytes}"
        )


def shape_guard(w: Workload, path: str, data: bytes) -> Instance:
    """Parse the file back and check the shape the workload is chosen for."""
    kind, payload = dio.parse_instance(data)
    g = pig_from_bubbles(payload) if kind == "bubbles" else payload
    comps = g.components()
    count = bubbles_from_pig(g).count
    inst = Instance(
        path, g.n, count, len(comps), max(hi - lo + 1 for lo, hi in comps), w.k, len(data)
    )
    lo, hi = w.band
    if inst.components != 1 or not w.k < g.n or not lo <= count / g.n <= hi:
        raise ShapeError(f"{w.name}: {path} has the wrong shape: {inst.facts()}, |B|/n band {w.band}")
    return inst


def write_instances(w: Workload, seed: int, scale: float, count: int, workdir: str) -> list[Instance]:
    """Write ``count`` instance files for ``seed`` and shape-check each one."""
    rng = SplitMix64(seed)
    n = max(round(w.n * scale), 2 * w.k)
    out = []
    for i in range(count):
        data = w.make(n, rng.next()).encode("utf-8")
        path = os.path.join(workdir, f"{w.name}-{i}.{w.ext}")
        with open(path, "wb") as fh:
            fh.write(data)
        out.append(shape_guard(w, path, data))
    return out
