"""Deterministic and seeded-random instance generation.

Each deterministic family is a chain of cliques, consecutive ones sharing a
vertex, described by one list of clique sizes (``_family_sizes``), from
which ``gen_family`` builds the graph and ``compact_for_family`` the compact
bubbles.  All randomness comes from an embedded splitmix64 generator so
that identical (parameters, seed) pairs reproduce identical instances on
any platform.  Every generator that builds or draws vertex by vertex raises
TooLarge before it allocates past ``MAX_EXPANDED_VERTICES``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from operator import index

from .bubbles import CompactBubbles, check_expansion
from .errors import BadParameters
from .pig import ProperIntervalGraph

#: Left endpoints of random unit intervals use this resolution: an interval
#: is [x, x + UNIT] with integer x, so comparisons stay integer-exact.
UNIT = 10**6

_MASK = (1 << 64) - 1


class SplitMix64:
    """splitmix64: state += 0x9E3779B97F4A7C15; output mixes with
    0xBF58476D1CE4E5B9 and 0x94D049BB133111EB (shifts 30/27/31)."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, m: int) -> int:
        """Uniform-ish draw in [0, m); plain modulo, bias immaterial here.

        A bound up to 2^64 takes one 64-bit word.  A larger one takes one
        more word per 64 bits of m, so the draw reaches the whole range.
        """
        if m <= 0:
            raise ValueError("below() needs a positive bound")
        x = self.next()
        if m > _MASK + 1:
            for _ in range((m.bit_length() + 63) // 64):
                x = x << 64 | self.next()
        return x % m


def _family_sizes(family: str, n, sizes) -> list[int]:
    """The clique sizes of a deterministic family, checked once for both builders.

    A path on n vertices is the chain of n - 1 edges (one vertex at n = 1),
    a complete graph is one clique of n, and a clique chain's sizes are
    converted with ``operator.index`` and must be non-empty, positive, and
    at least 2 each when there is more than one.  A path's list is capped.
    """
    if family in ("path", "complete"):
        if n is None or n < 1:
            raise BadParameters(f"{family} needs n >= 1")
        if family == "path":
            check_expansion(n, "generated path instance")
        return [n] if family == "complete" else [2] * (n - 1) or [1]
    if family != "clique_chain":
        raise BadParameters(f"unknown family {family!r}")
    sizes = list(map(index, sizes or ()))
    if not sizes:
        raise BadParameters("clique_chain needs a list of clique sizes")
    if min(sizes) < 1:
        raise BadParameters("clique sizes must be positive")
    if len(sizes) > 1 and min(sizes) < 2:
        raise BadParameters("chained cliques must have at least 2 vertices")
    return sizes


def gen_family(family: str, n: int | None = None, sizes=None) -> ProperIntervalGraph:
    """Deterministic families: path, complete, clique_chain.

    Consecutive cliques of a chain share one vertex, so with e_0 = 1 clique
    t of size c_t spans [e_(t-1)..e_t], e_t = e_(t-1) + c_t - 1.  Its
    c_t - 1 vertices below e_t have max neighbor e_t, as do all c_m
    vertices of the last clique, and ``from_runs`` builds the graph from
    these runs; a complete graph is the chain of one clique.  A path is
    built vertex by vertex, ``maxn[j] = min(j + 1, n)``, as runs of one
    vertex are slower.
    """
    sizes = _family_sizes(family, n, sizes)  # a path's list is capped there
    if family == "path":
        return ProperIntervalGraph([min(j + 1, n) for j in range(1, n + 1)])
    check_expansion(sum(sizes) - len(sizes) + 1, f"generated {family} instance")
    runs = [c - 1 for c in sizes]
    ends = list(accumulate(runs, initial=1))[1:]
    runs[-1] += 1
    return ProperIntervalGraph.from_runs(runs, ends)


def random_unit_intervals(n: int, spread, seed: int) -> list[tuple[int, int]]:
    """n unit-length intervals with integer left endpoints in [0, spread*n].

    Endpoints are scaled by UNIT so the family is exact; every interval has
    length UNIT.  ``spread`` is any value Fraction accepts, "3/2" included,
    and must not be negative.  n is capped before the first draw.
    """
    if n < 1:
        raise BadParameters("need n >= 1")
    check_expansion(n, "generated random instance")
    try:
        spread = Fraction(spread)
    except ZeroDivisionError:
        raise BadParameters(f"spread {spread!r} has a zero denominator") from None
    except (TypeError, ValueError, OverflowError):
        raise BadParameters(f"spread {spread!r} is not a finite number") from None
    if spread < 0:
        raise BadParameters(f"spread {spread} is negative")
    top = int(spread * n * UNIT)
    rng = SplitMix64(seed)
    return [(x, x + UNIT) for x in (rng.below(top + 1) for _ in range(n))]


def gen_random_unit_intervals(
    n: int, spread=2, seed: int = 0, connected: bool = False, max_attempts: int = 1000
) -> ProperIntervalGraph:
    """Random unit-interval graph; optionally redrawn until connected.

    Large spreads make connected draws vanishingly rare, so the redraw loop
    gives up after ``max_attempts`` rather than spin forever.
    """
    if n < 1:
        raise BadParameters("need n >= 1")
    for attempt in range(max_attempts):
        g = ProperIntervalGraph.from_intervals(random_unit_intervals(n, spread, seed + attempt))
        if not connected or g.is_connected():
            return g
    raise BadParameters(
        f"no connected draw in {max_attempts} attempts; lower the spread ({spread})"
    )


def gen_random_bubbles(
    n: int, max_columns: int = 4, max_rows: int = 4, seed: int = 0
) -> CompactBubbles:
    """Scatter n vertices over random (column, row) cells, n capped first."""
    if n < 1:
        raise BadParameters("need n >= 1")
    check_expansion(n, "generated random instance")
    if max_columns < 1 or max_rows < 1:
        raise BadParameters("need at least one column and one row")
    rng = SplitMix64(seed)
    c = 1 + rng.below(max_columns)
    cells: dict[int, dict[int, int]] = {}
    for _ in range(n):
        col = 1 + rng.below(c)
        row = 1 + rng.below(max_rows)
        cells.setdefault(col, {})[row] = cells.setdefault(col, {}).get(row, 0) + 1
    columns = []
    for col in sorted(cells):
        columns.append(sorted(cells[col].items()))
    return CompactBubbles(columns)


def compact_for_family(family: str, n: int | None = None, sizes=None) -> CompactBubbles:
    """Hand-built compact bubble structures for the deterministic families.

    Each clique of the family's chain (see ``_family_sizes``) gets its own
    column; a single clique is one bubble of its size.
    """
    sizes = _family_sizes(family, n, sizes)
    m = len(sizes)
    if m == 1:
        return CompactBubbles([[(1, sizes[0])]])
    # Column t holds clique t minus its left shared vertex.  Plain members
    # sit at row t; the vertex shared with the next clique gets the high
    # row 2m+2-t, above every row of column t+1 so it alone joins it.
    columns = []
    for t in range(1, m + 1):
        width = sizes[t - 1] - (1 if t > 1 else 0)
        col = []
        plain = width - (1 if t < m else 0)
        if plain > 0:
            col.append((t, plain))
        if t < m:
            col.append((2 * m + 2 - t, 1))
        columns.append(col)
    return CompactBubbles(columns)
