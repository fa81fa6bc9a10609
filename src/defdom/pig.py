"""Canonical representation of proper interval graphs.

Vertices are numbered 1..n in left-endpoint order of an interval
representation.  Adjacency is stored as one number per vertex: ``maxn[j]``
is the largest vertex whose interval meets interval j, so ``u ~ v`` for
``u < v`` exactly when ``maxn[u] >= v``.  That one nondecreasing sequence
is all a graph stores.  ``minn[v]``, the least u with ``maxn[u] >= v``, is
derived on every read; as ``maxn`` never decreases, u < minn[v] exactly when
maxn[u] < v (u >= 1), so every other module tests first neighbors through
``maxn``.  ``ProperIntervalGraph(maxn)`` and ``from_runs`` check their input;
``from_intervals`` stores its sweep's ``maxn``, valid by construction, unchecked.

``from_intervals`` works on flat endpoint lists: a stable sort of the
positions by left end, two whole-list checks that the family is proper, and
one sweep of the sorted ends for ``maxn``.  The sort of (left, right,
position) tuples and the pairwise loop run only to name a violating pair.

All endpoint arithmetic is exact, never floating point.  Endpoints are
compared as plain integers on one common scale: every endpoint p/q is
multiplied by L = lcm of all the denominators q, which maps each to the
integer p*(L/q).  Multiplying by a positive constant keeps every ``<`` and
``==`` between endpoints, so the sorted order, the ties and the touching
pairs are those of the rationals themselves.  L can grow with each new prime
denominator, so it is kept within a budget of ``SCALE_BITS`` bits; a family
whose L would pass it keeps its endpoints as Fractions, which compare just as
exactly, only more slowly.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, islice, repeat, starmap
from math import lcm
from operator import floordiv, index, lt, mul
from typing import Iterable, Optional, Sequence

from .errors import InvalidRanges, ProperViolation

#: Largest common scale, in bits, that endpoints are multiplied up to.
SCALE_BITS = 256


def common_scale(dens: Iterable[int]) -> Optional[int]:
    """The positive lcm of nonzero denominators, or None once it passes SCALE_BITS bits.

    The lcm is folded in lazily, only for a denominator that does not
    already divide it, and the fold stops at the first step over budget:
    each step at least doubles the scale, so it makes at most SCALE_BITS
    ``lcm`` calls, however many distinct denominators follow.
    """
    scale = 1
    for d in dens:
        if scale % d:
            scale = lcm(scale, d)
            if scale.bit_length() > SCALE_BITS:
                return None
    return scale


#: Endpoints ``on_common_scale`` scales per slice: the pass holds one slice's
#: old and new ints at once beside the list.  Slicing makes the pass about a
#: fifth slower than one whole-list pass at any slice length from 128 to
#: 1,024, so a short slice keeps that overlap small at little cost in time.
_SCALE_SLICE = 256


def on_common_scale(nums: Sequence[int], dens: Sequence[int]) -> list:
    """The rationals ``nums[i] / dens[i]`` (nonzero denominators of either
    sign, not reduced) as ints on the common scale of ``common_scale``, each
    num * (L / den), or as a new list of Fractions past its budget.

    On the int path ``nums`` is overwritten with the scaled ints, a slice at
    a time, and returned, so the unscaled and scaled ints never both exist
    in full; a ``nums`` that is not a list is copied into one first.  When
    every denominator is 1 the numerators already are the scaled ints, and
    they are returned untouched.
    """
    dset = set(dens)
    scale = common_scale(dset)
    if scale is None:
        return list(map(Fraction, nums, dens))
    if type(nums) is not list:
        nums = list(nums)
    if dset == {1}:
        return nums
    for i in range(0, len(nums), _SCALE_SLICE):
        j = i + _SCALE_SLICE
        nums[i:j] = map(mul, nums[i:j], map(floordiv, repeat(scale), dens[i:j]))
    return nums


def _name_violation(ends: list) -> None:
    """Raise ProperViolation for the first nested pair of the sorted family.

    The tuple sort and pairwise loop of a proper-family check, kept to name
    the pair when ``from_intervals``' whole-list checks have failed.
    """
    pairs = iter(ends)
    items = sorted(zip(pairs, pairs, range(len(ends) // 2)))
    for (l1, r1, i1), (l2, r2, i2) in zip(items, items[1:]):
        if (l1, r1) != (l2, r2) and not (l1 < l2 and r1 < r2):
            raise ProperViolation(sorted((i1 + 1, i2 + 1)))
    raise AssertionError("whole-list proper checks failed on a proper family")


def _exact(x) -> Fraction:
    """A number as a Fraction, exactly; a string is refused, not parsed."""
    if isinstance(x, str):
        raise TypeError(f"endpoint {x!r} is a string, not a number")
    return Fraction(x)


def _scaled_ends(entries) -> list:
    """The endpoints as one flat list, left, right, left, ..., as ints on the
    common scale of ``on_common_scale``, or as Fractions past its budget.

    Plain ints, as ``defdom.io`` builds them, are kept as they are (scale 1);
    an entry holding anything else is converted exactly by ``_exact``, floats
    included, and then the whole list goes through ``on_common_scale``.
    """
    ends = []
    exact = True  # every endpoint so far a plain int
    for left, right in entries:
        if type(left) is not int or type(right) is not int:
            left, right, exact = _exact(left), _exact(right), False
        if left > right:
            raise ValueError(f"interval {len(ends) // 2 + 1} has left endpoint above right endpoint")
        ends.append(left)
        ends.append(right)
    if exact:
        return ends
    return on_common_scale([x.numerator for x in ends], [x.denominator for x in ends])


def _check_maxn(vertices: Iterable[tuple[int, int]], n: int) -> None:
    """Raise InvalidRanges at the first (vertex, max neighbor) pair, in
    ascending vertex order, whose value is below its vertex, beyond n, or
    below the value before it; or when n is 0."""
    if n == 0:
        raise InvalidRanges("graph needs at least one vertex")
    prev = 1
    for j, m in vertices:
        if m < j:
            raise InvalidRanges(f"max neighbor of vertex {j} is {m}, below the vertex itself")
        if m > n:
            raise InvalidRanges(f"max neighbor of vertex {j} is {m}, beyond n={n}")
        if m < prev:
            raise InvalidRanges(f"max neighbor sequence decreases at vertex {j}")
        prev = m


def _run_vertices(runs: Iterable[tuple[int, int]]):
    """The vertices of (value, size) runs, positive sizes, that ``_check_maxn``
    can refuse, as (vertex, value) pairs: each run's first vertex, which any
    check can refuse, and the first one above its value, when that lies
    further in."""
    end = 0
    for m, s in runs:
        yield end + 1, m
        if end < m < end + s:
            yield m + 1, m
        end += s


def _first_reaching(reach: Sequence[int], points: Iterable[int], at: Sequence[int]) -> tuple[int, ...]:
    """``at[r]`` for each of the ascending ``points``, r the first index of the nondecreasing
    ``reach`` with reach[r] >= point, by one forward pointer: ``minn`` from ``maxn``."""
    out, r = [], 0
    for a in points:
        while reach[r] < a:
            r += 1
        out.append(at[r])
    return tuple(out)


class ProperIntervalGraph:
    """A proper interval graph in canonical vertex order."""

    __slots__ = ("n", "_maxn")

    def __init__(self, maxn: Iterable[int]):
        maxn = tuple(chain((0,), map(index, maxn)))  # 1-based, the one copy kept
        _check_maxn(islice(enumerate(maxn), 1, None), len(maxn) - 1)
        self.n, self._maxn = len(maxn) - 1, maxn

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_runs(cls, sizes: Sequence[int], values: Sequence[int]) -> "ProperIntervalGraph":
        """The graph whose ``maxn`` holds ``values[r]`` for ``sizes[r]``
        consecutive vertices, built with Python work per run only.

        A run of no or negative length holds no vertex and is skipped, its
        value unread, so n is the sum of the other sizes.  The runs are
        checked first, by ``_check_maxn`` on the at most two vertices per run
        that can fail (``_run_vertices``), so every error is ``__init__``'s,
        word for word, and no run is expanded.
        """
        # Sizes convert before values, as when the expansion repeats each value.
        runs = [(index(m), s) for m, s in zip(values, map(index, sizes)) if s > 0]
        n = sum(s for _, s in runs)
        _check_maxn(_run_vertices(runs), n)
        g = cls.__new__(cls)
        g.n = n
        g._maxn = tuple(chain((0,), chain.from_iterable(starmap(repeat, runs))))
        return g

    @classmethod
    def from_intervals(cls, entries: Iterable) -> "ProperIntervalGraph":
        """Build the canonical graph of a proper family of closed intervals.

        Entries are (left, right) pairs of ints, fractions, or floats
        (converted exactly); a string endpoint raises TypeError.  Vertices
        are renumbered by left endpoint, ties broken by right endpoint then
        input position.  Touching endpoints count as adjacent.  Raises
        ProperViolation, reporting the 1-based input positions, if one
        interval properly contains another.

        Endpoints are compared on the common scale of ``on_common_scale``;
        when they are all ints already (L = 1) they are used as they are,
        with no conversion and no fold.

        The positions are sorted stably by left end alone.  In a proper
        family equal lefts have equal rights, so that is the (left, right,
        position) order, and two whole-list checks decide properness: the
        rights never decrease, and in each consecutive pair the left rises
        exactly when the right does.  Only when a check fails does the
        tuple sort and pairwise loop of ``_name_violation`` run, to name
        the first nested pair in that order.
        """
        ends = _scaled_ends(entries)
        if not ends:
            raise ValueError("need at least one interval")
        lefts, rights = ends[0::2], ends[1::2]
        n = len(lefts)
        order = sorted(range(n), key=lefts.__getitem__)
        lo = list(map(lefts.__getitem__, order))
        hi = list(map(rights.__getitem__, order))
        del lefts, rights, order
        if hi != sorted(hi) or list(map(lt, lo, lo[1:])) != list(map(lt, hi, hi[1:])):
            _name_violation(ends)
        del ends
        maxn = [0]  # 1-based
        m = 0  # the vertices whose left end is at most the current right end
        for r in hi:
            while m < n and lo[m] <= r:
                m += 1
            maxn.append(m)
        g = cls.__new__(cls)  # j <= maxn[j] <= n, never decreasing: valid as built
        g.n, g._maxn = n, tuple(maxn)
        return g

    # -- basic queries ----------------------------------------------------

    def is_connected(self) -> bool:
        return all(self._maxn[j] >= j + 1 for j in range(1, self.n))

    def components(self) -> list[tuple[int, int]]:
        """Maximal consecutive vertex ranges with no edges between them."""
        out = []
        start = 1
        for j in range(1, self.n):
            if self._maxn[j] == j:
                out.append((start, j))
                start = j + 1
        out.append((start, self.n))
        return out

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(1, self.n + 1) for v in range(u + 1, self._maxn[u] + 1)]

    def canonical_intervals(self) -> list[tuple[Fraction, Fraction]]:
        """An exact interval representation realizing this graph.

        Interval j is [j, max_nbr(j) + j/(n+1)]: lefts are the vertex
        numbers, the fractional tail keeps the family proper.
        """
        n1 = self.n + 1
        return [
            (Fraction(j), Fraction(self._maxn[j]) + Fraction(j, n1))
            for j in range(1, self.n + 1)
        ]

    # -- plumbing ----------------------------------------------------------

    @property
    def maxn(self) -> tuple[int, ...]:
        """The max-neighbor sequence, index 0 unused."""
        return self._maxn

    @property
    def minn(self) -> tuple[int, ...]:
        """The min-neighbor sequence, index 0 unused, derived on every read."""
        return _first_reaching(self._maxn, range(self.n + 1), range(self.n + 1))

    def __eq__(self, other):
        if not isinstance(other, ProperIntervalGraph):
            return NotImplemented
        return self._maxn == other._maxn

    def __hash__(self):
        return hash(self._maxn)

    def __repr__(self):
        return f"ProperIntervalGraph(maxn={list(self._maxn[1:])!r})"
