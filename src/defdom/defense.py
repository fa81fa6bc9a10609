"""Attacks, defenses, and defense-feasibility predicates.

A defense of a defender set D against an attack A is a partial surjection
f: D -> A with f(d) in the closed neighborhood of d.  On a canonical proper
interval graph every feasible consecutive attack admits a rightmost monotone
defense, found by scanning attackers right to left and giving each the
rightmost unused defender adjacent to it.  ``defends_matching`` is the
structure-free counterpart: a maximum bipartite matching on an arbitrary
graph, used as an independent oracle.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .pig import ProperIntervalGraph


class Attack(NamedTuple):
    """A consecutive attack on vertices [first..last]."""

    first: int
    last: int

    @property
    def size(self) -> int:
        return self.last - self.first + 1

    def __str__(self):
        return f"[{self.first}..{self.last}]"


class Defense:
    """An assignment of defenders to attackers, one pair per attacker."""

    __slots__ = ("pairs",)

    def __init__(self, pairs: Iterable[tuple[int, int]]):
        self.pairs = tuple(pairs)

    def defenders(self) -> tuple[int, ...]:
        return tuple(d for d, _ in self.pairs)

    def attackers(self) -> tuple[int, ...]:
        return tuple(a for _, a in self.pairs)

    def is_monotonic(self) -> bool:
        ds = self.defenders()
        return all(x < y for x, y in zip(ds, ds[1:]))

    def is_valid_for(self, g: ProperIntervalGraph, attack: Attack) -> bool:
        covered = sorted(a for _, a in self.pairs)
        if covered != list(range(attack.first, attack.last + 1)):
            return False
        if len({d for d, _ in self.pairs}) != len(self.pairs):
            return False
        return all(d == a or g.adjacent(d, a) for d, a in self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def __len__(self):
        return len(self.pairs)

    def __eq__(self, other):
        return isinstance(other, Defense) and self.pairs == other.pairs

    def __repr__(self):
        return f"Defense({list(self.pairs)!r})"


def defends_consecutive(
    g: ProperIntervalGraph, defenders: Sequence[int], attack: Attack
) -> Optional[Defense]:
    """Rightmost monotone defense of sorted ``defenders`` against ``attack``.

    Returns None when no defense exists.  Work is proportional to the attack
    size plus the number of defenders inspected inside its neighborhood.
    """
    if not 1 <= attack.first <= attack.last <= g.n:
        raise ValueError(f"attack {attack} out of range for n={g.n}")
    maxn, minn = g.maxn, g.minn
    idx = bisect_right(defenders, maxn[attack.last]) - 1
    pairs = []
    for x in range(attack.last, attack.first - 1, -1):
        top = maxn[x]
        while idx >= 0 and defenders[idx] > top:
            idx -= 1
        if idx < 0 or defenders[idx] < minn[x]:
            return None
        pairs.append((defenders[idx], x))
        idx -= 1
    pairs.reverse()
    return Defense(pairs)


def _neighbor_map(adjacency) -> Mapping[int, set]:
    if isinstance(adjacency, Mapping):
        return adjacency
    nbr: dict[int, set] = {}
    for u, v in adjacency:
        nbr.setdefault(u, set()).add(v)
        nbr.setdefault(v, set()).add(u)
    return nbr


def defends_matching(adjacency, defenders: Iterable[int], attack: Iterable[int]) -> bool:
    """Matching oracle: can every attacker be covered by its own defender?

    ``adjacency`` is an edge list or a vertex->neighbors mapping of an
    arbitrary graph.  True iff a maximum matching between the attack and the
    defenders (edges where the defender lies in the attacker's closed
    neighborhood) saturates the attack.
    """
    nbr = _neighbor_map(adjacency)
    dset = set(defenders)
    attackers = sorted(set(attack))
    cand = {}
    for a in attackers:
        c = [d for d in sorted(nbr.get(a, ())) if d in dset]
        if a in dset:
            c.append(a)
        if not c:
            return False
        cand[a] = c
    owner: dict[int, int] = {}  # defender -> attacker

    def assign(root):
        """Depth-first augmenting path from ``root``, on an explicit stack.

        A frame is (attacker, its untried candidates, the defender it holds
        and gives up on success); the root frame holds None.
        """
        taken = set()
        stack = [(root, iter(cand[root]), None)]
        while stack:
            a, todo, _ = stack[-1]
            for d in todo:
                if d in taken:
                    continue
                taken.add(d)
                if d not in owner:
                    owner[d] = a
                    for (b, _, _), (_, _, e) in zip(stack, stack[1:]):
                        owner[e] = b
                    return True
                stack.append((owner[d], iter(cand[owner[d]]), d))
                break
            else:
                stack.pop()
        return False

    return all(assign(a) for a in attackers)


def first_undefended_attack(
    g: ProperIntervalGraph, defenders: Iterable[int], k: int
) -> Optional[Attack]:
    """The leftmost consecutive attack of size min(k, n) with no defense."""
    if k < 1:
        raise ValueError("k must be at least 1")
    ds = tuple(sorted(set(defenders)))
    m = min(k, g.n)
    for i in range(1, g.n - m + 2):
        a = Attack(i, i + m - 1)
        if defends_consecutive(g, ds, a) is None:
            return a
    return None


def is_k_defensive(g: ProperIntervalGraph, defenders: Iterable[int], k: int) -> bool:
    """True when the defenders handle every attack of at most k vertices.

    Only full-width consecutive windows are checked: defending an attack
    also defends each of its subsets, and every smaller consecutive attack
    sits inside some window.
    """
    return first_undefended_attack(g, defenders, k) is None


def is_bridged(g: ProperIntervalGraph, attack: Iterable[int]) -> bool:
    """True when every gap in the attack's interval union is spanned.

    Consecutive sorted attackers u < v leave a gap when non-adjacent; the
    gap is bridged exactly when u's furthest neighbor reaches v.
    """
    vs = sorted(set(attack))
    if not vs:
        raise ValueError("attack must be nonempty")
    maxn = g.maxn
    for u, v in zip(vs, vs[1:]):
        if maxn[u] >= v:
            continue
        if maxn[maxn[u]] < v:
            return False
    return True


def range_of(g: ProperIntervalGraph, attack: Iterable[int]) -> Attack:
    """Smallest consecutive range containing the attack."""
    vs = list(attack)
    if not vs:
        raise ValueError("attack must be nonempty")
    return Attack(min(vs), max(vs))
