"""Attacks, defenses, and defense-feasibility predicates.

A defense of a defender set D against an attack A is a partial surjection
f: D -> A with f(d) in the closed neighborhood of d.  On a canonical proper
interval graph every closed neighborhood is a range [min_nbr(x)..max_nbr(x)]
whose ends never decrease with x.  So ``first_undefended_attack`` decides
every window at once by Hall's condition on consecutive sub-ranges, in
O(n + |D|) for any k on a graph.  On a ``LinearBubbles`` it decides the same
windows in one forward pass over the bubbles, in at most 4|B| counted steps
plus two bisects per bubble, so a compact file is verified without
expanding it to n vertices.  ``defends_consecutive`` builds an actual
defense of one attack, the rightmost monotone one, as its list of
(defender, attacker) pairs, found by scanning attackers right to left and
giving each the rightmost unused defender adjacent to it.
``defends_matching`` is the structure-free counterpart: a maximum bipartite
matching on an arbitrary graph, used as an independent oracle.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Mapping, Sequence
from itertools import accumulate, chain, compress, islice, repeat
from operator import eq, ne, sub
from typing import NamedTuple, Optional

from .bubbles import LinearBubbles, _starts
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


def defends_consecutive(
    g: ProperIntervalGraph, defenders: Sequence[int], attack: Attack
) -> Optional[list[tuple[int, int]]]:
    """Rightmost monotone defense of sorted ``defenders`` against ``attack``.

    The defense is its (defender, attacker) pairs, one per attacker in
    ascending order, so the defenders ascend too; None when no defense
    exists.  Work is proportional to the attack size plus the number of
    defenders inspected inside its neighborhood.
    """
    if not 1 <= attack.first <= attack.last <= g.n:
        raise ValueError(f"attack {attack} out of range for n={g.n}")
    maxn = g.maxn
    idx = bisect_right(defenders, maxn[attack.last]) - 1
    pairs = []
    for x in range(attack.last, attack.first - 1, -1):
        top = maxn[x]
        while idx >= 0 and defenders[idx] > top:
            idx -= 1
        d = defenders[idx] if idx >= 0 else 0
        if d < 1 or maxn[d] < x:  # none left, or d below min_nbr(x)
            return None
        pairs.append((d, x))
        idx -= 1
    pairs.reverse()
    return pairs


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
    neighborhood) saturates the attack.  A greedy matching is grown first,
    and augmenting paths are searched only from the attackers it leaves
    unmatched; every maximum matching has the same size, so the answer
    does not depend on the start.
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
    unmatched = []
    for a in attackers:  # greedy start: first free candidate
        for d in cand[a]:
            if d not in owner:
                owner[d] = a
                break
        else:
            unmatched.append(a)

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

    return all(assign(a) for a in unmatched)


def first_undefended_attack(
    g: ProperIntervalGraph | LinearBubbles,
    defenders: Iterable[int],
    k: int,
    stats: Optional[dict] = None,
) -> Optional[Attack]:
    """The leftmost consecutive attack of size m = min(k, n) with no defense.

    Attacker x may take any defender in [min_nbr(x)..max_nbr(x)], and both
    ends never decrease with x.  By Hall's theorem a window is defended
    unless some sub-range [a..b] of it has fewer than b-a+1 defenders in
    [min_nbr(a)..max_nbr(b)]: split any violating attacker set where its
    neighborhoods leave a gap, keep a violating piece, and add the attackers
    between its ends, whose ranges lie inside (Glover 1967).  With
    cnt(x) the number of defenders at most x, the pair a <= b < a+m fails
    exactly when cnt(max_nbr(b)) - b < cnt(min_nbr(a)-1) - a + 1.

    ``g`` is a graph or a bubble model, and the input type picks the pass.
    On a graph, one left-to-right pass over b keeps the largest right-hand
    side among the last m values of a in a monotone deque, and reads both
    counts through two forward pointers into the sorted defenders; the
    first compares the next defender's maxn with b, as d < min_nbr(b)
    exactly when max_nbr(d) < b.  Defenders outside 1..n raise both counts
    alike, so both pointers start past those below 1, and those above n
    are cut.  The first failing b names the leftmost failing window.  Work
    is O(n + |D|) for any k, after sorting the defenders: a sort, linear
    when they already ascend, as the CLI hands them, and a linear pass that
    drops adjacent repeats.  The sorted copy is the verifier's own, so the
    caller's list is left as it was.  ``stats`` receives ``steps``: pointer
    moves plus deque pushes and pops.  On a ``LinearBubbles`` the same
    windows are decided in one pass over the bubbles, never over the
    vertices (see ``_first_undefended_bubbles``).
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    n = g.n
    m = min(k, n)
    ds = sorted(defenders)  # linear on an ascending list: one run
    if any(map(eq, ds, islice(ds, 1, None))):  # drop repeats, now adjacent
        ds = list(compress(ds, chain((True,), map(ne, islice(ds, 1, None), ds))))
    if isinstance(g, LinearBubbles):
        return _first_undefended_bubbles(g, ds, m, stats)
    maxn = g.maxn
    lo, top = bisect_left(ds, 1), bisect_right(ds, n)
    ds[top:] = [n + 1]  # cut above n; the sentinel lies above every max_nbr
    below = upto = lo  # defenders below min_nbr(b), and at most max_nbr(b)
    nm = maxn[ds[lo]] if lo < top else n + 1  # the maxn of ds[below]
    # Positions a, live from index h, whose need(a) = cnt(min_nbr(a)-1) - a + 1
    # run front, front-1, ..., tail; the first push, above -n - 1, starts it.
    q: list[int] = []
    h = 0
    front = tail = -n - 1
    bad = None
    for b in range(1, n + 1):
        while nm < b:
            below += 1
            nm = maxn[ds[below]] if below < top else n + 1
        t = maxn[b]
        while ds[upto] <= t:
            upto += 1
        need = below - b + 1
        if need >= front:  # every live entry leaves
            q.clear()
            h = 0
            front = need
        elif need >= tail:  # the entries valued tail..need leave
            del q[tail - need - 1 :]
        q.append(b)
        tail = need
        if q[h] <= b - m:  # slid out of the window
            h += 1
            front -= 1
            if h > len(q) - h + 32:  # drop the dead prefix, amortized O(1)
                del q[:h]
                h = 0
        if front > upto - b:
            s = max(1, b - m + 1)
            bad = Attack(s, s + m - 1)
            break
    if stats is not None:
        # Each pointer moved once per defender below 1, then one at a time; each
        # of the b pushed entries left the deque once at most, the rest are in it.
        stats.update(steps=below + upto + 2 * b - (len(q) - h))
    return bad


def _first_undefended_bubbles(
    lb: LinearBubbles, ds: list[int], m: int, stats: Optional[dict]
) -> Optional[Attack]:
    """``first_undefended_attack`` on a bubble model, in one pass over the bubbles,
    for the sorted distinct defenders ``ds`` and the window size m = min(k, n).

    Let bubble j hold vertices [s_j..e_j], with L_j = cnt(min_nbr_j - 1) and
    R_j = cnt(max_nbr_j), one C-level bisect each.  A start a in bubble i
    and an end b >= a in bubble j fail together iff b - a < m and
    b >= R_j - L_i + a.  So bubble i can act only if e_i >= c = s_j - m + 1
    and L_i >= need = R_j - m + 1.  L and e never decrease, so the bubbles
    that act form a suffix t..j, and c and need never decrease, so one
    forward pointer tracks t.  None of them starts before c while no
    earlier end fails: were c past s_t, the pair (c-1, s_j-1) would fail,
    as s_j-1 + L_t - (c-1) = m-1 + L_t >= R_j.  So each bubble i of t..j
    acts through its first vertex, at the end R_j - P_i with P = L - s,
    and always with b - a < m, as L_i >= need and s_i >= c.  A stack keeps
    the strict suffix maxima of P over bubbles 0..j, and its head skips
    the entries below t, so it holds the largest P over t..j.  Bubble j
    fails iff b = max(s_j, R_j - P_head) <= e_j, and its first failing end
    b names the leftmost failing window.

    ``stats`` receives ``steps``: pointer moves, stack pushes, pops and head
    moves.  The pointer moves at most |B| times.  Each bubble is pushed
    once, popped at most once, and passed by the head at most once, since
    the head only falls back to the stack's new end.  So steps are at most
    4|B|, whatever n and k are.
    """
    sizes = lb.sizes  # the bubble ends s and e are running sums of it, never a tuple
    left = list(map(bisect_left, repeat(ds), lb.min_nbr))
    peak = list(map(sub, left, _starts(sizes)))
    q: list[int] = []  # bubble indices, peak strictly decreasing
    h = t = heads = 0  # q's first entry at or above t, the first bubble that acts
    tail = accumulate(sizes)  # the last vertices of bubbles t+1 on
    end = next(tail)  # bubble t's last vertex
    bad = None
    rights = map(bisect_right, repeat(ds), lb.max_nbr)
    # o is the vertex before bubble j and e its last, so s_j = o + 1
    for j, (p, o, e, r) in enumerate(zip(peak, accumulate(sizes, initial=0), accumulate(sizes), rights)):
        while q and peak[q[-1]] <= p:
            q.pop()
        if h > len(q):
            h = len(q)
        q.append(j)
        c, need = o - m + 2, r - m + 1
        while t <= j and (end < c or left[t] < need):
            t += 1
            end = next(tail, 0)  # none past the last bubble, where t > j ends the walk
        if t > j:
            continue
        while q[h] < t:  # stops at j, the last entry
            h += 1
            heads += 1
        b = r - peak[q[h]]
        if b <= e:
            s = max(1, max(b, o + 1) - m + 1)
            bad = Attack(s, s + m - 1)
            break
    if stats is not None:
        # The pointer advanced t times from 0, and of the j+1 pushed bubbles
        # those not on the stack were popped once each.
        stats.update(steps=heads + t + 2 * (j + 1) - len(q))
    return bad


def is_k_defensive(g: ProperIntervalGraph | LinearBubbles, defenders: Iterable[int], k: int) -> bool:
    """True when the defenders handle every attack of at most k vertices.

    Only full-width consecutive windows are checked: defending an attack
    also defends each of its subsets, and every smaller consecutive attack
    sits inside some window.  Each window is decided by Hall's condition on
    its consecutive sub-ranges (see ``first_undefended_attack``), in
    O(n + |D|) for any k on a graph and in O(|B|) counted steps plus two
    bisects per bubble on a bubble model.
    """
    return first_undefended_attack(g, defenders, k) is None
