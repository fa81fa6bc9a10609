"""Structure-free brute force for defense feasibility and minimum sets.

Works on plain edge lists with no interval assumptions, so it independently
validates everything the structured solvers exploit.  Capped at small vertex
counts by design.
"""

from __future__ import annotations

from itertools import combinations

from .defense import defends_matching, _neighbor_map
from .errors import TooLarge

DEFENSIVE_CAP = 16
MINIMUM_CAP = 12


def is_k_defensive_bruteforce(n, adjacency, defenders, k):
    """Check every attack of exactly min(k, n) vertices by maximum matching.

    That covers the attacks of at most k vertices on any graph: a defense
    of an attack, restricted to a subset of it, defends the subset, and
    every smaller attack lies inside one of exactly min(k, n) vertices.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if n > DEFENSIVE_CAP:
        raise TooLarge(n, DEFENSIVE_CAP)
    nbr = _neighbor_map(adjacency)
    dset = set(defenders)
    return all(defends_matching(nbr, dset, attack) for attack in combinations(range(1, n + 1), min(k, n)))


def min_defensive_bruteforce(n, adjacency, k):
    """Smallest k-defensive set, found by exhaustive search.

    Candidate sets are enumerated by cardinality (starting at the forced
    lower bound min(k, n)) then lexicographically, so the witness is
    deterministic.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if n > MINIMUM_CAP:
        raise TooLarge(n, MINIMUM_CAP)
    nbr = _neighbor_map(adjacency)
    vertices = range(1, n + 1)
    for c in range(min(k, n), n + 1):
        for candidate in combinations(vertices, c):
            if is_k_defensive_bruteforce(n, nbr, candidate, k):
                return c, list(candidate)
    return n, list(vertices)  # unreachable: the full vertex set always defends
