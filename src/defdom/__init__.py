"""Minimum k-defensive dominating sets of proper interval graphs.

A defender set is k-defensive when, for every attack of at most k vertices,
each attacker can be covered by its own defender from the attacker's closed
neighborhood.  The package provides two exact greedy solvers (vertex-by-vertex
and bubble-by-bubble), a structure-free brute-force oracle, defense
feasibility predicates, instance generators, file formats, and a benchmark
CLI (``defdom``).
"""

from .bubbles import (
    CompactBubbles,
    LinearBubbles,
    bubbles_from_pig,
    linear_from_compact,
    pig_from_bubbles,
)
from .bubble_solver import BubbleSolverState, solve_bubble
from .defense import (
    Attack,
    Defense,
    defends_consecutive,
    defends_matching,
    first_undefended_attack,
    is_bridged,
    is_k_defensive,
    range_of,
)
from .errors import (
    BadParameters,
    DefdomError,
    FormatError,
    InvalidBubbles,
    InvalidRanges,
    Overflow,
    ProperViolation,
    TooLarge,
)
from .generators import (
    SplitMix64,
    compact_for_family,
    enumerate_connected_graphs,
    enumerate_connected_maxn,
    gen_family,
    gen_random_bubbles,
    gen_random_unit_intervals,
    random_unit_intervals,
)
from .greedy import solve_greedy
from .oracle import is_k_defensive_bruteforce, min_defensive_bruteforce
from .pig import ProperIntervalGraph

__version__ = "1.0.0"

__all__ = [
    "Attack",
    "BadParameters",
    "BubbleSolverState",
    "CompactBubbles",
    "Defense",
    "DefdomError",
    "FormatError",
    "InvalidBubbles",
    "InvalidRanges",
    "LinearBubbles",
    "Overflow",
    "ProperIntervalGraph",
    "ProperViolation",
    "SplitMix64",
    "TooLarge",
    "bubbles_from_pig",
    "compact_for_family",
    "defends_consecutive",
    "defends_matching",
    "enumerate_connected_graphs",
    "enumerate_connected_maxn",
    "first_undefended_attack",
    "gen_family",
    "gen_random_bubbles",
    "gen_random_unit_intervals",
    "is_bridged",
    "is_k_defensive",
    "is_k_defensive_bruteforce",
    "linear_from_compact",
    "min_defensive_bruteforce",
    "pig_from_bubbles",
    "random_unit_intervals",
    "range_of",
    "solve_bubble",
    "solve_greedy",
]
