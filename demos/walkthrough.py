#!/usr/bin/env python3
"""A guided tour: build graphs, inspect bubbles, solve, and cross-check.

Run:  python demos/walkthrough.py
"""

from fractions import Fraction

import defdom as dd

# ----------------------------------------------------------------------
# 1. Proper interval graphs from intervals or from neighbor ranges.
# ----------------------------------------------------------------------
# Three unit-ish intervals where consecutive ones overlap: a path.
path3 = dd.ProperIntervalGraph.from_intervals([(0, 1), (Fraction(1, 2), Fraction(3, 2)), (Fraction(6, 5), Fraction(11, 5))])
print("path on 3 vertices, max neighbor per vertex:", list(path3.maxn[1:]))

# The same encoding can be given directly: vertex j reaches up to maxn[j].
p9 = dd.gen_family("path", 9)
chain = dd.gen_family("clique_chain", sizes=[4, 3, 5])
print("clique chain on", chain.n, "vertices, edges:", len(chain.edges()))

# ----------------------------------------------------------------------
# 2. Attacks and defenses.
# ----------------------------------------------------------------------
# Defenders {2,3,5} handle every 2-attack on the 5-path; {2,3} do not.
p5 = dd.gen_family("path", 5)
print("\n{2,3,5} is 2-defensive on the 5-path:", dd.is_k_defensive(p5, [2, 3, 5], 2))
bad = dd.first_undefended_attack(p5, [2, 3], 2)
print("{2,3} first fails at the attack window:", bad)

# A defense is an explicit assignment, one defender per attacker.
d = dd.defends_consecutive(p5, (2, 3, 5), dd.Attack(3, 5))
print("rightmost defense of [3..5]:", list(d))

# ----------------------------------------------------------------------
# 3. The bubble model: twin classes with neighborhood extremes.
# ----------------------------------------------------------------------
g = dd.gen_random_unit_intervals(11, spread=Fraction(2, 3), seed=11)
lbm = dd.bubbles_from_pig(g)
print("\nrandom 11-vertex instance compresses to", lbm.count, "bubbles:")
min_v, min_nbr = lbm.min_v, lbm.min_nbr  # derived on every read, so read once
for i in range(lbm.count):
    print(f"  bubble {i + 1}: vertices {min_v[i]}..{lbm.max_v[i]}, "
          f"neighborhood {min_nbr[i]}..{lbm.max_nbr[i]}")

# ----------------------------------------------------------------------
# 4. Two solvers, one answer, checked against brute force.
# ----------------------------------------------------------------------
for k in (1, 2, 3):
    a = dd.solve_greedy(g, k)
    b = dd.solve_bubble(lbm, k)
    assert a == b
    size, _ = dd.min_defensive_bruteforce(g.n, g.edges(), k)
    assert len(a) == size
    print(f"k={k}: minimum defender set has {len(a)} vertices: {a}")

print("\nall cross-checks passed")
