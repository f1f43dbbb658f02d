"""Two players with opposed tastes, solved end to end.

Player 1 values the items (1, 2); player 2 values them (1, 10).  Giving
each player "her" item looks natural but leaves player 1 envious once
values are rescaled, so the solver has to randomize.
"""

from fractions import Fraction as F

from fairmix import (
    Instance,
    all_partitions_allocation_set,
    build_envy_graph,
    expected_utility,
    find_fixed_point,
)


def additive(values, m=2):
    return {
        mask: sum((values[g] for g in range(m) if mask >> g & 1), F(0))
        for mask in range(1 << m)
    }


inst = Instance.build(
    [additive((F(1), F(2))), additive((F(1), F(10)))],
    all_partitions_allocation_set(2, 2),
)

state, cert = find_fixed_point(inst)

print("support of the certified lottery:")
for j, q in state.p.pairs:
    bundles = inst.allocations[j].bundles
    print(f"  probability {q}: player 1 gets {bundles[0]:02b}, player 2 gets {bundles[1]:02b}")

print(f"\nweights at the fixed point: {state.w.w}")
print(f"residual: {state.residual}, at welfare-envelope vertex {state.iteration} of the scan")
print(f"certificate: envy-free={cert.ef_ok} efficient={cert.pe_ok}")
# the lottery maximizes welfare under this strictly positive weight, so no
# lottery dominates it; the check is an exact scan over every allocation
print(f"efficiency witness: weight ({', '.join(map(str, cert.pe.weight))})")

# the views are ints over one denominator, like the utility table
views, den = expected_utility(state.p, inst)
print("\nexpected utilities (viewer x owner):")
for i, row in enumerate(views):
    print(f"  player {i + 1}: own {F(row[i], den)}, other's bundle {F(row[1 - i], den)}")

graph = build_envy_graph(state.p, inst)
print(f"\nenvy edges: {graph.edges or 'none'}")
