"""Watching the weight iteration — and its safety net.

Each round picks a lottery supported on the current weighted-welfare
argmax, recomputes every player's fair-share update, and projects it back
onto the truncated simplex.  The residual is the L1 movement of the
weights.  Sometimes that loop lands on a fixed point immediately;
sometimes it cycles forever, and the certified answer comes from the
exhaustive sweep over argmax-changing weights that runs afterwards.
"""

from fractions import Fraction as F

from fairmix import (
    EngineConfig,
    Instance,
    all_partitions_allocation_set,
    find_fixed_point,
)


def table(values):
    return {mask: F(v) for mask, v in values.items()}


def show(label, raw, n):
    inst = Instance.build(raw, all_partitions_allocation_set(n, 2))
    trace = []
    state, cert = find_fixed_point(inst, EngineConfig(), trace_sink=trace)

    print(f"--- {label} ---")
    print(f"{'iter':>4}  {'residual':>8}  weights")
    if len(trace) <= 6:
        window = trace
    else:
        window = trace[:3] + [None] + trace[-2:]
    for rec in window:
        if rec is None:
            print("   ...")
            continue
        print(f"{rec.iteration:>4}  {str(rec.residual):>8}  {tuple(str(x) for x in rec.w)}")

    if state.residual == 0 and len(trace) >= state.iteration and len(trace) > 6:
        print("the loop cycled; the certified point came from the weight sweep")
    print(f"certified at iteration {state.iteration}, residual {state.residual}")
    print(f"certificate: envy-free={cert.ef_ok} efficient={cert.pe_ok}")
    print("lottery:")
    for j, q in state.p.pairs:
        print(f"  {q} on bundles {[f'{b:02b}' for b in inst.allocations[j].bundles]}")

    # every recorded share update sums to one exactly; that conservation
    # is what keeps the projection from drifting off the simplex
    assert all(sum(rec.nu) == 1 for rec in trace)
    print("per-iteration share updates all sum to 1 exactly.\n")


# identical players: uniform weights are already the fixed point
show(
    "two identical players, one step",
    [table({0: 0, 1: 1, 2: 1, 3: 2})] * 2,
    n=2,
)

# three players with lopsided tastes: the iteration orbits a cycle and the
# fallback sweep finds the certified weights instead
show(
    "three lopsided players, rescued by the sweep",
    [
        table({0: 0, 1: 4, 2: 1, 3: 5}),
        table({0: 0, 1: 1, 2: 4, 3: 5}),
        table({0: 0, 1: 3, 2: 3, 3: 6}),
    ],
    n=3,
)
