"""The paper's weight map, iterated by hand, and the scan that answers instead.

One step of the map picks a lottery supported on the current
weighted-welfare argmax (``select_p_in_P``), recomputes every player's
fair-share update and projects it back onto the truncated simplex
(``varpi``).  The residual is the L1 movement of the weights, and a weight is
a fixed point exactly when its lottery is envy-free.  The paper proves that
a fixed point exists, not that iterating from the uniform weight reaches
one: on the second instance below the orbit cycles.  The solver therefore
scans the vertices of the welfare envelope, and the map's residual checks
the answer it finds.
"""

from fractions import Fraction as F

from fairmix import (
    EngineConfig,
    Instance,
    WeightVector,
    all_partitions_allocation_set,
    choose_epsilon,
    compute_rho,
    find_fixed_point,
    select_p_in_P,
    varpi,
)

STEP_LIMIT = 1000


def table(values):
    return {mask: F(v) for mask, v in values.items()}


def weights(w):
    return tuple(str(x) for x in w)


def iterate_map(inst):
    """Steps (weight, lottery, residual) from the uniform weight, and the
    index the orbit returns to, or None if it stopped at a fixed point."""
    eps = choose_epsilon(compute_rho(inst), inst.n, EngineConfig())
    w = WeightVector.uniform(inst.n, eps)
    seen = {}
    steps = []
    while len(steps) < STEP_LIMIT:
        if w.w in seen:
            return steps, seen[w.w]
        seen[w.w] = len(steps)
        p = select_p_in_P(w, inst)
        w_next = varpi(p, w, inst)
        residual = sum(abs(a - b) for a, b in zip(w_next.w, w.w))
        steps.append((w, p, residual))
        if residual == 0:
            return steps, None
        w = w_next
    raise SystemExit(f"the map neither settled nor repeated in {STEP_LIMIT} steps")


def show(label, raw, n):
    inst = Instance.build(raw, all_partitions_allocation_set(n, 2))
    print(f"--- {label} ---")

    steps, back_to = iterate_map(inst)
    print("the paper's map from the uniform weight:")
    print(f"{'step':>5}  {'residual':>8}  weights")
    window = list(enumerate(steps, 1))
    if len(window) > 5:
        window = window[:3] + [None] + window[-2:]
    for row in window:
        if row is None:
            print("    ...")
            continue
        step, (w, _, residual) = row
        print(f"{step:>5}  {str(residual):>8}  {weights(w.w)}")
    if back_to is None:
        print(f"fixed point after {len(steps)} step(s): its lottery is envy-free")
    else:
        lotteries = {p for _, p, _ in steps}
        print(
            f"step {len(steps) + 1} is step {back_to + 1} again: a cycle of "
            f"{len(steps) - back_to} steps through {len(lotteries)} lotteries;"
        )
        print("every residual is positive, so none of them is envy-free")

    trace = []
    state, cert = find_fixed_point(inst, trace_sink=trace)
    print("the solver's welfare-envelope scan:")
    print(f"{'vertex':>6}  {'residual':>8}  weights")
    for rec in trace:
        print(f"{rec.iteration:>6}  {str(rec.residual):>8}  {weights(rec.w)}")
    print(f"answer at vertex {state.iteration}, residual {state.residual}")
    print(f"certificate: envy-free={cert.ef_ok} efficient={cert.pe_ok}")
    print("lottery:")
    for j, q in state.p.pairs:
        print(f"  {q} on bundles {[f'{b:02b}' for b in inst.allocations[j].bundles]}")

    # every recorded share update sums to one exactly; that conservation
    # is what keeps the projection from drifting off the simplex
    assert all(sum(rec.nu) == 1 for rec in trace)
    print("per-vertex share updates all sum to 1 exactly.\n")


# identical players: uniform weights are already the fixed point
show(
    "two identical players, one step",
    [table({0: 0, 1: 1, 2: 1, 3: 2})] * 2,
    n=2,
)

# three players with lopsided tastes: the map alternates between two
# envious point masses and never settles; the scan answers directly
show(
    "three lopsided players, a cycle",
    [
        table({0: 0, 1: 4, 2: 1, 3: 5}),
        table({0: 0, 1: 1, 2: 4, 3: 5}),
        table({0: 0, 1: 3, 2: 3, 3: 6}),
    ],
    n=3,
)
