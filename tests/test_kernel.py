"""The per-instance utility kernel against dense references.

The engine scores only Pareto-frontier own-utility vectors in integers, and
the efficiency check solves its domination LP over frontier columns.  The
references here do neither: a Fraction argmax over every allocation, and a
domination LP with one column per allocation.
"""

from fractions import Fraction

import pytest

from conftest import additive_table, seeded_rng
from fairmix.engine import argmax_allocations
from fairmix.envy import check_pareto_efficient
from fairmix.hard import DisjointnessInput, build_hard_instance
from fairmix.lp import OPTIMAL, LinearProgram, solve_lp
from fairmix.model import (
    Instance,
    MixedAllocation,
    PureAllocation,
    WeightVector,
    all_partitions_allocation_set,
    expected_utility,
    pareto_frontier,
    swap_closure,
)

F = Fraction


def own_vector(inst, j):
    return tuple(inst.value(i, inst.allocations[j].bundles[i]) for i in range(inst.n))


def dense_argmax(w, inst):
    welfare = [sum(wi * u for wi, u in zip(w.w, own_vector(inst, j))) for j in range(len(inst.allocations))]
    top = max(welfare)
    return tuple(j for j, v in enumerate(welfare) if v == top)


def dense_pe_ok(p, inst):
    """Domination LP with one column per allocation, as exact as the kernel's."""
    k, n = len(inst.allocations), inst.n
    current = [expected_utility(p, i, i, inst) for i in range(n)]
    rows = [((F(1),) * k + (F(0),) * n, "=", F(1))]
    for i in range(n):
        coeffs = tuple(own_vector(inst, j)[i] for j in range(k))
        rows.append((coeffs + tuple(F(-1) if t == i else F(0) for t in range(n)), ">=", current[i]))
    lp = LinearProgram(objective=(F(0),) * k + (F(1),) * n, constraints=tuple(rows))
    result = solve_lp(lp)
    assert result.status == OPTIMAL
    return result.objective_value == 0


def random_utilities(rng, n, m, additive):
    def coin():
        return F(rng.randint(0, 12), rng.choice([1, 2, 3]))

    if additive:
        return [additive_table([coin() for _ in range(m)]) for _ in range(n)]
    return [{mask: coin() for mask in range(1 << m)} for _ in range(n)]


def random_allocation_list(rng, n, m, count):
    out = []
    for _ in range(count):
        bundles = [0] * n
        for item in range(m):
            owner = rng.randint(0, n)
            if owner:
                bundles[owner - 1] |= 1 << item
        out.append(PureAllocation(tuple(bundles)))
    return swap_closure(out)


def make_instance(n, m, listed, seed):
    rng = seeded_rng(1000 * n + 100 * m + 10 * listed + seed)
    additive = (n + m + seed) % 2 == 0
    raw = random_utilities(rng, n, m, additive)
    if listed:
        return Instance.build(raw, random_allocation_list(rng, n, m, 5))
    return Instance.build(raw, all_partitions_allocation_set(n, m))


# n = 2..4 and m = 2..4, all-partitions and swap-closed explicit lists, with
# additive and table utilities alternating across the grid.  All partitions
# of 4 items among 4 players (625 allocations) is left to the explicit lists.
CASES = [
    (n, m, listed, seed)
    for n in (2, 3, 4)
    for m in (2, 3, 4)
    for listed in (False, True)
    for seed in (0, 1)
    if listed or (n + 1) ** m <= 256
]


def case_id(case):
    n, m, listed, seed = case
    return f"n{n}-m{m}-{'listed' if listed else 'all'}-s{seed}"


def tie_weights(inst, eps):
    """Exact weights where two distinct own vectors tie for the maximum.

    Along the segment from the uniform weight to a corner, each allocation's
    welfare is a line; the first breakpoint of their upper envelope is a
    weight whose argmax holds at least two distinct own vectors.
    """
    n = inst.n
    start = WeightVector.uniform(n, eps).w
    vectors = {own_vector(inst, j) for j in range(len(inst.allocations))}
    out = []
    for corner in range(n):
        end = tuple(1 - (n - 1) * eps if t == corner else eps for t in range(n))
        lines = [
            (sum(a * u for a, u in zip(start, vec)), sum((b - a) * u for a, b, u in zip(start, end, vec)))
            for vec in vectors
        ]
        base = max(lines)
        cross = [
            (base[0] - c) / (s - base[1]) for c, s in lines if s > base[1] and 0 < (base[0] - c) / (s - base[1]) < 1
        ]
        if cross:
            t = min(cross)
            out.append(WeightVector(tuple(a + t * (b - a) for a, b in zip(start, end)), eps))
    return out


def sample_weights(inst, rng):
    n = inst.n
    eps = F(1, 4 * n)
    weights = [WeightVector.uniform(n, eps)]
    weights += [
        WeightVector(tuple(1 - (n - 1) * eps if t == i else eps for t in range(n)), eps) for i in range(n)
    ]
    for comp in ((2,) + (1,) * (n - 1), (1,) * (n - 1) + (3,)):
        total = sum(comp)
        weights.append(WeightVector(tuple(eps + (1 - n * eps) * F(c, total) for c in comp), eps))
    for _ in range(3):
        raw = [F(rng.randint(1, 97), rng.randint(1, 13)) for _ in range(n)]
        total = sum(raw)
        weights.append(WeightVector(tuple(eps + (1 - n * eps) * r / total for r in raw), eps))
    return weights


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_argmax_matches_dense_reference(case):
    inst = make_instance(*case)
    for w in sample_weights(inst, seeded_rng(7)):
        assert argmax_allocations(w, inst) == dense_argmax(w, inst)
    for w in tie_weights(inst, F(1, 4 * inst.n)):
        amax = dense_argmax(w, inst)
        assert len({own_vector(inst, j) for j in amax}) >= 2
        assert argmax_allocations(w, inst) == amax


def test_tie_weights_exist_for_most_cases():
    # an instance whose frontier is one vector has no tie weight at all
    with_ties = sum(1 for case in CASES if tie_weights(make_instance(*case), F(1, 4 * case[0])))
    assert with_ties >= len(CASES) // 2


def lotteries(inst, rng):
    k = len(inst.allocations)
    top = dense_argmax(WeightVector.uniform(inst.n, F(1, 4 * inst.n)), inst)
    picks = [top[0]] + [rng.randrange(k) for _ in range(3)]
    out = [MixedAllocation.point_mass(k, j) for j in picks]
    for j in picks[:2]:
        a = inst.allocations[j]
        pairs = [(g, h) for g in range(inst.n) for h in range(g + 1, inst.n) if a.bundles[g] != a.bundles[h]]
        if pairs:
            g, h = rng.choice(pairs)
            other = inst.allocations.index[a.swap(g, h).bundles]
            out.append(MixedAllocation.from_support(k, {j: F(1, 2), other: F(1, 2)}))
    for _ in range(2):
        support = rng.sample(range(k), min(3, k))
        raw = [F(rng.randint(1, 9)) for _ in support]
        out.append(MixedAllocation.from_support(k, {j: r / sum(raw) for j, r in zip(support, raw)}))
    return out


def dominates(p, q, inst):
    better = [expected_utility(p, i, i, inst) for i in range(inst.n)]
    current = [expected_utility(q, i, i, inst) for i in range(inst.n)]
    return all(b >= c for b, c in zip(better, current)) and any(b > c for b, c in zip(better, current))


@pytest.mark.parametrize("case", CASES[::2], ids=case_id)
def test_efficiency_matches_dense_reference(case):
    inst = make_instance(*case)
    rng = seeded_rng(11)
    verdicts = set()
    for p in lotteries(inst, rng):
        check = check_pareto_efficient(p, inst)
        assert check.ok == dense_pe_ok(p, inst)
        verdicts.add(check.ok)
        if not check.ok:
            assert dominates(check.dominator, p, inst)
            assert set(check.dominator.support()) <= {m[0] for m in inst.kernel.frontier.members}
    assert True in verdicts


class TestFrontier:
    def test_skyline_drops_weakly_dominated(self):
        vectors = ((F(1), F(2)), (F(1), F(3)), (F(2), F(1)), (F(0), F(0)), (F(2), F(1, 2)))
        assert pareto_frontier(vectors) == [1, 2]

    def test_skyline_keeps_incomparable(self):
        vectors = ((F(3), F(1), F(1)), (F(1), F(3), F(1)), (F(1), F(1), F(3)), (F(2), F(2), F(2)))
        assert pareto_frontier(vectors) == [0, 1, 2, 3]

    def test_duplicate_vectors_stay_members(self):
        # both players value only item 1; giving it to nobody, or item 2 to
        # anyone, yields the same own vector from different allocations
        raw = [additive_table([F(1), F(0)]), additive_table([F(1), F(0)])]
        inst = Instance.build(raw, all_partitions_allocation_set(2, 2))
        kernel = inst.kernel
        assert len(kernel.vectors) == 3
        assert sum(len(m) for m in kernel.members) == len(inst.allocations)
        for vec, members in zip(kernel.vectors, kernel.members):
            assert list(members) == sorted(members)
            assert all(own_vector(inst, j) == vec for j in members)
        frontier = kernel.frontier
        assert sorted(frontier.vectors) == [(F(1), F(2)), (F(2), F(1))]
        assert all(len(m) == 3 for m in frontier.members)

    def test_integer_points_scale_exactly(self):
        inst = make_instance(3, 3, False, 0)
        frontier = inst.kernel.frontier
        assert len(frontier) == len(frontier.vectors)
        for vec, point in zip(frontier.vectors, frontier.points):
            assert all(isinstance(x, int) for x in point)
            assert point == tuple(v * s for v, s in zip(vec, frontier.scales))

    def test_kernel_is_built_once(self):
        inst = make_instance(2, 2, False, 0)
        assert inst.kernel is inst.kernel

    def test_intersecting_hard_instance_has_one_frontier_vector(self):
        bits = (1,) + (0,) * 9
        inst = build_hard_instance(DisjointnessInput(3, bits, bits))
        assert len(inst.allocations) == 729
        assert inst.kernel.frontier.vectors == ((F(2), F(2)),)

    def test_disjoint_hard_instance_frontier(self):
        inst = build_hard_instance(DisjointnessInput(3, (1,) + (0,) * 9, (0, 1) + (0,) * 8))
        assert sorted(inst.kernel.frontier.vectors) == [(F(17, 9), F(2)), (F(2), F(17, 9))]
