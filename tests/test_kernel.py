"""The per-instance utility kernel against dense references.

The engine scores only Pareto-frontier own-utility vectors in integers, and
the efficiency check solves its weight LP over frontier rows or, given a
weight witness, scores the kernel's integer own vectors.  The references
here do none of that: a Fraction argmax over every allocation, a domination
LP with one column per brute-force maximal own vector, and the Fraction
witness oracle, each scoring the raw values through the Fraction rescale
``fraction_normalize``.
"""

import tracemalloc
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import lcm

import pytest

from conftest import (
    additive_table,
    fraction_points,
    fraction_views,
    pinned_entries,
    pinned_instances,
    random_allocation_list,
    seeded_rng,
    swapped,
)
from fairmix.engine import (
    _envelope_vertices,
    argmax_allocations,
    choose_epsilon,
    compute_rho,
)
from fairmix.envy import check_pareto_efficient
from fairmix.hard import DisjointnessInput, build_hard_instance
from fairmix.model import (
    Instance,
    MixedAllocation,
    WeightVector,
    all_partitions_allocation_set,
    pareto_frontier,
    swap_closure,
)
from fairmix.serialize import load_instance
from oracles import (
    OPTIMAL,
    Program,
    find_dominating_vertex_or_pair,
    fraction_kernel,
    fraction_normalize,
    fraction_simplex,
    reference_envelope_vertices,
    reference_kernel,
    weight_witness_ok,
)

F = Fraction


def own_vectors(inst):
    """Every allocation's own-utility vector, rescaled from the raw values in Fractions."""
    values = fraction_normalize(inst.utilities.raw_values)
    return [tuple(values[i][a.bundles[i]] for i in range(inst.n)) for a in inst.allocations]


def dense_argmax(w, inst):
    welfare = [sum(wi * u for wi, u in zip(w.w, vec)) for vec in own_vectors(inst)]
    top = max(welfare)
    return tuple(j for j, v in enumerate(welfare) if v == top)


@cache
def maximal_vectors(vectors):
    """The distinct ``vectors`` (a tuple) no other one weakly dominates, by
    brute force; cached, since each instance's lotteries share them."""
    distinct = dict.fromkeys(vectors)
    return [v for v in distinct if not any(u != v and all(a >= b for a, b in zip(u, v)) for u in distinct)]


def dense_pe_ok(p, inst):
    """Domination LP with one column per maximal own vector, solved in
    Fractions; a lottery over any own vectors is weakly dominated by one
    over maximal ones, so the optimum is that of one column per allocation."""
    n = inst.n
    own = own_vectors(inst)
    maximal = maximal_vectors(tuple(own))
    k = len(maximal)
    current = [sum(q * own[j][i] for j, q in p.pairs) for i in range(n)]
    rows = [((F(1),) * k + (F(0),) * n, "=", F(1))]
    for i in range(n):
        coeffs = tuple(vec[i] for vec in maximal)
        rows.append((coeffs + tuple(F(-1) if t == i else F(0) for t in range(n)), ">=", current[i]))
    result = fraction_simplex(Program((F(0),) * k + (F(1),) * n, tuple(rows)))
    assert result.status == OPTIMAL
    return result.objective_value == 0


def random_utilities(rng, n, m, additive):
    def coin():
        return F(rng.randint(0, 12), rng.choice([1, 2, 3]))

    if additive:
        return [additive_table([coin() for _ in range(m)]) for _ in range(n)]
    return [{mask: coin() for mask in range(1 << m)} for _ in range(n)]


def make_instance(n, m, listed, seed):
    rng = seeded_rng(1000 * n + 100 * m + 10 * listed + seed)
    additive = (n + m + seed) % 2 == 0
    raw = random_utilities(rng, n, m, additive)
    if listed:
        return Instance.build(raw, swap_closure(random_allocation_list(rng, n, m, 5)))
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
    vectors = set(own_vectors(inst))
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
    own = own_vectors(inst)
    for w in tie_weights(inst, F(1, 4 * inst.n)):
        amax = dense_argmax(w, inst)
        assert len({own[j] for j in amax}) >= 2
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
            other = inst.allocations.index[swapped(a.bundles, g, h)]
            out.append(MixedAllocation.from_support(k, {j: F(1, 2), other: F(1, 2)}))
    for _ in range(2):
        support = rng.sample(range(k), min(3, k))
        raw = [F(rng.randint(1, 9)) for _ in support]
        out.append(MixedAllocation.from_support(k, {j: r / sum(raw) for j, r in zip(support, raw)}))
    return out


def dominates(p, q, inst):
    better = [fraction_views(p, inst)[i][i] for i in range(inst.n)]
    current = [fraction_views(q, inst)[i][i] for i in range(inst.n)]
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
            assert set(check.dominator.support()) <= {m[0] for m in inst.kernel.members}
    assert True in verdicts


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_weight_witness_implies_efficiency(case):
    # the witness holds exactly when the support is on the dense argmax, and
    # whenever it holds the LP, the dense LP and (for n = 2) the geometric
    # search find no dominator
    inst = make_instance(*case)
    rng = seeded_rng(13)
    k = len(inst.allocations)
    held = 0
    for w in sample_weights(inst, rng)[:3] + tie_weights(inst, F(1, 4 * inst.n)):
        top = dense_argmax(w, inst)
        candidates = [
            MixedAllocation.point_mass(k, top[-1]),
            MixedAllocation.from_support(k, {j: F(1, len(top)) for j in top}),
            lotteries(inst, rng)[-1],
        ]
        for p in candidates:
            check = check_pareto_efficient(p, inst, weight=w.w)
            on_argmax = set(p.support()) <= set(top)
            assert check.ok == on_argmax == weight_witness_ok(p, inst, w.w)
            if not check.ok:
                continue
            held += 1
            assert check.weight == w.w
            assert check_pareto_efficient(p, inst).ok
            assert dense_pe_ok(p, inst)
            if inst.n == 2:
                assert find_dominating_vertex_or_pair(p, inst) is None
    assert held


def assert_kernel_matches_reference(inst, name):
    kernel = inst.kernel
    want = reference_kernel(inst)
    assert kernel.own_num == want["own_num"], name
    assert kernel.points == want["points"], name
    assert kernel.frontier == want["frontier_points"], name
    assert kernel.members == want["frontier_members"], name


@pytest.mark.parametrize("workload", ["desk", "wide", "certify"])
def test_kernel_matches_reference_on_pinned_sets(workload):
    for j, inst in enumerate(pinned_instances(workload)):
        assert_kernel_matches_reference(inst, f"{workload}[{j}]")


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_kernel_matches_reference_on_seeded_cases(case):
    assert_kernel_matches_reference(make_instance(*case), case_id(case))


@pytest.mark.parametrize(
    "data",
    [
        {"n": 1, "m": 0, "utilities": {"type": "additive", "items": [[]]}, "allocations": "all_partitions"},
        {"n": 3, "m": 0, "utilities": {"type": "additive", "items": [[]] * 3}, "allocations": "all_partitions"},
        {"n": 2, "m": 0, "utilities": {"type": "table", "values": [[[0, "1"]]] * 2}, "allocations": "all_partitions"},
        {"n": 1, "m": 2, "utilities": {"type": "additive", "items": [["1", "2"]]}, "allocations": [[[1, 2]]]},
    ],
    ids=["m0-n1", "m0-n3", "m0-table", "listed-n1"],
)
def test_kernel_of_a_one_allocation_set(data):
    # with one allocation each player's column has one index, where a C
    # gather of several indices would return a bare entry, not a tuple
    inst = load_instance(data)
    assert inst.allocations.k == 1
    assert_kernel_matches_reference(inst, "one allocation")
    assert all(type(own) is tuple and len(own) == 1 for own in inst.kernel.own_num)
    assert inst.kernel.members == ((0,),)


class TestFrontier:
    def test_skyline_drops_weakly_dominated(self):
        vectors = ((F(1), F(2)), (F(1), F(3)), (F(2), F(1)), (F(0), F(0)), (F(2), F(1, 2)))
        assert pareto_frontier(vectors) == [1, 2]

    def test_skyline_keeps_incomparable(self):
        vectors = ((F(3), F(1), F(1)), (F(1), F(3), F(1)), (F(1), F(1), F(3)), (F(2), F(2), F(2)))
        assert pareto_frontier(vectors) == [0, 1, 2, 3]

    def test_skyline_ties_in_a_coordinate(self):
        # equal entries count as "at least as large" both ways
        points = ((2, 1), (2, 3), (1, 3), (3, 0), (3, 1), (0, 5))
        assert pareto_frontier(points) == [1, 4, 5]
        assert pareto_frontier(((4,), (7,), (5,))) == [1]
        assert pareto_frontier(()) == []

    def test_many_distinct_points_take_little_memory(self):
        # one player, 14 items worth 1, 2, 4, ...: all 2^14 allocations have
        # distinct own values and only the whole bundle is maximal; a pass
        # that holds a mask as wide as the point count per distinct value
        # would peak near 16 MB here, and at gigabytes on the largest sets
        m = 14
        inst = load_instance(
            {
                "n": 1,
                "m": m,
                "utilities": {"type": "additive", "items": [[1 << g for g in range(m)]]},
                "allocations": "all_partitions",
            }
        )
        tracemalloc.start()
        try:
            kernel = inst.kernel
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(kernel.points) == 1 << m
        assert kernel.members == (((1 << m) - 1,),)
        assert peak < 8 << 20

    def test_duplicate_vectors_stay_members(self):
        # both players value only item 1; giving it to nobody, or item 2 to
        # anyone, yields the same own vector from different allocations
        raw = [additive_table([F(1), F(0)]), additive_table([F(1), F(0)])]
        inst = Instance.build(raw, all_partitions_allocation_set(2, 2))
        kernel = inst.kernel
        scale = inst.utilities.scale
        vectors = fraction_points(kernel.points, scale)
        own = own_vectors(inst)
        assert len(vectors) == 3 and set(own) == set(vectors)
        assert sorted(fraction_points(kernel.frontier, scale)) == [(F(1), F(2)), (F(2), F(1))]
        for vec, members in zip(fraction_points(kernel.frontier, scale), kernel.members):
            assert list(members) == [j for j, v in enumerate(own) if v == vec]
        assert all(len(m) == 3 for m in kernel.members)

    def test_integer_points_scale_exactly(self):
        inst = make_instance(3, 3, False, 0)
        frontier = inst.kernel.frontier
        vectors = fraction_kernel(inst)["frontier_vectors"]
        assert len(frontier) == len(vectors)
        for vec, point in zip(vectors, frontier):
            assert all(isinstance(x, int) for x in point)
            assert point == tuple(v * inst.utilities.scale for v in vec)

    def test_kernel_is_built_once(self):
        inst = make_instance(2, 2, False, 0)
        assert inst.kernel is inst.kernel

    def test_intersecting_hard_instance_has_one_frontier_vector(self):
        bits = (1,) + (0,) * 9
        inst = build_hard_instance(DisjointnessInput(3, bits, bits))
        assert len(inst.allocations) == 729
        assert fraction_points(inst.kernel.frontier, inst.utilities.scale) == ((F(2), F(2)),)

    def test_disjoint_hard_instance_frontier(self):
        inst = build_hard_instance(DisjointnessInput(3, (1,) + (0,) * 9, (0, 1) + (0,) * 8))
        assert sorted(fraction_points(inst.kernel.frontier, inst.utilities.scale)) == [(F(17, 9), F(2)), (F(2), F(17, 9))]


def solve_exact(rows):
    """Solve an integer augmented system [A | b] by fraction-free Gauss-Jordan
    elimination: returns (det A, numerators) with x = numerators / det and
    det > 0, or None when A is singular."""
    size = len(rows)
    rows = [list(row) for row in rows]
    prev = 1
    for col in range(size):
        pivot = next((r for r in range(col, size) if rows[r][col] != 0), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        top = rows[col]
        for r in range(size):
            if r != col:
                row = rows[r]
                rows[r] = [(row[c] * top[col] - row[col] * top[c]) // prev for c in range(size + 1)]
        prev = top[col]
    sign = 1 if prev > 0 else -1
    return sign * prev, [sign * row[size] for row in rows]


def integer_row(entries):
    scale = lcm(*(F(x).denominator for x in entries))
    return [int(x * scale) for x in entries]


def frontier_of(vectors):
    """Exact ``vectors`` as integer frontier points over one scale."""
    scale = lcm(*(F(x).denominator for vec in vectors for x in vec))
    return tuple(tuple(int(x * scale) for x in vec) for vec in vectors)


def envelope_vertices(points, eps):
    """``_envelope_vertices`` with each vertex weight as exact Fractions:
    the int weights over their sum, the vertex's homogeneous coordinate."""
    return [
        (tuple(F(x, sum(weights)) for x in weights), tight)
        for weights, tight in _envelope_vertices(points, eps)
    ]


def tight_indices(found):
    """``_envelope_vertices`` output with each tight bitmask as ascending
    frontier indices, the brute force's format."""
    return {w: tuple(f for f in range(mask.bit_length()) if mask >> f & 1) for w, mask in found}


def brute_force_vertices(vectors, eps):
    """Every feasible basic point of {w in W, t >= w.u_j}: n of the n + K
    constraints made tight, plus sum w = 1, solved exactly."""
    n = len(vectors[0])
    scale = lcm(*(x.denominator for vec in vectors for x in vec))
    points = [[int(x * scale) for x in vec] for vec in vectors]
    floors = [integer_row([int(c == i) for c in range(n)] + [0, eps]) for i in range(n)]
    ties = [point + [-scale, 0] for point in points]
    total = [1] * n + [0, 1]
    out = {}
    for chosen in combinations(floors + ties, n):
        solved = solve_exact(list(chosen) + [total])
        if solved is None:
            continue
        det, (*w, t) = solved
        if min(w) * eps.denominator < eps.numerator * det:
            continue
        welfare = [sum(a * b for a, b in zip(w, point)) for point in points]
        if max(welfare) <= t * scale:
            key = tuple(F(x, det) for x in w)
            out[key] = tuple(f for f, v in enumerate(welfare) if v == t * scale)
    return out


# seeded instances whose frontier has at most 14 vectors: the brute force
# solves C(n + K, n) systems, 3060 at n = 4 and K = 14
ENVELOPE_CANDIDATES = [
    (n, m, listed, seed) for n in (2, 3, 4) for m in (2, 3) for listed in (False, True) for seed in (0, 1, 2)
]
ENVELOPE_CASES = [case for case in ENVELOPE_CANDIDATES if len(make_instance(*case).kernel.frontier) <= 14]


# The scan reads the vertex set alone, so only the set is pinned: each
# envelope must hold exactly the (weight, mask) pairs of the reference double
# description, which adds the rows in index order, each vertex once.


def assert_envelope_matches_reference(points, eps):
    found = _envelope_vertices(points, eps)
    assert len(set(found)) == len(found)
    assert set(found) == set(reference_envelope_vertices(points, eps))


@pytest.mark.parametrize("case", ENVELOPE_CASES, ids=case_id)
def test_envelope_vertices_match_brute_force(case):
    inst = make_instance(*case)
    vectors = fraction_kernel(inst)["frontier_vectors"]
    eps = choose_epsilon(compute_rho(inst), inst.n)
    found = envelope_vertices(inst.kernel.frontier, eps)
    assert len({w for w, _ in found}) == len(found)
    assert tight_indices(found) == brute_force_vertices(vectors, eps)
    assert_envelope_matches_reference(inst.kernel.frontier, eps)


def mask_back(mask, order):
    """A tight bitmask over the points ``order`` lists, as one over their indices."""
    return sum(1 << order[f] for f in range(len(order)) if mask >> f & 1)


@pytest.mark.parametrize("workload", ["desk", "wide"])
def test_envelope_is_the_same_set_for_any_point_order(workload):
    # a permutation changes the start row and every later row's turn
    data = pinned_entries(workload)
    rng = seeded_rng(f"permute:{workload}")
    for j in range(0, len(data), 4):
        inst = load_instance(data[j])
        points = inst.kernel.frontier
        eps = choose_epsilon(compute_rho(inst), inst.n)
        want = set(_envelope_vertices(points, eps))
        for _ in range(3):
            order = list(range(len(points)))
            rng.shuffle(order)
            found = _envelope_vertices(tuple(points[f] for f in order), eps)
            assert {(w, mask_back(mask, order)) for w, mask in found} == want, f"{workload}[{j}]"
            assert len(found) == len(want)


@pytest.mark.parametrize("case", ENVELOPE_CASES, ids=case_id)
def test_envelope_weights_are_positive_ints(case):
    inst = make_instance(*case)
    eps = choose_epsilon(compute_rho(inst), inst.n)
    for weights, _ in _envelope_vertices(inst.kernel.frontier, eps):
        assert type(weights) is tuple and len(weights) == inst.n
        assert all(type(x) is int and x > 0 for x in weights)


def test_envelope_cases_cover_every_player_count():
    assert len(ENVELOPE_CASES) >= 3 * len(ENVELOPE_CANDIDATES) // 4
    for n in (2, 3, 4):
        sizes = [len(make_instance(*case).kernel.frontier) for case in ENVELOPE_CASES if case[0] == n]
        assert max(sizes) >= 4


@pytest.mark.parametrize("first", [False, True])
def test_degenerate_envelope_matches_brute_force(first):
    # three collinear vectors tie on all of w_1 = w_2, so their rows meet in
    # a 2-face whose non-adjacent vertices still share n - 1 = 3 rows: only
    # the combinatorial adjacency test keeps the join of such a pair out
    collinear = [(1, 3, 2, 2), (2, 2, 2, 2), (3, 1, 2, 2)]
    cutting = [(1, 1, 4, 1), (1, 1, 1, 4)]
    order = collinear + cutting if first else cutting + collinear
    vectors = tuple(tuple(F(x) for x in vec) for vec in order)
    found = envelope_vertices(frontier_of(vectors), F(1, 16))
    assert len({w for w, _ in found}) == len(found)
    assert tight_indices(found) == brute_force_vertices(vectors, F(1, 16))
    assert_envelope_matches_reference(frontier_of(vectors), F(1, 16))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_one_vector_envelope_is_the_corners(n):
    eps = F(1, 3 * n)
    vec = tuple(F(i + 1, 2) for i in range(n))
    corners = {tuple(1 - (n - 1) * eps if c == i else eps for c in range(n)) for i in range(n)}
    found = envelope_vertices(frontier_of((vec,)), eps)
    assert {w for w, _ in found} == corners
    assert all(tight == 1 for _, tight in found)
    assert_envelope_matches_reference(frontier_of((vec,)), eps)


# one instance of each n in many: n = 5, 6 and 7, with 71, 27 and 37
# frontier points, where the brute-force check stops at n = 4
ENVELOPE_ENTRIES = {"many": (0, 2, 4)}


@pytest.mark.parametrize("workload", ["desk", "wide", "envious", "many"])
def test_benchmark_set_envelopes_match_reference(workload):
    data = pinned_entries(workload)
    for j in ENVELOPE_ENTRIES.get(workload, range(len(data))):
        inst = load_instance(data[j])
        assert_envelope_matches_reference(inst.kernel.frontier, choose_epsilon(compute_rho(inst), inst.n))


@pytest.mark.parametrize("seed", range(6))
def test_two_player_vertices_are_tie_breakpoints(seed):
    # the interval ends and the points where two own vectors tie, as the
    # earlier two-player fallback enumerated them over every allocation pair
    inst = make_instance(2, 3, seed % 2 == 1, seed)
    eps = choose_epsilon(compute_rho(inst), 2)
    own = fraction_kernel(inst)["own"]
    points = {eps, 1 - eps}
    for j, l in combinations(range(len(inst.allocations)), 2):
        slope = own[0][j] - own[1][j] - own[0][l] + own[1][l]
        if slope:
            t = (own[1][l] - own[1][j]) / slope
            if eps < t < 1 - eps:
                points.add(t)
    found = envelope_vertices(inst.kernel.frontier, eps)
    assert {eps, 1 - eps} <= {w[0] for w, _ in found} <= points
