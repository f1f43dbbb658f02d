"""The answer path in integers, against the Fraction code it replaced.

The share step (corrected weights, projection, L1 step) runs in ints, the
envy-gap constant reads one bundle-pair set on a set recorded swap-closed,
the frontier tests its last dominator first, and the scan and the
tie-breaking LP wrap the weights and lotteries they build without
re-checking them.  Each must give exactly what the Fraction oracles in
``oracles`` give: on every scanned state of the pinned desk, wide and
envious sets, envious states included, and on the sets' instances.  The map runs at the
envious vertices only, traced or not, where a zero residual is an invariant
failure, and the tie-breaking LP reads any argmax as its ascending set.
"""

from fractions import Fraction

import pytest

from conftest import additive_table, pinned_instances, random_allocation_list, seeded_rng
from fairmix import engine
from fairmix.engine import compute_rho, find_fixed_point, select_p_in_P
from fairmix.errors import EngineInvariantError
from fairmix.model import (
    AllocationSet,
    Instance,
    MixedAllocation,
    PureAllocation,
    WeightVector,
    all_partitions_allocation_set,
    is_swappable,
    over_common_denominator,
    pareto_frontier,
)
from oracles import (
    fraction_rho,
    fraction_skyline,
    reference_rho,
    reference_share_step,
)

F = Fraction


def traced_solves(workload):
    """(instance, scanned states, answer state) for every solve of a set."""
    out = []
    for inst in pinned_instances(workload):
        trace = []
        state, _ = find_fixed_point(inst, trace_sink=trace)
        out.append((inst, trace, state))
    return out


@pytest.mark.parametrize("workload", ["desk", "wide", "envious"])
def test_share_step_matches_the_fraction_step_on_every_traced_state(workload):
    envious = 0
    for j, (inst, trace, _) in enumerate(traced_solves(workload)):
        for state in trace:
            views = engine._views(state.p, inst)
            weights = over_common_denominator(state.w.w)[0]
            want = reference_share_step(views, state.w)
            assert engine._share_step(views, weights, state.w.epsilon) == want, f"{workload}[{j}]"
            assert (state.nu, state.residual) == (want[0], want[2]), f"{workload}[{j}]"
            envious += engine._envious(views)
    # the sets reach the share step of envious vertices, not only answers;
    # every desk solve answers at its lowest vertex, so desk has none
    assert (envious > 0) == (workload != "desk")


def test_share_step_is_scale_free_in_the_weights():
    # the scan passes a vertex's weights times x0, not reduced ones
    inst = pinned_instances("desk")[0]
    trace = []
    find_fixed_point(inst, trace_sink=trace)
    for state in trace:
        views = engine._views(state.p, inst)
        weights = over_common_denominator(state.w.w)[0]
        assert engine._share_step(views, [7 * x for x in weights], state.w.epsilon) == engine._share_step(
            views, weights, state.w.epsilon
        )


@pytest.mark.parametrize("workload", ["desk", "wide", "certify", "many", "envious"])
def test_rho_matches_the_per_pair_pass_and_the_fraction_scan(workload):
    for j, inst in enumerate(pinned_instances(workload)):
        assert inst.allocations.built_closed
        rho = compute_rho(inst)
        assert rho == reference_rho(inst) == fraction_rho(inst), f"{workload}[{j}]"


def test_rho_on_an_unrecorded_closed_copy():
    for j, built in enumerate(pinned_instances("desk")[:40]):
        copy = Instance.build(built.utilities.raw_values, AllocationSet(built.allocations.bundles))
        assert not copy.allocations.built_closed
        assert compute_rho(copy) == compute_rho(built) == reference_rho(copy), f"desk[{j}]"


def test_rho_on_a_list_that_is_not_closed():
    # players 0 and 2 both prefer item 2, which player 2 holds: the ordered
    # pair (0, 2) qualifies, while players 0 and 1 share no qualifying bundle
    # pair, so reading every player pair off players 0 and 1 would give 1
    raw = [additive_table([F(1), F(3)]), additive_table([F(1), F(1)]), additive_table([F(1), F(2)])]
    inst = Instance.build(raw, AllocationSet([PureAllocation((1, 0, 2))]))
    assert not inst.allocations.built_closed
    assert inst.rho == reference_rho(inst) == fraction_rho(inst) < 1


@pytest.mark.parametrize("seed", range(24))
def test_rho_on_seeded_lists_that_are_not_closed(seed):
    # n = 2..5 players over 1..3 items, table utilities, a list drawn again
    # until some swap is missing from it
    rng = seeded_rng(f"open-rho:{seed}")
    n, m = 2 + seed % 4, rng.randint(1, 3)
    raw = [{mask: F(rng.randint(0, 12)) for mask in range(1 << m)} for _ in range(n)]
    listed = AllocationSet(random_allocation_list(rng, n, m, rng.randint(1, 4)))
    while is_swappable(listed)[0]:
        listed = AllocationSet(random_allocation_list(rng, n, m, rng.randint(1, 4)))
    inst = Instance.build(raw, listed)
    assert not inst.allocations.built_closed
    assert inst.rho == reference_rho(inst) == fraction_rho(inst)


def test_rho_with_one_player():
    inst = Instance.build([{0: 0, 1: 3}], all_partitions_allocation_set(1, 1))
    assert inst.allocations.built_closed
    assert inst.rho == reference_rho(inst) == fraction_rho(inst) == 1


def test_frontier_matches_the_fraction_skyline_on_an_antichain():
    # every point of x + y + z = 12 is maximal, in a shuffled order
    points = [(x, y, 12 - x - y) for x in range(13) for y in range(13 - x)]
    points = tuple(points[(10 * j) % len(points)] for j in range(len(points)))
    assert len(set(points)) == len(points) == 91
    assert pareto_frontier(points) == fraction_skyline(points) == list(range(91))


def test_frontier_matches_the_fraction_skyline_on_many_distinct_points():
    # the 2^14 one-player points of the memory test, plus a second coordinate
    # that makes the skyline long enough for the last dominator to change
    m = 14
    values = [1 << g for g in range(m)]
    points = tuple((sum(v for g, v in enumerate(values) if mask >> g & 1),) for mask in range(1 << m))
    assert pareto_frontier(points) == fraction_skyline(points) == [(1 << m) - 1]
    pairs = tuple((mask, mask * 7919 % (1 << m)) for mask in range(1 << m))
    kept = pareto_frontier(pairs)
    assert kept == fraction_skyline(pairs) and len(kept) > 1


@pytest.mark.parametrize("workload", ["desk", "wide"])
def test_unchecked_weights_and_lotteries_equal_the_checked_ones(workload):
    for j, (inst, trace, state) in enumerate(traced_solves(workload)):
        assert trace[-1] is state
        k = len(inst.allocations)
        for rec in trace:
            assert WeightVector(rec.w.w, rec.w.epsilon) == rec.w, f"{workload}[{j}]"
            assert all(type(x) is Fraction for x in rec.w.w)
            checked = MixedAllocation.from_support(k, rec.p.pairs)
            assert checked == rec.p and type(rec.p.pairs) is tuple, f"{workload}[{j}]"
            assert all(type(q) is Fraction for _, q in rec.p.pairs)


def checked_select(monkeypatch, w, inst, argmax):
    """``select_p_in_P`` with every lottery built by the checked constructor."""
    with monkeypatch.context() as patch:
        patch.setattr(MixedAllocation, "_of", classmethod(lambda cls, k, pairs: cls.from_support(k, pairs)))
        return select_p_in_P(w, inst, argmax)


def test_select_matches_the_checked_path_on_any_argmax(monkeypatch):
    seen = 0
    for inst, trace, _ in traced_solves("desk")[:60]:
        for rec in trace:
            amax = engine.argmax_allocations(rec.w, inst)
            if len(amax) < 2:
                continue
            seen += 1
            for argmax in (amax, list(amax), tuple(reversed(amax)), amax + amax[:1], (amax[-1],) + amax):
                got = select_p_in_P(rec.w, inst, argmax)
                assert got == checked_select(monkeypatch, rec.w, inst, argmax), argmax
                assert list(got.support()) == sorted(set(got.support()))
            assert select_p_in_P(rec.w, inst) == select_p_in_P(rec.w, inst, amax)
    assert seen > 0


def below_the_floor(weights, points, eps):
    """``weights`` with one unit, over eps's denominator, moved from the
    smallest entry to the largest past what puts the smallest below eps,
    and the mask of the ``points`` of maximum welfare there, so that only
    the floor check can object."""
    low = min(range(len(weights)), key=weights.__getitem__)
    high = max(range(len(weights)), key=weights.__getitem__)
    broken = [x * eps.denominator for x in weights]
    drop = broken[low] - eps * sum(broken) + 1
    broken[low] -= drop
    broken[high] += drop
    assert F(broken[low], sum(broken)) < eps
    welfare = [sum(a * b for a, b in zip(broken, u)) for u in points]
    return tuple(broken), sum(1 << f for f, v in enumerate(welfare) if v == max(welfare))


def test_a_vertex_below_the_floor_is_an_invariant_failure(monkeypatch):
    # the floor check covers the lowest vertex, scanned first, and every
    # later vertex of the walk, reached when the lowest vertex has envy
    walk = engine._envelope_walk

    def broken_at(position):
        def broken(points, eps):
            for t, vertex in enumerate(walk(points, eps)):
                yield below_the_floor(vertex[0], points, eps) if t == position else vertex

        return broken

    for name, position in (("desk", 0), ("envious", 1)):
        inst = pinned_instances(name)[0]
        with monkeypatch.context() as patch:
            patch.setattr(engine, "_envelope_walk", broken_at(position))
            with pytest.raises(EngineInvariantError, match="below the weight floor"):
                find_fixed_point(inst)


@pytest.mark.parametrize("workload", ["desk", "wide"])
def test_the_map_runs_on_envious_vertices_only(workload, monkeypatch):
    # the answer's map is the identity, so neither a traced nor an untraced
    # solve projects there: one projection per envious vertex, the same work
    calls = []
    project = engine.project_onto_truncated_simplex
    monkeypatch.setattr(engine, "project_onto_truncated_simplex", lambda y, eps: calls.append(1) or project(y, eps))
    for j, inst in enumerate(pinned_instances(workload)):
        calls.clear()
        trace = []
        find_fixed_point(inst, trace_sink=trace)
        traced = len(calls)
        calls.clear()
        find_fixed_point(inst)
        assert len(calls) == traced == len(trace) - 1, f"{workload}[{j}]"


def test_a_zero_residual_at_an_envious_vertex_raises_untraced(monkeypatch):
    # the first scanned vertex of this instance, its lowest, has envy
    # (residual 28/645); a fixed point there would break the paper's lemma
    raw = [{0: F(2), 1: F(8), 2: F(7), 3: F(8)}, {0: F(2), 1: F(4), 2: F(1), 3: F(5)}]
    inst = Instance.build(raw, all_partitions_allocation_set(2, 2))
    trace = []
    find_fixed_point(inst, trace_sink=trace)
    assert trace[0].residual == F(28, 645)
    share_step = engine._share_step
    monkeypatch.setattr(engine, "_share_step", lambda *args: (*share_step(*args)[:2], F(0)))
    with pytest.raises(EngineInvariantError, match="exact fixed point without envy-freeness"):
        find_fixed_point(inst)


@pytest.mark.parametrize("workload", ["desk", "wide"])
def test_select_reads_an_argmax_as_its_ascending_set(workload):
    seen = 0
    for j, (inst, trace, _) in enumerate(traced_solves(workload)):
        for rec in trace:
            amax = engine.argmax_allocations(rec.w, inst)
            if len(amax) < 2:
                continue
            seen += 1
            want = select_p_in_P(rec.w, inst, amax)
            back = tuple(reversed(amax))
            for argmax in (back, list(back), amax + amax, amax[-1:] + amax, back + amax[:1]):
                assert select_p_in_P(rec.w, inst, argmax) == want, f"{workload}[{j}] {argmax}"
    assert seen > 0
