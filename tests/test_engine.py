"""Engine components (argmax, selection, update, constants) and the search."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    additive_table,
    fraction_views,
    pinned_instances,
    random_additive_instance,
    random_table_instance,
    seeded_rng,
)
from fairmix import engine
from fairmix import lp as lp_module
from fairmix.engine import (
    FixedPointState,
    argmax_allocations,
    choose_epsilon,
    compute_rho,
    find_fixed_point,
    select_p_in_P,
    varpi,
)
from fairmix.envy import build_envy_graph
from fairmix.errors import EngineInvariantError, PreconditionError
from fairmix.lp import project_onto_truncated_simplex
from fairmix.model import (
    AllocationSet,
    Instance,
    MixedAllocation,
    PureAllocation,
    WeightVector,
    all_partitions_allocation_set,
    over_common_denominator,
    swap_closure,
)
from oracles import (
    find_dominating_vertex_or_pair,
    reference_envelope_vertices,
    reference_nu,
    weight_witness_ok,
)

F = Fraction


def identical_players_instance(m=2):
    raw = [additive_table([F(1)] * m)] * 2
    return Instance.build(raw, all_partitions_allocation_set(2, m))


def opposed_tastes_instance():
    # at uniform weights the unique argmax gives player 0 the item she values
    # less than player 1's bundle, so the first lottery is not envy-free
    raw = [additive_table([F(1), F(2)]), additive_table([F(1), F(10)])]
    return Instance.build(raw, all_partitions_allocation_set(2, 2))


def mutual_envy_point_instance():
    raw = [{0: 1, 1: 2}, {0: 2, 1: 1}]
    return Instance.build(raw, all_partitions_allocation_set(2, 1))


class TestArgmaxAllocations:
    def test_uniform_weight_ties_on_full_allocations(self):
        inst = identical_players_instance()
        w = WeightVector.uniform(2, F(1, 16))
        amax = argmax_allocations(w, inst)
        bundles = {inst.allocations[j].bundles for j in amax}
        assert bundles == {(3, 0), (1, 2), (2, 1), (0, 3)}

    def test_skewed_weight_feeds_heavy_player(self):
        inst = identical_players_instance()
        w = WeightVector((F(15, 16), F(1, 16)), F(1, 16))
        amax = argmax_allocations(w, inst)
        assert [inst.allocations[j].bundles for j in amax] == [(3, 0)]

    def test_no_items(self):
        raw = [{0: 5}, {0: 7}]
        inst = Instance.build(raw, all_partitions_allocation_set(2, 0))
        w = WeightVector.uniform(2, F(1, 4))
        assert argmax_allocations(w, inst) == (0,)


class TestSelectP:
    def test_symmetric_ties_resolve_envy_free(self):
        inst = identical_players_instance()
        w = WeightVector.uniform(2, F(1, 16))
        amax = argmax_allocations(w, inst)
        p = select_p_in_P(w, inst, amax)
        assert set(p.support()) <= set(amax)
        assert build_envy_graph(p, inst).edges == ()

    def test_singleton_argmax(self):
        inst = identical_players_instance()
        w = WeightVector((F(15, 16), F(1, 16)), F(1, 16))
        p = select_p_in_P(w, inst)
        assert p.support() == (inst.allocations.index[(3, 0)],)

    def test_single_player(self):
        raw = [{0: 0, 1: 3}]
        inst = Instance.build(raw, all_partitions_allocation_set(1, 1))
        w = WeightVector((F(1),), F(1, 2))
        p = select_p_in_P(w, inst)
        assert len(p.support()) == 1


def engine_nu(p, w, inst):
    """The engine's corrected weights, ``_nu_from_views`` on the engine's
    views and w's int numerators, required to be int numerators over
    sum(w) * Σbest * Σown that sum to it and, as Fractions, equal to the
    Fraction oracle's."""
    weights = over_common_denominator(w.w)[0]
    views = engine._views(p, inst)
    nums, den = engine._nu_from_views(views, weights)
    assert all(type(x) is int for x in nums)
    assert den == sum(weights) * sum(max(row) for row in views) * sum(row[i] for i, row in enumerate(views))
    assert sum(nums) == den
    nu = tuple(F(x, den) for x in nums)
    assert nu == reference_nu(p, w, inst)
    return nu


class TestNuUpdate:
    def test_symmetric_mutual_envy_cancels(self):
        inst = mutual_envy_point_instance()
        j = inst.allocations.index[(0, 1)]
        p = MixedAllocation.point_mass(3, j)
        w = WeightVector((F(1, 2), F(1, 2)), F(1, 10))
        assert engine_nu(p, w, inst) == (F(1, 2), F(1, 2))

    def test_envy_free_gives_back_w(self):
        inst = identical_players_instance()
        w = WeightVector((F(2, 5), F(3, 5)), F(1, 16))
        p = select_p_in_P(w, inst, argmax_allocations(WeightVector.uniform(2, F(1, 16)), inst))
        assert build_envy_graph(p, inst).edges == ()
        assert engine_nu(p, w, inst) == w.w

    def test_single_player(self):
        raw = [{0: 0, 1: 3}]
        inst = Instance.build(raw, all_partitions_allocation_set(1, 1))
        p = MixedAllocation.point_mass(len(inst.allocations), 0)
        assert engine_nu(p, WeightVector((F(1),), F(1, 2)), inst) == (F(1),)


class TestVarpi:
    def test_envy_free_is_fixed(self):
        inst = identical_players_instance()
        w = WeightVector.uniform(2, F(1, 16))
        p = select_p_in_P(w, inst)
        assert varpi(p, w, inst) == w

    def test_matches_projection_of_nu(self):
        inst = mutual_envy_point_instance()
        j = inst.allocations.index[(1, 0)]
        p = MixedAllocation.point_mass(3, j)
        w = WeightVector((F(7, 10), F(3, 10)), F(1, 10))
        nu = reference_nu(p, w, inst)
        assert varpi(p, w, inst).w == project_onto_truncated_simplex(nu, F(1, 10))


class TestComputeRho:
    def test_orbit_with_unit_ratios(self):
        raw = [{0: 1, 1: 2}, {0: 1, 1: 2}]
        inst = Instance.build(raw, swap_closure([PureAllocation((0, 1))]))
        assert compute_rho(inst) == F(1, 2)

    def test_no_qualifying_triple(self):
        raw = [{0: 1}, {0: 1}]
        inst = Instance.build(raw, AllocationSet([PureAllocation((0, 0))]))
        assert compute_rho(inst) == F(1)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_positive_and_halved_on_swappable_sets(self, seed):
        inst = random_table_instance(seeded_rng(seed), n=2, m=2)
        rho = compute_rho(inst)
        assert rho > 0
        assert rho == 1 or rho <= F(1, 2)


class TestChooseEpsilon:
    def test_auto_half(self):
        assert choose_epsilon(F(1, 2), 2) == F(1, 16)

    def test_auto_unit_rho(self):
        assert choose_epsilon(F(1), 3) == F(1, 6)

    def test_rejects_rho_above_one(self):
        # every swap-closed instance has rho <= 1, which keeps the floor below 1/n
        with pytest.raises(PreconditionError, match=r"gap constant must lie in \(0, 1\], got 2"):
            choose_epsilon(F(2), 2)

    def test_int_rho_gives_fraction(self):
        eps = choose_epsilon(1, 2)
        assert eps == F(1, 4) and type(eps) is F
        assert WeightVector.uniform(2, eps).epsilon == F(1, 4)

    @pytest.mark.parametrize("rho", [0.5, 1.0, None, True], ids=["float", "float-one", "none", "bool"])
    def test_rejects_non_rational_rho(self, rho):
        with pytest.raises(PreconditionError, match="gap constant must be rational"):
            choose_epsilon(rho, 2)

    @pytest.mark.parametrize("rho, n, want", [(F(1, 2), 2, F(1, 16)), (F(1, 3), 3, F(1, 162)), (F(1), 1, F(1, 2))])
    def test_fraction_rho_unchanged(self, rho, n, want):
        eps = choose_epsilon(rho, n)
        assert eps == want and type(eps) is F

    @given(st.fractions(min_value="1/100", max_value=1, max_denominator=100), st.integers(1, 4))
    def test_auto_strictly_below_bound(self, rho, n):
        eps = choose_epsilon(rho, n)
        assert 0 < eps < rho**n / n
        assert eps <= F(1, n)

    @pytest.mark.parametrize("n", [0, 2.0, True, -1, "2"], ids=["zero", "float", "bool", "negative", "string"])
    def test_rejects_bad_player_count(self, n):
        with pytest.raises(PreconditionError, match="player count must be an integer >= 1"):
            choose_epsilon(F(1, 2), n)

    def test_find_fixed_point_takes_no_floor(self):
        # the floor is derived from the instance; a positional one is refused
        # at the call rather than taken as the trace sink
        inst = opposed_tastes_instance()
        with pytest.raises(TypeError):
            find_fixed_point(inst, F(1, 100))
        state, cert = find_fixed_point(inst)
        assert cert.ok and state.w.epsilon == compute_rho(inst) ** 2 / 4


class TestFindFixedPoint:
    def test_single_player(self):
        raw = [{0: 0, 1: 5}]
        inst = Instance.build(raw, all_partitions_allocation_set(1, 1))
        state, cert = find_fixed_point(inst)
        assert cert.ok
        assert state.w.w == (F(1),)
        assert state.residual == 0
        assert fraction_views(state.p, inst)[0][0] == F(2)

    def test_symmetric_instance(self):
        inst = identical_players_instance()
        state, cert = find_fixed_point(inst)
        assert cert.ok
        assert build_envy_graph(state.p, inst).edges == ()
        assert find_dominating_vertex_or_pair(state.p, inst) is None

    def test_envy_free_optimum_converges_immediately(self):
        # each player gets the item they like more: the welfare optimum is
        # envy-free, so the first scanned vertex answers and is a one-step
        # fixed point of the paper's map
        raw = [additive_table([F(2), F(1)]), additive_table([F(1), F(2)])]
        inst = Instance.build(raw, all_partitions_allocation_set(2, 2))
        state, cert = find_fixed_point(inst)
        assert cert.ok
        assert state.iteration == 1
        assert state.residual == 0
        assert varpi(state.p, state.w, inst) == state.w

    def test_fallback_finds_certified_lottery(self):
        inst = opposed_tastes_instance()
        state, cert = find_fixed_point(inst)
        assert cert.ok
        assert find_dominating_vertex_or_pair(state.p, inst) is None

    def test_exhausted_fallback_is_an_invariant_failure(self, monkeypatch):
        # the vertex scan is complete, so running out of vertices means a
        # check broke; here the envy screen is forced to reject everything
        monkeypatch.setattr(engine, "_envious", lambda views: True)
        inst = opposed_tastes_instance()
        with pytest.raises(EngineInvariantError):
            find_fixed_point(inst)

    @pytest.mark.parametrize("ef_ok, pe_ok", [(False, True), (True, False)])
    def test_certificate_against_the_lemmas_is_an_invariant_failure(
        self, monkeypatch, ef_ok, pe_ok
    ):
        # a screened candidate is a fixed point of the map (nu == w) and lies
        # on the argmax, so the lemmas say its certificate must pass on both sides
        fake = SimpleNamespace(ef_ok=ef_ok, pe_ok=pe_ok, ok=False)
        monkeypatch.setattr(engine, "certify", lambda p, inst, residual=None, weight=None: fake)
        with pytest.raises(EngineInvariantError):
            find_fixed_point(opposed_tastes_instance())

    @pytest.mark.parametrize(
        "corrupt",
        [lambda w: (F(0),) + w[1:], lambda w: (F(1, 2), F(1, 2))],
        ids=["zero", "off-argmax"],
    )
    def test_corrupted_pe_witness_is_an_invariant_failure(self, monkeypatch, corrupt):
        inst = opposed_tastes_instance()
        state, _ = find_fixed_point(inst)
        assert not weight_witness_ok(state.p, inst, corrupt(state.w.w))
        certify = engine.certify
        monkeypatch.setattr(
            engine,
            "certify",
            lambda p, inst, residual=None, weight=None: certify(
                p, inst, residual=residual, weight=corrupt(weight)
            ),
        )
        with pytest.raises(EngineInvariantError, match="efficiency check"):
            find_fixed_point(inst)

    def test_short_pe_witness_is_a_precondition_error(self, monkeypatch):
        # certify refuses a witness of the wrong length outright, naming both
        # counts, instead of reading it as "not efficient"
        certify = engine.certify
        monkeypatch.setattr(
            engine,
            "certify",
            lambda p, inst, residual=None, weight=None: certify(
                p, inst, residual=residual, weight=weight[:-1]
            ),
        )
        with pytest.raises(PreconditionError, match="has 1 entries, instance has 2 players"):
            find_fixed_point(opposed_tastes_instance())

    def test_vertex_disagreeing_with_the_argmax_is_an_invariant_failure(self, monkeypatch):
        argmax_of = engine._argmax_of
        monkeypatch.setattr(engine, "_argmax_of", lambda points, members, w: argmax_of(points, members, w)[:1])
        with pytest.raises(EngineInvariantError, match="disagrees with the argmax"):
            find_fixed_point(opposed_tastes_instance())

    def test_rejects_non_swappable_set(self):
        raw = [{0: 1, 1: 2}, {0: 1, 1: 2}]
        inst = Instance.build(raw, AllocationSet([PureAllocation((1, 0))]))
        with pytest.raises(PreconditionError):
            find_fixed_point(inst)

    def test_closure_is_proved_only_for_an_unrecorded_set(self, monkeypatch):
        calls = []
        proof = engine.is_swappable
        monkeypatch.setattr(engine, "is_swappable", lambda aset: calls.append(aset) or proof(aset))
        raw = [additive_table([F(1), F(3)]), additive_table([F(1), F(2)])]
        built = all_partitions_allocation_set(2, 2)
        copy = AllocationSet(built.bundles)
        from_builder = find_fixed_point(Instance.build(raw, built))
        assert calls == []
        from_copy = find_fixed_point(Instance.build(raw, copy))
        assert calls == [copy]
        assert from_copy == from_builder

    def test_trace_records_are_coherent(self):
        # the scan's first vertex, the envelope's lowest, is envious here, so
        # the trace has two records
        raw = [{0: F(2), 1: F(8), 2: F(7), 3: F(8)}, {0: F(2), 1: F(4), 2: F(1), 3: F(5)}]
        inst = Instance.build(raw, all_partitions_allocation_set(2, 2))
        trace = []
        state, _ = find_fixed_point(inst, trace_sink=trace)
        assert state.iteration == 2
        assert [rec.iteration for rec in trace] == list(range(1, state.iteration + 1))
        # the answer is the record of its vertex
        assert trace[-1] is state
        assert [rec.residual > 0 for rec in trace] == [True, False]
        for rec in trace:
            assert rec.nu == reference_nu(rec.p, rec.w, inst)
            assert sum(rec.nu) == 1
            assert rec.residual >= 0
            assert set(rec.p.support()) <= set(argmax_allocations(rec.w, inst))

    def test_deterministic(self):
        inst = opposed_tastes_instance()
        first = find_fixed_point(inst)
        second = find_fixed_point(inst)
        assert first[0] == second[0]

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_random_two_player_instances(self, seed):
        rng = seeded_rng(seed)
        inst = random_additive_instance(rng, n=2, m=rng.choice([2, 3]))
        state, cert = find_fixed_point(inst)
        assert cert.ok
        assert varpi(state.p, state.w, inst) == state.w
        assert build_envy_graph(state.p, inst).edges == ()
        assert find_dominating_vertex_or_pair(state.p, inst) is None

    @given(st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_random_three_player_instances(self, seed):
        rng = seeded_rng(seed)
        inst = random_table_instance(rng, n=3, m=2)
        state, cert = find_fixed_point(inst)
        assert cert.ok
        assert varpi(state.p, state.w, inst) == state.w
        assert build_envy_graph(state.p, inst).edges == ()


@pytest.mark.parametrize("length", [2, 4])
@pytest.mark.parametrize(
    "call",
    [
        lambda w, inst: argmax_allocations(w, inst),
        lambda w, inst: select_p_in_P(w, inst),
        lambda w, inst: select_p_in_P(w, inst, argmax=(0, 1)),
        lambda w, inst: varpi(MixedAllocation.point_mass(len(inst.allocations), 0), w, inst),
    ],
    ids=["argmax_allocations", "select_p_in_P", "select_p_in_P-argmax", "varpi"],
)
def test_weight_of_the_wrong_length_is_a_precondition_error(call, length):
    raw = [{0: 0, 1: 1, 2: 2, 3: 3}, {0: 0, 1: 2, 2: 1, 3: 3}, {0: 0, 1: 3, 2: 3, 3: 1}]
    inst = Instance.build(raw, all_partitions_allocation_set(3, 2))
    w = WeightVector.uniform(length, F(1, 10))
    with pytest.raises(PreconditionError, match=f"{length} entries, instance has 3 players"):
        call(w, inst)


def lowest_reference_vertices(points, eps):
    """The reference envelope's vertices of least t, as normalized weight: mask."""
    vertices, height = {}, {}
    for weights, mask in reference_envelope_vertices(points, eps):
        w = tuple(F(x, sum(weights)) for x in weights)
        vertices[w] = mask
        height[w] = F(max(sum(a * b for a, b in zip(weights, u)) for u in points), sum(weights))
    least = min(height.values())
    return {w: mask for w, mask in vertices.items() if height[w] == least}


def maximal_reference_masks(points, eps):
    """The reference envelope's argmax masks that no other mask strictly contains."""
    masks = {mask for _, mask in reference_envelope_vertices(points, eps)}
    return {mask for mask in masks if not any(other != mask and other & mask == mask for other in masks)}


@pytest.mark.parametrize("workload", ["desk", "wide", "envious"])
def test_scan_visits_every_maximal_mask(workload, monkeypatch):
    """The scan starts at the lowest vertex, a reference vertex of least t,
    and every vertex it scans is a reference vertex whose mask lies in no
    mask scanned before it.  A scan whose envy screen rejects every vertex
    runs out of vertices, and by then it has scanned every maximal mask of
    the reference, each once."""
    insts = pinned_instances(workload)
    for j, inst in enumerate(insts):
        eps = choose_epsilon(compute_rho(inst), inst.n)
        trace = []
        find_fixed_point(inst, trace_sink=trace)
        first = trace[0].w.w
        assert first in lowest_reference_vertices(inst.kernel.frontier, eps), f"{workload}[{j}]"

    monkeypatch.setattr(engine, "_envious", lambda views: True)
    monkeypatch.setattr(engine, "_share_step", lambda views, weights, eps: ((), (), F(1)))
    longest = 0
    for j, inst in enumerate(insts):
        points = inst.kernel.frontier
        eps = choose_epsilon(compute_rho(inst), inst.n)
        weights = {}
        for vertex, mask in reference_envelope_vertices(points, eps):
            weights.setdefault(tuple(F(x, sum(vertex)) for x in vertex), mask)
        trace = []
        with pytest.raises(EngineInvariantError, match="without an envy-free lottery"):
            find_fixed_point(inst, trace_sink=trace)
        masks = [weights[state.w.w] for state in trace]
        for t, mask in enumerate(masks):
            assert not any(kept & mask == mask for kept in masks[:t]), f"{workload}[{j}] scan {t + 1}"
        assert maximal_reference_masks(points, eps) <= set(masks), f"{workload}[{j}]"
        longest = max(longest, len(trace))
    # some envelope has a maximal mask besides the lowest vertex's
    assert longest > 1


def test_envious_set_scans_past_the_lowest_vertex():
    # each instance's lowest vertex has envy, so its answer comes from the
    # walk past it, at every player count from 2 to 6
    insts = pinned_instances("envious")
    assert sorted(inst.n for inst in insts) == [2, 3, 3, 4, 5, 6]
    for j, inst in enumerate(insts):
        trace = []
        state, cert = find_fixed_point(inst, trace_sink=trace)
        assert cert.ok and state.iteration >= 2, f"envious[{j}]"
        assert trace[0].residual > 0, f"envious[{j}]"


def small_instances():
    """Instances at n = 1 and n = 2, the smallest envelopes."""
    one = Instance.build([{0: F(0), 1: F(5)}], all_partitions_allocation_set(1, 1))
    two = [identical_players_instance(), opposed_tastes_instance(), mutual_envy_point_instance()]
    rng = seeded_rng("lowest:2")
    two += [random_table_instance(rng, n=2, m=2) for _ in range(6)]
    return [one] + two


@pytest.mark.parametrize("workload", ["desk", "wide", "certify", "many", "envious", "small"])
def test_lowest_vertex_is_a_reference_vertex_of_least_t(workload):
    insts = small_instances() if workload == "small" else pinned_instances(workload)
    for j, inst in enumerate(insts):
        points = inst.kernel.frontier
        eps = choose_epsilon(compute_rho(inst), inst.n)
        weights, mask = next(engine._envelope_walk(points, eps))
        assert type(weights) is tuple and all(type(x) is int and x > 0 for x in weights)
        w = tuple(F(x, sum(weights)) for x in weights)
        assert lowest_reference_vertices(points, eps).get(w) == mask, f"{workload}[{j}]"


def test_lowest_vertex_lp_needs_no_phase_one(monkeypatch):
    # every row is <= with a right-hand side >= 0: the slack basis is
    # feasible, and the solver runs one simplex from it
    programs, phases = [], []
    solve, simplex = engine.solve_lp, lp_module._simplex
    monkeypatch.setattr(lp_module, "_simplex", lambda *args: phases.append(1) or simplex(*args))
    monkeypatch.setattr(engine, "solve_lp", lambda lp: programs.append(lp) or solve(lp))
    for inst in pinned_instances("wide") + small_instances():
        programs.clear()
        phases.clear()
        eps = choose_epsilon(compute_rho(inst), inst.n)
        engine._lowest_vertex(inst.kernel.frontier, eps)
        (lp,) = programs
        assert all(rhs >= 0 for _, rhs in lp.constraints)
        assert len(lp.constraints) == len(inst.kernel.frontier) + 1
        assert phases == [1]


def test_select_lp_needs_no_phase_one(monkeypatch):
    # the margin game's rows are all <= 1 over entries >= 1: the slack basis
    # is feasible, and the solver runs one simplex from it, over the
    # program's columns and one slack per row; each _simplex
    # call records the largest original column index it sees
    programs, calls, selects = [], [], []
    solve, simplex, select = engine.solve_lp, lp_module._simplex, engine.select_p_in_P
    monkeypatch.setattr(lp_module, "_simplex", lambda *args: calls.append(max(args[1] + args[2])) or simplex(*args))
    monkeypatch.setattr(engine, "solve_lp", lambda lp: programs.append(lp) or solve(lp))

    def recording(w, inst, argmax=None):
        programs.clear()
        calls.clear()
        p = select(w, inst, argmax)
        if programs:
            selects.append((inst.n, *programs, list(calls)))
        return p

    monkeypatch.setattr(engine, "select_p_in_P", recording)
    for workload in ("desk", "wide", "many", "envious"):
        for inst in pinned_instances(workload):
            find_fixed_point(inst)
    assert selects
    for n, lp, largest in selects:
        assert len(lp.constraints) == n * (n - 1)
        assert all(rhs == 1 and min(row) >= 1 for row, rhs in lp.constraints)
        assert len(largest) == 1 and largest[0] < lp.num_vars + len(lp.constraints)


def test_a_walk_vertex_whose_mask_disagrees_with_the_argmax_is_an_invariant_failure(monkeypatch):
    # the lowest vertex is envious here, so the scan reads the walk's next
    # vertices, and each one's mask must be the points of its argmax: one
    # with a point added to its mask, or one removed, is refused (n = 3,
    # 14 frontier points)
    inst = pinned_instances("envious")[2]
    walk = engine._envelope_walk
    assert find_fixed_point(inst)[0].iteration >= 2

    def corrupted(change):
        def corrupt(points, eps):
            vertices = walk(points, eps)
            yield next(vertices)
            for weights, mask in vertices:
                yield weights, change(mask, len(points))

        return corrupt

    changes = [
        lambda mask, k: mask | next(1 << f for f in range(k) if not mask >> f & 1),
        lambda mask, k: mask & (mask - 1),
    ]
    for change in changes:
        monkeypatch.setattr(engine, "_envelope_walk", corrupted(change))
        with pytest.raises(EngineInvariantError, match="disagrees with the argmax"):
            find_fixed_point(inst)


def test_fallback_solve_imports_neither_numpy_nor_scipy():
    """A three-player solve through the vertex scan stays on the standard
    library: a fresh isolated interpreter has neither module loaded after it."""
    src = os.path.dirname(os.path.dirname(engine.__file__))
    script = f"""
import json, sys
sys.path.insert(0, {src!r})
from fractions import Fraction as F
from fairmix import Instance, all_partitions_allocation_set, engine

calls = []
search = engine._fallback_search
engine._fallback_search = lambda *args: calls.append(1) or search(*args)
raw = [
    {{0: F(0), 1: F(4), 2: F(1), 3: F(5)}},
    {{0: F(0), 1: F(1), 2: F(4), 3: F(5)}},
    {{0: F(0), 1: F(3), 2: F(3), 3: F(6)}},
]
inst = Instance.build(raw, all_partitions_allocation_set(3, 2))
state, cert = engine.find_fixed_point(inst)
print(json.dumps([len(calls), cert.ok, "numpy" in sys.modules, "scipy" in sys.modules]))
"""
    proc = subprocess.run(
        [sys.executable, "-I", "-c", script], capture_output=True, encoding="utf-8", timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [1, True, False, False]
