"""Envy graph construction, acyclicity, and the PE/EF certificate checks."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import additive_table, random_allocation_list, random_table_instance, seeded_rng
from fairmix import envy
from fairmix.engine import find_fixed_point
from fairmix.envy import (
    Certificate,
    EnvyGraph,
    PeCheck,
    _check_weight_witness,
    build_envy_graph,
    certify,
    check_envy_free,
    check_pareto_efficient,
    is_acyclic,
)
from fairmix.errors import EngineInvariantError, MalformedInstanceError, PreconditionError
from fairmix.model import Instance, MixedAllocation, all_partitions_allocation_set, swap_closure
from oracles import (
    find_dominating_vertex_or_pair,
    fraction_kernel,
    fraction_normalize,
    reference_domination,
    weight_witness_ok,
)

F = Fraction


def symmetric_instance(m=2):
    raw = [additive_table([F(1)] * m)] * 2
    return Instance.build(raw, all_partitions_allocation_set(2, m))


def point_mass_on(inst, bundles):
    j = inst.allocations.index[bundles]
    return MixedAllocation.point_mass(len(inst.allocations), j)


def split_lottery(inst):
    ja = inst.allocations.index[(0b01, 0b10)]
    jb = inst.allocations.index[(0b10, 0b01)]
    return MixedAllocation.from_support(len(inst.allocations), {ja: F(1, 2), jb: F(1, 2)})


def envy_free(p, inst):
    """Players with no outgoing edge in the lottery's envy graph."""
    return set(range(inst.n)) - {i for i, _, _ in build_envy_graph(p, inst).edges}


class TestBuildEnvyGraph:
    def test_all_to_one_player(self):
        inst = symmetric_instance()
        g = build_envy_graph(point_mass_on(inst, (0b11, 0)), inst)
        assert [(a, b) for a, b, _ in g.edges] == [(1, 0)]
        assert g.edges[0][2] == F(1)

    def test_split_lottery_no_edges(self):
        inst = symmetric_instance()
        assert build_envy_graph(split_lottery(inst), inst).edges == ()

    def test_empty_bundles_no_edges(self):
        inst = symmetric_instance()
        assert build_envy_graph(point_mass_on(inst, (0, 0)), inst).edges == ()


class TestIsAcyclic:
    def test_single_edge(self):
        assert is_acyclic(EnvyGraph(2, ((0, 1, F(1)),))) == (True, None)

    def test_two_cycle(self):
        ok, cycle = is_acyclic(EnvyGraph(2, ((0, 1, F(1)), (1, 0, F(1)))))
        assert not ok
        assert sorted(cycle) == [0, 1]

    def test_empty(self):
        assert is_acyclic(EnvyGraph(3, ())) == (True, None)

    def test_cycle_edges_exist(self):
        g = EnvyGraph(4, ((0, 1, F(1)), (1, 2, F(1)), (2, 0, F(1)), (3, 0, F(1))))
        ok, cycle = is_acyclic(g)
        assert not ok
        edges = {(i, h) for i, h, _ in g.edges}
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            assert (a, b) in edges


class TestEnvyFreePlayers:
    def test_one_sided_envy(self):
        inst = symmetric_instance()
        assert envy_free(point_mass_on(inst, (0b11, 0)), inst) == {0}

    def test_no_envy(self):
        inst = symmetric_instance()
        assert envy_free(split_lottery(inst), inst) == {0, 1}

    def test_chain(self):
        g = EnvyGraph(3, ((0, 1, F(1)), (1, 2, F(1))))
        enviers = {i for i, _, _ in g.edges}
        assert set(range(3)) - enviers == {2}


class TestCheckEnvyFree:
    def test_split_lottery_ok(self):
        inst = symmetric_instance()
        assert check_envy_free(split_lottery(inst), inst).ok

    def test_all_to_one_witness(self):
        inst = symmetric_instance()
        frag = check_envy_free(point_mass_on(inst, (0b11, 0)), inst)
        assert not frag.ok
        assert frag.witness[:2] == (1, 0)

    def test_single_player(self):
        raw = [{0: 0, 1: 1}]
        inst = Instance.build(raw, all_partitions_allocation_set(1, 1))
        p = MixedAllocation.point_mass(len(inst.allocations), 0)
        assert check_envy_free(p, inst).ok


class TestCheckParetoEfficient:
    def test_unique_utilitarian_optimum(self):
        raw = [additive_table([F(2), F(1)]), additive_table([F(1), F(2)])]
        inst = Instance.build(raw, all_partitions_allocation_set(2, 2))
        assert check_pareto_efficient(point_mass_on(inst, (0b01, 0b10)), inst).ok

    def test_empty_allocation_dominated(self):
        inst = symmetric_instance()
        frag = check_pareto_efficient(point_mass_on(inst, (0, 0)), inst)
        assert not frag.ok
        assert frag.dominator is not None
        assert all(gain >= 0 for gain in frag.gains)
        assert any(gain > 0 for gain in frag.gains)

    def test_split_lottery_efficient(self):
        inst = symmetric_instance()
        assert check_pareto_efficient(split_lottery(inst), inst).ok

    def test_agrees_with_domination_search_on_fixed_instance(self):
        inst = symmetric_instance()
        k = len(inst.allocations)
        for j in range(k):
            p = MixedAllocation.point_mass(k, j)
            lp_says = check_pareto_efficient(p, inst).ok
            search_says = find_dominating_vertex_or_pair(p, inst) is None
            assert lp_says == search_says

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_agrees_with_domination_search_randomized(self, seed):
        rng = seeded_rng(seed)
        inst = random_table_instance(rng, n=2, m=2)
        k = len(inst.allocations)
        j = rng.randrange(k)
        p = MixedAllocation.point_mass(k, j)
        lp_says = check_pareto_efficient(p, inst).ok
        search_says = find_dominating_vertex_or_pair(p, inst) is None
        assert lp_says == search_says


def two_allocation_answer_instance():
    # the scan's answer here is a two-allocation lottery at w = (8/17, 9/17)
    raw = [additive_table([F(1), F(3)]), additive_table([F(1), F(2)])]
    return Instance.build(raw, all_partitions_allocation_set(2, 2))


class TestWeightWitness:
    def test_answer_weight_is_a_witness(self):
        inst = two_allocation_answer_instance()
        state, _ = find_fixed_point(inst)
        check = check_pareto_efficient(state.p, inst, weight=state.w.w)
        assert check.ok and check.weight == state.w.w
        assert check.dominator is None and check.gains is None
        assert weight_witness_ok(state.p, inst, state.w.w)

    def test_split_lottery_under_equal_weights(self):
        inst = symmetric_instance()
        check = check_pareto_efficient(split_lottery(inst), inst, weight=(1, "1/1"))
        assert check.ok and check.weight == (F(1), F(1))

    @pytest.mark.parametrize(
        "corrupt",
        [lambda w: (F(0),) + w[1:], lambda w: w[:-1] + (-w[-1],)],
        ids=["zero", "negative"],
    )
    def test_corrupted_weight_fails(self, corrupt):
        inst = two_allocation_answer_instance()
        state, _ = find_fixed_point(inst)
        w = corrupt(state.w.w)
        check = check_pareto_efficient(state.p, inst, weight=w)
        assert check == PeCheck(False)
        assert not weight_witness_ok(state.p, inst, w)

    @pytest.mark.parametrize(
        "corrupt", [lambda w: w[:-1], lambda w: w + (F(1),)], ids=["short", "long"]
    )
    def test_wrong_length_weight_is_a_precondition_error(self, corrupt):
        # a caller's mistake, not a verdict: the answer here is certified by
        # w = (1/3, 2/3), and n - 1 or n + 1 entries name both counts
        inst = Instance.build(
            [{0: 0, 1: 1, 2: 2, 3: 3}, {0: 0, 1: 2, 2: 1, 3: 3}],
            all_partitions_allocation_set(2, 2),
        )
        state, cert = find_fixed_point(inst)
        assert cert.ok and state.w.w == (F(1, 3), F(2, 3))
        w = corrupt(state.w.w)
        message = f"weight witness has {len(w)} entries, instance has 2 players"
        with pytest.raises(PreconditionError, match=message):
            check_pareto_efficient(state.p, inst, weight=w)
        with pytest.raises(PreconditionError, match=message):
            certify(state.p, inst, weight=w)

    @pytest.mark.parametrize(
        "weight, message",
        [
            (5, "weight witness 5 is not a sequence"),
            (("x", 1), "bad rational 'x'"),
            ((F(1, 2), 0.5), "non-rational value of type float"),
        ],
        ids=["int", "string-entry", "float-entry"],
    )
    def test_malformed_weight_is_a_precondition_error(self, weight, message):
        # the same class of caller's mistake as a witness of the wrong length
        inst = symmetric_instance()
        p = split_lottery(inst)
        with pytest.raises(PreconditionError, match=message):
            check_pareto_efficient(p, inst, weight=weight)
        with pytest.raises(PreconditionError, match=message):
            certify(p, inst, weight=weight)

    def test_support_off_the_argmax_fails(self):
        # an efficient lottery, yet at equal weights only one of its two
        # allocations is on the argmax
        inst = two_allocation_answer_instance()
        state, _ = find_fixed_point(inst)
        assert check_pareto_efficient(state.p, inst).ok
        w = (F(1, 2), F(1, 2))
        check = check_pareto_efficient(state.p, inst, weight=w)
        assert check == PeCheck(False)
        assert not weight_witness_ok(state.p, inst, w)
        k = len(inst.allocations)
        on_argmax = [
            j for j in state.p.support()
            if weight_witness_ok(MixedAllocation.point_mass(k, j), inst, w)
        ]
        assert len(on_argmax) == 1

    @pytest.mark.parametrize("w", [(F(0), F(1)), (F(-1), F(1))], ids=["zero", "negative"])
    def test_non_positive_weight_fails_on_its_argmax(self, w):
        # player 2 values only item 1, so leaving item 2 unallocated is
        # dominated, yet it maximizes welfare when player 1's weight is <= 0
        inst = Instance.build(
            [additive_table([F(1), F(1)]), additive_table([F(1), F(0)])],
            all_partitions_allocation_set(2, 2),
        )
        p = point_mass_on(inst, (0b00, 0b01))
        values = fraction_normalize(inst.utilities.raw_values)
        welfare = [
            sum(wi * values[i][a.bundles[i]] for i, wi in enumerate(w))
            for a in inst.allocations
        ]
        assert welfare[p.support()[0]] == max(welfare)
        assert not check_pareto_efficient(p, inst).ok
        assert check_pareto_efficient(p, inst, weight=w) == PeCheck(False)

    def test_dominated_point_mass_fails(self):
        inst = symmetric_instance()
        check = check_pareto_efficient(point_mass_on(inst, (0, 0)), inst, weight=(F(1, 2), F(1, 2)))
        assert check == PeCheck(False)

    @pytest.mark.parametrize("k, j", [(8, 7), (20, 15)], ids=["shorter", "longer"])
    def test_lottery_of_another_size_is_malformed(self, k, j):
        # the instance has 9 allocations: index 7 lies inside it, index 15
        # beyond it, and both lotteries are rejected as the LP path rejects them
        inst = Instance.build(
            [{0: 0, 1: 1, 2: 2, 3: 3}, {0: 0, 1: 2, 2: 1, 3: 3}],
            all_partitions_allocation_set(2, 2),
        )
        p = MixedAllocation(k, ((j, 1),))
        message = f"lottery over {k} allocations, instance has 9"
        for weight in ((F(2, 3), F(1, 3)), None):
            with pytest.raises(MalformedInstanceError, match=message):
                check_pareto_efficient(p, inst, weight=weight)


# the most items per player count that keeps (n + 1)^m at 64 or fewer
ITEMS = {1: 4, 2: 3, 3: 3, 4: 2, 5: 2}


def pe_instance(rng, n, m, listed):
    """Additive or table utilities over 0-9 thirds, on all partitions or on
    the swap closure of a few random allocations."""
    if rng.random() < 0.5:
        raw = [additive_table([Fraction(rng.randint(0, 9), rng.choice((1, 3))) for _ in range(m)]) for _ in range(n)]
    else:
        raw = [{mask: Fraction(rng.randint(0, 9), rng.choice((1, 3))) for mask in range(1 << m)} for _ in range(n)]
    if listed:
        return Instance.build(raw, swap_closure(random_allocation_list(rng, n, m, rng.randint(1, 3))))
    return Instance.build(raw, all_partitions_allocation_set(n, m))


def pe_lotteries(rng, inst):
    """Seeded lotteries: the whole argmax of a random positive weight, shared
    equally (efficient), two point masses and a mixture of up to three
    allocations (often dominated)."""
    k = len(inst.allocations)
    w = [rng.randint(1, 5) for _ in range(inst.n)]
    welfare = [sum(a * row[j] for a, row in zip(w, inst.kernel.own_num)) for j in range(k)]
    top = [j for j, v in enumerate(welfare) if v == max(welfare)]
    out = [MixedAllocation.from_support(k, {j: Fraction(1, len(top)) for j in top})]
    out += [MixedAllocation.point_mass(k, rng.randrange(k)) for _ in range(2)]
    support = rng.sample(range(k), min(3, k))
    raw = [rng.randint(1, 9) for _ in support]
    out.append(MixedAllocation.from_support(k, {j: Fraction(r, sum(raw)) for j, r in zip(support, raw)}))
    return out


def own_utilities(p, ref):
    """A lottery's own utilities in Fractions from ``fraction_kernel``'s table."""
    return [sum((q * row[j] for j, q in p.pairs), Fraction(0)) for row in ref["own"]]


def assert_pe_witness_holds(p, inst):
    """The verdict agrees with the Fraction domination LP, and its witness
    holds: a weight > 0 summing to 1 that both witness scans accept, or a
    dominator over first frontier members whose gains are exactly its own
    utilities' gains and dominate.  Returns the verdict."""
    check = check_pareto_efficient(p, inst)
    assert check.ok == (reference_domination(p, inst) == 0)
    if check.ok:
        assert check.dominator is None and check.gains is None
        assert all(x > 0 for x in check.weight) and sum(check.weight) == 1
        assert _check_weight_witness(p, inst, check.weight).ok
        assert weight_witness_ok(p, inst, check.weight)
        return True
    assert check.weight is None
    ref = fraction_kernel(inst)
    gains = [b - a for a, b in zip(own_utilities(p, ref), own_utilities(check.dominator, ref))]
    assert list(check.gains) == gains
    assert all(g >= 0 for g in gains) and any(gains)
    assert set(check.dominator.support()) <= {js[0] for js in ref["frontier_members"]}
    return False


class TestWeightProgram:
    """The slack-basis weight program against the domination LP it replaced."""

    @given(
        n=st.integers(1, 5),
        listed=st.booleans(),
        seed=st.integers(0, 10**6),
        data=st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_verdict_and_witness_match_the_domination_lp(self, n, listed, seed, data):
        m = data.draw(st.integers(1, ITEMS[n]))
        rng = seeded_rng(seed)
        inst = pe_instance(rng, n, m, listed)
        for p in pe_lotteries(rng, inst):
            assert_pe_witness_holds(p, inst)

    def test_seeded_instances_reach_both_verdicts_at_every_n(self):
        for n in range(1, 6):
            verdicts = set()
            for seed in range(12):
                rng = seeded_rng(100 * n + seed)
                inst = pe_instance(rng, n, ITEMS[n], seed % 2 == 1)
                verdicts.update(assert_pe_witness_holds(p, inst) for p in pe_lotteries(rng, inst))
            assert verdicts == {True, False}, n


def corrupted_program(monkeypatch, corrupt):
    """Route the weight program's optimum through ``corrupt(result, n)``."""
    solve = envy.solve_lp

    def solve_and_corrupt(lp):
        result = solve(lp)
        corrupt(result, lp.num_vars - 1)
        return result

    monkeypatch.setattr(envy, "solve_lp", solve_and_corrupt)


def zero_weight(result, n):
    # w_0 = z_0 + sigma becomes 0
    result.x_num[0] = -result.x_num[n]


def set_dual(values):
    def corrupt(result, n):
        result.__dict__["y_num"] = values(result.y_num)

    return corrupt


def seeded_verdicts(efficient):
    """Seeded (instance, lottery) pairs of one verdict, n = 1-5."""
    out = []
    for n in range(1, 6):
        for seed in range(6):
            rng = seeded_rng(100 * n + seed)
            inst = pe_instance(rng, n, ITEMS[n], seed % 2 == 1)
            out += [(inst, p) for p in pe_lotteries(rng, inst) if check_pareto_efficient(p, inst).ok == efficient]
    assert out
    return out


def test_corrupted_weight_from_the_program_raises(monkeypatch):
    cases = seeded_verdicts(efficient=True)
    corrupted_program(monkeypatch, zero_weight)
    for inst, p in cases:
        with pytest.raises(EngineInvariantError, match="weight witness failed"):
            check_pareto_efficient(p, inst)


@pytest.mark.parametrize(
    "values",
    [lambda y: [0] * len(y), lambda y: [-v for v in y[:-1]] + y[-1:]],
    ids=["zero", "negated"],
)
def test_corrupted_dual_that_is_no_lottery_raises(monkeypatch, values):
    cases = seeded_verdicts(efficient=False)
    corrupted_program(monkeypatch, set_dual(values))
    for inst, p in cases:
        with pytest.raises(EngineInvariantError, match="not a lottery over the frontier"):
            check_pareto_efficient(p, inst)


def test_corrupted_dual_on_a_worse_point_raises(monkeypatch):
    # all of the dual moved onto one frontier row whose point is worse than
    # the lottery for some player: that point mass does not dominate
    cases = []
    for inst, p in seeded_verdicts(efficient=False):
        own = own_utilities(p, fraction_kernel(inst))
        worse = [
            f for f, vec in enumerate(fraction_kernel(inst)["frontier_vectors"])
            if any(u < c for u, c in zip(vec, own))
        ]
        if worse:
            cases.append((inst, p, worse[0]))
    assert cases
    for inst, p, f in cases:
        with monkeypatch.context() as patch:
            corrupted_program(patch, set_dual(lambda y, f=f: [int(r == f) for r in range(len(y))]))
            with pytest.raises(EngineInvariantError, match="dominating witness failed"):
                check_pareto_efficient(p, inst)


class TestCertificate:
    def test_composition(self):
        inst = symmetric_instance()
        cert = certify(split_lottery(inst), inst, residual=F(0))
        assert isinstance(cert, Certificate)
        assert cert.ok and cert.ef_ok and cert.pe_ok
        assert cert.fixed_point_residual == 0

    def test_failing_sides_reported(self):
        inst = symmetric_instance()
        cert = certify(point_mass_on(inst, (0, 0)), inst)
        assert not cert.pe_ok
        assert cert.ef_ok  # identical empty bundles carry no envy
        assert not cert.ok
