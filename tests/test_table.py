"""The integer utility table against the Fraction references it replaced.

``normalize_utilities`` rescales every player's raw values once, straight
into int numerators over one scale shared by all players;
``UtilityKernel`` builds the own-utility vectors and their Pareto frontier
from that table, and ``Instance.rho`` the envy-gap constant; the
tie-breaking and efficiency weight LPs build their rows from it, as the
Fraction rows times the table's scale (the tie-breaking LP's then shifted
so that their least entry is 1, the weight LP's frontier rows also times
the lottery's common denominator).
``tests/oracles.py`` keeps the Fraction versions, which read the raw
values, not the table under test; every quantity here must come out equal
to them.
"""

from fractions import Fraction
from math import lcm
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import additive_table, fraction_points
from fairmix import engine, envy
from fairmix.engine import argmax_allocations, compute_rho, find_fixed_point, select_p_in_P
from fairmix.envy import certify, check_pareto_efficient
from fairmix.errors import EngineInvariantError
from fairmix.hard import DisjointnessInput, build_hard_instance
from fairmix.model import (
    AllocationSet,
    Instance,
    MixedAllocation,
    PureAllocation,
    UtilityProfile,
    WeightVector,
    all_partitions_allocation_set,
    is_swappable,
    normalize_utilities,
    swap_closure,
)
from fairmix.serialize import dump_instance, load_instance
from oracles import fraction_kernel, fraction_normalize, fraction_rho

F = Fraction

# pairwise coprime, so that the players' own least denominators differ
DENOMINATORS = (1, 3, 7, 11)


def allocation_of(n, owners):
    bundles = [0] * n
    for item, owner in enumerate(owners):
        if owner:
            bundles[owner - 1] |= 1 << item
    return PureAllocation(tuple(bundles))


@st.composite
def instances(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 4 if n <= 2 else 3))
    value = st.builds(F, st.integers(0, 12), st.sampled_from(DENOMINATORS))
    raw = []
    for _ in range(n):
        kind = draw(st.sampled_from(("additive", "table", "constant")))
        if kind == "additive":
            raw.append(additive_table(draw(st.lists(value, min_size=m, max_size=m))))
        elif kind == "table":
            raw.append({mask: draw(value) for mask in range(1 << m)})
        else:
            level = draw(value)
            raw.append({mask: level for mask in range(1 << m)})
    if draw(st.booleans()):
        return Instance.build(raw, all_partitions_allocation_set(n, m))
    owners = st.lists(st.integers(0, n), min_size=m, max_size=m)
    listed = draw(st.lists(owners, min_size=1, max_size=5))
    return Instance.build(raw, swap_closure([allocation_of(n, o) for o in listed]))


def weights(n):
    eps = F(1, 4 * n)
    out = [WeightVector.uniform(n, eps)]
    out += [WeightVector(tuple(1 - (n - 1) * eps if t == c else eps for t in range(n)), eps) for c in range(n)]
    raw = [F(2 * t + 1, t + 3) for t in range(n)]
    out.append(WeightVector(tuple(eps + (1 - n * eps) * r / sum(raw) for r in raw), eps))
    return out


def dense_argmax(w, own):
    welfare = [sum(wi * row[j] for wi, row in zip(w.w, own)) for j in range(len(own[0]))]
    top = max(welfare)
    return tuple(j for j, v in enumerate(welfare) if v == top)


def fraction_select_rows(inst, argmax):
    values = fraction_normalize(inst.utilities.raw_values)
    rows = []
    for i in range(inst.n):
        for h in range(inst.n):
            if h != i:
                coeffs = tuple(
                    values[i][inst.allocations[j].bundles[h]] - values[i][inst.allocations[j].bundles[i]]
                    for j in argmax
                )
                rows.append(coeffs)
    return rows


def fraction_pe_rows(ref, p):
    """The efficiency weight LP's rows over the reference frontier: for each
    frontier vector u, the gaps u_i - U_i to the lottery's own utilities U
    and their sum, <= 0; then sum z + n * sigma <= 1, each as (a, b)."""
    n = len(ref["own"])
    current = [sum((q * ref["own"][i][j] for j, q in p.pairs), F(0)) for i in range(n)]
    rows = []
    for vec in ref["frontier_vectors"]:
        gaps = tuple(u - c for u, c in zip(vec, current))
        rows.append((gaps + (sum(gaps),), F(0)))
    rows.append(((F(1),) * n + (F(n),), F(1)))
    return rows


def times(row, scale):
    """A reference row multiplied by a positive int, as the LPs build theirs."""
    return tuple(a * scale for a in row)


def game_rows(margins, scale):
    """The tie-breaking program's rows from the reference margin rows: times
    the scale, then each entry raised by one shift, so the least is 1."""
    scaled = [times(row, scale) for row in margins]
    shift = 1 - min(map(min, scaled))
    return tuple((tuple(a + shift for a in row), 1) for row in scaled), shift


def assert_matches_fraction_reference(inst):
    kernel = inst.kernel
    ref = fraction_kernel(inst)
    normalized = fraction_normalize(inst.utilities.raw_values)
    scale = inst.utilities.scale
    assert scale == lcm(*(v.denominator for values in normalized for v in values.values()))
    for i, values in enumerate(normalized):
        assert inst.utilities.table[i] == {b: v * scale for b, v in values.items()}
    assert compute_rho(inst) == fraction_rho(inst)
    own = tuple(tuple(F(x, scale) for x in row) for row in kernel.own_num)
    assert own == ref["own"]
    assert fraction_points(kernel.points, scale) == ref["vectors"]
    assert fraction_points(kernel.frontier, scale) == ref["frontier_vectors"]
    assert kernel.members == ref["frontier_members"]
    for vec, point in zip(ref["frontier_vectors"], kernel.frontier):
        assert point == tuple(v * scale for v in vec)
    k = len(inst.allocations)
    uniform = MixedAllocation(k, [(j, F(1, k)) for j in range(k)])
    for p in (uniform, MixedAllocation.point_mass(k, k - 1)):
        with mock.patch.object(envy, "solve_lp", wraps=envy.solve_lp) as spy:
            check_pareto_efficient(p, inst)
        lp = spy.call_args.args[0]
        den = lcm(*(q.denominator for _, q in p.pairs)) * scale
        *frontier_rows, total_row = fraction_pe_rows(ref, p)
        assert list(lp.constraints[:-1]) == [(times(row, den), rhs * den) for row, rhs in frontier_rows]
        assert lp.constraints[-1] == total_row
    for w in weights(inst.n):
        amax = argmax_allocations(w, inst)
        assert amax == dense_argmax(w, ref["own"])
        with mock.patch.object(engine, "solve_lp", wraps=engine.solve_lp) as spy:
            select_p_in_P(w, inst, amax)
        if spy.call_args is not None:
            lp = spy.call_args.args[0]
            assert lp.objective == (1,) * len(amax)
            assert lp.constraints == game_rows(fraction_select_rows(inst, amax), scale)[0]


@given(instances())
@settings(max_examples=80, deadline=None)
def test_kernel_matches_fraction_reference(inst):
    assert_matches_fraction_reference(inst)


def test_coprime_denominators():
    # span 1 and minimum 0, so the normalized denominators are the raw ones
    raw = [{0: F(0), 1: F(1, d), 2: F(2, d), 3: F(1)} for d in (3, 7, 11)]
    inst = Instance.build(raw, all_partitions_allocation_set(3, 2))
    assert inst.utilities.scale == 3 * 7 * 11
    assert_matches_fraction_reference(inst)


def test_offset_and_common_factor_are_removed():
    # 2, 4, 6 rescale to 1, 3/2, 2: over span 4 the entries 4, 6, 8 share
    # 2, leaving player 0 over 2; player 1 lands on 4/3, 1, 5/3, 2, over 3
    raw = [{0: F(2), 1: F(4), 2: F(6), 3: F(4)}, {0: F(9, 2), 1: F(3), 2: F(6), 3: F(15, 2)}]
    inst = Instance.build(raw, all_partitions_allocation_set(2, 2))
    assert inst.utilities.scale == 6
    assert inst.utilities.table == ({0: 6, 1: 9, 2: 12, 3: 9}, {0: 8, 1: 6, 2: 10, 3: 12})
    assert_matches_fraction_reference(inst)


def test_constant_player_has_scale_one():
    # the constant player's values are all 1, over 1, so the shared scale
    # is the other player's least denominator alone
    raw = [{mask: F(5, 7) for mask in range(4)}, additive_table([F(1, 7), F(3, 11)])]
    inst = Instance.build(raw, all_partitions_allocation_set(2, 2))
    other = fraction_normalize(raw)[1]
    assert inst.utilities.scale == lcm(*(v.denominator for v in other.values()))
    assert set(inst.utilities.table[0].values()) == {inst.utilities.scale}
    assert_matches_fraction_reference(inst)


def test_list_that_needed_closing():
    listed = [PureAllocation((0b001, 0b010, 0)), PureAllocation((0b100, 0, 0b011))]
    assert not is_swappable(AllocationSet(listed))[0]
    raw = [additive_table([F(1, 3), F(2, 7), F(5, 11)]), additive_table([F(3), F(1), F(1, 7)]), {m: F(m, 3) for m in range(8)}]
    inst = Instance.build(raw, swap_closure(listed))
    assert len(inst.allocations) > len(listed)
    assert_matches_fraction_reference(inst)


@pytest.mark.parametrize(
    "x2", [(1,) + (0,) * 9, (0, 1) + (0,) * 8], ids=["intersecting", "disjoint"]
)
def test_p3_hard_instances(x2):
    inst = build_hard_instance(DisjointnessInput(3, (1,) + (0,) * 9, x2))
    assert len(inst.allocations) == 729
    assert_matches_fraction_reference(inst)


def test_nonpositive_rho_is_an_invariant_failure(monkeypatch):
    inst = Instance.build([{0: 1, 1: 2}, {0: 1, 1: 2}], all_partitions_allocation_set(2, 1))
    monkeypatch.setattr(Instance, "rho", property(lambda self: F(0)))
    with pytest.raises(EngineInvariantError, match="gap constant"):
        compute_rho(inst)


def three_player_instance():
    raw = [additive_table([F(1, 3), F(2), F(5, 7)]), additive_table([F(3), F(1), F(1, 7)]), {m: F(m, 3) for m in range(8)}]
    return Instance.build(raw, all_partitions_allocation_set(3, 3))


def hard_p2_instance():
    return build_hard_instance(DisjointnessInput(2, (1, 0, 0), (0, 1, 0)))


@pytest.mark.parametrize("build", [three_player_instance, hard_p2_instance])
def test_solve_and_verify_never_build_the_fraction_view(build):
    # the raw values are the only Fraction form, built from the raw ints on
    # demand; with those emptied, any read of one by solve or verify raises KeyError
    inst = build()
    profile = inst.utilities
    bare = UtilityProfile(profile.table, profile.scale, tuple({} for _ in profile.table), profile.raw_den)
    inst = Instance(n=inst.n, m=inst.m, utilities=bare, allocations=inst.allocations)
    state, cert = find_fixed_point(inst)
    assert cert.ok
    assert certify(state.p, inst).ok


@pytest.mark.parametrize("build", [three_player_instance, hard_p2_instance])
def test_load_solve_and_verify_leave_raw_values_unbuilt(build):
    # the raw values' Fraction form is a cached property: only a read builds it
    inst = load_instance(dump_instance(build()))
    profile = inst.utilities
    assert "raw_values" not in profile.__dict__
    state, cert = find_fixed_point(inst)
    assert cert.ok and certify(state.p, inst).ok
    assert "raw_values" not in profile.__dict__
    assert normalize_utilities(profile.raw_values) == profile
    assert "raw_values" in profile.__dict__
