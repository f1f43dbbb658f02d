"""A lottery's views in the table's form, ints over one denominator, against Fractions.

``expected_utility`` returns an int matrix and its one denominator, and the
envy graph, the EF witness and the domination LP's gains are read from it.
A point mass has denominator 1 times the table's scale, where a slip in the
lottery's own denominator would not show, so these tests use lotteries with
denominators 2..7 and the benchmark's 48 certify lotteries, and compare
every value with a Fraction oracle built from the raw values through
``fraction_normalize``.  Both program-built LPs must reach the solver as pure
int programs.
"""

from fractions import Fraction

import pytest

from conftest import pinned_entries, pinned_instances, random_additive_instance, random_table_instance, seeded_rng
from fairmix import engine, envy
from fairmix.engine import find_fixed_point
from fairmix.envy import build_envy_graph, check_envy_free, check_pareto_efficient
from fairmix.model import MixedAllocation, expected_utility
from fairmix.serialize import load_mixed_allocation
from oracles import find_dominating_vertex_or_pair, fraction_normalize

F = Fraction


def oracle_views(p, inst):
    """views[i][h] in Fractions, summed over p's support from the raw values."""
    values = fraction_normalize(inst.utilities.raw_values)
    bundles = inst.allocations.bundles
    return [
        [sum((q * values[i][bundles[j][h]] for j, q in p.pairs), F(0)) for h in range(inst.n)]
        for i in range(inst.n)
    ]


def assert_matches_oracle(p, inst, complete=False):
    """Views, envy margins, the EF witness and a dominator's gains against the
    oracle; with ``complete`` (two players) the PE verdict too.  Returns it."""
    n = inst.n
    want = oracle_views(p, inst)
    views, den = expected_utility(p, inst)
    assert all(type(v) is int for row in views for v in row)
    assert [[F(v, den) for v in row] for row in views] == want
    edges = tuple(
        (i, h, want[i][h] - want[i][i]) for i in range(n) for h in range(n) if want[i][h] > want[i][i]
    )
    assert build_envy_graph(p, inst).edges == edges
    worst = max(edges, key=lambda e: (e[2], -e[0], -e[1]), default=None)
    assert check_envy_free(p, inst).witness == worst
    check = check_pareto_efficient(p, inst)
    if not check.ok:
        better = oracle_views(check.dominator, inst)
        gains = tuple(better[i][i] - want[i][i] for i in range(n))
        assert check.gains == gains
        assert all(g >= 0 for g in gains) and any(gains)
    if complete:
        assert check.ok == (find_dominating_vertex_or_pair(p, inst) is None)
    return check.ok


def lottery_over(rng, k, d):
    """A lottery on 2..d allocations whose probabilities are parts of d, each
    below d, so its common denominator is above 1."""
    size = rng.randint(2, min(d, k))
    cuts = sorted(rng.sample(range(1, d), size - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [d])]
    support = rng.sample(range(k), size)
    return MixedAllocation.from_support(k, {j: F(c, d) for j, c in zip(support, parts)})


@pytest.mark.parametrize("d", range(2, 8))
def test_lotteries_over_d_match_the_fraction_oracle(d):
    rng = seeded_rng(100 + d)
    verdicts = set()
    for n in (2, 2, 3):
        for build in (random_additive_instance, random_table_instance):
            inst = build(rng, n=n)
            for _ in range(3):
                p = lottery_over(rng, len(inst.allocations), d)
                assert expected_utility(p, inst)[1] > inst.utilities.scale
                verdicts.add(assert_matches_oracle(p, inst, complete=n == 2))
    assert False in verdicts


def certify_cases():
    """The certify set: (instance, lottery) for each of its 48 verify calls."""
    hard = pinned_instances("certify")
    return [
        (hard[e["hard"]], load_mixed_allocation({"support": e["support"]}, hard[e["hard"]]))
        for e in pinned_entries("certify")["lotteries"]
    ]


def test_certify_lotteries_match_the_fraction_oracle():
    cases = certify_cases()
    assert len(cases) == 48
    assert any(max(q.denominator for _, q in p.pairs) > 1 for _, p in cases)
    verdicts = [assert_matches_oracle(p, inst) for inst, p in cases]
    assert True in verdicts and False in verdicts


def is_int_program(lp):
    ints = [*lp.objective]
    for row, rhs in lp.constraints:
        ints += [*row, rhs]
    return all(type(x) is int for x in ints)


def test_program_built_lps_are_int_programs(monkeypatch):
    programs = {"engine": [], "envy": []}
    for name, module in (("engine", engine), ("envy", envy)):
        solve = module.solve_lp

        def keep(lp, solve=solve, seen=programs[name]):
            seen.append(lp)
            return solve(lp)

        monkeypatch.setattr(module, "solve_lp", keep)
    rng = seeded_rng(5)
    for _ in range(6):
        inst = random_additive_instance(rng, n=3)
        state, _ = find_fixed_point(inst)
        for d in (2, 3, 6):
            check_pareto_efficient(lottery_over(rng, len(inst.allocations), d), inst)
        check_pareto_efficient(state.p, inst)
    assert programs["engine"] and programs["envy"]
    for name, seen in programs.items():
        assert all(is_int_program(lp) for lp in seen), name
