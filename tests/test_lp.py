"""Exact simplex kernel against hand cases, the vertex-enumeration oracle and
the Fraction simplex it replaced."""

import random
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import seeded_rng
from fairmix import engine, envy
from fairmix.errors import MalformedLpError
from fairmix.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, LinearProgram, LpResult, solve_lp
from fairmix.model import expected_utility
from oracles import brute_force_lp_max, fraction_simplex, satisfies
from test_kernel import CASES, case_id, lotteries, make_instance, sample_weights, tie_weights

F = Fraction


def test_simplex_vertex():
    lp = LinearProgram(objective=(1, 0), constraints=((((1, 1)), "=", 1),))
    res = solve_lp(lp)
    assert res.status == OPTIMAL
    assert res.solution == (F(1), F(0))
    assert res.objective_value == F(1)


def test_contradictory_rows_infeasible():
    lp = LinearProgram(
        objective=(0,),
        constraints=(((1,), ">=", 2), ((1,), "<=", 1)),
    )
    assert solve_lp(lp).status == INFEASIBLE


def test_separable_box_optimum():
    lp = LinearProgram(
        objective=(1, 1),
        constraints=(((1, 0), "<=", F(1, 3)), ((0, 1), "<=", F(1, 2))),
    )
    res = solve_lp(lp)
    assert res.status == OPTIMAL
    assert res.objective_value == F(5, 6)


def test_unbounded():
    lp = LinearProgram(objective=(1,), constraints=())
    assert solve_lp(lp).status == UNBOUNDED


def test_free_variable():
    # a free x written as x+ - x-, two opposite-sign columns
    lp = LinearProgram(
        objective=(-1, 1),
        constraints=(((1, -1), ">=", 3),),
    )
    res = solve_lp(lp)
    assert res.status == OPTIMAL
    assert res.solution == (F(3), F(0))
    assert res.objective_value == F(-3)


def test_negative_rhs_orientation():
    lp = LinearProgram(objective=(-1,), constraints=(((-1,), "<=", -2),))
    res = solve_lp(lp)
    assert res.status == OPTIMAL
    assert res.solution == (F(2),)


def test_upper_bound_only():
    lp = LinearProgram(objective=(1,), constraints=(((1,), "<=", F(5, 2)),))
    res = solve_lp(lp)
    assert res.status == OPTIMAL
    assert res.objective_value == F(5, 2)


def test_redundant_equalities():
    lp = LinearProgram(
        objective=(1, 0),
        constraints=(((1, 1), "=", 1), ((1, 1), "=", 1), ((2, 2), "=", 2)),
    )
    res = solve_lp(lp)
    assert res.status == OPTIMAL
    assert res.objective_value == F(1)


def test_degenerate_pivoting_terminates():
    # Beale's cycling example boxed by x_i <= 10; value cross-checked
    # against the vertex oracle
    lp = LinearProgram(
        objective=(F(3, 4), -150, F(1, 50), -6),
        constraints=(
            ((F(1, 4), -60, F(-1, 25), 9), "<=", 0),
            ((F(1, 2), -90, F(-1, 50), 3), "<=", 0),
            ((0, 0, 1, 0), "<=", 1),
        )
        + tuple((tuple(int(j == i) for j in range(4)), "<=", 10) for i in range(4)),
    )
    res = solve_lp(lp)
    value, _ = brute_force_lp_max(lp)
    assert res.status == OPTIMAL
    assert res.objective_value == value == F(1, 20)


def test_dimension_mismatch():
    with pytest.raises(MalformedLpError):
        LinearProgram(objective=(1, 2), constraints=(((1,), "<=", 1),))


def test_unknown_relation():
    with pytest.raises(MalformedLpError):
        LinearProgram(objective=(1,), constraints=(((1,), "<", 1),))


@pytest.mark.parametrize(
    "objective, constraints",
    [
        ((1,), (((1,), "<="),)),
        ((1,), (((1,), "<=", 1, 2),)),
        ((1,), (5,)),
        ((1,), ((1, "<=", 1),)),
        ((1,), None),
        (5, ()),
    ],
    ids=[
        "two-entry-row",
        "four-entry-row",
        "non-sequence-constraint",
        "non-sequence-row",
        "none",
        "non-sequence-objective",
    ],
)
def test_malformed_program_shape_rejected(objective, constraints):
    with pytest.raises(MalformedLpError):
        LinearProgram(objective, constraints)


@pytest.mark.parametrize(
    "objective, constraints",
    [
        ((1,), (((1.5,), "<=", 1),)),
        ((1,), (((1,), "<=", None),)),
        ((1.5,), ()),
        ((1,), (((True,), "<=", 1),)),
        ((1,), ((("x",), "<=", 1),)),
    ],
    ids=["float-coefficient", "none-rhs", "float-objective", "bool-coefficient", "bad-string"],
)
def test_non_rational_entry_rejected(objective, constraints):
    with pytest.raises(MalformedLpError):
        LinearProgram(objective, constraints)


def test_empty_program_rejected():
    with pytest.raises(MalformedLpError):
        LinearProgram(objective=())


def test_solve_rejects_a_non_program():
    with pytest.raises(MalformedLpError, match="expected LinearProgram"):
        solve_lp(1)
    with pytest.raises(MalformedLpError):
        LinearProgram(objective=None, constraints=(((1,), "<=", 1),))


small_fraction = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@given(
    n=st.integers(2, 3),
    rows=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_random_box_lps_match_vertex_oracle(n, rows):
    # feasibility anchored at the all-ones point inside the [0,2] box, whose
    # upper sides are the trailing <= rows
    anchor = (F(1),) * n
    n_le = rows.draw(st.integers(0, 3))
    n_eq = rows.draw(st.integers(0, 1))
    constraints = []
    for _ in range(n_le):
        row = tuple(rows.draw(small_fraction) for _ in range(n))
        slack = rows.draw(st.fractions(min_value=0, max_value=2, max_denominator=4))
        constraints.append((row, "<=", sum(a * v for a, v in zip(row, anchor)) + slack))
    for _ in range(n_eq):
        row = tuple(rows.draw(small_fraction) for _ in range(n))
        constraints.append((row, "=", sum(a * v for a, v in zip(row, anchor))))
    for i in range(n):
        constraints.append((tuple(int(j == i) for j in range(n)), "<=", 2))
    objective = tuple(rows.draw(st.integers(-3, 3)) for _ in range(n))
    lp = LinearProgram(objective=objective, constraints=tuple(constraints))
    res = solve_lp(lp)
    assert res.status == OPTIMAL
    assert satisfies(lp, res.solution)
    value, _ = brute_force_lp_max(lp)
    assert res.objective_value == value


# --- the integer simplex against the Fraction simplex it replaced ---------
#
# ``fraction_simplex`` runs the same pivot rule on the rational tableau, so
# the two must agree on the whole result: status, solution and value, not
# only on the optimum.


def random_lp(rng):
    """A small LP mixing every row relation and sign of right-hand side; a
    fair share is infeasible or unbounded.

    Each drawn variable becomes one column, two opposite-sign columns (a
    free variable, x+ - x-) or one column with a trailing <= row (an upper
    bound), and one objective in ten is zero.
    """

    def rational():
        return F(rng.randint(-4, 4), rng.choice((1, 2, 3, 5, 7)))

    n = rng.randint(1, 4)
    rows = []
    for _ in range(rng.randint(0, 4)):
        coeffs = tuple(rational() if rng.random() < 0.75 else F(0) for _ in range(n))
        rows.append((coeffs, rng.choice(("<=", "=", ">=")), rational()))
    if rows and rng.random() < 0.3:
        coeffs, _, rhs = rng.choice(rows)
        rows.append((tuple(2 * a for a in coeffs), "=", 2 * rhs))
    objective = (F(0),) * n if rng.random() < 0.1 else tuple(rational() for _ in range(n))
    kinds = [rng.choice(("plain", "free", "capped")) for _ in range(n)]

    def columns(values):
        pairs = ((v, -v) if kind == "free" else (v,) for kind, v in zip(kinds, values))
        return tuple(chain.from_iterable(pairs))

    rows = [(columns(coeffs), rel, rhs) for coeffs, rel, rhs in rows]
    for i, kind in enumerate(kinds):
        if kind == "capped":
            unit = columns(tuple(F(int(j == i)) for j in range(n)))
            rows.append((unit, "<=", rng.choice((F(3), F(13, 6)))))
    return LinearProgram(objective=columns(objective), constraints=tuple(rows))


@given(rng=st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_integer_simplex_matches_fraction_simplex(rng):
    lp = random_lp(rng)
    assert solve_lp(lp) == fraction_simplex(lp)


def test_random_lps_cover_every_status():
    rng = random.Random(20)
    statuses = set()
    for _ in range(200):
        lp = random_lp(rng)
        result = solve_lp(lp)
        assert result == fraction_simplex(lp)
        statuses.add(result.status)
    assert statuses == {OPTIMAL, INFEASIBLE, UNBOUNDED}


def assert_each_lp_matches_fraction_simplex(monkeypatch, module):
    seen = []

    def both(lp):
        result = solve_lp(lp)
        assert result == fraction_simplex(lp)
        seen.append(lp)
        return result

    monkeypatch.setattr(module, "solve_lp", both)
    return seen


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_select_lps_match_fraction_simplex(case, monkeypatch):
    seen = assert_each_lp_matches_fraction_simplex(monkeypatch, engine)
    inst = make_instance(*case)
    weights = sample_weights(inst, seeded_rng(7)) + tie_weights(inst, F(1, 4 * inst.n))
    for w in weights:
        engine.select_p_in_P(w, inst)
    if tie_weights(inst, F(1, 4 * inst.n)):
        assert seen


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_select_lp_split_bound_is_the_largest_envy_margin(case, monkeypatch):
    # The envy bound s is the pair of columns s+ - s- after the lottery's q
    # columns; at the optimum it is minus the objective, and it equals the
    # returned lottery's largest margin, recomputed from expected utilities.
    results = []

    def keep(lp):
        results.append(solve_lp(lp))
        return results[-1]

    monkeypatch.setattr(engine, "solve_lp", keep)
    inst = make_instance(*case)
    n = inst.n
    weights = sample_weights(inst, seeded_rng(7)) + tie_weights(inst, F(1, 4 * n))
    for w in weights:
        before = len(results)
        p = engine.select_p_in_P(w, inst)
        if len(results) == before:
            continue
        result = results[-1]
        q = len(result.solution) - 2
        s = result.solution[q] - result.solution[q + 1]
        assert s == -result.objective_value
        views = expected_utility(p, inst)
        margins = [views[i][h] - views[i][i] for i in range(n) for h in range(n) if h != i]
        assert s == max(margins)


@pytest.mark.parametrize("case", CASES[::2], ids=case_id)
def test_domination_lps_match_fraction_simplex(case, monkeypatch):
    seen = assert_each_lp_matches_fraction_simplex(monkeypatch, envy)
    inst = make_instance(*case)
    for p in lotteries(inst, seeded_rng(11)):
        envy.check_pareto_efficient(p, inst)
    assert seen


# --- hand cases for the paths only the integer tableau has ----------------


def test_artificial_driven_out_through_negative_pivot():
    # After phase 1 the >= row reads 0 = 0 with its artificial basic at zero;
    # the first nonzero entry left in it is its surplus, -1, so the pivot
    # that drives the artificial out is negative and the tableau and its
    # denominator are negated.  Phase 2 then still has to bring y in.
    lp = LinearProgram(objective=(0, 1), constraints=(((1, 1), "=", 1), ((1, 1), ">=", 1)))
    res = solve_lp(lp)
    assert res == LpResult(OPTIMAL, (F(0), F(1)), F(1))
    assert res == fraction_simplex(lp)


def test_redundant_integer_equality_dropped_after_phase_one():
    lp = LinearProgram(
        objective=(1, 2, 3),
        constraints=(
            ((1, 1, 1), "=", 2),
            ((2, 2, 2), "=", 4),
            ((1, 0, 0), "<=", 1),
            ((0, 1, 1), ">=", 1),
        ),
    )
    res = solve_lp(lp)
    assert res == LpResult(OPTIMAL, (F(0), F(0), F(2)), F(6))
    assert res == fraction_simplex(lp)


def test_coprime_row_denominators_scale_per_row():
    # Rows scaled by 3, 7 and 11; with a zero objective the vertex returned
    # is the one phase 1 ends on, which depends on every phase-1 cost
    # keeping its weight 1/L relative to the others.
    lp = LinearProgram(
        objective=(0, 0, 0),
        constraints=(
            ((F(-1, 3), 0, 1), ">=", 1),
            ((0, 1, F(2, 7)), ">=", F(1, 7)),
            ((F(1, 11), 1, 0), "=", 1),
        ),
    )
    res = solve_lp(lp)
    assert res == LpResult(OPTIMAL, (F(11), F(0), F(14, 3)), F(0))
    assert res == fraction_simplex(lp)


def test_fractional_objective_keeps_its_proportions():
    # Numerators alone would make x, y and z equally good and Bland's rule
    # would stop at x = 1; the scaled costs 10, 15, 6 pick y.
    lp = LinearProgram(objective=(F(1, 3), F(1, 2), F(1, 5)), constraints=(((1, 1, 1), "<=", 1),))
    res = solve_lp(lp)
    assert res == LpResult(OPTIMAL, (F(0), F(1), F(0)), F(1, 2))
    assert res == fraction_simplex(lp)
    lp = LinearProgram(
        objective=(F(1, 3), F(1, 2), F(1, 5)),
        constraints=(((1, 1, 1), "<=", 1), ((0, 1, 0), "<=", F(1, 2))),
    )
    assert solve_lp(lp) == LpResult(OPTIMAL, (F(1, 2), F(1, 2), F(0)), F(5, 12))
