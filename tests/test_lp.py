"""Exact simplex kernel against hand cases, the vertex-enumeration oracle and
the Fraction simplex it replaced."""

import importlib.util
import os
import random
from fractions import Fraction
from itertools import chain
from math import lcm
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import additive_table, fraction_views, pinned_entries, seeded_rng
from fairmix import engine, envy, hard
from fairmix import lp as lp_module
from fairmix.errors import EngineInvariantError
from fairmix.hard import DisjointnessInput, verify_welfare_dichotomy
from fairmix.lp import LinearProgram, solve_lp
from fairmix.model import Instance, MixedAllocation, WeightVector, all_partitions_allocation_set
from oracles import OPTIMAL, UNBOUNDED, FractionResult, Program, brute_force_lp_max, dense_simplex, fraction_simplex
from oracles import satisfies
from test_golden import WORKLOADS, answers
from test_kernel import CASES, case_id, lotteries, make_instance, sample_weights, tie_weights
from test_table import fraction_select_rows, game_rows

F = Fraction


def as_fractions(t):
    """The optimal tableau ``t`` read as a reference simplex answers: its
    solution Fraction(v, t.d) and the objective value there."""
    x = tuple(F(v, t.d) for v in t.x_num)
    return FractionResult(OPTIMAL, x, sum(c * v for c, v in zip(t.lp.objective, x)))


def assert_solves_like(lp, want):
    """``solve_lp(lp)`` gives the reference answer ``want``: it raises where
    ``want`` is unbounded, and reads as ``want`` otherwise.  Returns ``want``."""
    if want.status == UNBOUNDED:
        with pytest.raises(EngineInvariantError, match="unbounded"):
            solve_lp(lp)
    else:
        assert as_fractions(solve_lp(lp)) == want
    return want


def test_simplex_vertex():
    lp = LinearProgram((1, 0), (((1, 1), 1),))
    assert as_fractions(solve_lp(lp)) == FractionResult(OPTIMAL, (F(1), F(0)), F(1))


def test_separable_box_optimum():
    # x <= 1/3 and y <= 1/2, each row times its denominator
    lp = LinearProgram((1, 1), (((3, 0), 1), ((0, 2), 1)))
    assert as_fractions(solve_lp(lp)).objective_value == F(5, 6)


def test_unbounded():
    # every program the package builds is bounded, so an unbounded end is
    # an internal error
    lp = LinearProgram((1,), ())
    with pytest.raises(EngineInvariantError, match="unbounded"):
        solve_lp(lp)


def test_free_variable():
    # a free x written as x+ - x-, two opposite-sign columns, in -2 <= x <= 3
    lp = LinearProgram((1, -1), (((1, -1), 3), ((-1, 1), 2)))
    assert as_fractions(solve_lp(lp)) == FractionResult(OPTIMAL, (F(3), F(0)), F(3))
    res = solve_lp(LinearProgram((-1, 1), lp.constraints))
    assert as_fractions(res) == FractionResult(OPTIMAL, (F(0), F(2)), F(2))


def test_upper_bound_only():
    lp = LinearProgram((1,), (((2,), 5),))
    assert as_fractions(solve_lp(lp)).objective_value == F(5, 2)


def test_degenerate_pivoting_terminates():
    # Beale's cycling example boxed by x_i <= 10, scaled to ints; value
    # cross-checked against the vertex oracle on the rational program
    rational = Program(
        (F(3, 4), -150, F(1, 50), -6),
        (
            ((F(1, 4), -60, F(-1, 25), 9), "<=", 0),
            ((F(1, 2), -90, F(-1, 50), 3), "<=", 0),
            ((0, 0, 1, 0), "<=", 1),
        )
        + tuple((tuple(int(j == i) for j in range(4)), "<=", 10) for i in range(4)),
    )
    lp, factor = int_program(rational, random.Random(0))
    res = as_fractions(solve_lp(lp))
    value, _ = brute_force_lp_max(rational)
    assert value == F(1, 20)
    assert res.objective_value == value * factor


def test_a_negative_right_hand_side_never_returns_an_optimum():
    # The slack basis is the only start: over a right-hand side < 0 it is
    # infeasible, and the substitution check refuses what the pivots reach.
    # For max -x with -x <= -1 the start, x = 0, is already optimal for the
    # cost row but breaks the row; for max x with x <= -2 the ratio test
    # pivots x in at -2.
    cases = [
        (LinearProgram((-1,), (((-1,), -1),)), "solution violates constraint"),
        (LinearProgram((1,), (((1,), -2),)), "solution has a negative variable"),
    ]
    for lp, message in cases:
        with pytest.raises(EngineInvariantError, match=message):
            solve_lp(lp)


def test_a_program_that_is_not_optimal_is_an_invariant_failure(monkeypatch):
    # Each of the package's three programs must end optimal.  Without its
    # rows each is unbounded (every objective has a positive entry): the
    # simplex then raises, and the caller returns nothing.
    inst = make_instance(3, 2, False, 0)
    eps = F(1, 4 * inst.n)
    argmax = tuple(range(len(inst.allocations)))
    p = MixedAllocation.point_mass(len(inst.allocations), 0)
    calls = [
        (engine, "tie-breaking", lambda: engine.select_p_in_P(WeightVector.uniform(inst.n, eps), inst, argmax)),
        (engine, "lowest-vertex", lambda: engine._lowest_vertex(inst.kernel.frontier, eps)),
        (envy, "weight", lambda: envy.check_pareto_efficient(p, inst)),
    ]
    for module, kind, call in calls:
        call()
        programs = []

        def unbounded(lp):
            programs.append(lp)
            return solve_lp(LinearProgram(lp.objective, ()))

        with monkeypatch.context() as patch:
            patch.setattr(module, "solve_lp", unbounded)
            with pytest.raises(EngineInvariantError, match="linear program is unbounded"):
                call()
        assert len(programs) == 1, kind


small_fraction = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def int_program(lp, rng):
    """``lp`` with each row and the objective times a positive int that clears
    their denominators, as the int rows of a ``LinearProgram``, the form the
    engine's and the verifier's programs take; and the objective's factor.
    Scaling moves no solution, and the optimal value by the factor."""
    rows = []
    for row, rel, rhs in lp.constraints:
        assert rel == "<=", rel
        factor = lcm(*(F(a).denominator for a in (*row, rhs))) * rng.randint(1, 3)
        rows.append((tuple(int(a * factor) for a in row), int(rhs * factor)))
    factor = lcm(*(F(c).denominator for c in lp.objective)) * rng.randint(1, 3)
    return LinearProgram(tuple(int(c * factor) for c in lp.objective), tuple(rows)), factor


def assert_solves_as_scaled(result, rational, factor):
    """``result``, the int program's ``FractionResult``, against
    ``fraction_simplex`` on the rational program it was scaled from: the
    same status and solution, and the value times the objective's factor."""
    want = fraction_simplex(rational)
    assert (result.status, result.solution) == (want.status, want.solution)
    if want.status == OPTIMAL:
        assert result.objective_value == want.objective_value * factor


@given(n=st.integers(2, 3), rows=st.data(), rng=st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_random_box_lps_match_vertex_oracle(n, rows, rng):
    # feasible at the origin, and each inequality also at the all-ones point
    # inside the [0, 2] box, whose upper sides are the trailing rows; an
    # equality through the origin is two opposite rows over 0
    anchor = (F(1),) * n
    n_le = rows.draw(st.integers(0, 3))
    n_eq = rows.draw(st.integers(0, 1))
    constraints = []
    for _ in range(n_le):
        row = tuple(rows.draw(small_fraction) for _ in range(n))
        slack = rows.draw(st.fractions(min_value=0, max_value=2, max_denominator=4))
        constraints.append((row, "<=", max(F(0), sum(a * v for a, v in zip(row, anchor))) + slack))
    for _ in range(n_eq):
        row = tuple(rows.draw(small_fraction) for _ in range(n))
        constraints.extend([(row, "<=", F(0)), (tuple(-a for a in row), "<=", F(0))])
    for i in range(n):
        constraints.append((tuple(int(j == i) for j in range(n)), "<=", 2))
    objective = tuple(rows.draw(st.integers(-3, 3)) for _ in range(n))
    rational = Program(objective, tuple(constraints))
    lp, factor = int_program(rational, rng)
    res = as_fractions(solve_lp(lp))
    assert satisfies(rational, res.solution)
    value, _ = brute_force_lp_max(rational)
    assert res.objective_value == value * factor


# --- the integer simplex against the Fraction simplex it replaced ---------
#
# ``fraction_simplex`` runs the same pivot rule on the rational tableau, so
# the two must agree on the whole result: an unbounded end, or the solution
# and value, not only the optimum.


def random_lp(rng):
    """A small rational program of <= rows over right-hand sides >= 0, so its
    int form solves from the slack basis; a fair share is unbounded.

    Each drawn variable becomes one column, two opposite-sign columns (a
    free variable, x+ - x-) or one column with a trailing <= row (an upper
    bound).  A row may repeat, doubled, one right-hand side in five is 0,
    so ratio ties and degenerate pivots occur, and one objective in ten is
    zero.
    """

    def rational():
        return F(rng.randint(-4, 4), rng.choice((1, 2, 3, 5, 7)))

    n = rng.randint(1, 4)
    rows = []
    for _ in range(rng.randint(0, 5)):
        coeffs = tuple(rational() if rng.random() < 0.75 else F(0) for _ in range(n))
        rows.append((coeffs, "<=", abs(rational()) if rng.random() < 0.8 else F(0)))
    if rows and rng.random() < 0.3:
        coeffs, _, rhs = rng.choice(rows)
        rows.append((tuple(2 * a for a in coeffs), "<=", 2 * rhs))
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
    return Program(columns(objective), tuple(rows))


@given(rng=st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_integer_simplex_matches_fraction_simplex(rng):
    rational = random_lp(rng)
    lp, factor = int_program(rational, rng)
    result = assert_solves_like(lp, fraction_simplex(lp))
    assert_solves_as_scaled(result, rational, factor)


def test_random_lps_cover_every_status():
    rng = random.Random(20)
    statuses = set()
    for _ in range(200):
        rational = random_lp(rng)
        lp, factor = int_program(rational, rng)
        result = assert_solves_like(lp, fraction_simplex(lp))
        assert_solves_as_scaled(result, rational, factor)
        statuses.add(result.status)
    assert statuses == {OPTIMAL, UNBOUNDED}


def assert_each_lp_matches_fraction_simplex(monkeypatch, module):
    seen = []

    def both(lp):
        result = solve_lp(lp)
        assert as_fractions(result) == fraction_simplex(lp)
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


def recorded_selects(monkeypatch):
    """Each tie-breaking program ``select_p_in_P`` solves, as (instance,
    ascending argmax, program, result, returned lottery)."""
    seen, solved = [], []
    solve, select = engine.solve_lp, engine.select_p_in_P

    def keep_lp(lp):
        solved.append((lp, solve(lp)))
        return solved[-1][1]

    def keep(w, inst, argmax=None):
        before = len(solved)
        p = select(w, inst, argmax)
        if len(solved) > before:
            amax = engine.argmax_allocations(w, inst) if argmax is None else tuple(sorted(set(argmax)))
            seen.append((inst, amax, *solved[-1], p))
        return p

    monkeypatch.setattr(engine, "solve_lp", keep_lp)
    monkeypatch.setattr(engine, "select_p_in_P", keep)
    return seen


def assert_game_value_is_the_least_largest_margin(inst, argmax, lp, result, p):
    # The program is the margin game: the reference margin rows times the
    # scale, shifted so that their least entry is 1, with x >= 0, C'x <= 1
    # and max sum x.  Its value 1/sum x* is the game's, so 1/sum x* - shift
    # is the least largest margin times the scale: it equals the returned
    # lottery's largest margin, recomputed from expected utilities, and the
    # optimum of the min-s program the engine solved before, sum p = 1 and
    # every margin <= s for a free s = s+ - s-.
    n, scale, q = inst.n, inst.utilities.scale, len(argmax)
    margins = fraction_select_rows(inst, argmax)
    rows, shift = game_rows(margins, scale)
    assert lp.objective == (1,) * q and lp.constraints == rows
    bound = 1 / as_fractions(result).objective_value - shift
    views = fraction_views(p, inst)
    assert bound == scale * max(views[i][h] - views[i][i] for i in range(n) for h in range(n) if h != i)
    min_s = Program(
        (0,) * q + (-1, 1),
        (((1,) * q + (0, 0), "=", 1), *((row + (-1, 1), "<=", 0) for row in margins)),
    )
    assert bound == -scale * fraction_simplex(min_s).objective_value


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_select_lp_split_bound_is_the_largest_envy_margin(case, monkeypatch):
    seen = recorded_selects(monkeypatch)
    inst = make_instance(*case)
    weights = sample_weights(inst, seeded_rng(7)) + tie_weights(inst, F(1, 4 * inst.n))
    for w in weights:
        engine.select_p_in_P(w, inst)
    if tie_weights(inst, F(1, 4 * inst.n)):
        assert seen
    for record in seen:
        assert_game_value_is_the_least_largest_margin(*record)


@pytest.mark.parametrize("workload", ("desk", "wide", "many", "envious"))
def test_pinned_select_lps_keep_the_min_max_margin(workload, tmp_path, monkeypatch):
    # every vertex the pinned sets scan gets the least largest margin it got
    # from the min-s program, so its verdict, envy-free or not, is unchanged
    seen = recorded_selects(monkeypatch)
    answers(workload, str(tmp_path))
    assert seen
    for record in seen:
        assert_game_value_is_the_least_largest_margin(*record)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_verify_rejects_a_corrupted_solution(case, monkeypatch):
    # Each select LP maximizes sum x under rows C'x <= 1 whose entries are
    # all >= 1, so some row is tight at the optimum: raising one numerator
    # breaks it, and so does a smaller D, while a larger D would still pass;
    # a D of 0 is not positive, and a negated numerator is a negative
    # variable.  The untouched optimum passes.
    verify = lp_module._verify
    optima = []

    def keep(lp, x_num, d):
        verify(lp, x_num, d)
        optima.append((lp, list(x_num), d))

    monkeypatch.setattr(lp_module, "_verify", keep)
    inst = make_instance(*case)
    weights = sample_weights(inst, seeded_rng(7)) + tie_weights(inst, F(1, 4 * inst.n))
    for w in weights:
        engine.select_p_in_P(w, inst)
    if tie_weights(inst, F(1, 4 * inst.n)):
        assert optima
    for optimum in optima:
        assert_corruptions_fail(verify, *optimum)


def assert_corruptions_fail(verify, lp, x_num, d):
    verify(lp, x_num, d)
    j = next(j for j, v in enumerate(x_num) if v)
    raised, negated = list(x_num), list(x_num)
    raised[j] += 1
    negated[j] = -negated[j]
    smaller = "not positive" if d == 1 else "violates"
    corruptions = [(raised, d, "violates"), (negated, d, "negative"), (x_num, d - 1, smaller)]
    for bad_num, bad_d, message in corruptions:
        with pytest.raises(EngineInvariantError, match=message):
            verify(lp, bad_num, bad_d)


def test_verify_rejects_a_zero_denominator(monkeypatch):
    # Each player values only their own item, so allocation a, which gives
    # them their own, has both margins at the least entry, and b, which
    # swaps the items, the largest.  Column a enters first, its every
    # shifted entry is 1, and that one pivot is optimal with D = 1: D - 1
    # is 0, which is not positive.
    verify = lp_module._verify
    optima = []
    monkeypatch.setattr(lp_module, "_verify", lambda *args: verify(*args) or optima.append(args))
    raw = [additive_table([F(1), F(0)]), additive_table([F(0), F(1)])]
    inst = Instance.build(raw, all_partitions_allocation_set(2, 2))
    a = inst.allocations.bundles.index((0b01, 0b10))
    b = inst.allocations.bundles.index((0b10, 0b01))
    assert a < b
    p = engine.select_p_in_P(WeightVector.uniform(2, F(1, 4)), inst, (a, b))
    assert p == MixedAllocation.point_mass(len(inst.allocations), a)
    ((lp, x_num, d),) = optima
    assert d == 1
    assert_corruptions_fail(verify, lp, x_num, d)


@pytest.mark.parametrize("case", CASES[::2], ids=case_id)
def test_domination_lps_match_fraction_simplex(case, monkeypatch):
    # the efficiency check's program, once the domination LP, is now the
    # slack-basis weight program
    seen = assert_each_lp_matches_fraction_simplex(monkeypatch, envy)
    inst = make_instance(*case)
    for p in lotteries(inst, seeded_rng(11)):
        envy.check_pareto_efficient(p, inst)
    assert seen


# --- the condensed tableau against the dense one it replaced --------------
#
# ``dense_simplex`` keeps every column of the tableau, basic ones included.
# The condensed tableau must make the same pivots, leaving and entering
# column by column, through the same pivot elements, to the same final d.


def log_pivots(patch):
    """Lists that, while ``patch`` holds, gain each pivot ``solve_lp`` makes,
    as (leaving column, entering column, new d), and the d of each optimum
    it verifies."""
    pivots, verified = [], []
    pivot, verify = lp_module._pivot, lp_module._verify

    def logged_pivot(rows, basis, cols, r, s, d):
        leaving, entering = basis[r], cols[s]
        p = pivot(rows, basis, cols, r, s, d)
        pivots.append((leaving, entering, p))
        return p

    def logged_verify(lp, x_num, d):
        verify(lp, x_num, d)
        verified.append(d)

    patch.setattr(lp_module, "_pivot", logged_pivot)
    patch.setattr(lp_module, "_verify", logged_verify)
    return pivots, verified


def assert_pivots_like_dense(lp):
    want, want_pivots, want_d = dense_simplex(lp)
    with pytest.MonkeyPatch.context() as patch:
        pivots, verified = log_pivots(patch)
        assert_solves_like(lp, want)
    assert pivots == want_pivots
    assert verified == ([] if want.status == UNBOUNDED else [want_d])
    return pivots


@given(rng=st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_condensed_tableau_pivots_as_the_dense_one(rng):
    assert_pivots_like_dense(int_program(random_lp(rng), rng)[0])


def test_int_programs_pivot_as_the_dense_one():
    # A degenerate pivot, on a row whose right-hand side is 0, leaves the
    # point where it is and is where Bland's rule and the ratio ties decide;
    # a pivot after it, and an unbounded column found after a pivot, are
    # where an indexing slip in the stored columns would hide, so each must
    # occur at least once.
    rng = random.Random(32)
    degenerate = chained = unbounded = 0
    for _ in range(300):
        rational = random_lp(rng)
        lp, factor = int_program(rational, rng)
        flat = []
        with pytest.MonkeyPatch.context() as patch:
            pivot = lp_module._pivot
            patch.setattr(lp_module, "_pivot", lambda tab, *args: flat.append(tab[-1][args[2]] == 0) or pivot(tab, *args))
            pivots = assert_pivots_like_dense(lp)
        degenerate += any(flat)
        chained += any(flat[:-1]) and len(pivots) > 1
        result = assert_solves_like(lp, fraction_simplex(lp))
        unbounded += result.status == UNBOUNDED and bool(pivots)
        assert_solves_as_scaled(result, rational, factor)
    assert degenerate and chained and unbounded, (degenerate, chained, unbounded)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_pinned_set_lps_pivot_as_the_dense_tableau(workload, tmp_path, monkeypatch):
    """Every LP that solving or verifying a pinned set runs, select,
    weight and lowest-vertex programs alike, pivots as the dense one."""
    seen = []
    for module in (engine, envy):
        monkeypatch.setattr(module, "solve_lp", lambda lp: seen.append(lp) or solve_lp(lp))
    answers(workload, str(tmp_path))
    monkeypatch.undo()
    assert seen
    pivoted = 0
    for lp in seen:
        pivoted += bool(assert_pivots_like_dense(lp))
    assert pivoted > 0


# --- the dual read from the final cost row ---------------------------------
#
# At an optimum of a program of <= rows over right-hand sides >= 0,
# ``Tableau.y_num`` over ``d`` is a dual solution of its integer form:
# y >= 0, A^T y >= c and b . y = c . x, each checked here in ints.


def dual_certifies(lp, x_num, y_num, d):
    """Whether y_num / d proves x_num / d optimal for ``lp``'s int rows."""
    objective, rows = lp.objective, lp.constraints
    if len(y_num) != len(rows) or any(v < 0 for v in y_num):
        return False
    for j, c in enumerate(objective):
        if sum(y * row[j] for y, (row, _) in zip(y_num, rows)) < c * d:
            return False
    return sum(y * b for y, (_, b) in zip(y_num, rows)) == sum(map(mul, objective, x_num))


def dual_corruptions(lp, y_num):
    """Changes to one entry of y_num that no dual check may accept: a nonzero
    entry negated, and an entry over a positive right-hand side raised by 1,
    which moves b . y off c . x."""
    rows = lp.constraints
    out = []
    j = next((j for j, v in enumerate(y_num) if v), None)
    if j is not None:
        out.append(y_num[:j] + [-y_num[j]] + y_num[j + 1 :])
    j = next((j for j, (_, b) in enumerate(rows) if b > 0), None)
    if j is not None:
        out.append(y_num[:j] + [y_num[j] + 1] + y_num[j + 1 :])
    return out


def assert_dual_certifies(lp):
    """Solve ``lp`` and check its dual exactly; each corruption of the dual
    must fail the same check.  Returns how many corruptions were tried."""
    result = solve_lp(lp)
    assert dual_certifies(lp, result.x_num, result.y_num, result.d)
    corruptions = dual_corruptions(lp, result.y_num)
    for bad in corruptions:
        assert not dual_certifies(lp, result.x_num, bad, result.d)
    return len(corruptions)


def test_seeded_slack_basis_duals_certify_the_optimum():
    rng = random.Random(41)
    optimal = corrupted = 0
    for _ in range(300):
        rational = random_lp(rng)
        lp, factor = int_program(rational, rng)
        result = assert_solves_like(lp, fraction_simplex(lp))
        assert_solves_as_scaled(result, rational, factor)
        if result.status == OPTIMAL:
            optimal += 1
            corrupted += assert_dual_certifies(lp)
            # another scaling of the same rows reads its own dual
            scaled, _ = int_program(rational, rng)
            corrupted += assert_dual_certifies(scaled)
    assert optimal >= 150 and corrupted >= optimal, (optimal, corrupted)


@pytest.fixture(scope="module")
def stage_times():
    """The stage harness, ``tools/stage_times.py``, as a module."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "stage_times.py")
    spec = importlib.util.spec_from_file_location("stage_times", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def captured_programs(stage_times):
    """Every program ``tools/stage_times.py`` captures on every pinned set, by LP stage."""
    return stage_times.capture(stage_times.SETS)


def test_pinned_sets_take_the_same_lp_work(stage_times, captured_programs):
    # the programs, their constraint-by-variable cells and the pivots of
    # solving them, by LP stage, over desk, wide, many, envious and certify:
    # a change to how a program is built or solved that moves any of them
    # moves this pin, on purpose
    work = {kind: (len(lps), *stage_times.lp_counts(lps).values()) for kind, lps in captured_programs.items()}
    assert work == {"lp_select": (141, 6204, 520), "lp_lowest": (156, 7273, 652), "lp_weight": (48, 288, 48)}


def test_captured_duals_certify_the_optimum(captured_programs):
    assert set(captured_programs) == {"lp_select", "lp_lowest", "lp_weight"}
    for kind, lps in captured_programs.items():
        assert lps, kind
        corrupted = sum(assert_dual_certifies(lp) for lp in lps)
        assert corrupted >= len(lps), kind


def dichotomy_programs(monkeypatch):
    """Every program the p = 3 dichotomy hands to ``solve_lp``, on each of the
    certify set's ``gen-hard`` strings."""
    seen = []
    for module in (engine, envy, hard):
        if hasattr(module, "solve_lp"):
            monkeypatch.setattr(module, "solve_lp", lambda lp: seen.append(lp) or solve_lp(lp))
    strings = pinned_entries("certify")["hard"]
    for p, x1, x2 in strings:
        verify_welfare_dichotomy(DisjointnessInput(p, tuple(map(int, x1)), tuple(map(int, x2))))
    return seen


def test_package_programs_need_no_phase_one(captured_programs, monkeypatch):
    # every program engine, envy and hard build starts at its slack basis,
    # the only start solve_lp has: int entries, rows (a, b) for a . x <= b
    # and right-hand sides b >= 0
    programs = [lp for lps in captured_programs.values() for lp in lps]
    dichotomy = dichotomy_programs(monkeypatch)
    assert dichotomy
    for lp in programs + dichotomy:
        assert type(lp) is LinearProgram and lp.num_vars > 0
        assert all(type(c) is int for c in lp.objective)
        for row, rhs in lp.constraints:
            assert type(rhs) is int and rhs >= 0
            assert len(row) == lp.num_vars and all(type(a) is int for a in row)


def test_fractional_objective_keeps_its_proportions():
    # Numerators alone would make x, y and z equally good and Bland's rule
    # would stop at x = 1; the objective scaled to ints, 10, 15, 6 times a
    # positive factor, picks y.
    rng = random.Random(5)
    rational = Program((F(1, 3), F(1, 2), F(1, 5)), (((1, 1, 1), "<=", 1),))
    lp, factor = int_program(rational, rng)
    res = as_fractions(solve_lp(lp))
    assert res == FractionResult(OPTIMAL, (F(0), F(1), F(0)), F(1, 2) * factor)
    assert_solves_as_scaled(res, rational, factor)
    rational = Program(rational.objective, rational.constraints + (((0, 1, 0), "<=", F(1, 2)),))
    lp, factor = int_program(rational, rng)
    assert as_fractions(solve_lp(lp)) == FractionResult(OPTIMAL, (F(1, 2), F(1, 2), F(0)), F(5, 12) * factor)


# --- the tight rows read from the tableau ----------------------------------
#
# A row's slack is 0 when it is nonbasic, or basic at value 0: ``tight``
# reads that from the basis and the right-hand side, with no pass over the
# rows, and must equal the rows that hold with equality when the solution
# is substituted into them.


def substitution_mask(t):
    """The rows a . x_num == b * d of ``t``'s program, bit i for row i."""
    rows = t.lp.constraints
    return sum(1 << i for i, (row, b) in enumerate(rows) if sum(map(mul, row, t.x_num)) == b * t.d)


def assert_tight_by_substitution(lp):
    """Solve ``lp`` and require ``tight`` to be the substitution mask;
    returns whether a slack is basic at 0 there, the degenerate case."""
    t = solve_lp(lp)
    assert t.tight == substitution_mask(t)
    ncols = lp.num_vars
    return any(c >= ncols and not b for b, c in zip(t.tab[-1], t.basis))


def test_tight_rows_are_the_rows_the_solution_meets(captured_programs):
    rng = random.Random(47)
    optimal = degenerate = 0
    for _ in range(300):
        lp, _ = int_program(random_lp(rng), rng)
        if fraction_simplex(lp).status == OPTIMAL:
            optimal += 1
            degenerate += assert_tight_by_substitution(lp)
    for lps in captured_programs.values():
        for lp in lps:
            degenerate += assert_tight_by_substitution(lp)
    # a tight row whose slack stays basic must occur, or a reader that
    # counts only the nonbasic slacks would pass
    assert optimal >= 150 and degenerate, (optimal, degenerate)
