"""Exact rational linear programming and truncated-simplex projection.

A two-phase simplex with Bland's rule on a condensed tableau, sized for
desk-scale problems (tens of rows, hundreds of columns), run in Python ints
with no float and no Fraction inside the pivot loop.

Canonical form.  A program is max c . x over rows (a, rel, b) with every
x_j >= 0, and nothing else: no per-variable bounds and no change of
variables.  Column j of the tableau is x_j, and row r is constraint r,
negated when its right-hand side is negative, followed by one slack (<=),
one surplus and one artificial (>=) or one artificial (=).

Fraction-free tableau.  Each standard-form row is scaled to integers by the
lcm of its denominators, and its slack or artificial entry is reset to +-1:
that rescales a column which appears in this row only.  The phase-1 and
phase-2 reduced-cost rows ride along as two more integer rows, each scaled
by a positive constant (the lcm of the artificials' costs 1/L and the lcm
of the objective's denominators).  The tableau T holds the rational tableau
times one common denominator D > 0.  A pivot on (r, c) with p = T[r][c]
replaces every other row by (p * T[i] - T[i][c] * T[r]) // D and then sets
D = p (Edmonds 1967; Bareiss 1968).  The division is exact because every
entry is a subdeterminant of the scaled starting matrix.  A pivot that drives
an artificial out may be negative; the whole tableau and D are then negated.

Condensed columns.  A basic column is D times a unit vector, so the tableau
stores only the right-hand side and the nonbasic columns, each with its
original index (as lrs does; Avis 2000).  The start stores the program's
columns and the surpluses; the slacks of <= rows and the artificials are
basic.  A pivot on (r, c) updates the stored cells by the rule above, and
column c then becomes the leaving variable's: -T[i][c] off the pivot row
and the old D on it.  Bland's rule reads the original index, never the
stored position, so the pivots, the final D and the solution are the dense
tableau's; ``tests/oracles.py`` keeps the dense code to require that.

Same pivots as the rational tableau.  Scaling a row, a single-row column or
a cost row by a positive factor, and multiplying everything by D > 0, keeps
the sign of every entry and reduced cost.  It scales all ratios in one
column alike, so the ratio test (cross-multiplied) keeps its order and its
ties.  Bland's rule therefore enters and leaves the same columns as on the
rational tableau, and the basic solution rhs/D is the same rational point.
The same argument covers a caller's scaling: a program whose every row is
multiplied by one positive constant pivots as the original does and has the
same solution.  The engine and the verifier therefore build their programs
with every row times the utility table's scale, in the table's ints.
Every optimal result is re-checked by substitution, and status answers
carry no tolerance.

Trusted programs and the integer check.  ``LinearProgram(...)`` checks the
shape of a caller's program and coerces every entry to a Fraction.  The
engine and the verifier build their rows themselves, as table ints, and
wrap them with ``LinearProgram._of``, which skips both.  The optimum leaves
the tableau as int numerators over its final D > 0, and ``_verify``
substitutes those: every x_num_j >= 0 and every row a . x_num rel b * D,
exactly the check x_j >= 0 and a . x rel b on x = x_num / D, in ints for
an int program.  Only then are the Fractions of ``LpResult`` built, the
objective value as one ``Fraction(c . x_num, D)``.

Projection in integers.  ``project_onto_truncated_simplex`` checks and
coerces its input as rationals, then puts y and the floor over one
denominator L and runs Michelot's clamp loop (1986) on int numerators: with
f free coordinates every value is kept times f * L, so the common shift is
one int and every clamp test, the KKT audit and the sum check are int
comparisons.  Only the result is built as Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul

from .errors import (
    EmptyDomainError,
    EngineInvariantError,
    MalformedInstanceError,
    MalformedLpError,
    PreconditionError,
)
from .model import Value, _entries, _shown_rational, as_fraction, over_common_denominator

RELATIONS = ("<=", "=", ">=")

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


def _coefficient(value):
    """``as_fraction`` for program data: a non-rational entry is a ``MalformedLpError``."""
    try:
        return as_fraction(value)
    except MalformedInstanceError as exc:
        raise MalformedLpError(str(exc)) from exc


class LinearProgram(Value):
    """Maximize objective . x subject to rows (a, rel, b) and every x_j >= 0.

    The objective has one entry per variable and may not be empty; a
    feasibility question takes a zero objective.  A free variable is written
    as two columns x+ - x-.  The objective, ``constraints`` and every row a
    are tuples or lists, every constraint is a triple (a, rel, b), and every
    entry is rational (an int, a Fraction or a 'num/den' string); any other
    shape or entry is a ``MalformedLpError``.  Rows the program builds
    itself, as tuples in that canonical shape, enter through ``_of`` unchecked.
    """

    def __init__(self, objective, constraints=()):
        if not isinstance(objective, (tuple, list)) or not objective:
            raise MalformedLpError("the objective needs one entry per variable")
        obj = tuple(_coefficient(c) for c in objective)
        if not isinstance(constraints, (tuple, list)):
            raise MalformedLpError("the constraints must be a sequence of (a, rel, b) rows")
        rows = []
        for constraint in constraints:
            if not isinstance(constraint, (tuple, list)) or len(constraint) != 3:
                raise MalformedLpError(f"constraint {constraint!r} is not an (a, rel, b) triple")
            row, rel, rhs = constraint
            if rel not in RELATIONS:
                raise MalformedLpError(f"unknown relation {rel!r}")
            if not isinstance(row, (tuple, list)):
                raise MalformedLpError(f"constraint row {row!r} is not a sequence")
            row = tuple(_coefficient(a) for a in row)
            if len(row) != len(obj):
                raise MalformedLpError(
                    f"constraint row has {len(row)} entries, expected {len(obj)}"
                )
            rows.append((row, rel, _coefficient(rhs)))
        self.__dict__.update(objective=obj, constraints=tuple(rows))

    @property
    def num_vars(self):
        return len(self.objective)


class LpResult(Value):
    def __init__(self, status, solution=None, objective_value=None):
        self.__dict__.update(status=status, solution=solution, objective_value=objective_value)


def _pivot(rows, basis, cols, r, s, d):
    """Fraction-free pivot of a condensed tableau on row r and the nonbasic
    column at position s, over denominator d.

    Every other row becomes (p * row - row[s] * rows[r]) // d, where
    p = rows[r][s]; the division is exact because the results are again
    subdeterminants.  Position s then holds the leaving variable's column,
    which the dense tableau kept as d times a unit vector: -row[s] off the
    pivot row and d on it.  ``basis[r]`` and ``cols[s]`` swap, and p is
    returned as the new common denominator.
    """
    top = rows[r]
    p = top[s]
    for i, row in enumerate(rows):
        if i == r:
            continue
        f = row[s]
        if f:
            row = [(p * a - f * b) // d for a, b in zip(row, top)]
            row[s] = -f
            rows[i] = row
        elif p != d:
            rows[i] = [p * a // d for a in row]
    top[s] = d
    basis[r], cols[s] = cols[s], basis[r]
    return p


def _simplex(rows, basis, cols, d):
    """Minimize the cost carried in the last row; Bland's rule.

    ``rows[:len(basis)]`` are the constraint rows, each ending in its
    right-hand side; ``rows[-1]`` holds d times the nonbasic columns'
    reduced costs.  The entering column is the one of smallest original
    index ``cols[j]`` with a negative reduced cost.  Ratios compare by
    cross-multiplying, ties going to the smaller basic column.  Returns
    (status, d) with status "optimal" or "unbounded".  Mutates rows, basis
    and cols in place.
    """
    m = len(basis)
    while True:
        cost = rows[-1]
        enter = -1
        for j, c in enumerate(cols):
            if cost[j] < 0 and (enter < 0 or c < cols[enter]):
                enter = j
        if enter < 0:
            return OPTIMAL, d
        leave = -1
        for i in range(m):
            a = rows[i][enter]
            if a > 0:
                b = rows[i][-1]
                if leave < 0:
                    leave, best_a, best_b = i, a, b
                    continue
                lhs, rhs = b * best_a, best_b * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave, best_a, best_b = i, a, b
        if leave < 0:
            return UNBOUNDED, d
        d = _pivot(rows, basis, cols, leave, enter, d)


def _verify(lp, x_num, d):
    """Substitute the solution x_num / d, d > 0, into ``lp``: every x_num_j >= 0
    and every row a . x_num rel b * d, or ``EngineInvariantError``."""
    if d <= 0:
        raise EngineInvariantError("solution denominator is not positive")
    if any(v < 0 for v in x_num):
        raise EngineInvariantError("solution has a negative variable")
    for row, rel, rhs in lp.constraints:
        lhs = sum(map(mul, row, x_num))
        bound = rhs * d
        ok = lhs <= bound if rel == "<=" else lhs >= bound if rel == ">=" else lhs == bound
        if not ok:
            raise EngineInvariantError(f"solution violates constraint {rel} {rhs}")


def solve_lp(lp):
    """Exact two-phase simplex; the returned solution re-verifies by substitution."""
    if not isinstance(lp, LinearProgram):
        raise MalformedLpError(f"expected LinearProgram, got {type(lp).__name__}")

    ncols = lp.num_vars
    oriented = []
    for row, rel, rhs in lp.constraints:
        if rhs < 0:
            row = tuple(-a for a in row)
            rel = {"<=": ">=", ">=": "<=", "=": "="}[rel]
            rhs = -rhs
        oriented.append((row, rel, rhs))

    m = len(oriented)
    n_slack = sum(1 for _, rel, _ in oriented if rel != "=")
    n_surplus = sum(1 for _, rel, _ in oriented if rel == ">=")
    art_start = ncols + n_slack

    # Each row is scaled to integers by the lcm of its denominators; its
    # slack and artificial entries are then reset to +-1, which rescales
    # those columns by a positive factor (each appears in this row only).
    # The slacks of <= rows and the artificials start basic, so only the
    # program's columns and the surpluses of >= rows are stored.
    cols = list(range(ncols))
    rows = []
    basis = []
    art_rows = []
    slack_at = ncols
    art_at = art_start
    for coeffs, rel, rhs in oriented:
        nums, scale = over_common_denominator((*coeffs, rhs))
        row = nums[:ncols] + [0] * n_surplus + nums[ncols:]
        if rel == "<=":
            basis.append(slack_at)
        else:
            if rel == ">=":
                row[len(cols)] = -1
                cols.append(slack_at)
            basis.append(art_at)
            art_rows.append((row, scale))
            art_at += 1
        if rel != "=":
            slack_at += 1
        rows.append(row)

    # Phase-2 costs are 0 on every initial basic column, so the scaled cost
    # vector is already its own reduced-cost row.
    costs = over_common_denominator(lp.objective)[0]
    rows.append([-c for c in costs] + [0] * (n_surplus + 1))
    d = 1

    if art_rows:
        # A rescaled artificial costs 1/L for its row's scale L; the lcm of
        # those L makes the phase-1 costs integers, and pricing out the
        # basic artificials leaves minus the weighted sum of their rows.
        scale = lcm(*(s for _, s in art_rows))
        cost1 = [0] * len(rows[0])
        for row, s in art_rows:
            w = scale // s
            for j, a in enumerate(row):
                if a:
                    cost1[j] -= w * a
        rows.append(cost1)
        status, d = _simplex(rows, basis, cols, d)
        if status != OPTIMAL:
            raise EngineInvariantError("phase-1 objective is bounded below by zero")
        # the cost row's last entry is -d * scale * (sum of artificials)
        if rows.pop()[-1] < 0:
            return LpResult(INFEASIBLE)
        drop = []
        for i in range(m):
            if basis[i] >= art_start:
                row = rows[i]
                nonzero = [j for j, c in enumerate(cols) if c < art_start and row[j]]
                if not nonzero:
                    drop.append(i)
                    continue
                d = _pivot(rows, basis, cols, i, min(nonzero, key=cols.__getitem__), d)
                if d < 0:
                    rows = [[-a for a in row] for row in rows]
                    d = -d
        keep = [i for i in range(m) if i not in drop]
        live = [j for j, c in enumerate(cols) if c < art_start]
        basis = [basis[i] for i in keep]
        cols = [cols[j] for j in live]
        rows = [[rows[i][j] for j in live] + rows[i][-1:] for i in keep + [m]]
        m = len(basis)

    status, d = _simplex(rows, basis, cols, d)
    if status == UNBOUNDED:
        return LpResult(UNBOUNDED)

    x_num = [0] * ncols
    for i in range(m):
        if basis[i] < ncols:
            x_num[basis[i]] = rows[i][-1]
    _verify(lp, x_num, d)
    zero = Fraction(0)
    x = tuple(Fraction(v, d) if v else zero for v in x_num)
    return LpResult(OPTIMAL, x, Fraction(sum(map(mul, lp.objective, x_num)), d))


def project_onto_truncated_simplex(y, epsilon):
    """Euclidean projection onto {x : sum x = 1, x_i >= epsilon}.

    Active-set iteration: clamp violators to the floor, re-center the rest by
    a common shift, repeat.  The clamp set only grows, so at most n rounds.
    The KKT system is audited exactly before returning.  A ``y`` that is not
    a sequence, or a non-rational entry or floor, raises ``PreconditionError``.
    The iteration runs in ints (see the module docstring).
    """
    try:
        y = tuple(as_fraction(v) for v in _entries(y, "projection input"))
        eps = as_fraction(epsilon)
    except MalformedInstanceError as exc:
        raise PreconditionError(str(exc)) from exc
    n = len(y)
    if n == 0:
        raise PreconditionError("cannot project an empty vector")
    if eps <= 0:
        raise PreconditionError(f"floor must be positive, got {_shown_rational(eps)}")
    if eps.numerator * n > eps.denominator:
        raise EmptyDomainError(f"floor {_shown_rational(eps)} exceeds 1/{n}; the truncated simplex is empty")
    # y_i = a[i] / den and eps = e / den
    (*a, e), den = over_common_denominator(y + (eps,))
    total = sum(a)
    if total != den:
        raise PreconditionError(f"input sums to {_shown_rational(Fraction(total, den))}, expected exactly 1")

    clamped = set()
    while True:
        free = [i for i in range(n) if i not in clamped]
        if not free:
            raise EngineInvariantError("clamp set swallowed every coordinate")
        # over f * den: y_i is a[i] * f, the floor e * f, the shift lam one int
        f = len(free)
        floor = e * f
        shift = den - e * (n - f) - sum(a[i] for i in free)
        violators = [i for i in free if a[i] * f + shift < floor]
        if not violators:
            break
        clamped.update(violators)

    x = [floor if i in clamped else a[i] * f + shift for i in range(n)]
    for i in range(n):
        if i in clamped:
            if a[i] * f + shift > floor:
                raise EngineInvariantError("negative multiplier on a clamped coordinate")
        elif x[i] < floor:
            raise EngineInvariantError("free coordinate fell below the floor")
        if x[i] > max(a[i], e) * f:
            raise EngineInvariantError("projection exceeded the max{y_i, eps} bound")
    if sum(x) != den * f:
        raise EngineInvariantError("projection does not sum to one")
    return tuple(eps if i in clamped else Fraction(v, den * f) for i, v in enumerate(x))
