"""Exact rational linear programming and truncated-simplex projection.

A two-phase simplex with Bland's rule on a condensed tableau, sized for
desk-scale problems (tens of rows, hundreds of columns), run in Python ints
with no float and no Fraction inside the pivot loop.

Canonical form.  A program is max c . x over rows (a, rel, b) with every
x_j >= 0, and nothing else: no per-variable bounds and no change of
variables.  Column j of the tableau is x_j, and row r is constraint r,
negated when its right-hand side is negative, followed by one slack (<=),
one surplus and one artificial (>=) or one artificial (=).

Int programs in.  The solver reads a program's integer form: each row times
the lcm L of its denominators, its artificial's phase-1 cost 1/L times the
lcm of every L, and the objective times its own lcm.  ``LinearProgram(...)``
checks and coerces a caller's program and builds that form on its first
solve.  The engine and the verifier wrap their rows, in the utility table's
ints, with ``LinearProgram._of``: no checks, every weight 1.  All three of
their programs, the engine's tie-breaking game and lowest-vertex program
and the verifier's efficiency weight program, have only <= rows over
right-hand sides >= 0, so the slack basis is feasible: they build no
artificial and run no phase 1, which serves only programs that
``LinearProgram(...)`` built.

Fraction-free tableau.  The tableau T, its two cost rows included, holds
the rational tableau times one common denominator D > 0.  A pivot on (r, c)
with p = T[r][c] replaces every other row by (p * T[i] - T[i][c] * T[r]) // D
and sets D = p (Edmonds 1967; Bareiss 1968), exactly, since every entry is
a subdeterminant of the starting matrix.  A pivot that drives an artificial
out may be negative; the whole tableau and D are then negated.

Condensed columns.  A basic column is D times a unit vector, so the tableau
stores only the nonbasic columns, each with its original index (as lrs
does; Avis 2000), and the right-hand side, each as one int list over every
row: a pivot is one list comprehension per stored column, and the ratio
test reads two lists.  The start stores the program's columns and the
surpluses.  After a pivot on (r, c) column c is the leaving variable's:
-T[i][c] off row r and the old D in it.  Bland's rule reads the original
index, never the stored position, so the pivots, the final D and the
solution are the dense tableau's; ``tests/oracles.py`` keeps the dense code
to require that.

Same pivots as the rational tableau.  Scaling a row, a single-row column
(a slack, surplus or artificial is +-1) or a cost row by a positive factor,
and multiplying everything by D > 0, keeps the sign of every entry and
reduced cost and scales all ratios in one column alike, so Bland's rule and
the cross-multiplied ratio test enter and leave the same columns as on the
rational tableau, and rhs/D is the same point.  So a program whose rows are
all times one positive constant pivots as the original and has the same
solution.  The tie-breaking game's int rows are its rational rows, each
margin plus shift/scale over a right-hand side of 1/scale, times the
table's scale.

Int results out.  The optimum leaves the tableau as int numerators x_num
over its final D > 0, and ``_verify`` substitutes them into the int rows:
every x_num_j >= 0 and every row a . x_num rel b * D, exactly the check
x_j >= 0 and a . x rel b on x = x_num / D; no answer carries a tolerance.
The ``LpResult`` keeps ``x_num`` and ``d``, which the engine and the
verifier read, and builds its Fractions only when they are read.  It also
keeps the final tableau, so that a slack-basis program's dual can be read
from its cost row when asked (``y_num``); a caller that never asks pays
nothing.

Projection in integers.  ``project_onto_truncated_simplex`` checks and
coerces its input as rationals, then puts y and the floor over one
denominator L and runs Michelot's clamp loop (1986) on int numerators: with
f free coordinates every value is kept times f * L, so the common shift is
one int and every clamp test, the KKT audit and the sum check are int
comparisons.  Only the result is built as Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import mul

from .errors import (
    EmptyDomainError,
    EngineInvariantError,
    MalformedInstanceError,
    MalformedLpError,
    PreconditionError,
)
from .model import Value, _entries, _shown, as_fraction, over_common_denominator

RELATIONS = ("<=", "=", ">=")
_FLIPPED = {"<=": ">=", ">=": "<=", "=": "="}

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
    shape or entry is a ``MalformedLpError``.  Int rows the program builds
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
                raise MalformedLpError(f"constraint row has {len(row)} entries, expected {len(obj)}")
            rows.append((row, rel, _coefficient(rhs)))
        self.__dict__.update(objective=obj, constraints=tuple(rows))

    @classmethod
    def _of(cls, objective, constraints):
        """A program of int rows the package built: its own integer form."""
        out = super()._of(objective, constraints)
        out.__dict__["_ints"] = objective, 1, constraints, (1,) * len(constraints)
        return out

    @cached_property
    def _ints(self):
        """The integer form, built on first read: the objective's numerators
        and their lcm, the int rows and their phase-1 weights."""
        rows, dens = [], []
        for row, rel, rhs in self.constraints:
            (*nums, b), den = over_common_denominator((*row, rhs))
            rows.append((nums, rel, b))
            dens.append(den)
        top = lcm(*dens)
        return (*over_common_denominator(self.objective), rows, [top // den for den in dens])

    @property
    def num_vars(self):
        return len(self.objective)


class LpResult(Value):
    """A status and, at an optimum, the solution and objective value as
    Fractions.  An optimum ``solve_lp`` returns builds them on first read
    from ``x_num``, int numerators over the tableau's final ``d`` > 0, and
    reads the dual ``y_num``, over the same ``d``, only when asked."""

    def __init__(self, status, solution=None, objective_value=None):
        self.__dict__.update(status=status, solution=solution, objective_value=objective_value)

    @cached_property
    def solution(self):
        return tuple(Fraction(v, self.d) for v in self.x_num)

    @cached_property
    def objective_value(self):
        cost, scale = self._lp._ints[:2]
        return Fraction(sum(map(mul, cost, self.x_num)), scale * self.d)

    @cached_property
    def y_num(self):
        """The optimum's dual solution y >= 0 of the program's integer form,
        one int numerator over ``d`` per row, read from the final cost row:
        a stored slack column's entry is its row's dual times d, and a basic
        slack's dual is 0.  Defined for a program of <= rows over right-hand
        sides >= 0, which solves from the slack basis; any other program
        raises ``PreconditionError``."""
        rows = self._lp._ints[2]
        if not all(rel == "<=" and b >= 0 for _, rel, b in rows):
            raise PreconditionError("duals are read only from a program of <= rows over right-hand sides >= 0")
        ncols = self._lp.num_vars
        y = [0] * len(rows)
        for col, c in zip(self._tab, self._cols):
            if c >= ncols:
                y[c - ncols] = col[-1]
        return y

    def _key(self):
        return self.status, self.solution, self.objective_value


def _pivot(tab, basis, cols, r, s, d):
    """Fraction-free pivot of a condensed tableau on row r and the nonbasic
    column at position s, over denominator d.

    ``tab[j]`` is stored column j over every row and ``tab[-1]`` the
    right-hand side.  With p = tab[s][r], each other column, f its entry in
    row r, becomes (p * col - f * tab[s]) // d off row r, exactly, and keeps
    f in it.  Position s then holds the leaving variable's column, d times
    a unit vector before: -tab[s] off row r and d in it.  ``basis[r]`` and
    ``cols[s]`` swap, and p is returned as the new common denominator.
    """
    piv = tab[s]
    p = piv[r]
    for j, col in enumerate(tab):
        if j == s:
            continue
        f = col[r]
        if f:
            col = [(p * a - f * b) // d for a, b in zip(col, piv)]
            col[r] = f
            tab[j] = col
        elif p != d:
            tab[j] = [p * a // d for a in col]
    tab[s] = col = [-a for a in piv]
    col[r] = d
    basis[r], cols[s] = cols[s], basis[r]
    return p


def _simplex(tab, basis, cols, d):
    """Minimize the cost in the last row of ``tab``'s columns; Bland's rule.

    The entering column is the one of smallest original index ``cols[j]``
    with a negative cost.  Ratios over the constraint rows, the first
    ``len(basis)``, compare by cross-multiplying, ties going to the smaller
    basic column.  Returns (status, d) with status "optimal" or "unbounded".
    Mutates tab, basis and cols in place.
    """
    m = len(basis)
    while True:
        enter = -1
        for j, c in enumerate(cols):
            if tab[j][-1] < 0 and (enter < 0 or c < cols[enter]):
                enter = j
        if enter < 0:
            return OPTIMAL, d
        col, rhs = tab[enter], tab[-1]
        leave = -1
        for i in range(m):
            a = col[i]
            if a > 0:
                b = rhs[i]
                if leave < 0 or b * best_a < best_b * a or (b * best_a == best_b * a and basis[i] < basis[leave]):
                    leave, best_a, best_b = i, a, b
        if leave < 0:
            return UNBOUNDED, d
        d = _pivot(tab, basis, cols, leave, enter, d)


def _verify(lp, x_num, d):
    """Substitute the solution x_num / d, d > 0, into ``lp``'s int rows: every
    x_num_j >= 0 and every row a . x_num rel b * d, or ``EngineInvariantError``."""
    if d <= 0:
        raise EngineInvariantError("solution denominator is not positive")
    if any(v < 0 for v in x_num):
        raise EngineInvariantError("solution has a negative variable")
    for row, rel, rhs in lp._ints[2]:
        lhs, bound = sum(map(mul, row, x_num)), rhs * d
        ok = lhs <= bound if rel == "<=" else lhs >= bound if rel == ">=" else lhs == bound
        if not ok:
            raise EngineInvariantError(f"solution violates constraint {rel} {_shown(rhs, str)}")


def solve_lp(lp):
    """Exact two-phase simplex on ``lp``'s integer form; the returned optimum
    re-verifies by substitution and holds its solution as ints (``LpResult``)."""
    if not isinstance(lp, LinearProgram):
        raise MalformedLpError(f"expected LinearProgram, got {type(lp).__name__}")

    ncols = lp.num_vars
    objective, _, rows, weights = lp._ints
    art_start = ncols + sum(rel != "=" for _, rel, _ in rows)
    # The slacks of <= rows and the artificials start basic, so the stored
    # columns are the program's and the surpluses; an artificial costs its
    # row's weight in phase 1.
    m = len(rows)
    coeffs, rhs, basis, art_weights, surpluses = [], [], [], [], []
    cols = list(range(ncols))
    slack_at, art_at = ncols, art_start
    for r, ((row, rel, b), w) in enumerate(zip(rows, weights)):
        if b < 0:
            row, rel, b = [-a for a in row], _FLIPPED[rel], -b
        coeffs.append(row)
        rhs.append(b)
        art_weights.append(0 if rel == "<=" else w)
        basis.append(slack_at if rel == "<=" else art_at)
        if rel == ">=":
            surpluses.append([-(i == r) for i in range(m)])
            cols.append(slack_at)
        art_at += rel != "<="
        slack_at += rel != "="
    tab = [list(col) for col in zip(*coeffs)] if m else [[] for _ in range(ncols)]
    tab += surpluses
    tab.append(rhs)
    # phase-2 costs are 0 on the basic columns, so they are reduced costs
    for j, col in enumerate(tab):
        col.append(-objective[j] if j < ncols else 0)
    d = 1

    if art_at > art_start:
        # pricing out the basic artificials leaves minus the weighted row sum
        for col in tab:
            col.append(-sum(map(mul, art_weights, col)))
        status, d = _simplex(tab, basis, cols, d)
        if status != OPTIMAL:
            raise EngineInvariantError("phase-1 objective is bounded below by zero")
        # the cost row's right-hand side is -d times the weighted sum of the artificials
        if tab[-1][-1] < 0:
            return LpResult(INFEASIBLE)
        drop = []
        for i in range(m):
            if basis[i] >= art_start:
                nonzero = [j for j, c in enumerate(cols) if c < art_start and tab[j][i]]
                if not nonzero:
                    drop.append(i)
                    continue
                d = _pivot(tab, basis, cols, i, min(nonzero, key=cols.__getitem__), d)
                if d < 0:
                    tab = [[-a for a in col] for col in tab]
                    d = -d
        # row m holds the phase-2 costs; the phase-1 row, m + 1, goes
        keep = [i for i in range(m + 1) if i not in drop]
        live = [j for j, c in enumerate(cols) if c < art_start]
        basis = [basis[i] for i in keep[:-1]]
        cols = [cols[j] for j in live]
        tab = [[tab[j][i] for i in keep] for j in live + [len(tab) - 1]]

    status, d = _simplex(tab, basis, cols, d)
    if status == UNBOUNDED:
        return LpResult(UNBOUNDED)

    x_num = [0] * ncols
    for b, c in zip(tab[-1], basis):
        if c < ncols:
            x_num[c] = b
    _verify(lp, x_num, d)
    result = object.__new__(LpResult)
    result.__dict__.update(status=OPTIMAL, x_num=x_num, d=d, _lp=lp, _tab=tab, _cols=cols)
    return result


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
        raise PreconditionError(f"floor must be positive, got {_shown(eps, str)}")
    if eps.numerator * n > eps.denominator:
        raise EmptyDomainError(f"floor {_shown(eps, str)} exceeds 1/{n}; the truncated simplex is empty")
    # y_i = a[i] / den and eps = e / den
    (*a, e), den = over_common_denominator(y + (eps,))
    total = sum(a)
    if total != den:
        raise PreconditionError(f"input sums to {_shown(Fraction(total, den), str)}, expected exactly 1")

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
