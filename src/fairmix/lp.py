"""Exact linear programming from the slack basis, and truncated-simplex projection.

A simplex with Bland's rule on a condensed tableau, sized for desk-scale
problems (tens of rows, hundreds of columns), run in Python ints with no
float and no Fraction inside the pivot loop.

Slack-basis programs.  A program is max c . x over rows (a, b), each the
constraint a . x <= b, and every x_j >= 0, with int entries and every
right-hand side b >= 0, so x = 0 with every slack basic is a feasible
start: there is no phase 1.  The engine's tie-breaking game and
lowest-vertex program and the verifier's efficiency weight program all
have that form, in the utility table's ints, and all are bounded, so an
unbounded end is an internal error.  ``solve_lp`` takes them as a
``LinearProgram``, which stores the objective and rows as they are built,
with no checks.  A program outside that form is not served: a negative
right-hand side makes the start infeasible, and ``_verify`` refuses
whatever optimum the pivots reach from there.

Fraction-free tableau.  The tableau T, its cost row included, holds the
rational tableau times one common denominator D > 0.  A pivot on (r, c)
with p = T[r][c] > 0 replaces every other row by
(p * T[i] - T[i][c] * T[r]) // D and sets D = p (Edmonds 1967; Bareiss
1968), exactly, since every entry is a subdeterminant of the starting
matrix.

Condensed columns.  A basic column is D times a unit vector, so the tableau
stores only the nonbasic columns, each with its original index (as lrs
does; Avis 2000), and the right-hand side, each as one int list over every
row: a pivot is one list comprehension per stored column, and the ratio
test reads two lists.  The start stores the program's columns, and the
slacks are basic.  After a pivot on (r, c) column c is the leaving
variable's: -T[i][c] off row r and the old D in it.  Bland's rule reads the
original index, never the stored position, so the pivots, the final D and
the solution are the dense tableau's; ``tests/oracles.py`` keeps the dense
code to require that.

One leaving rule.  Ratio ties go by the lexicographic rule (Dantzig, Orden
and Wolfe 1955): each tied row is read with its row of B^-1, the slack
columns in row order, over its entering entry, and the lexicographically
least leaves.  Those rows are independent, so one row always wins, the
simplex cannot cycle, and from the slack basis every basis it reaches is
lex-feasible: a vertex of the program with every right-hand side b_i raised
by eps^(i+1), for every small eps > 0, which is a simple polytope.  A basic
slack's column is D times a unit vector, so only the stored slacks and the
tied rows' own slacks can tell two rows apart.  ``Tableau.pivot`` on the
row ``Tableau.leaving`` picks takes one such step from a returned tableau,
along an edge of that polytope.

Same pivots as the rational tableau.  Scaling a row, a slack column or the
cost row by a positive factor, and multiplying everything by D > 0, keeps
the sign of every entry and reduced cost and scales all ratios in one
column alike, and every entry of a slack column alike across the rows, so
Bland's rule and the lexicographic ratio test enter and leave the same
columns as on the rational tableau, and rhs/D is the same point.  So a
program whose rows are all times one positive constant pivots as the
original and has the same solution.  The tie-breaking game's int rows are
its rational rows, each margin plus shift/scale over a right-hand side of
1/scale, times the table's scale.

The optimal tableau out.  ``solve_lp`` returns the tableau it ends on, a
``Tableau``, with the optimum's int numerators x_num over its final D > 0,
which ``_verify`` has substituted into the int rows: every x_num_j >= 0
and every row a . x_num <= b * D, exactly the check x_j >= 0 and
a . x <= b on x = x_num / D; no answer carries a tolerance.  The rest is
read from the tableau when asked: the dual from its cost row (``y_num``)
and the tight rows from where the slacks stand (``tight``); a caller that
never asks pays nothing.

Projection in integers.  ``project_onto_truncated_simplex`` checks and
coerces its input as rationals, then puts y and the floor over one
denominator L and runs Michelot's clamp loop (1986) on int numerators: with
f free coordinates every value is kept times f * L, so the common shift is
one int and every clamp test, the KKT audit and the sum check are int
comparisons.  Only the result is built as Fractions.
"""

from fractions import Fraction
from functools import cached_property
from operator import mul

from .errors import EngineInvariantError, MalformedInstanceError, PreconditionError
from .model import Value, _entries, _shown, as_fraction, over_common_denominator


class LinearProgram(Value):
    """Maximize objective . x subject to rows a . x <= b and every x_j >= 0.

    The objective is a tuple of ints, one per variable, and ``constraints``
    a tuple of rows (a, b), each a a tuple of ints as long as the objective
    and each b an int >= 0: the slack-basis form ``solve_lp`` serves (see
    the module docstring).  The engine and the verifier build them; the
    program stores them as they are, with no checks.  It is kept as
    ``solve_lp``'s one argument because ``bench/tracing.py`` reads the
    ``constraints`` and ``num_vars`` of each program a solve is given.
    """

    def __init__(self, objective, constraints):
        self.__dict__.update(objective=objective, constraints=constraints)

    @property
    def num_vars(self):
        return len(self.objective)


class Tableau:
    """A lex-feasible condensed tableau, as ``solve_lp`` ends on it or
    ``pivot`` reaches it: the stored columns ``tab`` with the right-hand
    side last, the ``basis`` by row, the stored columns' original indices
    ``cols``, the common denominator ``d`` > 0 and the basic solution's int
    numerators ``x_num`` over ``d``, one per variable.  A condensed tableau
    stores one column per variable of the program, so with n =
    ``len(cols)``, original index j < n is x_j, and n + i is row i's
    slack."""

    def __init__(self, tab, basis, cols, d):
        self.tab, self.basis, self.cols, self.d = tab, basis, cols, d
        ncols = len(cols)
        self.x_num = x = [0] * ncols
        for b, c in zip(tab[-1], basis):
            if c < ncols:
                x[c] = b

    @cached_property
    def y_num(self):
        """The optimum's dual solution y >= 0, one int numerator over ``d``
        per row, read from the final cost row: a stored slack column's entry
        is its row's dual times d, and a basic slack's dual is 0."""
        ncols = len(self.cols)
        y = [0] * len(self.basis)
        for col, c in zip(self.tab, self.cols):
            if c >= ncols:
                y[c - ncols] = col[-1]
        return y

    @property
    def tight(self):
        """The rows whose slack is 0 at the solution, bit i for row i: every
        row but those whose slack is basic at a positive value, that is
        every row with a . x_num == b * d."""
        ncols = len(self.cols)
        mask = (1 << len(self.basis)) - 1
        for b, c in zip(self.tab[-1], self.basis):
            if b and c >= ncols:
                mask ^= 1 << (c - ncols)
        return mask

    def leaving(self, s):
        """The row that leaves when the stored column at position s enters
        (``_leaving``)."""
        return _leaving(self.tab, self.basis, self.cols, s, self.d)

    def pivot(self, r, s):
        """The tableau one pivot on row r and stored column s away.  ``_pivot``
        builds every column it changes anew, so this one is left as it is."""
        tab, basis, cols = list(self.tab), list(self.basis), list(self.cols)
        return Tableau(tab, basis, cols, _pivot(tab, basis, cols, r, s, self.d))


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


def _leaving(tab, basis, cols, s, d):
    """The row that leaves when the stored column at position s enters: the
    least ratio rhs_i / a_i over the constraint rows, the first
    ``len(basis)``, with a_i > 0, compared by cross-multiplying, and ties to
    the lexicographically least row of B^-1 over a_i (see the module
    docstring).  An entering column with no positive entry, an unbounded
    program, raises ``EngineInvariantError``: every program the package
    builds is bounded."""
    col, rhs = tab[s], tab[-1]
    leave = -1
    for i in range(len(basis)):
        a = col[i]
        if a > 0:
            b = rhs[i]
            if leave < 0:
                leave, best_a, best_b = i, a, b
                continue
            diff = b * best_a - best_b * a
            if diff < 0 or not diff and _lex_less(tab, basis, cols, d, i, a, leave, best_a):
                leave, best_a, best_b = i, a, b
    if leave < 0:
        raise EngineInvariantError("linear program is unbounded")
    return leave


def _lex_less(tab, basis, cols, d, i, a, h, b):
    """Whether row i of B^-1 over a is lexicographically less than row h
    over b.  Row r of B^-1 times d is the slack columns' entries in row r:
    a stored slack's, or d where the slack is basic in row r, else 0.  The
    rows are independent, so some slack tells them apart: the first one
    decides, a basic one of row i for row h and one of row h for row i."""
    ncols = len(cols)
    first, less = len(cols) + len(basis), None
    if basis[i] >= ncols:
        first, less = basis[i], False
    if ncols <= basis[h] < first:
        first, less = basis[h], True
    for col, c in zip(tab, cols):
        if ncols <= c < first:
            x, y = col[i] * b, col[h] * a
            if x != y:
                first, less = c, x < y
    return less


def _simplex(tab, basis, cols, d):
    """Minimize the cost in the last row of ``tab``'s columns; Bland's rule.

    The entering column is the one of smallest original index ``cols[j]``
    with a negative cost, and the leaving row is ``_leaving``'s.  Returns
    the final d.  Mutates tab, basis and cols in place.
    """
    while True:
        enter = -1
        for j, c in enumerate(cols):
            if tab[j][-1] < 0 and (enter < 0 or c < cols[enter]):
                enter = j
        if enter < 0:
            return d
        d = _pivot(tab, basis, cols, _leaving(tab, basis, cols, enter, d), enter, d)


def _verify(rows, x_num, d):
    """Substitute the solution x_num / d, d > 0, into the int ``rows``: every
    x_num_j >= 0 and every row a . x_num <= b * d, or ``EngineInvariantError``."""
    if d <= 0:
        raise EngineInvariantError("solution denominator is not positive")
    if any(v < 0 for v in x_num):
        raise EngineInvariantError("solution has a negative variable")
    for row, rhs in rows:
        if sum(map(mul, row, x_num)) > rhs * d:
            raise EngineInvariantError(f"solution violates constraint <= {rhs}")


def solve_lp(lp):
    """Exact simplex on ``lp``'s int rows from the slack basis; returns the
    optimal ``Tableau``, whose solution ``x_num`` is re-verified by
    substitution."""
    ncols, rows = lp.num_vars, lp.constraints
    # the slacks start basic, so the stored columns are the program's, each
    # with its cost -c_j, a reduced cost since the slacks cost 0
    columns = zip(*(row for row, _ in rows)) if rows else [()] * ncols
    tab = [[*col, -c] for col, c in zip(columns, lp.objective)]
    tab.append([*(b for _, b in rows), 0])
    basis = list(range(ncols, ncols + len(rows)))
    cols = list(range(ncols))
    optimum = Tableau(tab, basis, cols, _simplex(tab, basis, cols, 1))
    _verify(rows, optimum.x_num, optimum.d)
    return optimum


def project_onto_truncated_simplex(y, epsilon):
    """Euclidean projection onto {x : sum x = 1, x_i >= epsilon}.

    Active-set iteration: clamp violators to the floor, re-center the rest by
    a common shift, repeat.  The clamp set only grows, so at most n rounds.
    The KKT system is audited exactly before returning.  A ``y`` that is not
    a sequence of rationals summing to 1, or a floor that is not a rational
    in (0, 1/n], raises ``PreconditionError``.  The iteration runs in ints
    (see the module docstring).
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
        raise PreconditionError(f"floor {_shown(eps, str)} exceeds 1/{n}; the truncated simplex is empty")
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
