"""Expected-utility analysis of a lottery: envy graph, EF check, PE check.

Each check builds its own view matrix (``expected_utility``, ints over one
denominator); envy edges compare those ints strictly (ties are non-envy).

Pareto efficiency is decided one of two ways.  Given a weight witness w with
every w_i > 0, it is an integer scan: every support allocation of the
lottery must reach the maximum w-welfare over all of the instance's own
vectors, and then a dominating lottery would have strictly larger w-welfare
than the maximum, which is impossible (Geoffrion 1968).  A failed witness
proves nothing, so that verdict carries no dominator.  With no witness, a
single exact LP decides: maximize the total slack by which another lottery
beats the current one player-by-player; the optimum is zero precisely when
no dominating lottery exists.  The LP has one column per vector of the
instance's Pareto frontier (``Instance.kernel``), not one per allocation:
any lottery can move its mass onto frontier vectors that weakly dominate its
own, so the optimum is the same.  Every negative LP answer carries a
witness, mapped back onto one allocation per frontier vector and
re-verified outside the LP.
"""

from __future__ import annotations

from fractions import Fraction
from graphlib import CycleError, TopologicalSorter
from operator import mul

from .errors import EngineInvariantError, MalformedInstanceError, PreconditionError
from .lp import OPTIMAL, LinearProgram, solve_lp
from .model import MixedAllocation, Value, _entries, _require_lottery_for, as_fraction, expected_utility
from .model import over_common_denominator


class EnvyGraph(Value):
    """Directed envy relation; each edge (envier, envied, margin) has margin > 0."""

    def __init__(self, n, edges):
        self.__dict__.update(n=n, edges=edges)


class EfCheck(Value):
    def __init__(self, ok, witness=None):
        self.__dict__.update(ok=ok, witness=witness)


class PeCheck(Value):
    """PE verdict: a re-verified ``dominator`` with its ``gains`` when the LP
    finds one, or the ``weight`` witness that proved efficiency."""

    def __init__(self, ok, dominator=None, gains=None, weight=None):
        self.__dict__.update(ok=ok, dominator=dominator, gains=gains, weight=weight)


class Certificate(Value):
    """Joint EF and PE verdict, with witnesses for whichever side fails."""

    def __init__(self, ef, pe, fixed_point_residual=None):
        self.__dict__.update(ef=ef, pe=pe, fixed_point_residual=fixed_point_residual)

    @property
    def ef_ok(self):
        return self.ef.ok

    @property
    def pe_ok(self):
        return self.pe.ok

    @property
    def ok(self):
        return self.ef.ok and self.pe.ok


def build_envy_graph(p, inst):
    """Edge (i, h) whenever i strictly prefers h's bundle stream to her own."""
    views, den = expected_utility(p, inst)
    edges = []
    for i, row in enumerate(views):
        own = row[i]
        for h, view in enumerate(row):
            if h != i and view > own:
                edges.append((i, h, Fraction(view - own, den)))
    return EnvyGraph(inst.n, tuple(edges))


def is_acyclic(graph):
    """Cycle check by ``graphlib``: (True, None) or (False, players-on-cycle).

    Each player on the cycle envies the next and the last envies the first;
    ``CycleError`` names the cycle that way with its first player repeated,
    and the repeat is dropped.
    """
    sorter = TopologicalSorter()
    for i, h, _ in graph.edges:
        sorter.add(h, i)
    try:
        sorter.prepare()
    except CycleError as exc:
        return False, tuple(exc.args[1][:-1])
    return True, None


def check_envy_free(p, inst):
    graph = build_envy_graph(p, inst)
    if not graph.edges:
        return EfCheck(True)
    worst = max(graph.edges, key=lambda e: (e[2], -e[0], -e[1]))
    return EfCheck(False, witness=worst)


def check_pareto_efficient(p, inst, weight=None):
    """Decide PE, by a weight witness when one is given, else by an LP.

    With ``weight``, a sequence of n rationals (else ``PreconditionError``),
    each > 0, the check scores w . u in integers (w over its common
    denominator, u the kernel's int points) for every distinct own vector of
    the instance, not only the frontier.  If every support allocation of p
    attains the maximum, p is efficient and the verdict carries the weight;
    otherwise it fails with no dominator: a failed witness proves nothing.
    On either path a lottery over another number of allocations than the
    instance has raises ``MalformedInstanceError``.

    Without a weight, the LP's variables are a lottery p' over the frontier
    vectors and slacks t_i >= 0 with the constraints sum p' = 1 and
    (own utility of p')_i >= (own utility of p)_i + t_i, every row built
    times the denominator of p's view matrix: all ints, the right-hand
    sides that matrix's diagonal, wrapped unchecked by ``LinearProgram._of``
    (see ``lp``).  The optimum, the sum of the t_i, is exactly 0 iff p is
    Pareto efficient, read as every t_i's int numerator in the verified
    optimum being 0; otherwise the optimal p', placed on the first member
    allocation of each vector, dominates and is returned after
    re-verification against the diagonal of its own view matrix.
    """
    if weight is not None:
        try:
            w = tuple(as_fraction(x) for x in _entries(weight, "weight witness"))
        except MalformedInstanceError as exc:
            raise PreconditionError(str(exc)) from exc
        return _check_weight_witness(p, inst, w)
    kernel = inst.kernel
    cols = len(kernel.frontier)
    n = inst.n
    views, den = expected_utility(p, inst)
    p_den = den // inst.utilities.scale  # frontier points are over the scale, views over den

    objective = (0,) * cols + (1,) * n
    rows = [((den,) * cols + (0,) * n, "=", den)]
    for i in range(n):
        row = tuple(point[i] * p_den for point in kernel.frontier)
        row += tuple(-den if t == i else 0 for t in range(n))
        rows.append((row, ">=", views[i][i]))
    result = solve_lp(LinearProgram._of(objective, tuple(rows)))
    if result.status != OPTIMAL:
        raise EngineInvariantError(f"domination program ended {result.status}")
    if not any(result.x_num[cols:]):
        return PeCheck(True)

    # zip stops before the slack variables t
    dominator = MixedAllocation.from_support(
        len(inst.allocations), zip((js[0] for js in kernel.members), result.solution)
    )
    better, den_b = expected_utility(dominator, inst)
    gains = tuple(Fraction(better[i][i] * den - views[i][i] * den_b, den * den_b) for i in range(n))
    if not (all(g >= 0 for g in gains) and any(gains)):
        raise EngineInvariantError("dominating witness failed re-verification")
    return PeCheck(False, dominator=dominator, gains=gains)


def _check_weight_witness(p, inst, w):
    if len(w) != inst.n:
        raise PreconditionError(f"weight witness has {len(w)} entries, instance has {inst.n} players")
    _require_lottery_for(p, inst)
    if any(x <= 0 for x in w):
        return PeCheck(False)
    ints = over_common_denominator(w)[0]
    best = max([sum(map(mul, ints, point)) for point in inst.kernel.points])
    own = inst.kernel.own_num
    for j in p.support():
        if sum([a * row[j] for a, row in zip(ints, own)]) != best:
            return PeCheck(False)
    return PeCheck(True, weight=w)


def certify(p, inst, residual=None, weight=None):
    """Full certificate: exact EF check plus PE check.

    PE is checked against ``weight`` when one is given (see
    ``check_pareto_efficient``), and by the domination LP otherwise.
    """
    return Certificate(
        ef=check_envy_free(p, inst),
        pe=check_pareto_efficient(p, inst, weight=weight),
        fixed_point_residual=residual,
    )
