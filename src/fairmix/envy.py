"""Expected-utility analysis of a lottery: envy graph, EF check, PE check.

Each check builds its own view matrix (``expected_utility``, one integer
pass); envy edges compare it strictly and exactly (ties are non-envy).

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

from dataclasses import dataclass
from fractions import Fraction
from graphlib import CycleError, TopologicalSorter

from .errors import EngineInvariantError
from .lp import OPTIMAL, LinearProgram, solve_lp
from .model import MixedAllocation, as_fraction, expected_utility, over_common_denominator


@dataclass(frozen=True)
class EnvyGraph:
    """Directed envy relation; each edge (envier, envied, margin) has margin > 0."""

    n: int
    edges: tuple


@dataclass(frozen=True)
class EfCheck:
    ok: bool
    witness: tuple | None = None


@dataclass(frozen=True)
class PeCheck:
    """PE verdict: a re-verified ``dominator`` with its ``gains`` when the LP
    finds one, or the ``weight`` witness that proved efficiency."""

    ok: bool
    dominator: MixedAllocation | None = None
    gains: tuple | None = None
    weight: tuple | None = None


@dataclass(frozen=True)
class Certificate:
    """Joint EF and PE verdict, with witnesses for whichever side fails."""

    ef: EfCheck
    pe: PeCheck
    fixed_point_residual: Fraction | None = None

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
    edges = []
    for i, views in enumerate(expected_utility(p, inst)):
        own = views[i]
        for h, view in enumerate(views):
            if h != i and view > own:
                edges.append((i, h, view - own))
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

    With ``weight``, the check needs n entries, each > 0, and scores w . u
    in integers (w over its common denominator, u from the kernel's table)
    for every distinct own vector of the instance, not only the frontier.
    If every support allocation of p attains the maximum, p is efficient
    and the verdict carries the weight; otherwise it fails with no
    dominator, since a failed witness proves nothing.

    Without a weight, the LP's variables are a lottery p' over the frontier
    vectors and slacks t_i >= 0 with the constraints sum p' = 1 and
    (own utility of p')_i >= (own utility of p)_i + t_i, every row built
    times the table's scale, in the table's ints (see ``lp``); p's own
    utilities are the diagonal of its view matrix.  The optimum is exactly
    0 iff p is Pareto efficient; otherwise the optimal p', placed on the
    first member allocation of each vector, dominates and is returned after
    re-verification against the diagonal of its own view matrix.
    """
    if weight is not None:
        return _check_weight_witness(p, inst, tuple(as_fraction(x) for x in weight))
    frontier = inst.kernel.frontier
    cols = len(frontier)
    n = inst.n
    current = [views[i] for i, views in enumerate(expected_utility(p, inst))]

    scale = inst.utilities.scale
    objective = (0,) * cols + (1,) * n
    rows = [((scale,) * cols + (0,) * n, "=", scale)]
    for i in range(n):
        row = tuple(point[i] for point in frontier.points)
        row += tuple(-scale if t == i else 0 for t in range(n))
        rows.append((row, ">=", current[i] * scale))
    result = solve_lp(LinearProgram(objective=objective, constraints=tuple(rows)))
    if result.status != OPTIMAL:
        raise EngineInvariantError(f"domination program ended {result.status}")
    if result.objective_value == 0:
        return PeCheck(True)

    # zip stops before the slack variables t
    dominator = MixedAllocation.from_support(
        len(inst.allocations), zip((js[0] for js in frontier.members), result.solution)
    )
    better = [views[i] for i, views in enumerate(expected_utility(dominator, inst))]
    weak = all(b >= c for b, c in zip(better, current))
    strict = any(b > c for b, c in zip(better, current))
    if not (weak and strict):
        raise EngineInvariantError("dominating witness failed re-verification")
    return PeCheck(False, dominator=dominator, gains=tuple(b - c for b, c in zip(better, current)))


def _check_weight_witness(p, inst, w):
    if len(w) != inst.n or any(x <= 0 for x in w):
        return PeCheck(False)
    ints = over_common_denominator(w)[0]
    best = max(sum(a * b for a, b in zip(ints, point)) for point in inst.kernel.points)
    own = inst.kernel.own_num
    for j in p.support():
        if sum(a * row[j] for a, row in zip(ints, own)) != best:
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
