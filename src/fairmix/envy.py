"""Expected-utility analysis of a lottery: envy graph, EF check, PE check.

Each check builds its own view matrix (``expected_utility``, ints over one
denominator); envy edges compare those ints strictly (ties are non-envy).

Pareto efficiency is decided one of two ways.  Given a weight witness w with
every w_i > 0, it is an integer scan: every support allocation of the
lottery must reach the maximum w-welfare over all of the instance's own
vectors, and then a dominating lottery would have strictly larger w-welfare
than the maximum, which is impossible (Geoffrion 1968).  A failed witness
proves nothing, so that verdict carries no dominator.  With no witness, one
exact LP searches for such a weight: a lottery is efficient iff some
strictly positive weight makes its own-utility vector welfare-maximal
(Geoffrion 1968; Isermann 1974).  The LP has one row per vector of the
instance's Pareto frontier (``Instance.kernel``), not one per allocation,
since the frontier weakly dominates every other vector, and every
right-hand side is 0 or 1, so it solves from the slack basis.  Either
answer carries a witness checked outside the LP: a positive optimum gives a
weight, re-checked by the integer scan above, and a zero optimum gives a
dual lottery over frontier vectors that dominates, mapped back onto one
allocation per vector and re-verified against the lottery's own views.
"""

from __future__ import annotations

from fractions import Fraction
from graphlib import CycleError, TopologicalSorter
from operator import mul

from .errors import EngineInvariantError, MalformedInstanceError, PreconditionError
from .lp import LinearProgram, solve_lp
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
    """PE verdict: the ``weight`` witness that proved efficiency, or, when
    the LP proves inefficiency, a re-verified ``dominator`` with its ``gains``."""

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

    Without a weight, the LP searches for one as w = z + sigma * 1 with
    z, sigma >= 0: maximize sigma subject to one row per frontier point u,
    sum_i a_i * z_i + (sum_i a_i) * sigma <= 0, that is w . (u - U) <= 0 for
    U the lottery's own utilities, and sum z + n * sigma <= 1.  Each a_i is
    the int u_i * p_den - views[i][i], the gap u_i - U_i times the
    denominator of p's view matrix, so the rows are ints over right-hand
    sides 0 and 1, stored as built by ``LinearProgram`` (see ``lp``).
    At an optimum sigma > 0, w is strictly positive and sums to 1, and it is
    returned as the verdict's weight once the witness scan above accepts it.
    At sigma = 0 the dual multipliers of the frontier rows, normalized, are
    a lottery over frontier points whose own utilities are at least U's,
    and in sum larger (a theorem of the alternative); placed on the first
    member allocation of each point, that dominator is returned with its
    gains after re-verification against the diagonal of its own view
    matrix.  A witness that fails its check raises ``EngineInvariantError``.
    """
    if weight is not None:
        try:
            w = tuple(as_fraction(x) for x in _entries(weight, "weight witness"))
        except MalformedInstanceError as exc:
            raise PreconditionError(str(exc)) from exc
        return _check_weight_witness(p, inst, w)
    kernel = inst.kernel
    n = inst.n
    views, den = expected_utility(p, inst)
    p_den = den // inst.utilities.scale  # frontier points are over the scale, views over den
    own = [views[i][i] for i in range(n)]

    rows = []
    for point in kernel.frontier:
        gaps = [u * p_den - v for u, v in zip(point, own)]
        rows.append(((*gaps, sum(gaps)), 0))
    rows.append(((1,) * n + (n,), 1))
    optimum = solve_lp(LinearProgram((0,) * n + (1,), tuple(rows)))
    x, d = optimum.x_num, optimum.d
    if x[n]:
        check = _check_weight_witness(p, inst, tuple(Fraction(z + x[n], d) for z in x[:n]))
        if not check.ok:
            raise EngineInvariantError("weight witness failed re-verification")
        return check

    dual = optimum.y_num[:-1]
    total = sum(dual)
    if total <= 0 or min(dual) < 0:
        raise EngineInvariantError("dual of the weight program is not a lottery over the frontier")
    pairs = sorted((js[0], Fraction(y, total)) for js, y in zip(kernel.members, dual) if y)
    dominator = MixedAllocation._of(len(inst.allocations), tuple(pairs))
    better, den_b = expected_utility(dominator, inst)
    gains = tuple(Fraction(better[i][i] * den - own[i] * den_b, den * den_b) for i in range(n))
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
    ``check_pareto_efficient``), and by the weight LP otherwise.
    """
    return Certificate(
        ef=check_envy_free(p, inst),
        pe=check_pareto_efficient(p, inst, weight=weight),
        fixed_point_residual=residual,
    )
