"""Welfare-envelope search for certified efficient envy-free lotteries.

The paper's weight map sends w to the projection of a corrected weight
vector: players who envy someone gain weight, players sitting on the best
bundle stream lose it.  A weight vector is a fixed point exactly when the
chosen lottery in P(w) is envy-free, and any lottery supported on the
w-welfare argmax with strictly positive w is automatically Pareto efficient,
so certified fixed points settle both properties at once.

The argmax scores only the instance's Pareto frontier (``Instance.kernel``):
with every w_i > 0 a weakly dominated own-utility vector never attains the
maximum.  The frontier points are entries of the kernel's integer utility
table, over its one scale, and the weights are positive ints, a weight
vector times a positive constant; dropping both constants changes no
comparison, so every comparison is an exact int comparison.  The winning
vectors expand to all their member allocations, in ascending order.

The paper does not show that iterating the map converges, so the search
walks weight space directly, the same way for every n.  It enumerates, by
double description in exact integers, the vertices of the welfare envelope
{(w, t) : w in W, t >= w.u for every frontier vector u}, with int weights;
only scanned vertices get a ``WeightVector``.  The argmax set of any weight
is contained in that of some vertex, so scanning the vertices with
inclusion-maximal argmax sets is complete: exhausting the scan means an
invariant broke.  The map stays as a self-check on every candidate that
passes the envy screen: its residual and the paper's lemmas must agree with
the certificate.

The certificate's PE side takes the vertex weight as its witness: the
answer is supported on the w-argmax with every w_i >= eps > 0, so
``certify`` re-checks that by an integer scan over every own vector of the
instance instead of solving a domination LP.  A witness that fails the scan
is an invariant failure, like any other disagreement with the theory.

The weight floor eps is the search's one setting.  It must stay below
rho^n/n, where rho in (0, 1] is the instance's envy-gap constant, so it is
below 1/n; "auto" takes half that bound, and ``choose_epsilon`` checks an
explicit floor.

Each scanned vertex that reaches the paper's map is described by one
``FixedPointState``: the trace sink receives those states, and the answer
is the state of its vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd

from .envy import certify
from .errors import ConfigurationError, EngineInvariantError, MalformedInstanceError, PreconditionError
from .lp import OPTIMAL, LinearProgram, project_onto_truncated_simplex, solve_lp
from .model import MixedAllocation, WeightVector, as_fraction, expected_utility, is_int, is_swappable
from .model import over_common_denominator


@dataclass(frozen=True)
class FixedPointState:
    """One scanned vertex that reached the share step: the lottery chosen
    there, the vertex weight, the paper's map at it (residual and corrected
    weights ``nu``) and ``iteration``, its 1-based scan position.  The
    answer is the state of its vertex."""

    p: MixedAllocation
    w: WeightVector
    residual: Fraction
    iteration: int
    nu: tuple


def _argmax_of(frontier, weights):
    """Ascending indices of the allocations of maximum welfare under ``weights``.

    ``weights`` are positive ints, a weight vector times a positive
    constant.  Frontier point f scores sum_i weights_i * points[f][i], its
    exact welfare times the table's scale and that constant, so the int
    scores order the points as the exact welfare does.
    """
    best = None
    winners = []
    for f, point in enumerate(frontier.points):
        val = sum(a * b for a, b in zip(weights, point))
        if best is None or val > best:
            best = val
            winners = [f]
        elif val == best:
            winners.append(f)
    if len(winners) == 1:
        return frontier.members[winners[0]]
    return tuple(sorted(chain.from_iterable(frontier.members[f] for f in winners)))


def argmax_allocations(w, inst):
    """Indices of the allocations maximizing the w-weighted welfare, exactly."""
    return _argmax_of(inst.kernel.frontier, over_common_denominator(w.w)[0])


def select_p_in_P(w, inst, argmax=None):
    """Deterministic choice in P(w): minimize the maximum envy margin.

    Solves: min s over lotteries supported on the argmax set, where s bounds
    every pairwise margin (view of another player's stream minus own).  An
    optimum s <= 0 means the returned lottery is already envy-free.  The LP
    is canonical, so the free s is the last two columns, s = s+ - s-.  Every
    row is built times the table's scale, in the table's ints (see ``lp``).
    """
    if argmax is None:
        argmax = argmax_allocations(w, inst)
    k = len(inst.allocations)
    n = inst.n
    if n == 1 or len(argmax) == 1:
        return MixedAllocation.point_mass(k, argmax[0])

    q = len(argmax)
    kernel = inst.kernel
    scale = inst.utilities.scale
    objective = (0,) * q + (-1, 1)
    rows = [((scale,) * q + (0, 0), "=", scale)]
    for i in range(n):
        values, own = kernel.table[i], kernel.own_num[i]
        for h in range(n):
            if h == i:
                continue
            coeffs = tuple(values[kernel.bundles[j][h]] - own[j] for j in argmax)
            rows.append((coeffs + (-scale, scale), "<=", 0))
    result = solve_lp(LinearProgram(objective=objective, constraints=tuple(rows)))
    if result.status != OPTIMAL:
        raise EngineInvariantError(f"tie-breaking program ended {result.status}")
    # zip stops before the trailing envy-bound columns s+ and s-
    return MixedAllocation.from_support(k, zip(argmax, result.solution))


def _views(p, inst):
    """views[i][h] = player i's expected value of player h's bundle stream, by one
    ``expected_utility`` call, under the name ``bench/tracing.py`` binds."""
    return expected_utility(p, inst)


def _max_envy(views):
    n = len(views)
    worst = Fraction(-2)
    for i in range(n):
        for h in range(n):
            if h != i:
                worst = max(worst, views[i][h] - views[i][i])
    return worst


def _nu_from_views(views, w):
    n = len(views)
    best = [max(views[i]) for i in range(n)]
    own = [views[i][i] for i in range(n)]
    total_best = sum(best)
    total_own = sum(own)
    nu = tuple(w.w[i] + best[i] / total_best - own[i] / total_own for i in range(n))
    if sum(nu) != 1:
        raise EngineInvariantError("correction terms must conserve total weight")
    return nu


def _share_step(views, w):
    """Corrected weights, their projection onto W, and the L1 step between w and it."""
    nu = _nu_from_views(views, w)
    w_next = WeightVector(project_onto_truncated_simplex(nu, w.epsilon), w.epsilon)
    return nu, w_next, _l1(w_next.w, w.w)


def nu_update(p, w, inst):
    """Corrected weights: w_i plus best-view share minus own-view share.

    Both shares sum to one over the players, so the result sums to one.
    """
    return _nu_from_views(_views(p, inst), w)


def varpi(p, w, inst):
    """Projection of the corrected weights back onto the truncated simplex."""
    return _share_step(_views(p, inst), w)[1]


def compute_rho(inst):
    """The instance's envy-gap constant, ``Instance.kernel.rho``.

    Half the minimum mutual-envy margin ratio over every allocation and
    ordered player pair in which both players strictly prefer the second
    one's bundle; 1 when no such triple exists.  It is computed once per
    instance, in integers (see ``UtilityKernel.rho``).
    """
    rho = inst.kernel.rho
    if rho <= 0:
        raise EngineInvariantError("gap constant must be positive")
    return rho


def choose_epsilon(rho, n, epsilon="auto"):
    """Floor for the weight domain: "auto" takes rho^n/(2n), halving the bound.

    ``rho`` must be a rational (see ``as_fraction``) in (0, 1], as every
    swap-closed instance's is, or this raises ``PreconditionError``; it is
    coerced exactly, so the floor is always a Fraction.  An explicit floor
    is a rational and must be positive and strictly below rho^n/n, which is
    at most 1/n; otherwise this raises ``ConfigurationError``, or
    ``MalformedInstanceError`` when it is not a rational at all.
    """
    if not (is_int(n) and n >= 1):
        raise PreconditionError(f"player count must be an integer >= 1, got {n!r}")
    if epsilon != "auto":
        eps = as_fraction(epsilon)
        if eps <= 0:
            raise ConfigurationError("explicit floor must be positive")
    try:
        rho = as_fraction(rho)
    except MalformedInstanceError as exc:
        raise PreconditionError(f"gap constant must be rational, got {rho!r}") from exc
    if not 0 < rho <= 1:
        raise PreconditionError(f"gap constant must lie in (0, 1], got {rho}")
    bound = rho**n / n
    if epsilon == "auto":
        return rho**n / (2 * n)
    if eps >= bound:
        raise ConfigurationError(f"floor {eps} is not below the envy-gap bound {bound}")
    return eps


def _l1(a, b):
    return sum(abs(x - y) for x, y in zip(a, b))


def _validate_for_search(inst):
    ok, witness = is_swappable(inst.allocations)
    if not ok:
        j, g, h = witness
        raise PreconditionError(
            f"allocation set is not swappable: allocation {j} lacks the ({g},{h}) swap"
        )


def find_fixed_point(inst, epsilon="auto", trace_sink=None):
    """Search for a certified efficient envy-free lottery.

    Scans the welfare-envelope vertices as described in the module
    docstring and returns ``(FixedPointState, Certificate)``; the state's
    ``iteration`` is the 1-based scan position of the answer.  The returned
    lottery always carries a fully verified certificate.  The scan is
    complete, so running out of vertices raises ``EngineInvariantError``.
    ``epsilon`` is the weight floor, checked by ``choose_epsilon``.
    ``trace_sink``, if given, receives the ``FixedPointState`` of every
    scanned vertex, in scan order, the answer's last.
    """
    _validate_for_search(inst)
    eps = choose_epsilon(compute_rho(inst), inst.n, epsilon)
    hit = _fallback_search(inst, eps, trace_sink)
    if hit is None:
        raise EngineInvariantError(
            "every vertex of the welfare envelope was scanned without an envy-free lottery"
        )
    return hit


def _envelope_vertices(frontier, eps):
    """Vertices of {(w, t) : w in W, t >= w.u for every u in ``frontier``}, exactly.

    Returns ``(weights, tight)`` pairs: the vertex weight times x0 (below),
    as positive ints summing to x0, and the bitmask of the vectors of
    maximum welfare there (bit f for frontier vector f).
    Double description over primitive integer rays in homogeneous
    coordinates (x0, w_1..w_{n-1}, T), where w_n = x0 - sum of the others
    and T is t times the table's scale, over which the points are ints.  The
    start is the simplicial cone of the n floor rows and the first vector's
    row (independent because eps < 1/n): its rays are the n corners of W
    and the recession direction (0, .., 0, 1).  Each further row splits the
    rays by sign and joins every adjacent pair across the split, adjacency
    being the combinatorial test: no third ray is tight on every row the
    pair shares.  The rays with x0 > 0 at the end are the vertices, and the
    vector rows a ray is tight on are its argmax.
    """
    points = frontier.points
    n = len(points[0])
    num, den = eps.numerator, eps.denominator
    rows = []
    for i in range(n - 1):
        rows.append(tuple(-num if c == 0 else den if c == i + 1 else 0 for c in range(n + 1)))
    rows.append((den - num,) + (-den,) * (n - 1) + (0,))
    for u in points:
        rows.append((-u[-1],) + tuple(u[-1] - x for x in u[:-1]) + (1,))

    # corner i scaled by den: x0 = den, w_i = den - (n-1)*num, the others num
    corner = den - (n - 1) * num
    rays = []
    for i in range(n):
        w = [corner if c == i else num for c in range(n)]
        t = sum(a * b for a, b in zip(w, points[0]))
        tight = sum(1 << r for r in range(n) if r != i) | (1 << n)
        rays.append((_primitive((den, *w[:-1], t)), tight))
    rays.append(((0,) * n + (1,), (1 << n) - 1))

    for r in range(n + 1, len(rows)):
        row = rows[r]
        bit = 1 << r
        pos, neg, kept = [], [], []
        for ray, tight in rays:
            s = sum(a * b for a, b in zip(row, ray))
            if s > 0:
                pos.append((ray, tight, s))
                kept.append((ray, tight))
            elif s < 0:
                neg.append((ray, tight, s))
            else:
                kept.append((ray, tight | bit))
        if not neg:
            rays = kept
            continue
        masks = [tight for _, tight in rays]
        for rp, zp, sp in pos:
            for rn, zn, sn in neg:
                common = zp & zn
                if common.bit_count() < n - 1:
                    continue
                if any(z & common == common and z != zp and z != zn for z in masks):
                    continue
                ray = tuple(sp * b - sn * a for a, b in zip(rp, rn))
                kept.append((_primitive(ray), common | bit))
        rays = kept

    return [((*ray[1:n], ray[0] - sum(ray[1:n])), tight >> n) for ray, tight in rays if ray[0]]


def _primitive(ray):
    g = gcd(*ray)
    return tuple(x // g for x in ray) if g > 1 else ray


def _fallback_search(inst, eps, trace_sink=None):
    """Scan the welfare-envelope vertices with inclusion-maximal argmax sets.

    Every weight lies in the relative interior of a face of the envelope,
    and every vertex of that face has an argmax set containing the weight's
    own, so P(w) is inside P(vertex) and ``select_p_in_P`` there does at
    least as well on envy.  The scan is therefore complete: by the paper's
    existence theorem some maximal vertex yields an envy-free lottery.
    Returns ``(state, certificate)`` for the first one, or None.  The scan
    is the only search; it keeps the name ``bench/tracing.py`` binds.
    """
    frontier = inst.kernel.frontier
    weight_of = {}
    for weights, tight in _envelope_vertices(frontier, eps):
        weight_of.setdefault(tight, weights)
    maximal = [
        (mask, weights) for mask, weights in weight_of.items()
        if not any(other != mask and other & mask == mask for other in weight_of)
    ]
    maximal.sort(key=lambda item: -item[0].bit_count())
    for position, (mask, weights) in enumerate(maximal, 1):
        amax = _argmax_of(frontier, weights)
        tight = (frontier.members[f] for f in range(len(frontier)) if mask >> f & 1)
        if amax != tuple(sorted(chain.from_iterable(tight))):
            raise EngineInvariantError("welfare-envelope vertex disagrees with the argmax")
        total = sum(weights)
        w = WeightVector(tuple(Fraction(x, total) for x in weights), eps)
        p = select_p_in_P(w, inst, amax)
        views = _views(p, inst)
        envious = _max_envy(views) > 0
        if envious and trace_sink is None:
            continue
        nu, _, residual = _share_step(views, w)
        state = FixedPointState(p=p, w=w, residual=residual, iteration=position, nu=nu)
        if trace_sink is not None:
            trace_sink.append(state)
        if envious:
            continue
        cert = certify(p, inst, residual=residual, weight=w.w)
        if all(v >= eps for v in nu) and not cert.ef_ok:
            raise EngineInvariantError("corrected weights lie in the domain yet envy persists")
        if residual == 0 and not cert.ef_ok:
            raise EngineInvariantError("exact fixed point without envy-freeness")
        if not cert.pe_ok:
            raise EngineInvariantError("argmax-supported lottery failed the efficiency check")
        # no envy in the views gives nu == w, inside the domain, so the
        # first check has already made the certificate's EF side hold
        return state, cert
    return None
