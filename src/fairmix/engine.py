"""Welfare-envelope search for certified efficient envy-free lotteries.

The paper's weight map sends w to the projection of a corrected weight
vector: players who envy someone gain weight, players sitting on the best
bundle stream lose it.  A weight vector is a fixed point exactly when the
chosen lottery in P(w) is envy-free, and any lottery supported on the
w-welfare argmax with strictly positive w is automatically Pareto efficient,
so certified fixed points settle both properties at once.

The argmax scores only the instance's Pareto frontier (``Instance.kernel``):
with every w_i > 0 a weakly dominated own-utility vector never attains the
maximum.  The frontier is stored scaled to integers per player, and the
weights are scaled to integers with the same factors and one common
denominator, so every comparison is an exact int comparison.  The winning
vectors expand to all their member allocations, in ascending order.

The paper does not show that iterating the map converges, so the search
walks weight space directly, the same way for every n.  It enumerates, by
double description in exact integers, the vertices of the welfare envelope
{(w, t) : w in W, t >= w.u for every frontier vector u}.  The argmax set of
any weight is contained in that of some vertex, so scanning the vertices
with inclusion-maximal argmax sets is complete: exhausting the scan means
an invariant broke.  The map stays as a self-check on every candidate that
passes the envy screen: its residual and the paper's lemmas must agree with
the certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm

from .envy import certify
from .errors import ConfigurationError, EngineInvariantError, PreconditionError
from .lp import OPTIMAL, LinearProgram, project_onto_truncated_simplex, solve_lp
from .model import MixedAllocation, WeightVector, as_fraction, expected_utility, is_swappable

@dataclass(frozen=True)
class EngineConfig:
    """The weight floor: "auto" or an explicit positive rational."""

    epsilon: Fraction | str = "auto"

    def __post_init__(self):
        if self.epsilon != "auto":
            eps = as_fraction(self.epsilon)
            if eps <= 0:
                raise ConfigurationError("explicit floor must be positive")
            object.__setattr__(self, "epsilon", eps)


@dataclass(frozen=True)
class FixedPointState:
    """An answer; ``iteration`` is the 1-based scan position of its vertex."""

    p: MixedAllocation
    w: WeightVector
    residual: Fraction
    iteration: int


@dataclass(frozen=True)
class TraceRecord:
    """One scanned vertex: its scan position, weight, the support of the
    lottery chosen there, and the paper's map at it (residual, shares)."""

    iteration: int
    w: tuple
    support: tuple
    residual: Fraction
    nu: tuple


def _argmax_of(frontier, w):
    """Ascending indices of the allocations of maximum w-welfare.

    Frontier point f scores sum_i (w_i / scales[i]) * points[f][i], which is
    its exact welfare; multiplying every w_i / scales[i] by the lcm of their
    denominators makes each score an int without changing the order.
    """
    ratios = [wi / s for wi, s in zip(w.w, frontier.scales)]
    common = lcm(*(r.denominator for r in ratios))
    weights = [r.numerator * (common // r.denominator) for r in ratios]
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
    return _argmax_of(inst.kernel.frontier, w)


def select_p_in_P(w, inst, argmax=None):
    """Deterministic choice in P(w): minimize the maximum envy margin.

    Solves: min s over lotteries supported on the argmax set, where s bounds
    every pairwise margin (view of another player's stream minus own).  An
    optimum s <= 0 means the returned lottery is already envy-free.
    """
    if argmax is None:
        argmax = argmax_allocations(w, inst)
    k = len(inst.allocations)
    n = inst.n
    if n == 1 or len(argmax) == 1:
        return MixedAllocation.point_mass(k, argmax[0])

    q = len(argmax)
    own = inst.kernel.own
    zero = Fraction(0)
    objective = (zero,) * q + (Fraction(-1),)
    rows = [((Fraction(1),) * q + (zero,), "=", Fraction(1))]
    for i in range(n):
        for h in range(n):
            if h == i:
                continue
            coeffs = tuple(
                inst.value(i, inst.allocations[j].bundles[h]) - own[i][j] for j in argmax
            )
            rows.append((coeffs + (Fraction(-1),), "<=", zero))
    bounds = ((zero, None),) * q + ((None, None),)
    result = solve_lp(LinearProgram(objective=objective, constraints=tuple(rows), bounds=bounds))
    if result.status != OPTIMAL:
        raise EngineInvariantError(f"tie-breaking program ended {result.status}")
    # zip stops before the trailing envy-bound variable s
    return MixedAllocation.from_support(k, zip(argmax, result.solution))


def _views(p, inst):
    """views[i][h] = player i's expected value of player h's bundle stream."""
    return [
        [expected_utility(p, i, h, inst) for h in range(inst.n)]
        for i in range(inst.n)
    ]


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
    """Half the minimum mutual-envy margin ratio; 1 when no triple qualifies.

    A triple (i, h, j) qualifies when, inside allocation j, both i and h
    strictly prefer h's bundle to i's.  On swappable sets every qualifying
    ratio appears with its reciprocal, so the result is at most 1/2 whenever
    any triple qualifies.
    """
    best = None
    for a in inst.allocations:
        for i in range(inst.n):
            for h in range(inst.n):
                if h == i:
                    continue
                i_own = inst.value(i, a.bundles[i])
                i_other = inst.value(i, a.bundles[h])
                if i_own >= i_other:
                    continue
                h_own = inst.value(h, a.bundles[h])
                h_other = inst.value(h, a.bundles[i])
                if h_other >= h_own:
                    continue
                ratio = (i_other - i_own) / (h_own - h_other)
                if best is None or ratio < best:
                    best = ratio
    if best is None:
        return Fraction(1)
    rho = best / 2
    if rho <= 0:
        raise EngineInvariantError("gap constant must be positive")
    return rho


def choose_epsilon(rho, n, cfg):
    """Floor for the weight domain: auto takes rho^n/(2n), halving the bound.

    An explicit floor must stay strictly below rho^n/n and at most 1/n.
    """
    if rho <= 0:
        raise PreconditionError(f"gap constant must be positive, got {rho}")
    bound = rho**n / n
    if cfg.epsilon == "auto":
        return rho**n / (2 * n)
    eps = as_fraction(cfg.epsilon)
    if eps >= bound:
        raise ConfigurationError(f"floor {eps} is not below the envy-gap bound {bound}")
    if eps > Fraction(1, n):
        raise ConfigurationError(f"floor {eps} exceeds 1/{n}")
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


def find_fixed_point(inst, cfg=None, trace_sink=None):
    """Search for a certified efficient envy-free lottery.

    Scans the welfare-envelope vertices as described in the module
    docstring and returns ``(FixedPointState, Certificate)``; the state's
    ``iteration`` is the 1-based scan position of the answer.  The returned
    lottery always carries a fully verified certificate.  The scan is
    complete, so running out of vertices raises ``EngineInvariantError``.
    ``trace_sink``, if given, receives one ``TraceRecord`` per scanned vertex.
    """
    cfg = cfg or EngineConfig()
    _validate_for_search(inst)
    eps = choose_epsilon(compute_rho(inst), inst.n, cfg)
    hit = _fallback_search(inst, eps, trace_sink)
    if hit is None:
        raise EngineInvariantError(
            "every vertex of the welfare envelope was scanned without an envy-free lottery"
        )
    return hit


def _envelope_vertices(vectors, eps):
    """Vertices of {(w, t) : w in W, t >= w.u for every u in ``vectors``}, exactly.

    Returns ``(w, tight)`` pairs: a vertex weight and the ascending indices
    of the vectors of maximum w-welfare there.  Double description over
    primitive integer rays in homogeneous coordinates (x0, w_1..w_{n-1}, T),
    where w_n = x0 - sum of the others and T is t scaled by the lcm of the
    vectors' denominators.  The start is the simplicial cone of the n floor
    rows and the first vector's row (independent because eps < 1/n): its
    rays are the n corners of W and the recession direction (0, .., 0, 1).
    Each further row splits the rays by sign and joins every adjacent pair
    across the split, adjacency being the combinatorial test: no third ray
    is tight on every row the pair shares.  The rays with x0 > 0 at the end
    are the vertices, and the vector rows a ray is tight on are its argmax.
    """
    n = len(vectors[0])
    scale = lcm(*(x.denominator for vec in vectors for x in vec))
    num, den = eps.numerator, eps.denominator
    points = [[int(x * scale) for x in vec] for vec in vectors]
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
                if bin(common).count("1") < n - 1:
                    continue
                if any(z & common == common and z != zp and z != zn for z in masks):
                    continue
                ray = tuple(sp * b - sn * a for a, b in zip(rp, rn))
                kept.append((_primitive(ray), common | bit))
        rays = kept

    out = []
    for ray, tight in rays:
        if ray[0] == 0:
            continue
        head = [Fraction(x, ray[0]) for x in ray[1:n]]
        w = tuple(head) + (1 - sum(head),)
        out.append((w, tuple(f for f in range(len(vectors)) if tight >> (n + f) & 1)))
    return out


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
    for w, tight in _envelope_vertices(frontier.vectors, eps):
        weight_of.setdefault(sum(1 << f for f in tight), w)
    maximal = [
        (mask, w) for mask, w in weight_of.items()
        if not any(other != mask and other & mask == mask for other in weight_of)
    ]
    maximal.sort(key=lambda item: -bin(item[0]).count("1"))
    for position, (mask, w) in enumerate(maximal, 1):
        w = WeightVector(w, eps)
        amax = _argmax_of(frontier, w)
        tight = (frontier.members[f] for f in range(len(frontier)) if mask >> f & 1)
        if amax != tuple(sorted(chain.from_iterable(tight))):
            raise EngineInvariantError("welfare-envelope vertex disagrees with the argmax")
        p = select_p_in_P(w, inst, amax)
        views = _views(p, inst)
        envious = _max_envy(views) > 0
        if envious and trace_sink is None:
            continue
        nu, _, residual = _share_step(views, w)
        if trace_sink is not None:
            trace_sink.append(TraceRecord(position, w.w, p.support(), residual, nu))
        if envious:
            continue
        cert = certify(p, inst, residual=residual)
        if all(v >= eps for v in nu) and not cert.ef_ok:
            raise EngineInvariantError("corrected weights lie in the domain yet envy persists")
        if residual == 0 and not cert.ef_ok:
            raise EngineInvariantError("exact fixed point without envy-freeness")
        if not cert.pe_ok:
            raise EngineInvariantError("argmax-supported lottery failed the efficiency check")
        # no envy in the views gives nu == w, inside the domain, so the
        # first check has already made the certificate's EF side hold
        return FixedPointState(p=p, w=w, residual=residual, iteration=position), cert
    return None
