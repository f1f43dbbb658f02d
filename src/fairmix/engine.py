"""Fixed-point search for efficient envy-free lotteries.

The map under iteration sends weights w to the projection of a corrected
weight vector: players who envy someone gain weight, players sitting on the
best bundle stream lose it.  A weight vector is a fixed point exactly when
the chosen lottery in P(w) is envy-free, and any lottery supported on the
w-welfare argmax with strictly positive w is automatically Pareto efficient,
so certified fixed points settle both properties at once.

The argmax scores only the instance's Pareto frontier (``Instance.kernel``):
with every w_i > 0 a weakly dominated own-utility vector never attains the
maximum.  The frontier is stored scaled to integers per player, and the
weights are scaled to integers with the same factors and one common
denominator, so every comparison is an exact int comparison.  The winning
vectors expand to all their member allocations, in ascending order.

Iteration from the uniform weight is a heuristic with no convergence
guarantee; the fallback therefore walks weight space directly.  For two
players the candidate weights (welfare-tie breakpoints plus the interval
ends) are provably exhaustive: the argmax set of any weight is contained in
the argmax set of an adjacent candidate.  For three players the candidates
come from the facet structure of the convex hull of the own-utility vectors
(float-guided, then made exact), tie lines crossing the domain boundary, a
coarse grid, and a budgeted exact tie-intersection sweep; beyond three
players the grid and corners remain.  Failure to find a certified lottery
raises, and never claims non-existence.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations
from math import lcm

from .envy import certify
from .errors import (
    ConfigurationError,
    EngineInvariantError,
    PreconditionError,
    SearchFailedError,
)
from .lp import OPTIMAL, LinearProgram, project_onto_truncated_simplex, solve_lp
from .model import MixedAllocation, WeightVector, as_fraction, expected_utility, is_swappable

TIE_SYSTEM_BUDGET = 250_000


@dataclass(frozen=True)
class EngineConfig:
    """Search knobs; the defaults suit desk-scale instances."""

    max_iterations: int = 64
    residual_tolerance: Fraction = Fraction(1, 10**6)
    epsilon: Fraction | str = "auto"
    fallback: bool = True
    grid_resolution: int = 8
    jobs: int = 1  # accepted and validated; the search runs in one thread

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ConfigurationError("max_iterations must be at least 1")
        object.__setattr__(self, "residual_tolerance", as_fraction(self.residual_tolerance))
        if self.residual_tolerance < 0:
            raise ConfigurationError("residual_tolerance must be non-negative")
        if self.epsilon != "auto":
            eps = as_fraction(self.epsilon)
            if eps <= 0:
                raise ConfigurationError("explicit floor must be positive")
            object.__setattr__(self, "epsilon", eps)
        if self.grid_resolution < 1:
            raise ConfigurationError("grid_resolution must be at least 1")
        if self.jobs < 1:
            raise ConfigurationError("jobs must be at least 1")


@dataclass(frozen=True)
class FixedPointState:
    p: MixedAllocation
    w: WeightVector
    residual: Fraction
    iteration: int


@dataclass(frozen=True)
class TraceRecord:
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
    return MixedAllocation.from_support(
        k, {j: result.solution[pos] for pos, j in enumerate(argmax)}
    )


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


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def _grid_weights(n, eps, resolution):
    scale = 1 - n * eps
    for comp in _compositions(resolution, n):
        yield WeightVector(
            tuple(eps + scale * Fraction(c, resolution) for c in comp), eps
        )


def _corner_weights(n, eps):
    top = 1 - (n - 1) * eps
    for i in range(n):
        yield WeightVector(tuple(top if t == i else eps for t in range(n)), eps)


def _breakpoints_two_players(own, eps):
    """All welfare-tie points of the weight interval, plus its two ends.

    welfare_j(t) = t*own[0][j] + (1-t)*own[1][j] is a line in t = w_1; the
    argmax set changes only at pairwise intersections, and the argmax at an
    intersection contains the argmax on both sides, so these points witness
    every attainable argmax set.
    """
    k = len(own[0])
    lo, hi = eps, 1 - eps
    points = {lo, hi}
    for j, l in combinations(range(k), 2):
        slope = own[0][j] - own[1][j] - own[0][l] + own[1][l]
        if slope == 0:
            continue
        t = (own[1][l] - own[1][j]) / slope
        if lo < t < hi:
            points.add(t)
    for t in sorted(points):
        yield WeightVector((t, 1 - t), eps)


def _exact_hull_normals_3d(own, eps):
    """Candidate weights from hull facets of the own-utility point cloud.

    Facet triples come from a floating-point hull, but each normal is rebuilt
    exactly from the rational points, so every yielded weight is exact.  A
    normal leaving the domain is projected back as a further heuristic guess.
    """
    try:
        import numpy as np
        from scipy.spatial import ConvexHull
    except ImportError:  # geometry guidance is optional
        return
    k = len(own[0])
    if k < 4:
        return
    pts = [[own[i][j] for i in range(3)] for j in range(k)]
    cloud = np.array([[float(v) for v in row] for row in pts])
    hull = None
    for opts in (None, "QJ"):
        try:
            hull = ConvexHull(cloud, qhull_options=opts)
            break
        except Exception:
            continue
    if hull is None:
        return
    centroid = [sum(row[i] for row in pts) / k for i in range(3)]
    triples = sorted({tuple(sorted(map(int, s))) for s in hull.simplices})
    seen = set()
    for a, b, c in triples:
        u = [pts[b][i] - pts[a][i] for i in range(3)]
        v = [pts[c][i] - pts[a][i] for i in range(3)]
        normal = [
            u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0],
        ]
        if not any(normal):
            continue
        outward = sum(nv * (pa - cv) for nv, pa, cv in zip(normal, pts[a], centroid))
        for sign in ((1,) if outward > 0 else (-1,) if outward < 0 else (1, -1)):
            cand = tuple(sign * nv for nv in normal)
            total = sum(cand)
            if total <= 0 or any(v < 0 for v in cand):
                continue
            w = tuple(v / total for v in cand)
            if w in seen:
                continue
            seen.add(w)
            if all(v >= eps for v in w):
                yield WeightVector(w, eps)
            else:
                yield WeightVector(project_onto_truncated_simplex(w, eps), eps)


def _boundary_tie_points_3d(own, eps, pairs):
    """Weights on a floor edge (w_i = eps) where two allocations tie."""
    out = set()
    for j, l in pairs:
        d = [own[i][j] - own[i][l] for i in range(3)]
        for fixed in range(3):
            g, h = [t for t in range(3) if t != fixed]
            # w_g*d_g + w_h*d_h = -eps*d_fixed with w_g + w_h = 1 - eps
            slope = d[g] - d[h]
            if slope == 0:
                continue
            wg = (-eps * d[fixed] - d[h] * (1 - eps)) / slope
            wh = 1 - eps - wg
            if wg < eps or wh < eps:
                continue
            w = [Fraction(0)] * 3
            w[fixed] = eps
            w[g] = wg
            w[h] = wh
            out.add(tuple(w))
    for w in sorted(out):
        yield WeightVector(w, eps)


def _interior_tie_points_3d(own, eps, members, budget=TIE_SYSTEM_BUDGET):
    """Exact pairwise intersections of tie lines spanned by ``members``.

    Each pair of allocations defines a tie line in the weight plane; the
    crossing of two such lines is the 3x3 system {tie, tie, sum = 1}.  The
    sweep is capped: candidates beyond the budget are silently dropped, which
    can only cost completeness, never soundness.
    """
    members = sorted(members)
    lines = []
    seen_dirs = set()
    for j, l in combinations(members, 2):
        d = tuple(own[i][j] - own[i][l] for i in range(3))
        if not any(d):
            continue
        key = _normalize_direction(d)
        if key in seen_dirs:
            continue
        seen_dirs.add(key)
        lines.append(d)
    count = 0
    out = set()
    for d1, d2 in combinations(lines, 2):
        count += 1
        if count > budget:
            break
        det = (
            d1[0] * (d2[1] - d2[2])
            - d1[1] * (d2[0] - d2[2])
            + d1[2] * (d2[0] - d2[1])
        )
        if det == 0:
            continue
        # solve {d1.w = 0, d2.w = 0, sum w = 1} by Cramer's rule
        w0 = (d1[1] * d2[2] - d1[2] * d2[1]) / det
        w1 = (d1[2] * d2[0] - d1[0] * d2[2]) / det
        w2 = (d1[0] * d2[1] - d1[1] * d2[0]) / det
        w = (w0, w1, w2)
        if all(v >= eps for v in w):
            out.add(w)
    for w in sorted(out):
        yield WeightVector(w, eps)


def _normalize_direction(d):
    lead = next(v for v in d if v)
    return tuple(v / lead for v in d)


def _validate_for_search(inst):
    ok, witness = is_swappable(inst.allocations)
    if not ok:
        j, g, h = witness
        raise PreconditionError(
            f"allocation set is not swappable: allocation {j} lacks the ({g},{h}) swap"
        )


def find_fixed_point(inst, cfg=None, trace_sink=None):
    """Search for a certified efficient envy-free lottery.

    Phase one iterates the weight map from the uniform point; phase two walks
    candidate weights as described in the module docstring.  The returned
    lottery always carries a fully verified certificate.  Exhausting both
    phases raises a search failure carrying the least-envy candidate seen;
    existence is guaranteed in theory, so a failure indicates insufficient
    search effort, not an impossible instance.
    """
    cfg = cfg or EngineConfig()
    _validate_for_search(inst)
    n = inst.n
    kernel = inst.kernel
    rho = compute_rho(inst)
    eps = choose_epsilon(rho, n, cfg)
    best = {"envy": None, "state": None}

    def note_best(w, p, iteration, views, residual):
        envy = _max_envy(views)
        if best["envy"] is None or envy < best["envy"]:
            best.update(
                envy=envy,
                state=FixedPointState(p=p, w=w, residual=residual, iteration=iteration),
            )

    def consider(w, p, iteration, views=None):
        views = views if views is not None else _views(p, inst)
        nu, _, residual = _share_step(views, w)
        cert = certify(p, inst, residual=residual)
        if all(v >= eps for v in nu) and not cert.ef_ok:
            raise EngineInvariantError("corrected weights lie in the domain yet envy persists")
        if residual == 0 and not cert.ef_ok:
            raise EngineInvariantError("exact fixed point without envy-freeness")
        if not cert.pe_ok:
            raise EngineInvariantError("argmax-supported lottery failed the efficiency check")
        state = FixedPointState(p=p, w=w, residual=residual, iteration=iteration)
        if cert.ok:
            return state, cert
        note_best(w, p, iteration, views, residual)
        return None

    w = WeightVector.uniform(n, eps)
    visited = {w.w}
    iterations_done = 0
    for it in range(1, cfg.max_iterations + 1):
        iterations_done = it
        amax = _argmax_of(kernel.frontier, w)
        p = select_p_in_P(w, inst, amax)
        views = _views(p, inst)
        nu, w_next, residual = _share_step(views, w)
        if trace_sink is not None:
            trace_sink.append(TraceRecord(it, w.w, p.support(), residual, nu))
        if residual <= cfg.residual_tolerance:
            hit = consider(w, p, it, views)
            if hit:
                return hit
        else:
            note_best(w, p, it, views, residual)
        if w_next.w in visited:
            break
        visited.add(w_next.w)
        w = w_next

    if cfg.fallback:
        hit = _fallback_search(inst, kernel, eps, cfg, consider, note_best, iterations_done)
        if hit:
            return hit

    diagnostic = None
    if best["state"] is not None:
        diagnostic = certify(best["state"].p, inst, residual=best["state"].residual)
    raise SearchFailedError(
        "no certified envy-free efficient lottery found within the configured effort; "
        "this is a search failure, not evidence of non-existence",
        best_state=best["state"],
        best_certificate=diagnostic,
    )


def _fallback_search(inst, kernel, eps, cfg, consider, note_best, iteration):
    n = inst.n
    own = kernel.own
    seen_supports = set()
    tried_members = set()

    def scan(weights):
        for w in weights:
            amax = _argmax_of(kernel.frontier, w)
            tried_members.update(amax)
            key = frozenset(amax)
            if key in seen_supports:
                continue
            seen_supports.add(key)
            p = select_p_in_P(w, inst, amax)
            views = _views(p, inst)
            if _max_envy(views) > 0:
                _, _, residual = _share_step(views, w)
                note_best(w, p, iteration, views, residual)
                continue
            hit = consider(w, p, iteration, views)
            if hit:
                return hit
        return None

    stages = [iter((WeightVector.uniform(n, eps),))]
    if n > 1:
        stages.append(_corner_weights(n, eps))
    if n == 2:
        stages.append(_breakpoints_two_players(own, eps))
    elif n >= 3:
        stages.append(_grid_weights(n, eps, cfg.grid_resolution))
        if n == 3:
            stages.append(_exact_hull_normals_3d(own, eps))
    for source in stages:
        hit = scan(source)
        if hit:
            return hit

    if n == 3:
        members = sorted(tried_members)
        pairs = list(combinations(members, 2))
        hit = scan(_boundary_tie_points_3d(own, eps, pairs))
        if hit:
            return hit
        hit = scan(_interior_tie_points_3d(own, eps, members))
        if hit:
            return hit
    return None
