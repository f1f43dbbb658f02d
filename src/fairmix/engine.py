"""Welfare-envelope search for certified efficient envy-free lotteries.

The paper's weight map sends w to the projection of a corrected weight
vector: players who envy someone gain weight, players sitting on the best
bundle stream lose it.  A weight vector is a fixed point exactly when the
chosen lottery in P(w) is envy-free, and any lottery supported on the
w-welfare argmax with strictly positive w is automatically Pareto efficient,
so certified fixed points settle both properties at once.

The argmax scores only the instance's Pareto frontier (``Instance.kernel``):
with every w_i > 0 a weakly dominated own-utility vector never attains the
maximum.  The frontier points are entries of the instance's integer utility
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
inclusion-maximal argmax sets is complete, in any order: exhausting the
scan means an invariant broke.  The order is a function of the vertex set
alone, never of the order the enumeration lists it in: each argmax set is
scanned at its vertex farthest from the floor, and the sets larger first,
then farther from the floor first (see ``_fallback_search``).  The map
stays as a self-check on every candidate that passes the envy screen: its
residual and the paper's lemmas must agree with the certificate.

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

The map itself runs in ints: the corrected weights are int numerators over
sum(w) * Σbest * Σown for the vertex's int weights and int views, the
projection clamps in ints (see ``lp``), and the L1 step is one Fraction of
one int sum.  Values the scan builds are wrapped without re-checking: the
vertex weight by ``WeightVector._of`` once one int comparison per entry has
put it at or above the floor, and the tie-breaking LP's verified optimum by
``MixedAllocation._of``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd
from operator import lt, mul, sub

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


def _argmax_of(points, members, weights):
    """Ascending indices of the allocations of maximum welfare under ``weights``.

    ``points`` are the kernel's frontier points and ``members[f]`` the
    allocations giving point f.  ``weights`` are positive ints, a weight
    vector times a positive constant.  Point f scores sum_i weights_i *
    points[f][i], its exact welfare times the table's scale and that
    constant, so the int scores order the points as the exact welfare does.
    """
    best = None
    winners = []
    for f, point in enumerate(points):
        val = sum(a * b for a, b in zip(weights, point))
        if best is None or val > best:
            best = val
            winners = [f]
        elif val == best:
            winners.append(f)
    if len(winners) == 1:
        return members[winners[0]]
    return tuple(sorted(chain.from_iterable(members[f] for f in winners)))


def _require_weight_for(w, inst):
    if len(w.w) != inst.n:
        raise PreconditionError(f"weight vector has {len(w.w)} entries, instance has {inst.n} players")


def argmax_allocations(w, inst):
    """Indices of the allocations maximizing the w-weighted welfare, exactly."""
    _require_weight_for(w, inst)
    kernel = inst.kernel
    return _argmax_of(kernel.frontier, kernel.members, over_common_denominator(w.w)[0])


def select_p_in_P(w, inst, argmax=None):
    """Deterministic choice in P(w): minimize the maximum envy margin.

    Solves: min s over lotteries supported on the argmax set, where s bounds
    every pairwise margin (view of another player's stream minus own).  An
    optimum s <= 0 means the returned lottery is already envy-free.  The LP
    is canonical, so the free s is the last two columns, s = s+ - s-.  Every
    row is built times the table's scale, in the table's ints, and enters
    the solver unchecked through ``LinearProgram._of`` (see ``lp``).  ``w``
    must have one entry per player, and a given ``argmax`` must be a
    non-empty tuple or list of indices in 0..k-1, or this raises
    ``PreconditionError``.

    The LP's solution is verified by substitution, so on a strictly
    ascending argmax (one computed here, or the scan's) its positive entries
    are already a lottery's canonical pairs and are wrapped unchecked by
    ``MixedAllocation._of``; any other argmax, unsorted or with repeats,
    goes through ``from_support``.
    """
    _require_weight_for(w, inst)
    k = len(inst.allocations)
    if argmax is None:
        argmax = argmax_allocations(w, inst)
    elif not (isinstance(argmax, (tuple, list)) and argmax and all(is_int(j) and 0 <= j < k for j in argmax)):
        raise PreconditionError(f"argmax {argmax!r} is not a non-empty list of indices in 0..{k - 1}")
    n = inst.n
    if n == 1 or len(argmax) == 1:
        return MixedAllocation.point_mass(k, argmax[0])

    q = len(argmax)
    own_num = inst.kernel.own_num
    table, scale = inst.utilities.table, inst.utilities.scale
    bundles = inst.allocations.bundles
    objective = (0,) * q + (-1, 1)
    rows = [((scale,) * q + (0, 0), "=", scale)]
    for i in range(n):
        values, own = table[i], own_num[i]
        for h in range(n):
            if h == i:
                continue
            coeffs = tuple(values[bundles[j][h]] - own[j] for j in argmax)
            rows.append((coeffs + (-scale, scale), "<=", 0))
    result = solve_lp(LinearProgram._of(objective, tuple(rows)))
    if result.status != OPTIMAL:
        raise EngineInvariantError(f"tie-breaking program ended {result.status}")
    # zip stops before the trailing envy-bound columns s+ and s-
    if all(map(lt, argmax, argmax[1:])):
        return MixedAllocation._of(k, tuple((j, q) for j, q in zip(argmax, result.solution) if q))
    return MixedAllocation.from_support(k, zip(argmax, result.solution))


def _views(p, inst):
    """views[i][h] = player i's expected value of player h's bundle stream, in table
    ints over a dropped denominator (the screen reads order, the map ratios), by one
    ``expected_utility`` call, under the name ``bench/tracing.py`` binds."""
    return expected_utility(p, inst)[0]


def _envious(views):
    """Whether some player values another's bundle stream above their own."""
    return any(max(row) > row[i] for i, row in enumerate(views))


def _nu_from_views(views, weights):
    """Corrected weights in ints, ``(numerators, den)``: w_i plus best-view
    share minus own-view share, for the weight ``weights`` / sum(weights).

    ``weights`` are positive ints and ``den`` is sum(weights) * Σbest * Σown.
    Every table value is at least 1, so both view sums are positive.  Both
    shares sum to one over the players, so the numerators sum to ``den``.
    """
    best = [max(row) for row in views]
    own = [row[i] for i, row in enumerate(views)]
    total = sum(weights)
    total_best = sum(best)
    total_own = sum(own)
    over_w = total_best * total_own
    over_best = total * total_own
    over_own = total * total_best
    nums = [x * over_w + b * over_best - o * over_own for x, b, o in zip(weights, best, own)]
    den = total * over_w
    if sum(nums) != den:
        raise EngineInvariantError("correction terms must conserve total weight")
    return nums, den


def _share_step(views, weights, eps):
    """Corrected weights and their projection onto W (tuples of Fractions), and
    the L1 step to the projection from the weight ``weights`` / sum(weights)."""
    nums, den = _nu_from_views(views, weights)
    nu = tuple(Fraction(x, den) for x in nums)
    x = project_onto_truncated_simplex(nu, eps)
    x_num, x_den = over_common_denominator(x)
    total = sum(weights)
    step = sum(abs(a * total - b * x_den) for a, b in zip(x_num, weights))
    return nu, x, Fraction(step, x_den * total)


def varpi(p, w, inst):
    """Projection of the corrected weights back onto the truncated simplex."""
    _require_weight_for(w, inst)
    weights = over_common_denominator(w.w)[0]
    return WeightVector(_share_step(_views(p, inst), weights, w.epsilon)[1], w.epsilon)


def compute_rho(inst):
    """The instance's envy-gap constant ``Instance.rho``, checked positive.

    Half the minimum mutual-envy margin ratio over every allocation and
    ordered player pair in which both players strictly prefer the second
    one's bundle; 1 when no such triple exists.  It is computed once per
    instance, in integers.
    """
    rho = inst.rho
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
    # the theorem needs swap closure; sets the program built closed record it
    if not inst.allocations.built_closed:
        ok, witness = is_swappable(inst.allocations)
        if not ok:
            j, g, h = witness
            raise PreconditionError(
                f"allocation set is not swappable: allocation {j} lacks the ({g},{h}) swap"
            )
    eps = choose_epsilon(compute_rho(inst), inst.n, epsilon)
    hit = _fallback_search(inst, eps, trace_sink)
    if hit is None:
        raise EngineInvariantError(
            "every vertex of the welfare envelope was scanned without an envy-free lottery"
        )
    return hit


def _envelope_vertices(points, eps):
    """Vertices of {(w, t) : w in W, t >= w.u for every u in ``points``}, exactly.

    Returns ``(weights, tight)`` pairs: the vertex weight times x0 (below),
    as positive ints summing to x0, and the bitmask of the vectors of
    maximum welfare there (bit f for point f).
    Double description over primitive integer rays in homogeneous
    coordinates (x0, w_1..w_{n-1}, T), where w_n = x0 - sum of the others
    and T is t times the table's scale, over which the points are ints.  The
    start is the simplicial cone of the n floor rows and the first vector's
    row (independent because eps < 1/n): its rays are the n corners of W
    and the recession direction (0, .., 0, 1).  The other vectors' rows are
    added in descending uniform welfare (the sum of the vector), ties by
    index.  The row order sets how much work the method does (Fukuda and
    Prodon 1996); this one tests about half the ray pairs of index order
    on the n = 4 instances in ``tests/data``.  Each row splits the rays by
    sign and joins every adjacent pair across the split, adjacency being
    the combinatorial test: no third ray is tight on every row the pair
    shares.  The rays with x0 > 0 at the end are the vertices, and the
    vector rows a ray is tight on are its argmax.  The vertex set does not
    depend on the row order; the order of the returned list does, and no
    caller may rely on it.
    """
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

    # point f keeps row and bit n + f whatever its turn, so no mask is remapped
    for f in sorted(range(1, len(points)), key=lambda f: -sum(points[f])):
        r = n + f
        row = rows[r]
        bit = 1 << r
        pos, neg, kept = [], [], []
        for ray, tight in rays:
            s = sum(map(mul, row, ray))
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
                for z in masks:
                    if z & common == common and z != zp and z != zn:
                        break
                else:
                    ray = tuple(map(sub, map(sp.__mul__, rn), map(sn.__mul__, rp)))
                    kept.append((_primitive(ray), common | bit))
        rays = kept

    return [((*ray[1:n], ray[0] - sum(ray[1:n])), tight >> n) for ray, tight in rays if ray[0]]


def _primitive(ray):
    g = gcd(*ray)
    return tuple(map(g.__rfloordiv__, ray)) if g > 1 else ray


def _least_share(weights):
    """min(w)/sum(w) for a vertex's int weights: how far the vertex is from the floor."""
    return Fraction(min(weights), sum(weights))


def _farther_from_floor(a, b):
    """Whether vertex weights ``a`` come before ``b``: a larger least share,
    then the lexicographically greater normalized weight, compared in ints."""
    total_a, total_b = sum(a), sum(b)
    least_a, least_b = min(a) * total_b, min(b) * total_a
    if least_a != least_b:
        return least_a > least_b
    return [x * total_b for x in a] > [x * total_a for x in b]


def _scan_order(weight_of):
    """The masks of ``weight_of`` larger first, then by the larger least share
    of their weight, then ascending; each size is sorted only when reached."""
    by_size = {}
    for mask in weight_of:
        by_size.setdefault(mask.bit_count(), []).append(mask)
    for size in sorted(by_size, reverse=True):
        yield from sorted(by_size[size], key=lambda mask: (-_least_share(weight_of[mask]), mask))


def _fallback_search(inst, eps, trace_sink=None):
    """Scan the welfare-envelope vertices with inclusion-maximal argmax sets.

    Every weight lies in the relative interior of a face of the envelope,
    and every vertex of that face has an argmax set containing the weight's
    own, so P(w) is inside P(vertex) and ``select_p_in_P`` there does at
    least as well on envy.  The scan is therefore complete: by the paper's
    existence theorem some maximal vertex yields an envy-free lottery.

    The order depends on the vertex set alone.  Each argmax mask keeps the
    vertex with the largest least share min(w)/sum(w), ties to the
    lexicographically greatest normalized weight; the masks are scanned
    larger first, then by the larger least share, then by ascending mask
    value.  Returns ``(state, certificate)`` for the first vertex that
    yields an envy-free lottery, or None.  The scan is the only search; it
    keeps the name ``bench/tracing.py`` binds.
    """
    kernel = inst.kernel
    points, members = kernel.frontier, kernel.members
    floor_num, floor_den = eps.numerator, eps.denominator
    weight_of = {}
    for weights, tight in _envelope_vertices(points, eps):
        kept = weight_of.get(tight)
        if kept is None or _farther_from_floor(weights, kept):
            weight_of[tight] = weights
    # larger first: a strict superset comes first, and containment is
    # transitive, so a mask no scanned mask contains is maximal
    scanned = []
    for mask in _scan_order(weight_of):
        if any(kept & mask == mask for kept in scanned):
            continue
        scanned.append(mask)
        weights = weight_of[mask]
        amax = _argmax_of(points, members, weights)
        tight = (members[f] for f in range(len(members)) if mask >> f & 1)
        if amax != tuple(sorted(chain.from_iterable(tight))):
            raise EngineInvariantError("welfare-envelope vertex disagrees with the argmax")
        total = sum(weights)
        if any(x * floor_den < floor_num * total for x in weights):
            raise EngineInvariantError("welfare-envelope vertex lies below the weight floor")
        w = WeightVector._of(tuple(Fraction(x, total) for x in weights), eps)
        p = select_p_in_P(w, inst, amax)
        views = _views(p, inst)
        envious = _envious(views)
        if envious and trace_sink is None:
            continue
        nu, _, residual = _share_step(views, weights, eps)
        state = FixedPointState(p=p, w=w, residual=residual, iteration=len(scanned), nu=nu)
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
