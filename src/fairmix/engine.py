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
walks weight space directly, the same way for every n.  It scans vertices
of the welfare envelope {(w, t) : w in W, t >= w.u for every frontier
vector u}, with int weights; only scanned vertices get a ``WeightVector``.
The argmax set of any weight is contained in that of some vertex, so
scanning the vertices with inclusion-maximal argmax sets is complete, in
any order: exhausting the scan means an invariant broke.

The scan starts at the envelope's lowest vertex, the one of least t,
found by one LP (``_lowest_vertex``), as reverse search and lrs start at
the vertex one LP finds (Avis and Fukuda 1992; Avis 2000).  Its lottery is
usually envy-free, and only when it has envy does the scan enumerate the
whole envelope, by double description in exact integers; that
enumeration must hold the lowest vertex.  The rest of the order is a
function of the vertex set alone, never of the order the enumeration lists
it in: one sort of the vertices, larger argmax sets first, then farther
from the floor first, and a vertex whose argmax set lies in a scanned one,
the lowest vertex's included, is skipped, so each other maximal set is
scanned at its vertex farthest from the floor (see ``_fallback_search``).

The map is kept where its lemma can fail.  At a vertex whose lottery has
envy the map runs, and its residual must be positive, since a fixed point
is envy-free.  At a vertex with no envy each player's best view is their
own, so the map is the identity there: the answer's state takes nu = w
and residual 0 without running it, and its checks are the certificate's
two sides.

The certificate's PE side takes the vertex weight as its witness: the
answer is supported on the w-argmax with every w_i >= eps > 0, so
``certify`` re-checks that by an integer scan over every own vector of the
instance instead of solving the efficiency LP.  A witness that fails the scan
is an invariant failure, like any other disagreement with the theory.

The weight floor eps is derived from the instance, not set: any floor
below rho^n/n, where rho in (0, 1] is the instance's envy-gap constant,
keeps the scan complete and every answer certified, and ``choose_epsilon``
takes half that bound, which is below 1/n.

Each scanned vertex is described by one ``FixedPointState``: the trace
sink receives those states, and the answer is the state of its vertex.
The scan takes the same path with or without a sink.

The lottery chosen in P(w) is one that minimizes the largest envy
margin, an optimal strategy of a zero-sum matrix game over the argmax,
found by the game's packing LP from its slack basis (see
``select_p_in_P``).  The lottery is envy-free exactly when that least
largest margin is at most 0.

The map itself runs in ints: the corrected weights are int numerators over
sum(w) * Σbest * Σown for the vertex's int weights and int views, the
projection clamps in ints (see ``lp``), and the L1 step is one Fraction of
one int sum.  Values the scan builds are wrapped without re-checking, by
``Value._of``: the vertex weight once one int comparison per entry has put
it at or above the floor, and the tie-breaking LP's verified optimum.
"""

from fractions import Fraction
from itertools import chain
from math import gcd
from operator import mul, sub

from .envy import certify
from .errors import EngineInvariantError, MalformedInstanceError, PreconditionError
from .lp import LinearProgram, project_onto_truncated_simplex, solve_lp
from .model import MixedAllocation, Value, WeightVector, as_fraction, expected_utility, is_int, is_swappable
from .model import _shown, over_common_denominator


class FixedPointState(Value):
    """One scanned vertex: the lottery chosen there, the vertex weight, the
    paper's map at it (residual and corrected weights ``nu``) and
    ``iteration``, its 1-based scan position.  The answer is the state of
    its vertex, where the map is the identity."""

    def __init__(self, p, w, residual, iteration, nu):
        self.__dict__.update(p=p, w=w, residual=residual, iteration=iteration, nu=nu)


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

    The least largest margin is the value of a zero-sum matrix game: the
    lottery over the argmax set mixes its columns, and each ordered pair
    (i, h), i != h, is a row whose entry at allocation j is i's view of h's
    bundle minus i's own utility, in the table's ints over the ascending
    argmax.  Every entry is raised by ``shift = 1 - (least entry)``, so
    each is at least 1 and the game's value V is positive, and x = p / V
    solves max sum x subject to C'x <= 1 and x >= 0 (Dantzig 1951).  Its
    right-hand sides are all 1, so the slack basis is feasible, the start
    ``solve_lp`` serves; ``LinearProgram`` stores the rows as built (see
    ``lp``).  ``w``
    must have one entry per player, and a given ``argmax`` must be a
    non-empty tuple or list of indices in 0..k-1, or this raises
    ``PreconditionError``.

    At the optimum, x_num over d, the lottery is x_num_j / sum x_num,
    exact and summing to 1, and its largest margin times the table's
    scale is d / sum x_num - shift, the least over P(w): at most 0 exactly
    when P(w) holds an envy-free lottery.  Where that optimum is not
    unique, the lottery is the one Bland's rule reaches from the slack
    basis.

    A given ``argmax`` is read as its set, ascending, so its order and
    repeats change nothing.  The LP's solution is verified by substitution,
    so the only Fractions built are the support's probabilities, each
    numerator over sum x_num, wrapped unchecked by ``MixedAllocation._of``.
    """
    _require_weight_for(w, inst)
    k = len(inst.allocations)
    if argmax is None:
        argmax = argmax_allocations(w, inst)
    elif not (isinstance(argmax, (tuple, list)) and argmax and all(is_int(j) and 0 <= j < k for j in argmax)):
        raise PreconditionError(f"argmax {argmax!r} is not a non-empty list of indices in 0..{k - 1}")
    else:
        argmax = tuple(sorted(set(argmax)))
    n = inst.n
    if n == 1 or len(argmax) == 1:
        return MixedAllocation.point_mass(k, argmax[0])

    own_num = inst.kernel.own_num
    table = inst.utilities.table
    columns = inst.allocations.columns
    margins = []
    for i in range(n):
        values, own = table[i], own_num[i]
        for h, column in enumerate(columns):
            if h != i:
                margins.append([values[column[j]] - own[j] for j in argmax])
    shift = 1 - min(map(min, margins))
    rows = tuple((tuple(a + shift for a in row), 1) for row in margins)
    x_num = solve_lp(LinearProgram((1,) * len(argmax), rows)).x_num
    total = sum(x_num)
    return MixedAllocation._of(k, tuple((j, Fraction(v, total)) for j, v in zip(argmax, x_num) if v))


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


def choose_epsilon(rho, n):
    """Floor for the weight domain: rho^n/(2n), half the bound rho^n/n.

    ``n`` must be an int >= 1, and ``rho`` a rational (see ``as_fraction``)
    in (0, 1], as every swap-closed instance's is, or this raises
    ``PreconditionError``; it is coerced exactly, so the floor is always a
    Fraction, and it is below 1/n.
    """
    if not (is_int(n) and n >= 1):
        raise PreconditionError(f"player count must be an integer >= 1, got {_shown(n)}")
    try:
        rho = as_fraction(rho)
    except MalformedInstanceError as exc:
        raise PreconditionError(f"gap constant must be rational, got {rho!r}") from exc
    if not 0 < rho <= 1:
        raise PreconditionError(f"gap constant must lie in (0, 1], got {_shown(rho, str)}")
    return rho**n / (2 * n)


def find_fixed_point(inst, *, trace_sink=None):
    """Search for a certified efficient envy-free lottery.

    Scans the welfare-envelope vertices as described in the module
    docstring and returns ``(FixedPointState, Certificate)``; the state's
    ``iteration`` is the 1-based scan position of the answer.  The returned
    lottery always carries a fully verified certificate.  The scan is
    complete, so running out of vertices raises ``EngineInvariantError``.
    The weight floor is ``choose_epsilon``'s, derived from the instance.
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
    eps = choose_epsilon(compute_rho(inst), inst.n)
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
    start is the simplicial cone of the n floor rows (bits 0..n-1) and the
    first vector's row (bit n), independent because eps < 1/n; its rays,
    the n corners of W and the recession direction (0, .., 0, 1), are
    written down directly, so only the other vectors' rows are built.  They
    are added in descending uniform welfare (the sum of the vector), ties by
    index.  The row order sets how much work the method does (Fukuda and
    Prodon 1996): over the solves of the pinned ``envious`` and
    ``fallback`` sets, which run this method on every instance, it tests
    4,530 and 58,223 ray pairs across the split, where index order tests
    10,696 and 156,533.  Each row splits the rays by sign and joins every
    adjacent pair across the split, adjacency being the combinatorial test:
    no third ray is tight on every row the pair shares.  The rays with
    x0 > 0 at the end are the vertices, and the vector rows a ray is tight
    on are its argmax.  The vertex set does not depend on the row order;
    the order of the returned list does, and no caller may rely on it.
    """
    n = len(points[0])
    num, den = eps.numerator, eps.denominator

    # corner i scaled by den: x0 = den, w_i = den - (n-1)*num, the others num
    corner = den - (n - 1) * num
    rays = []
    for i in range(n):
        w = [corner if c == i else num for c in range(n)]
        t = sum(a * b for a, b in zip(w, points[0]))
        tight = sum(1 << r for r in range(n) if r != i) | (1 << n)
        rays.append((_primitive((den, *w[:-1], t)), tight))
    rays.append(((0,) * n + (1,), (1 << n) - 1))

    # point f keeps bit n + f whatever its turn, so no mask is remapped
    for f in sorted(range(1, len(points)), key=lambda f: -sum(points[f])):
        u = points[f]
        row = (-u[-1], *(u[-1] - x for x in u[:-1]), 1)
        bit = 1 << (n + f)
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


def _lowest_vertex(points, eps):
    """The welfare-envelope vertex of least t, as a ``(weights, mask)`` pair of
    ``_envelope_vertices``, with primitive weights, found by one LP.

    With eps = num/den and X = den - n*num, the weight is
    w_i = (num + x_i)/den for i < n and w_n = (num + X - sum x)/den, so
    x >= 0 and sum x <= X is W.  Point u's welfare is then
    (v_u + sum_{i<n} (u_i - u_n) x_i)/den with v_u = num*sum(u) + X*u_n, and
    with c the largest v_u the LP maximizes sigma subject to sum x <= X and
    sum_{i<n} (u_i - u_n) x_i + sigma <= c - v_u for every point, so
    t = (c - sigma)/den.  Every right-hand side is at least 0, so the slack
    basis is feasible, the start ``solve_lp`` serves.  An optimal basic
    solution is a vertex of the envelope: at sigma > 0 no constraint but the
    envelope's is tight, and at sigma = 0 the feasible x are the minimizers
    of t, a face of the envelope.  Its mask is the set of the LP's tight
    point rows.  The LP's dual is the lottery over points maximizing
    (1 - n*eps) min_i U_i + eps sum_i U_i, a nearly egalitarian choice.
    Everything after the LP stays in ints: the optimum's numerators x_num
    over its denominator d give the weights times den * d, and the tight
    point rows are read from the optimal tableau (``Tableau.tight``).
    """
    n = len(points[0])
    num, den = eps.numerator, eps.denominator
    room = den - n * num
    base = [num * sum(u) + room * u[-1] for u in points]
    top = max(base)
    rows = [((1,) * (n - 1) + (0,), room)]
    rows.extend(((*(x - u[-1] for x in u[:-1]), 1), top - v) for u, v in zip(points, base))
    optimum = solve_lp(LinearProgram((0,) * (n - 1) + (1,), tuple(rows)))
    x, d = optimum.x_num[:-1], optimum.d
    weights = [num * d + a for a in x]
    weights.append((num + room) * d - sum(x))
    # row 0 is sum x <= X, and row f + 1 is point f's
    return _primitive(tuple(weights)), optimum.tight >> 1


def _scan_vertices(points, eps):
    """The vertices the scan may visit, in order: the lowest vertex, then,
    only when the scan asks for more, every envelope vertex in
    ``_scan_order``.  The lowest vertex must be one of those, or this raises
    ``EngineInvariantError``."""
    lowest = _lowest_vertex(points, eps)
    yield lowest
    vertices = _envelope_vertices(points, eps)
    weights, mask = lowest
    if not any(tight == mask and _primitive(w) == weights for w, tight in vertices):
        raise EngineInvariantError("the lowest vertex is not a vertex of the welfare envelope")
    yield from _scan_order(vertices)


def _scan_order(vertices):
    """The ``(weights, mask)`` vertices in scan order, by one key: the larger
    mask first, then the larger least share min(w)/sum(w), then the
    ascending mask, then the lexicographically greater normalized weight.
    Each mask size is sorted only when reached."""

    def key(vertex):
        weights, mask = vertex
        total = sum(weights)
        return Fraction(-min(weights), total), mask, [Fraction(-x, total) for x in weights]

    by_size = {}
    for vertex in vertices:
        by_size.setdefault(vertex[1].bit_count(), []).append(vertex)
    for size in sorted(by_size, reverse=True):
        yield from sorted(by_size[size], key=key)


def _fallback_search(inst, eps, trace_sink=None):
    """Scan the lowest welfare-envelope vertex, then the vertices with
    inclusion-maximal argmax sets.

    Every weight lies in the relative interior of a face of the envelope,
    and every vertex of that face has an argmax set containing the weight's
    own, so P(w) is inside P(vertex) and ``select_p_in_P`` there does at
    least as well on envy.  The scan is therefore complete: by the paper's
    existence theorem some maximal vertex yields an envy-free lottery.

    The lowest vertex comes first (``_scan_vertices``), and the enumerated
    envelope is read only if it has envy.  Its vertices are sorted by one
    key (``_scan_order``), and a vertex is skipped when its mask lies in a
    scanned one, its own and the lowest vertex's included.  So every
    maximal mask is still scanned, each other than the lowest vertex's at
    its vertex of the largest least share min(w)/sum(w), ties to the
    lexicographically greatest normalized weight.  Returns ``(state,
    certificate)`` for the first vertex that yields an envy-free lottery,
    or None.  The scan is the only search; it keeps the name
    ``bench/tracing.py`` binds.
    """
    kernel = inst.kernel
    points, members = kernel.frontier, kernel.members
    floor_num, floor_den = eps.numerator, eps.denominator
    # larger first: a strict superset comes first, and containment is
    # transitive, so a mask no scanned mask contains is maximal; a repeated
    # mask contains itself, so it is scanned at its first vertex only
    scanned = []
    for weights, mask in _scan_vertices(points, eps):
        if any(kept & mask == mask for kept in scanned):
            continue
        scanned.append(mask)
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
        if _envious(views):
            # the paper's lemma: a fixed point of the map is envy-free
            nu, _, residual = _share_step(views, weights, eps)
            if residual == 0:
                raise EngineInvariantError("exact fixed point without envy-freeness")
            if trace_sink is not None:
                trace_sink.append(FixedPointState(p=p, w=w, residual=residual, iteration=len(scanned), nu=nu))
            continue
        # with no envy every best view is the own view, so the map is the identity at w
        state = FixedPointState(p=p, w=w, residual=Fraction(0), iteration=len(scanned), nu=w.w)
        if trace_sink is not None:
            trace_sink.append(state)
        cert = certify(p, inst, residual=state.residual, weight=w.w)
        if not cert.ef_ok:
            raise EngineInvariantError("exact fixed point without envy-freeness")
        if not cert.pe_ok:
            raise EngineInvariantError("argmax-supported lottery failed the efficiency check")
        return state, cert
    return None
