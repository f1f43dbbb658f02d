"""Independent brute-force oracles used to validate the solver kernels.

Nothing here shares code with the package internals beyond the public data
types: projections are re-derived by enumerating all clamp patterns, LPs by
enumerating candidate vertices, and domination by direct 2D geometry.  The
exceptions in spirit are the Fraction code that integer code in the package
replaced, kept here so that the two can be required to return equal
results: ``fraction_simplex``, a two-phase simplex over Fractions with the
pivot rule that ``fairmix.lp`` runs in integers from the slack basis (its
phase 1 serves the ``=`` and ``>=`` rows of the references' own
``Program``s); ``dense_simplex``, the fraction-free tableau that stored
every column before ``fairmix.lp`` condensed it to the nonbasic ones,
with its pivot sequence; ``fraction_normalize``, the rescale
that ``fairmix.model.normalize_utilities`` does in integers; and
``fraction_rho`` and ``fraction_kernel``, the envy-gap constant and
own-utility kernel that ``fairmix.model.Instance.rho`` and
``fairmix.model.UtilityKernel`` derive from the integer utility table.
``reference_domination`` is the domination LP that
``fairmix.envy.check_pareto_efficient`` solved before its slack-basis
weight program, over ``fraction_kernel``'s frontier and solved by
``fraction_simplex``, so the two programs' verdicts can be required to
agree.  ``reference_envelope_vertices`` is of a third kind: the double
description the engine ran before its walk, ``fairmix.engine._envelope_walk``,
replaced it, written with generator expressions as it was before its loops
were tuned and adding the rows in index order, so that the walk run to
exhaustion can be required to reach the same vertex set.
``reference_kernel`` keeps the integer kernel's grouping loop and
sort-based skyline, ``reference_share_step`` the Fraction share step and
projection that the engine now runs in integers, ``reference_rho`` the
envy-gap pass with one bundle-pair set per ordered player pair, and
``reference_swap_closure`` the closure by one transposition at a time,
a search over swaps that ``fairmix.model.swap_closure`` replaced with
whole permutation orbits, and ``reference_table_rows`` the per-entry
reader of utility table rows that ``fairmix.serialize.load_instance``
ran on every row before it read plain rows whole.  Every oracle that
scores utilities reads an instance's raw values through
``fraction_normalize``, never the package's own rescaled table: ``weight_witness_ok``, which re-checks a
Pareto-efficiency weight witness in Fractions over every allocation with
no kernel, ``find_dominating_vertex_or_pair`` and ``reference_nu``, the
paper's corrected weights from Fraction views.  A fault in
``normalize_utilities`` therefore shows up as a disagreement.
``check_monotone`` is a check on the hard-instance tables that the package
does not need.  ``reference_parser`` is the argparse parser the CLI once
ran for help, errors and any command line its direct reader left to it;
it reads each synopsis in ``fairmix.cli._COMMANDS`` on its own, so every
namespace ``fairmix.cli._read_argv`` returns can be required to be the one
argparse builds.
"""

import argparse
from fractions import Fraction
from itertools import combinations
from math import gcd
from operator import ge
from typing import NamedTuple

from fairmix import cli, model
from fairmix.errors import EnumerationLimitError, MalformedInstanceError

OPTIMAL, UNBOUNDED, INFEASIBLE = "optimal", "unbounded", "infeasible"


class FractionResult(NamedTuple):
    """A reference simplex's answer: a status and, at an optimum, the
    solution and objective value as Fractions."""

    status: str
    solution: tuple = None
    objective_value: Fraction = None


class Program(NamedTuple):
    """A linear program for the references: maximize objective . x subject
    to rows (a, rel, b), rel one of "<=", "=" and ">=", and every x_j >= 0,
    with rational entries (ints, Fractions).  ``fraction_simplex`` also
    reads a ``fairmix.lp.LinearProgram``, which has the same three names
    and rows (a, b), each a . x <= b."""

    objective: tuple
    constraints: tuple

    @property
    def num_vars(self):
        return len(self.objective)


def project_by_pattern_enumeration(y, eps):
    """Exact projection onto {sum = 1, x >= eps} by trying all 2^n clamp sets.

    Every KKT-stationary point of the quadratic appears among the candidates,
    so the feasible candidate at minimum squared distance is the projection.
    """
    y = [Fraction(v) for v in y]
    eps = Fraction(eps)
    n = len(y)
    best = None
    best_d = None
    for pattern in range(1 << n):
        clamped = [i for i in range(n) if pattern >> i & 1]
        free = [i for i in range(n) if not pattern >> i & 1]
        if not free:
            if eps * n != 1:
                continue
            x = (eps,) * n
        else:
            lam = (1 - eps * len(clamped) - sum(y[i] for i in free)) / len(free)
            x = tuple(eps if i in clamped else y[i] + lam for i in range(n))
            if any(v < eps for v in x):
                continue
        d = sum((a - b) ** 2 for a, b in zip(x, y))
        if best_d is None or d < best_d:
            best, best_d = x, d
    return best


def solve_square(rows, rhs):
    """Gaussian elimination over Fractions; None when the system is singular."""
    n = len(rhs)
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        scale = aug[col][col]
        aug[col] = [v / scale for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


def satisfies(lp, x):
    if any(v < 0 for v in x):
        return False
    for row, rel, rhs in lp.constraints:
        lhs = sum(a * v for a, v in zip(row, x))
        if rel == "<=" and lhs > rhs:
            return False
        if rel == ">=" and lhs < rhs:
            return False
        if rel == "=" and lhs != rhs:
            return False
    return True


def brute_force_lp_max(lp):
    """Maximum of the objective over all vertices of the feasible region.

    Sound for bounded regions of the nonnegative orthant (every optimum sits
    at a vertex, and every vertex solves some square subsystem of active
    constraints, each row tight or some x_i = 0).  Returns (value, x) or
    None when no vertex is feasible.
    """
    n = lp.num_vars
    eqs = [(tuple(map(Fraction, row)), Fraction(rhs)) for row, rel, rhs in lp.constraints]
    for i in range(n):
        eqs.append((tuple(Fraction(1 if j == i else 0) for j in range(n)), Fraction(0)))
    best = None
    for combo in combinations(range(len(eqs)), n):
        x = solve_square([eqs[i][0] for i in combo], [eqs[i][1] for i in combo])
        if x is None or not satisfies(lp, x):
            continue
        val = sum(c * v for c, v in zip(lp.objective, x))
        if best is None or val > best[0]:
            best = (val, tuple(x))
    return best


def find_dominating_vertex_or_pair(p, inst):
    """Search point masses and two-allocation mixtures for a domination witness.

    Complete for two players: the feasible expected-utility vectors form a
    polygon (the convex hull of the pure outcomes), and if any of its points
    dominates, so does one on its strong Pareto frontier, which is made of
    the distinct own vectors that no other one weakly dominates and the
    segments between them; only those are searched, each vector at its
    first allocation.  Returns a dominating probability vector or None.
    """
    n = inst.n
    k = len(inst.allocations)
    values = fraction_normalize(inst.utilities.raw_values)
    own = [[values[i][a.bundles[i]] for a in inst.allocations] for i in range(n)]
    current = [sum(q * own[i][j] for j, q in p.pairs) for i in range(n)]
    first = {}
    for j in range(k):
        first.setdefault(tuple(row[j] for row in own), j)
    maximal = [
        (vec, j) for vec, j in first.items() if not any(u != vec and all(map(ge, u, vec)) for u in first)
    ]

    def dominates(point):
        return all(a >= b for a, b in zip(point, current)) and any(
            a > b for a, b in zip(point, current)
        )

    for vec, j in maximal:
        if dominates(vec):
            out = [Fraction(0)] * k
            out[j] = Fraction(1)
            return tuple(out)
    if n != 2:
        raise ValueError("pair search is only complete for two players")
    for (v1, j1), (v2, j2) in combinations(maximal, 2):
        lo, hi = Fraction(0), Fraction(1)
        feasible = True
        for i in range(n):
            coef = v1[i] - v2[i]
            need = current[i] - v2[i]
            if coef > 0:
                lo = max(lo, need / coef)
            elif coef < 0:
                hi = min(hi, need / coef)
            elif need > 0:
                feasible = False
                break
        if not feasible or lo > hi:
            continue
        for alpha in (lo, (lo + hi) / 2, hi):
            point = [alpha * v1[i] + (1 - alpha) * v2[i] for i in range(n)]
            if dominates(point):
                out = [Fraction(0)] * k
                out[j1] = alpha
                out[j2] = 1 - alpha
                return tuple(out)
    return None


def weight_witness_ok(p, inst, w):
    """Whether w proves p Pareto efficient: n entries, each > 0, and every
    support allocation of p of maximum w-welfare among all k allocations,
    scored in Fractions from the instance's raw values through
    ``fraction_normalize``."""
    w = [Fraction(x) for x in w]
    if len(w) != inst.n or any(x <= 0 for x in w):
        return False
    values = fraction_normalize(inst.utilities.raw_values)
    welfare = [
        sum(wi * values[i][a.bundles[i]] for i, wi in enumerate(w)) for a in inst.allocations
    ]
    best = max(welfare)
    return all(welfare[j] == best for j in p.support())


def reference_nu(p, w, inst):
    """The paper's corrected weights at the ``WeightVector`` w: w_i plus
    player i's share of the summed best views minus their share of the
    summed own views, each view an expectation in Fractions over the
    instance's raw values through ``fraction_normalize``."""
    values = fraction_normalize(inst.utilities.raw_values)
    views = [
        [sum(q * values[i][inst.allocations[j].bundles[h]] for j, q in p.pairs) for h in range(inst.n)]
        for i in range(inst.n)
    ]
    best = [max(row) for row in views]
    own = [row[i] for i, row in enumerate(views)]
    return tuple(x + b / sum(best) - o / sum(own) for x, b, o in zip(w.w, best, own))


def check_monotone(values, m):
    """(True, None) when adding any single item never lowers a bundle's
    value, else (False, (mask, e)) for the first drop, scanning e, then the
    mask, ascending.  A table without a value for every mask over the m
    items raises ``MalformedInstanceError``."""
    for mask in range(1 << m):
        if mask not in values:
            raise MalformedInstanceError(f"table lacks a value for bundle mask {mask}")
    for e in range(m):
        bit = 1 << e
        for mask in range(1 << m):
            if not mask & bit and values[mask | bit] < values[mask]:
                return False, (mask, e)
    return True, None


def _fraction_pivot(tab, rhs, basis, r, c):
    piv = tab[r][c]
    inv = 1 / piv
    tab[r] = [a * inv for a in tab[r]]
    rhs[r] = rhs[r] * inv
    for i in range(len(tab)):
        if i == r:
            continue
        f = tab[i][c]
        if f:
            row_r = tab[r]
            row_i = tab[i]
            tab[i] = [a - f * b if b else a for a, b in zip(row_i, row_r)]
            rhs[i] = rhs[i] - f * rhs[r]
    basis[r] = c


def _fraction_phase(tab, rhs, basis, cost, start):
    """Minimize cost.x on a tableau in canonical form; Bland's rule, with
    ratio ties to the lexicographically least row of B^-1 over its entering
    entry, B^-1 being the columns ``start`` of the starting basis, in row
    order.

    Every reduced cost is recomputed from the basis on every pass.
    Returns ("optimal", value) or ("unbounded", None).  Mutates in place.
    """
    m = len(tab)
    ncols = len(cost)
    while True:
        dual = [cost[basis[i]] for i in range(m)]
        enter = -1
        for j in range(ncols):
            r = cost[j]
            for i in range(m):
                if dual[i] and tab[i][j]:
                    r -= dual[i] * tab[i][j]
            if r < 0:
                enter = j
                break
        if enter < 0:
            value = sum(dual[i] * rhs[i] for i in range(m))
            return OPTIMAL, value
        leave = -1
        best = None
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                ratio = rhs[i] / a
                if best is None or ratio < best or (
                    ratio == best and _lex_row(tab, i, start, enter) < _lex_row(tab, leave, start, enter)
                ):
                    best = ratio
                    leave = i
        if leave < 0:
            return UNBOUNDED, None
        _fraction_pivot(tab, rhs, basis, leave, enter)


def _lex_row(tab, i, start, enter):
    """Row i of B^-1, the starting basis's columns ``start``, over row i's
    entry in the entering column."""
    return [tab[i][c] / tab[i][enter] for c in start]


def fraction_simplex(lp):
    """Reference two-phase simplex over Fraction, with Bland's rule and the
    lexicographic ratio test.

    Column j is x_j >= 0, rows with a negative right-hand side are negated,
    and each row gets a slack (<=), a surplus and an artificial (>=) or an
    artificial (=).  On a program of <= rows over right-hand sides >= 0
    there is no artificial and no phase 1, and the column order and pivot
    rule are ``fairmix.lp``'s.  Every entry is read through ``Fraction``,
    so a ``Program`` and the package's int ``LinearProgram``, whose rows
    (a, b) are read as (a, "<=", b), both serve.  Returns a
    ``FractionResult``.
    """
    ncols = lp.num_vars
    objective = [Fraction(c) for c in lp.objective]
    tagged = (row if len(row) == 3 else (row[0], "<=", row[1]) for row in lp.constraints)
    std_rows = [({c: Fraction(a) for c, a in enumerate(row) if a}, rel, Fraction(rhs)) for row, rel, rhs in tagged]

    oriented = []
    for acc, rel, rhs in std_rows:
        if rhs < 0:
            acc = {c: -a for c, a in acc.items()}
            rel = {"<=": ">=", ">=": "<=", "=": "="}[rel]
            rhs = -rhs
        oriented.append((acc, rel, rhs))

    m = len(oriented)
    n_slack = sum(1 for _, rel, _ in oriented if rel != "=")
    n_art = sum(1 for _, rel, _ in oriented if rel != "<=")
    art_start = ncols + n_slack
    total = art_start + n_art

    tab = []
    rhs_col = []
    basis = []
    slack_at = ncols
    art_at = art_start
    for acc, rel, rhs in oriented:
        row = [Fraction(0)] * total
        for c, a in acc.items():
            row[c] = a
        if rel == "<=":
            row[slack_at] = Fraction(1)
            basis.append(slack_at)
            slack_at += 1
        elif rel == ">=":
            row[slack_at] = Fraction(-1)
            slack_at += 1
            row[art_at] = Fraction(1)
            basis.append(art_at)
            art_at += 1
        else:
            row[art_at] = Fraction(1)
            basis.append(art_at)
            art_at += 1
        tab.append(row)
        rhs_col.append(rhs)

    # B^-1 is read from the starting basis's columns, so phase 2 keeps the
    # artificial columns, but never lets one enter
    start = list(basis)
    if n_art:
        phase1 = [Fraction(0)] * art_start + [Fraction(1)] * n_art
        status, value = _fraction_phase(tab, rhs_col, basis, phase1, start)
        assert status == OPTIMAL
        if value > 0:
            return FractionResult(INFEASIBLE)
        drop = []
        for i in range(m):
            if basis[i] >= art_start:
                for j in range(art_start):
                    if tab[i][j]:
                        _fraction_pivot(tab, rhs_col, basis, i, j)
                        break
                else:
                    drop.append(i)
        keep = [i for i in range(m) if i not in drop]
        tab = [tab[i] for i in keep]
        rhs_col = [rhs_col[i] for i in keep]
        basis = [basis[i] for i in keep]
        m = len(tab)

    cost2 = [-c for c in objective] + [Fraction(0)] * n_slack
    status, _ = _fraction_phase(tab, rhs_col, basis, cost2, start)
    if status == UNBOUNDED:
        return FractionResult(UNBOUNDED)

    basic = [Fraction(0)] * art_start
    for i in range(m):
        basic[basis[i]] = rhs_col[i]
    x = tuple(basic[:ncols])
    value = sum(c * v for c, v in zip(objective, x))
    return FractionResult(OPTIMAL, x, value)


def reference_domination(p, inst):
    """The optimum of the domination LP, in Fractions: 0 exactly when p is
    Pareto efficient.

    Its variables are a lottery p' over the frontier vectors of
    ``fraction_kernel`` and slacks t_i >= 0, with sum p' = 1 and (own
    utility of p')_i >= (own utility of p)_i + t_i; it maximizes the sum of
    the t_i.  A lottery over frontier vectors can stand for any lottery,
    since the frontier weakly dominates every own vector.
    """
    ref = fraction_kernel(inst)
    n, frontier = inst.n, ref["frontier_vectors"]
    cols = len(frontier)
    current = [sum((q * ref["own"][i][j] for j, q in p.pairs), Fraction(0)) for i in range(n)]
    rows = [((Fraction(1),) * cols + (Fraction(0),) * n, "=", Fraction(1))]
    for i in range(n):
        slacks = tuple(Fraction(-1) if t == i else Fraction(0) for t in range(n))
        rows.append((tuple(vec[i] for vec in frontier) + slacks, ">=", current[i]))
    result = fraction_simplex(Program((Fraction(0),) * cols + (Fraction(1),) * n, tuple(rows)))
    assert result.status == OPTIMAL, result.status
    return result.objective_value


def fraction_normalize(raw):
    """Each player's values rescaled affinely onto [1, 2] in Fractions,
    1 + (v - lo) / (hi - lo), or the constant 1 when they are all equal."""
    out = []
    for table in raw:
        checked = {b: Fraction(v) for b, v in table.items()}
        lo, hi = min(checked.values()), max(checked.values())
        if hi == lo:
            out.append({b: Fraction(1) for b in checked})
        else:
            out.append({b: 1 + (v - lo) / (hi - lo) for b, v in checked.items()})
    return tuple(out)


def fraction_rho(inst):
    """Half the minimum mutual-envy margin ratio, by a Fraction scan of every
    allocation and ordered player pair; 1 when no triple qualifies."""
    values = fraction_normalize(inst.utilities.raw_values)
    best = None
    for a in inst.allocations:
        for i in range(inst.n):
            for h in range(inst.n):
                if h == i:
                    continue
                i_own = values[i][a.bundles[i]]
                i_other = values[i][a.bundles[h]]
                if i_own >= i_other:
                    continue
                h_own = values[h][a.bundles[h]]
                h_other = values[h][a.bundles[i]]
                if h_other >= h_own:
                    continue
                ratio = (i_other - i_own) / (h_own - h_other)
                if best is None or ratio < best:
                    best = ratio
    return Fraction(1) if best is None else best / 2


def fraction_skyline(vectors):
    """Ascending indices of the ``vectors`` no other one weakly dominates,
    by a pass in descending lexicographic order."""
    kept = []
    for v in sorted(range(len(vectors)), key=vectors.__getitem__, reverse=True):
        vec = vectors[v]
        if not any(all(a >= b for a, b in zip(vectors[u], vec)) for u in kept):
            kept.append(v)
    return sorted(kept)


def fraction_kernel(inst):
    """The own-utility kernel over Fractions: ``own[i][j]``, the distinct own
    vectors in order of first occurrence with their member allocations, and
    the frontier's vectors and members."""
    values = fraction_normalize(inst.utilities.raw_values)
    own = tuple(
        tuple(values[i][a.bundles[i]] for a in inst.allocations) for i in range(inst.n)
    )
    groups = {}
    for j, vec in enumerate(zip(*own)):
        groups.setdefault(vec, []).append(j)
    vectors = tuple(groups)
    members = tuple(tuple(js) for js in groups.values())
    kept = fraction_skyline(vectors)
    return {
        "own": own,
        "vectors": vectors,
        "members": members,
        "frontier_vectors": tuple(vectors[v] for v in kept),
        "frontier_members": tuple(members[v] for v in kept),
    }


def reference_kernel(inst):
    """``fairmix.model.UtilityKernel.of`` and ``pareto_frontier`` as they were
    written with a Python grouping loop over every allocation, kept to pin
    the kernel's C-level grouping: the same ``own_num``, distinct ``points``
    and frontier ``points`` and ``members``, order included."""
    table = inst.utilities.table
    bundles = inst.allocations.bundles
    own_num = tuple(
        tuple(map(row.__getitem__, column)) for row, column in zip(table, zip(*bundles))
    )
    groups = {}
    for j, point in enumerate(zip(*own_num)):
        groups.setdefault(point, []).append(j)
    points = tuple(groups)
    members = tuple(groups.values())
    kept = []
    for v in sorted(range(len(points)), key=points.__getitem__, reverse=True):
        vec = points[v]
        if not any(all(map(ge, points[u], vec)) for u in kept):
            kept.append(v)
    kept.sort()
    return {
        "own_num": own_num,
        "points": points,
        "frontier_points": tuple(points[v] for v in kept),
        "frontier_members": tuple(tuple(members[v]) for v in kept),
    }


def reference_envelope_vertices(points, eps):
    """The welfare-envelope vertices by double description, as (weight, mask)
    pairs in ``fairmix.engine._vertex``'s form, adding the rows in index
    order: the engine's walk must reach the same set."""
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


def reference_share_step(views, w):
    """``fairmix.engine._share_step`` as it was written in Fractions, with its
    ``_nu_from_views`` and the Fraction projection: the corrected weights
    ``nu`` at the ``WeightVector`` w from the engine's int views, their
    projection onto W and the L1 step from w to it.  The integer share step
    must return the same three values."""
    best = [max(row) for row in views]
    own = [row[i] for i, row in enumerate(views)]
    total_best = sum(best)
    total_own = sum(own)
    nu = tuple(x + Fraction(b, total_best) - Fraction(o, total_own) for x, b, o in zip(w.w, best, own))
    if sum(nu) != 1:
        raise AssertionError("correction terms must conserve total weight")
    x = reference_projection(nu, w.epsilon)
    return nu, x, sum(abs(a - b) for a, b in zip(x, w.w))


def reference_projection(y, eps):
    """``fairmix.lp.project_onto_truncated_simplex`` as it was written in
    Fractions: clamp the coordinates that fall below the floor, re-center the
    rest by one common shift, repeat."""
    y = tuple(Fraction(v) for v in y)
    eps = Fraction(eps)
    n = len(y)
    clamped = set()
    while True:
        free = [i for i in range(n) if i not in clamped]
        lam = (1 - eps * len(clamped) - sum(y[i] for i in free)) / len(free)
        violators = [i for i in free if y[i] + lam < eps]
        if not violators:
            break
        clamped.update(violators)
    return tuple(eps if i in clamped else y[i] + lam for i in range(n))


def reference_rho(inst):
    """``fairmix.model.Instance.rho`` as it was written with one set of
    bundle pairs per ordered player pair, on the instance's integer table."""
    table = inst.utilities.table
    best_num = best_den = None
    for i in range(len(table)):
        for h in range(len(table)):
            if h == i:
                continue
            mine, theirs = table[i], table[h]
            for b_i, b_h in {(bs[i], bs[h]) for bs in inst.allocations.bundles}:
                gain = mine[b_h] - mine[b_i]
                if gain <= 0:
                    continue
                loss = theirs[b_h] - theirs[b_i]
                if loss <= 0:
                    continue
                if best_num is None or gain * best_den < best_num * loss:
                    best_num, best_den = gain, loss
    if best_num is None:
        return Fraction(1)
    return Fraction(best_num, 2 * best_den)


def reference_swap_closure(aset):
    """The bundle tuples of ``fairmix.model.swap_closure(aset)`` as it was
    written, a depth-first search over single swaps of two players'
    different bundles: ``aset``'s tuples first, then each new swap in the
    order found.  It refuses, with the package's message, to add an
    allocation once it holds ``fairmix.model.DEFAULT_ENUMERATION_BUDGET``."""
    budget = model.DEFAULT_ENUMERATION_BUDGET
    closed = dict.fromkeys(aset.bundles)
    stack = list(closed)
    while stack:
        bundles = stack.pop()
        for g, h in combinations(range(aset.n), 2):
            if bundles[g] == bundles[h]:
                continue
            out = list(bundles)
            out[g], out[h] = bundles[h], bundles[g]
            swapped = tuple(out)
            if swapped not in closed:
                if len(closed) >= budget:
                    raise EnumerationLimitError(f"swap closure exceeds the budget of {budget} allocations")
                closed[swapped] = None
                stack.append(swapped)
    return tuple(closed)


def _dense_pivot(rows, r, c, d):
    """Fraction-free pivot on entry (r, c) of a dense tableau over
    denominator d: every other row becomes (p * row - row[c] * rows[r]) // d
    with p = rows[r][c], the pivot row stays, and p is returned."""
    top = rows[r]
    p = top[c]
    for i, row in enumerate(rows):
        if i == r:
            continue
        f = row[c]
        if f:
            rows[i] = [(p * a - f * b) // d for a, b in zip(row, top)]
        elif p != d:
            rows[i] = [p * a // d for a in row]
    return p


def _dense_phase(rows, basis, d, ncols, pivots):
    """Minimize the cost in the last row of a dense tableau; Bland's rule on
    the first ``ncols`` columns, ratio ties to the lexicographically least
    row of B^-1 over its entering entry, B^-1 being the slack columns, the
    last m before the right-hand side.  Appends (leaving column, entering
    column, new d) to ``pivots``."""
    m = len(basis)
    slacks = range(ncols - m, ncols)
    while True:
        cost = rows[-1]
        enter = next((j for j in range(ncols) if cost[j] < 0), -1)
        if enter < 0:
            return OPTIMAL, d
        leave = -1
        for i in range(m):
            a = rows[i][enter]
            if a > 0:
                b = rows[i][-1]
                if leave < 0:
                    leave, best_a, best_b = i, a, b
                    continue
                lhs, rhs = b * best_a, best_b * a
                if lhs == rhs:
                    # rows over a and best_a, cross-multiplied
                    lhs = [rows[i][c] * best_a for c in slacks]
                    rhs = [rows[leave][c] * a for c in slacks]
                if lhs < rhs:
                    leave, best_a, best_b = i, a, b
        if leave < 0:
            return UNBOUNDED, d
        d = _dense_pivot(rows, leave, enter, d)
        pivots.append((basis[leave], enter, d))
        basis[leave] = enter


def dense_simplex(lp):
    """``fairmix.lp.solve_lp`` as it was written on the dense fraction-free
    tableau, which stores every column, basic ones included: the same int
    rows (a, b), each a . x <= b, with b >= 0, the same slack basis to start
    from, Bland's rule on the column index and the lexicographic ratio
    test.  Returns ``(result, pivots, d)``: the ``FractionResult`` without
    the substitution check, every pivot as (leaving column, entering
    column, the pivot element that becomes the new d), and the final d > 0."""
    ncols, m = lp.num_vars, len(lp.constraints)
    rows = []
    for r, (row, rhs) in enumerate(lp.constraints):
        assert rhs >= 0, rhs
        rows.append([*row, *(int(i == r) for i in range(m)), rhs])
    rows.append([-c for c in lp.objective] + [0] * (m + 1))
    basis = list(range(ncols, ncols + m))
    pivots = []
    status, d = _dense_phase(rows, basis, 1, ncols + m, pivots)
    if status == UNBOUNDED:
        return FractionResult(UNBOUNDED), pivots, d
    x_num = [0] * ncols
    for i in range(m):
        if basis[i] < ncols:
            x_num[basis[i]] = rows[i][-1]
    x = tuple(Fraction(v, d) for v in x_num)
    value = sum(Fraction(c) * v for c, v in zip(lp.objective, x))
    return FractionResult(OPTIMAL, x, value), pivots, d


def _field_error(field, detail):
    return MalformedInstanceError(f"field {field!r}: {detail}")


def reference_table_rows(rows, m):
    """Utility table rows read entry by entry, as ``load_instance`` read
    them: one {mask: (numerator, denominator)} dict per row, each value read
    by ``model._num_den``, or the ``MalformedInstanceError`` of the first bad
    entry in row order, with the message ``load_instance`` gives."""
    top = 1 << m
    tables = []
    for i, row in enumerate(rows):
        field = f"utilities.values[{i}]"
        if not isinstance(row, list):
            raise _field_error(field, "need a list of [mask, value] pairs")
        table = {}
        for pair in row:
            if not (isinstance(pair, list) and len(pair) == 2):
                raise _field_error(field, "entries are [mask, value] pairs")
            mask, value = pair
            if not (model.is_int(mask) and 0 <= mask < top):
                raise _field_error(field, f"bundle mask {model._shown(mask)} outside 0..{top - 1}")
            if mask in table:
                raise _field_error(field, f"duplicate bundle mask {mask}")
            try:
                table[mask] = model._num_den(value)
            except MalformedInstanceError as exc:
                raise _field_error(field, exc) from exc
        tables.append(table)
    return tables


def reference_parser():
    """An argparse parser with a subcommand per entry of ``cli._COMMANDS``:
    each synopsis word pair is a flag and its value's name, a bracketed
    flag is optional, and an ``N`` value is parsed by ``int``."""
    parser = argparse.ArgumentParser(prog="fairmix")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, synopsis, _) in cli._COMMANDS.items():
        command = sub.add_parser(name)
        words = synopsis.split()
        for flag, metavar in zip(words[::2], words[1::2]):
            optional = flag.startswith("[")
            metavar = metavar.rstrip("]")
            kind = int if metavar == "N" else str
            command.add_argument(flag.lstrip("["), type=kind, required=not optional, metavar=metavar)
        command.set_defaults(func=func)
    return parser
