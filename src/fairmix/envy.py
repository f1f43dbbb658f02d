"""Expected-utility analysis of a lottery: envy graph, EF check, PE check.

Envy edges use strict exact comparison (ties are non-envy).  Pareto
efficiency is decided by a single exact LP: maximize the total slack by which
another lottery beats the current one player-by-player; the optimum is zero
precisely when no dominating lottery exists.  The LP has one column per
vector of the instance's Pareto frontier (``Instance.kernel``), not one per
allocation: any lottery can move its mass onto frontier vectors that weakly
dominate its own, so the optimum is the same.  Every negative answer carries
a witness, mapped back onto one allocation per frontier vector and
re-verified outside the LP.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import EngineInvariantError
from .lp import OPTIMAL, LinearProgram, solve_lp
from .model import MixedAllocation, expected_utility


@dataclass(frozen=True)
class EnvyGraph:
    """Directed envy relation; each edge (envier, envied, margin) has margin > 0."""

    n: int
    edges: tuple

    def successors(self, i):
        return tuple(h for g, h, _ in self.edges if g == i)

    def has_edge(self, i, h):
        return any(g == i and t == h for g, t, _ in self.edges)


@dataclass(frozen=True)
class EfCheck:
    ok: bool
    witness: tuple | None = None


@dataclass(frozen=True)
class PeCheck:
    ok: bool
    dominator: MixedAllocation | None = None
    gains: tuple | None = None


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
    for i in range(inst.n):
        own = expected_utility(p, i, i, inst)
        for h in range(inst.n):
            if h == i:
                continue
            margin = expected_utility(p, i, h, inst) - own
            if margin > 0:
                edges.append((i, h, margin))
    return EnvyGraph(inst.n, tuple(edges))


def is_acyclic(graph):
    """DFS cycle detection; returns (True, None) or (False, players-on-cycle)."""
    adjacency = {i: [] for i in range(graph.n)}
    for a, b, _ in graph.edges:
        adjacency[a].append(b)
    color = [0] * graph.n  # 0 unseen, 1 on stack, 2 done
    parent = {}
    for start in range(graph.n):
        if color[start]:
            continue
        color[start] = 1
        stack = [(start, iter(adjacency[start]))]
        while stack:
            node, neighbours = stack[-1]
            advanced = False
            for nxt in neighbours:
                if color[nxt] == 0:
                    color[nxt] = 1
                    parent[nxt] = node
                    stack.append((nxt, iter(adjacency[nxt])))
                    advanced = True
                    break
                if color[nxt] == 1:
                    path = [node]
                    cur = node
                    while cur != nxt:
                        cur = parent[cur]
                        path.append(cur)
                    path.reverse()
                    return False, tuple(path)
            if not advanced:
                color[node] = 2
                stack.pop()
    return True, None


def envy_free_players(p, inst):
    """Players with no outgoing envy edge."""
    graph = build_envy_graph(p, inst)
    enviers = {i for i, _, _ in graph.edges}
    return set(range(inst.n)) - enviers


def check_envy_free(p, inst):
    graph = build_envy_graph(p, inst)
    if not graph.edges:
        return EfCheck(True)
    worst = max(graph.edges, key=lambda e: (e[2], -e[0], -e[1]))
    return EfCheck(False, witness=worst)


def check_pareto_efficient(p, inst):
    """Decide PE by maximizing total per-player improvement over all lotteries.

    Variables are a lottery p' over the frontier vectors and slacks
    t_i >= 0 with the constraints sum p' = 1 and
    (own utility of p')_i >= (own utility of p)_i + t_i.  The optimum is
    exactly 0 iff p is Pareto efficient; otherwise the optimal p', placed on
    the first member allocation of each vector, dominates and is returned
    after independent re-verification.
    """
    frontier = inst.kernel.frontier
    cols = len(frontier.vectors)
    n = inst.n
    current = [expected_utility(p, i, i, inst) for i in range(n)]

    zero = Fraction(0)
    objective = (zero,) * cols + (Fraction(1),) * n
    rows = [((Fraction(1),) * cols + (zero,) * n, "=", Fraction(1))]
    for i in range(n):
        row = tuple(vec[i] for vec in frontier.vectors)
        row += tuple(Fraction(-1) if t == i else zero for t in range(n))
        rows.append((row, ">=", current[i]))
    result = solve_lp(LinearProgram(objective=objective, constraints=tuple(rows)))
    if result.status != OPTIMAL:
        raise EngineInvariantError(f"domination program ended {result.status}")
    if result.objective_value == 0:
        return PeCheck(True)

    dominator = MixedAllocation.from_support(
        len(inst.allocations),
        {frontier.members[f][0]: q for f, q in enumerate(result.solution[:cols]) if q},
    )
    better = [expected_utility(dominator, i, i, inst) for i in range(n)]
    weak = all(b >= c for b, c in zip(better, current))
    strict = any(b > c for b, c in zip(better, current))
    if not (weak and strict):
        raise EngineInvariantError("dominating witness failed re-verification")
    return PeCheck(False, dominator=dominator, gains=tuple(b - c for b, c in zip(better, current)))


def certify(p, inst, residual=None):
    """Full certificate: exact EF check plus LP-based PE check."""
    return Certificate(
        ef=check_envy_free(p, inst),
        pe=check_pareto_efficient(p, inst),
        fixed_point_residual=residual,
    )
