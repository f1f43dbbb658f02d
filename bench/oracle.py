"""Independent answer checks for the benchmark.

Nothing here imports fairmix.  Instances are read back from the JSON files
the benchmark wrote (or the program generated), lotteries from the CLI's
output.  Envy is decided exactly from raw utility sums; Pareto efficiency
from a float LP in scipy, with a gap band in which the oracle refuses to
decide.  Both properties are invariant under the per-player positive affine
rescale the program applies, so raw values give the same verdicts.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations, product


class WrongAnswer(Exception):
    """The program's output disagrees with an independent check."""


# Efficiency gap thresholds, relative to the largest raw utility.
EFFICIENT_GAP = 1e-7
DOMINATED_GAP = 1e-5


class Instance:
    """Raw utilities and the allocation set, rebuilt from the instance JSON."""

    def __init__(self, data):
        self.n = data["n"]
        self.m = data["m"]
        self.allocations = _allocation_set(data["allocations"], self.n, self.m)
        self.allowed = set(self.allocations)
        self.values = _bundle_values(data["utilities"], self.n, self.m)
        self.scale = max(1, max(abs(v) for table in self.values for v in table.values()))
        self._own = None

    def value(self, i, mask):
        return self.values[i][mask]

    def own_matrix(self):
        """own[i][j] as floats, for the efficiency LP."""
        if self._own is None:
            self._own = [[float(self.value(i, a[i])) for a in self.allocations] for i in range(self.n)]
        return self._own


def _items_to_mask(items, m):
    mask = 0
    for item in items:
        if not isinstance(item, int) or not 1 <= item <= m or mask >> (item - 1) & 1:
            raise WrongAnswer(f"bad item list {items!r}")
        mask |= 1 << (item - 1)
    return mask


def _bundles(entry, n, m):
    if not isinstance(entry, list) or len(entry) != n:
        raise WrongAnswer(f"expected {n} bundles, got {entry!r}")
    masks = tuple(_items_to_mask(items, m) for items in entry)
    seen = 0
    for b in masks:
        if seen & b:
            raise WrongAnswer(f"overlapping bundles {entry!r}")
        seen |= b
    return masks


def _allocation_set(spec, n, m):
    if spec == "all_partitions":
        out = []
        for owners in product(range(n + 1), repeat=m):
            bundles = [0] * n
            for item, owner in enumerate(owners):
                if owner:
                    bundles[owner - 1] |= 1 << item
            out.append(tuple(bundles))
        return out
    closed = {}
    frontier = []
    for entry in spec:
        a = _bundles(entry, n, m)
        if a not in closed:
            closed[a] = None
            frontier.append(a)
    while frontier:
        a = frontier.pop()
        for g, h in combinations(range(n), 2):
            b = list(a)
            b[g], b[h] = b[h], b[g]
            b = tuple(b)
            if b not in closed:
                closed[b] = None
                frontier.append(b)
    return list(closed)


def _bundle_values(util, n, m):
    if util["type"] == "additive":
        out = []
        for row in util["items"]:
            per_item = [Fraction(v) for v in row]
            out.append(
                {mask: sum((per_item[g] for g in range(m) if mask >> g & 1), Fraction(0)) for mask in range(1 << m)}
            )
        return out
    return [{mask: Fraction(v) for mask, v in row} for row in util["values"]]


def parse_lottery(support, inst):
    """Support-form lottery to {bundles: probability}, validated exactly."""
    if not isinstance(support, list) or not support:
        raise WrongAnswer("lottery has no support")
    lottery = {}
    for entry in support:
        a = _bundles(entry["bundles"], inst.n, inst.m)
        if a not in inst.allowed:
            raise WrongAnswer(f"allocation {entry['bundles']} is outside the instance's set")
        if a in lottery:
            raise WrongAnswer(f"allocation {entry['bundles']} listed twice")
        q = Fraction(entry["probability"])
        if q < 0:
            raise WrongAnswer("negative probability")
        lottery[a] = q
    if sum(lottery.values()) != 1:
        raise WrongAnswer(f"probabilities sum to {sum(lottery.values())}")
    return lottery


def views(lottery, inst):
    """views[i][h]: player i's exact expected raw value of player h's bundles."""
    return [
        [sum((q * inst.value(i, a[h]) for a, q in lottery.items()), Fraction(0)) for h in range(inst.n)]
        for i in range(inst.n)
    ]


def envy_free(lottery, inst):
    v = views(lottery, inst)
    return all(v[i][h] <= v[i][i] for i in range(inst.n) for h in range(inst.n))


def efficient(lottery, inst):
    """Float improvement LP: True when no lottery dominates; refuses near the line.

    scipy is imported here, after the timed loop, so that the workload's peak
    RSS holds only what the program itself loaded.
    """
    import numpy as np
    from scipy.optimize import linprog

    n, k = inst.n, len(inst.allocations)
    own = np.array(inst.own_matrix())
    current = np.array([float(views(lottery, inst)[i][i]) for i in range(n)])
    res = linprog(
        np.concatenate([np.zeros(k), -np.ones(n)]),
        A_ub=np.hstack([-own, np.eye(n)]),
        b_ub=-current,
        A_eq=np.concatenate([np.ones(k), np.zeros(n)])[None, :],
        b_eq=[1.0],
        bounds=[(0, None)] * (k + n),
        method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"efficiency oracle LP ended with status {res.status}: {res.message}")
    gap = -res.fun / inst.scale
    if gap <= EFFICIENT_GAP:
        return True
    if gap >= DOMINATED_GAP:
        return False
    raise RuntimeError(f"efficiency oracle cannot decide: relative gap {gap:.3g}")


def dominates(better, worse, inst):
    """Exact weak domination for every player plus strict for one."""
    vb, vw = views(better, inst), views(worse, inst)
    gains = [vb[i][i] - vw[i][i] for i in range(inst.n)]
    return all(g >= 0 for g in gains) and any(g > 0 for g in gains)


def check_solve(inst, code, out, err):
    """Classify a solve answer as 'certified' or 'search_failed'; raise if wrong."""
    if code == 2 and any(line.startswith("search failed:") for line in err.splitlines()):
        return "search_failed"
    if code != 0:
        raise WrongAnswer(f"solve exited {code}: {err.strip()[-300:]}")
    result = json.loads(out)
    cert = result["certificate"]
    if not (cert["ok"] and cert["ef"]["ok"] and cert["pe"]["ok"]):
        raise WrongAnswer(f"solve exited 0 without a passing certificate: {cert}")
    lottery = parse_lottery(result["p"]["support"], inst)
    if not envy_free(lottery, inst):
        raise WrongAnswer("returned lottery is not envy-free")
    if not efficient(lottery, inst):
        raise WrongAnswer("returned lottery is Pareto dominated")
    return "certified"


def check_verify(inst, lottery, code, out, err):
    """Compare a verify verdict with the oracles; returns 'pass' or 'fail'."""
    if code not in (0, 3):
        raise WrongAnswer(f"verify exited {code}: {err.strip()[-300:]}")
    cert = json.loads(out)
    ef, pe = cert["ef"]["ok"], cert["pe"]["ok"]
    if cert["ok"] != (ef and pe) or (code == 0) != cert["ok"]:
        raise WrongAnswer(f"verdict and exit code disagree: exit {code}, {cert}")
    if ef != envy_free(lottery, inst):
        raise WrongAnswer(f"envy verdict {ef} is wrong")
    if not ef:
        w = cert["ef"]["witness"]
        i, h = w["envious"] - 1, w["envied"] - 1
        v = views(lottery, inst)
        if not v[i][h] > v[i][i]:
            raise WrongAnswer(f"envy witness {w} does not envy")
    if pe != efficient(lottery, inst):
        raise WrongAnswer(f"efficiency verdict {pe} is wrong")
    if not pe:
        dominator = parse_lottery(cert["pe"]["dominator"]["support"], inst)
        if not dominates(dominator, lottery, inst):
            raise WrongAnswer("returned dominator does not dominate")
    return "pass" if cert["ok"] else "fail"
