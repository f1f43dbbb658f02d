"""Seeded input generators for the three workloads.

Each workload yields an endless sequence of operations.  An operation is a
CLI argument list over files written into the run directory, plus a check
that classifies the CLI's answer or raises ``oracle.WrongAnswer``.  Files
are written when an operation is drawn, outside any timed region.

Every workload runs in rounds of ``ROUND`` operations: a round is the
workload's fixed set of instances (and, for certify, lotteries), generated
from a constant seed (see ``_pool``), in an order drawn from --seed.  The
timed loop measures whole rounds, so every run of a workload measures the
same mix.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable

import oracle

HARD_P = 3
HARD_INSTANCES = 12
CERTIFY_KINDS = ("full", "full", "split", "welfare")


@dataclass
class Op:
    argv: list
    check: Callable[[int, str, str], str]


class _Files:
    def __init__(self, directory, prefix):
        self.directory = directory
        self.prefix = prefix
        self.count = 0

    def path(self, stem):
        self.count += 1
        return os.path.join(self.directory, f"{self.prefix}-{stem}-{self.count}.json")

    def write(self, stem, data):
        path = self.path(stem)
        with open(path, "w") as fh:
            json.dump(data, fh)
        return path


def _coin(rng):
    return f"{rng.randint(0, 12)}/{rng.choice([1, 2, 3])}"


def _utilities(rng, n, m, kind):
    if kind == "additive":
        return {"type": "additive", "items": [[_coin(rng) for _ in range(m)] for _ in range(n)]}
    return {"type": "table", "values": [[[mask, _coin(rng)] for mask in range(1 << m)] for _ in range(n)]}


def _explicit_allocations(rng, n, m, count):
    out = []
    for _ in range(count):
        owners = [rng.randint(0, n) for _ in range(m)]
        out.append([[g + 1 for g in range(m) if owners[g] == i + 1] for i in range(n)])
    return out


def _solve_op(files, data):
    path = files.write("instance", data)

    def check(code, out, err):
        return oracle.check_solve(oracle.Instance(data), code, out, err)

    return Op(["solve", "--instance", path], check)


def _rounds(rng, strata):
    while True:
        order = list(strata)
        rng.shuffle(order)
        yield from order


def _pool(name, strata, per_stratum, make):
    """The fixed instance set of a solve workload: ``per_stratum`` of each stratum.

    It comes from a constant seed, not from --seed.  The per-operation costs
    are heavy-tailed (on desk, the 6-11% of solves that take 0.3-1.3 s make
    up 40-60% of the time), so a seeded set would put a spread between seeds
    of 10% on the throughput and 20% on the tail from the mix alone, on top
    of the machine's own drift; and on wide, where about a third of the
    instances are solved, a binomial spread of ~40% on solved_ratio.  With a
    fixed set the seed sets the order of each round.
    """
    rng = random.Random(f"{name}:pool")
    return [make(rng, *stratum) for _ in range(per_stratum) for stratum in strata]


DESK_STRATA = tuple((n, m, kind) for n in (2, 3) for m in (2, 3, 4) for kind in ("additive", "table"))
DESK_PER_STRATUM = 10


def _desk_instance(rng, n, m, kind):
    return {"n": n, "m": m, "utilities": _utilities(rng, n, m, kind), "allocations": "all_partitions"}


def desk(rng, files, cli_main):
    """The acceptance gate's desk mix: n in {2,3}, m in {2,3,4}, all partitions."""
    for data in _rounds(rng, _pool("desk", DESK_STRATA, DESK_PER_STRATUM, _desk_instance)):
        yield _solve_op(files, data)


WIDE_STRATA = tuple((alloc, kind) for alloc in ("all_partitions", "explicit") for kind in ("additive", "table"))
WIDE_PER_STRATUM = 6


def _wide_instance(rng, alloc, kind):
    if alloc == "all_partitions":
        m, allocations = 3, "all_partitions"
    else:
        m = 4
        allocations = _explicit_allocations(rng, 4, m, rng.choice([11, 12]))
    return {"n": 4, "m": m, "utilities": _utilities(rng, 4, m, kind), "allocations": allocations}


def wide(rng, files, cli_main):
    """n = 4: all partitions of 3 items, or 11-12 listed allocations of 4 items closed on load."""
    for data in _rounds(rng, _pool("wide", WIDE_STRATA, WIDE_PER_STRATUM, _wide_instance)):
        yield _solve_op(files, data)


def _items(mask):
    return [g + 1 for g in range(2 * HARD_P) if mask >> g & 1]


def _hard_instance(rng, files, cli_main):
    """One p = 3 intersection-hard instance, built by the program's gen-hard."""
    r = len(list(combinations(range(1, 2 * HARD_P), HARD_P - 1)))
    x1 = "".join(str(rng.randint(0, 1)) for _ in range(r))
    x2 = "".join(str(rng.randint(0, 1)) for _ in range(r))
    path = files.path("hard")
    code = cli_main(["gen-hard", "--p", str(HARD_P), "--x1", x1, "--x2", x2, "--out", path])
    if code != 0:
        raise RuntimeError(f"gen-hard exited {code}")
    with open(path) as fh:
        inst = oracle.Instance(json.load(fh))
    full = (1 << 2 * HARD_P) - 1
    splits = []
    for rest in combinations(range(1, 2 * HARD_P), HARD_P - 1):
        first = 1
        for item in rest:
            first |= 1 << item
        splits.append((first, full ^ first))
    welfare = [sum(inst.value(i, a[i]) for i in range(2)) for a in inst.allocations]
    top = max(welfare)
    best = [a for a, w in zip(inst.allocations, welfare) if w == top]
    return path, inst, splits, best


def _verify_op(rng, files, hard, kind):
    path, inst, splits, best = hard
    full = (1 << 2 * HARD_P) - 1
    if kind == "full":
        s1 = rng.randrange(full + 1)
        lottery = {(s1, full ^ s1): Fraction(1)}
    elif kind == "split":
        a, b = rng.choice(splits)
        lottery = {(a, b): Fraction(1, 2), (b, a): Fraction(1, 2)}
    else:
        lottery = {rng.choice(best): Fraction(1)}
    support = [
        {"bundles": [_items(m) for m in bundles], "probability": f"{q.numerator}/{q.denominator}"}
        for bundles, q in lottery.items()
    ]
    lottery_path = files.write("lottery", {"support": support})

    def check(code, out, err):
        return oracle.check_verify(inst, lottery, code, out, err)

    return Op(["verify", "--instance", path, "--allocation", lottery_path], check)


def certify(rng, files, cli_main):
    """verify of dichotomy candidates and welfare maxima on p = 3 hard instances.

    Like the solve workloads' instance sets, the operation set (instances and
    lotteries) comes from a constant seed, and --seed sets its order.
    """
    pool_rng = random.Random("certify:pool")
    hard = [_hard_instance(pool_rng, files, cli_main) for _ in range(HARD_INSTANCES)]
    yield from _rounds(rng, [_verify_op(pool_rng, files, h, kind) for h in hard for kind in CERTIFY_KINDS])


WORKLOADS = {"desk": desk, "certify": certify, "wide": wide}
ROUND = {
    "desk": DESK_PER_STRATUM * len(DESK_STRATA),
    "certify": HARD_INSTANCES * len(CERTIFY_KINDS),
    "wide": WIDE_PER_STRATUM * len(WIDE_STRATA),
}


def operations(name, seed, directory, cli_main):
    """Endless operation iterator for a workload and seed."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), _Files(directory, "run"), cli_main)
