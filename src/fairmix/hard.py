"""Two-player submodular instances that encode set intersection.

For half-count p there are r = C(2p, p)/2 ways to split the 2p items into
equal halves (first, second) with item 1 pinned to the first half.  Each
player carries an r-bit string; her value for a bundle depends only on its
size, except that exactly-half bundles matching a split side her string
flags are worth one extra unit.  Player 1 flags first halves, player 2
flags second halves.

The size bands are 3|S| below the half size and 3p at or above it, with
unflagged halves at 3p - 1.  When the strings share a flagged index, giving
each player her flagged side of that split is envy-free and efficient with
full welfare 6p; when they are disjoint, every certified deterministic
outcome stays at or below 6p - 1.  Deciding between the cases is deciding
set intersection, which is what makes the family a stress test.

A half-count is an int in 1..``MAX_ITEMS // 2``.  Each exhaustive step
counts what it would build against ``model.DEFAULT_ENUMERATION_BUDGET``,
read when called, and past it raises ``EnumerationLimitError`` before
building anything: the r splits (p <= 10), the 2^(2p) bundle values per
player (p <= 8), the m * 3^(m-1) comparisons of the submodularity check
(m <= 10), and the instance's 3^(2p) partitions (p <= 5).
"""

import math
from fractions import Fraction
from itertools import combinations

from . import model
from .envy import check_envy_free, check_pareto_efficient
from .errors import EnumerationLimitError, MalformedInstanceError
from .model import (
    MAX_ITEMS,
    Instance,
    MixedAllocation,
    Value,
    _entries,
    _require_int,
    _shown,
    all_partitions_allocation_set,
    is_int,
)


def _within_budget(count, what):
    """Refuse to build ``count`` ``what`` past the allocation budget, read now."""
    budget = model.DEFAULT_ENUMERATION_BUDGET
    if count > budget:
        raise EnumerationLimitError(f"{count} {what} exceed the budget of {budget}")


def split_count(p):
    """r = C(2p, p) / 2, the number of halves containing item 1.  This is the
    one check of a half-count: p must be an int in 1..MAX_ITEMS // 2, not a bool."""
    if not is_int(p) or not 1 <= p <= MAX_ITEMS // 2:
        raise MalformedInstanceError(f"half-count must be an integer in 1..{MAX_ITEMS // 2}, got {_shown(p)}")
    return math.comb(2 * p, p) // 2


class DisjointnessInput(Value):
    """Half-count p plus one r-bit string per player."""

    def __init__(self, p, x1, x2):
        r = split_count(p)
        strings = {}
        for name, bits in (("x1", x1), ("x2", x2)):
            bits = tuple(_entries(bits, name))
            if len(bits) != r:
                raise MalformedInstanceError(f"{name} has {len(bits)} bits, expected r = {r} for p = {p}")
            for b in bits:
                if not is_int(b) or b not in (0, 1):
                    raise MalformedInstanceError(f"{name} contains a non-bit entry {_shown(b)}")
            strings[name] = bits
        self.__dict__.update(p=p, **strings)

    def shares_flagged_index(self):
        return any(a and b for a, b in zip(self.x1, self.x2))


def enumerate_splits(p):
    """All p-subsets of {1..2p} containing item 1, lexicographic, as a tuple
    of ``(first, second)`` bundle masks."""
    _within_budget(split_count(p), "splits")
    full = (1 << (2 * p)) - 1
    splits = []
    for rest in combinations(range(1, 2 * p), p - 1):
        first = 1
        for item in rest:
            first |= 1 << item
        splits.append((first, full ^ first))
    return tuple(splits)


def hard_utility_tables(inp):
    """Raw (unnormalized) bundle tables for both players."""
    p = inp.p
    m = 2 * p
    _within_budget(1 << m, "bundle values per player")
    splits = enumerate_splits(p)
    tables = []
    for bits, side in ((inp.x1, 0), (inp.x2, 1)):
        flagged = {splits[j][side] for j in range(len(bits)) if bits[j]}
        table = {}
        for mask in range(1 << m):
            size = mask.bit_count()
            if size < p:
                value = 3 * size
            elif size > p or mask in flagged:
                value = 3 * p
            else:
                value = 3 * p - 1
            table[mask] = Fraction(value)
        tables.append(table)
    return tables


def build_hard_instance(inp):
    """Two-player instance over all partitions of the 2p items.

    Utilities are stored raw in the profile's original slot; the instance
    itself carries the rescaled values every solver path expects.
    """
    allocations = all_partitions_allocation_set(2, 2 * inp.p)
    return Instance.build(hard_utility_tables(inp), allocations)


def check_submodular(values, m):
    """Exhaustive diminishing-returns check over one player's bundle table.

    Tests u(X + e) - u(X) >= u(Y + e) - u(Y) for every X within Y and e
    outside Y.  Scans e ascending, then Y ascending, so the first violation
    is deterministic.  Returns (True, None) or (False, (X, Y, e)).  ``m``
    must be an int >= 0 and ``values`` a table with every mask over the m
    items, or this raises ``MalformedInstanceError``.
    """
    _require_int(m, "item count m")
    if m < 0:
        raise MalformedInstanceError(f"negative item count m={_shown(m)}")
    budget = model.DEFAULT_ENUMERATION_BUDGET
    # m * 3^(m-1) >= 2^(m-1) exceeds the budget once m passes its bit
    # length, so a large m is refused before 3^(m-1) is built
    if m > budget.bit_length() or m * 3**m // 3 > budget:
        raise EnumerationLimitError(f"m = {_shown(m)} needs m * 3^(m-1) comparisons, over the budget of {budget}")
    _entries(values, "bundle table")
    for mask in range(1 << m):
        if mask not in values:
            raise MalformedInstanceError(f"table lacks a value for bundle mask {mask}")
    for e in range(m):
        bit = 1 << e
        for y in range(1 << m):
            if y & bit:
                continue
            upper = values[y | bit] - values[y]
            x = y
            while True:
                if values[x | bit] - values[x] < upper:
                    return False, (x, y, e)
                if x == 0:
                    break
                x = (x - 1) & y
    return True, None


class CertifiedOutcome(Value):
    """One certified outcome; ``kind`` is "deterministic" or "split_lottery"."""

    def __init__(self, kind, bundles, split_index, welfare):
        self.__dict__.update(kind=kind, bundles=bundles, split_index=split_index, welfare=welfare)


class DichotomyReport(Value):
    def __init__(self, p, x1, x2, intersecting, target_welfare, certified, dichotomy_holds, flagged_mixed):
        self.__dict__.update(
            p=p,
            x1=x1,
            x2=x2,
            intersecting=intersecting,
            target_welfare=target_welfare,
            certified=certified,
            dichotomy_holds=dichotomy_holds,
            flagged_mixed=flagged_mixed,
        )


def _raw_welfare(p, inst):
    raw = inst.utilities.raw_values
    columns = inst.allocations.columns
    total = Fraction(0)
    for i in range(inst.n):
        for j, q in p.pairs:
            total += q * raw[i][columns[i][j]]
    return total


def verify_welfare_dichotomy(inp):
    """Certify every full deterministic outcome and split lottery, then compare.

    Shared flagged index: some certified outcome must reach welfare 6p and
    all certified ones must equal it.  No shared index: every certified
    deterministic outcome must stay at or below 6p - 1; lotteries above that
    line are reported in ``flagged_mixed`` rather than failing the check,
    since the dichotomy's case analysis is deterministic.  The instance is
    built first, so a p past the allocation budget is refused before any
    split is enumerated.
    """
    inst = build_hard_instance(inp)
    splits = enumerate_splits(inp.p)
    k = len(inst.allocations)
    m = 2 * inp.p
    full = (1 << m) - 1

    # the candidates are built unchecked, as ascending (index, Fraction)
    # pairs: a split's two sides give two distinct allocations
    one, half = Fraction(1), Fraction(1, 2)
    position = inst.allocations.position
    candidates = []
    for s1 in range(1 << m):
        bundles = (s1, full ^ s1)
        lottery = MixedAllocation._of(k, ((position(bundles), one),))
        candidates.append(("deterministic", bundles, None, lottery))
    for idx, (t1, t2) in enumerate(splits):
        ja, jb = sorted((position((t1, t2)), position((t2, t1))))
        candidates.append(("split_lottery", None, idx, MixedAllocation._of(k, ((ja, half), (jb, half)))))

    certified = []
    for kind, bundles, idx, p in candidates:
        if not check_envy_free(p, inst).ok:
            continue
        if not check_pareto_efficient(p, inst).ok:
            continue
        certified.append(
            CertifiedOutcome(kind=kind, bundles=bundles, split_index=idx, welfare=_raw_welfare(p, inst))
        )

    target = Fraction(6 * inp.p)
    intersecting = inp.shares_flagged_index()
    deterministic = [c for c in certified if c.kind == "deterministic"]
    flagged_mixed = ()
    if intersecting:
        holds = bool(certified) and all(c.welfare == target for c in certified)
    else:
        holds = all(c.welfare <= target - 1 for c in deterministic)
        flagged_mixed = tuple(
            c for c in certified if c.kind == "split_lottery" and c.welfare > target - 1
        )
    return DichotomyReport(
        p=inp.p,
        x1=inp.x1,
        x2=inp.x2,
        intersecting=intersecting,
        target_welfare=target,
        certified=tuple(certified),
        dichotomy_holds=holds,
        flagged_mixed=flagged_mixed,
    )
