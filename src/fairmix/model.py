"""Domain types for lottery-based fair division of indivisible items.

Bundles are bitmasks over items (bit ``i`` is item ``i + 1``).  All utility
values are exact :class:`fractions.Fraction`; nothing in this module rounds.
Every type is immutable after construction and safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, product
from math import lcm

from .errors import EnumerationLimitError, MalformedInstanceError

MAX_ITEMS = 24
DEFAULT_ENUMERATION_BUDGET = 200_000


def as_fraction(value):
    """Coerce ints, Fractions and 'num/den' strings; reject floats."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise MalformedInstanceError(f"boolean is not a rational value: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise MalformedInstanceError(f"bad rational {value!r}: {exc}") from exc
    raise MalformedInstanceError(f"non-rational value of type {type(value).__name__}: {value!r}")


@dataclass(frozen=True)
class PureAllocation:
    """One deterministic allocation: bundle ``bundles[i]`` goes to player ``i``.

    Bundles must be pairwise disjoint.  They need not cover all items;
    partially allocated outcomes are legal.
    """

    bundles: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "bundles", tuple(int(b) for b in self.bundles))
        seen = 0
        for b in self.bundles:
            if b < 0:
                raise MalformedInstanceError(f"negative bundle mask {b}")
            if seen & b:
                raise MalformedInstanceError(f"overlapping bundles in {self.bundles}")
            seen |= b

    @property
    def n(self):
        return len(self.bundles)

    def swap(self, g, h):
        """The allocation with players g and h exchanging their bundles."""
        out = list(self.bundles)
        out[g], out[h] = out[h], out[g]
        return PureAllocation(tuple(out))

    def union_mask(self):
        mask = 0
        for b in self.bundles:
            mask |= b
        return mask


class AllocationSet:
    """An ordered, duplicate-free collection of pure allocations.

    Duplicates passed to the constructor are collapsed, keeping first
    occurrence order.  ``index`` maps a bundle tuple back to its position.
    """

    def __init__(self, allocations):
        uniq = {}
        for a in allocations:
            if not isinstance(a, PureAllocation):
                a = PureAllocation(tuple(a))
            uniq.setdefault(a.bundles, a)
        self.allocations = tuple(uniq.values())
        if not self.allocations:
            raise MalformedInstanceError("allocation set may not be empty")
        n = self.allocations[0].n
        for a in self.allocations:
            if a.n != n:
                raise MalformedInstanceError("allocations disagree on player count")
        self.n = n
        self.index = {a.bundles: j for j, a in enumerate(self.allocations)}

    def __len__(self):
        return len(self.allocations)

    def __iter__(self):
        return iter(self.allocations)

    def __getitem__(self, j):
        return self.allocations[j]

    def __eq__(self, other):
        return isinstance(other, AllocationSet) and self.allocations == other.allocations

    def __repr__(self):
        return f"AllocationSet(k={len(self.allocations)}, n={self.n})"

    def bundles_seen(self):
        """Every bundle mask appearing anywhere in the set."""
        out = set()
        for a in self.allocations:
            out.update(a.bundles)
        return out


@dataclass(frozen=True)
class UtilityProfile:
    """Per-player bundle values, rescaled into [1, 2], originals kept alongside."""

    values: tuple[dict, ...]
    raw_values: tuple[dict, ...]

    @property
    def n(self):
        return len(self.values)

    def value(self, player, bundle):
        return self.values[player][bundle]

    def raw_value(self, player, bundle):
        return self.raw_values[player][bundle]


def normalize_utilities(raw):
    """Rescale each player's values affinely onto [1, 2].

    ``raw`` is a sequence (one entry per player) of mappings from bundle
    mask to rational value.  A player whose values are all equal maps to the
    constant 1.  Applying the rescale twice equals applying it once.
    """
    norm = []
    originals = []
    for i, table in enumerate(raw):
        if not table:
            raise MalformedInstanceError(f"player {i} has no utility values")
        checked = {}
        for bundle, v in table.items():
            checked[int(bundle)] = as_fraction(v)
        lo = min(checked.values())
        hi = max(checked.values())
        if hi == lo:
            scaled = {b: Fraction(1) for b in checked}
        else:
            span = hi - lo
            scaled = {b: 1 + (v - lo) / span for b, v in checked.items()}
        norm.append(scaled)
        originals.append(checked)
    return UtilityProfile(tuple(norm), tuple(originals))


@dataclass(frozen=True)
class Instance:
    """A fair-division instance: players, items, utilities, legal allocations."""

    n: int
    m: int
    utilities: UtilityProfile
    allocations: AllocationSet

    def __post_init__(self):
        if self.n < 1:
            raise MalformedInstanceError(f"need at least one player, got n={self.n}")
        if self.m < 0:
            raise MalformedInstanceError(f"negative item count m={self.m}")
        if self.m > MAX_ITEMS:
            raise MalformedInstanceError(f"m={self.m} exceeds the bitmask cap of {MAX_ITEMS}")
        if self.allocations.n != self.n:
            raise MalformedInstanceError(
                f"allocations are over {self.allocations.n} players, instance has {self.n}"
            )
        if self.utilities.n != self.n:
            raise MalformedInstanceError(
                f"utilities are over {self.utilities.n} players, instance has {self.n}"
            )
        full = (1 << self.m) - 1
        bundles = self.allocations.bundles_seen()
        for a in self.allocations:
            if a.union_mask() & ~full:
                raise MalformedInstanceError(f"allocation {a.bundles} uses items beyond m={self.m}")
        for i in range(self.n):
            missing = bundles - self.utilities.values[i].keys()
            if missing:
                raise MalformedInstanceError(
                    f"player {i} lacks a utility for bundle mask {min(missing)}"
                )

    @classmethod
    def build(cls, raw_utilities, allocations):
        """Normalize raw utilities and assemble an instance around them."""
        if not isinstance(allocations, AllocationSet):
            allocations = AllocationSet(allocations)
        profile = normalize_utilities(raw_utilities)
        n = allocations.n
        m = max(allocations.bundles_seen(), default=0).bit_length()
        return cls(n=n, m=m, utilities=profile, allocations=allocations)

    def value(self, player, bundle):
        return self.utilities.value(player, bundle)

    def raw_value(self, player, bundle):
        return self.utilities.raw_value(player, bundle)

    @cached_property
    def kernel(self):
        """The instance's :class:`UtilityKernel`, built on first use."""
        return UtilityKernel.of(self)


@dataclass(frozen=True)
class Frontier:
    """The Pareto-maximal own-utility vectors, exact and scaled to integers.

    ``vectors[f]`` is a frontier vector, ``members[f]`` the ascending indices
    of the allocations that give it, and ``points[f][i]`` equals
    ``vectors[f][i] * scales[i]``, an int: ``scales[i]`` is the lcm of
    player i's denominators over the frontier.  The frontier reads as the
    sequence of its integer points.
    """

    vectors: tuple
    members: tuple
    scales: tuple
    points: tuple

    def __len__(self):
        return len(self.points)

    def __getitem__(self, f):
        return self.points[f]


@dataclass(frozen=True)
class UtilityKernel:
    """Own-utility data of an instance, derived once.

    ``own[i][j]`` is player i's value for her bundle in allocation j.
    ``vectors`` are the distinct own-utility vectors (columns of ``own``) in
    order of first occurrence, ``members[v]`` the ascending indices of the
    allocations sharing vector v; allocations with equal own vectors stay
    separate, because their envy views differ.  ``frontier`` keeps the
    vectors that no other vector weakly dominates.
    """

    own: tuple
    vectors: tuple
    members: tuple
    frontier: Frontier

    @classmethod
    def of(cls, inst):
        own = tuple(
            tuple(inst.value(i, a.bundles[i]) for a in inst.allocations)
            for i in range(inst.n)
        )
        groups = {}
        for j, vec in enumerate(zip(*own)):
            groups.setdefault(vec, []).append(j)
        vectors = tuple(groups)
        members = tuple(tuple(js) for js in groups.values())
        kept = pareto_frontier(vectors)
        front = tuple(vectors[v] for v in kept)
        scales = tuple(lcm(*(vec[i].denominator for vec in front)) for i in range(inst.n))
        points = tuple(
            tuple(int(x * s) for x, s in zip(vec, scales)) for vec in front
        )
        frontier = Frontier(front, tuple(members[v] for v in kept), scales, points)
        return cls(own, vectors, members, frontier)


def pareto_frontier(vectors):
    """Ascending indices of the distinct ``vectors`` that no other weakly dominates.

    Sort-based skyline: in descending lexicographic order a vector can only
    be dominated by one that came before it, so one pass that keeps each
    vector no kept vector dominates finds the maximal set.
    """
    kept = []
    for v in sorted(range(len(vectors)), key=vectors.__getitem__, reverse=True):
        vec = vectors[v]
        if not any(all(a >= b for a, b in zip(vectors[u], vec)) for u in kept):
            kept.append(v)
    return sorted(kept)


def all_partitions_allocation_set(n, m, budget=DEFAULT_ENUMERATION_BUDGET):
    """Every assignment of each item to one of the n players or to nobody.

    Yields (n+1)^m allocations; the result is swappable by construction.
    """
    k = (n + 1) ** m
    if k > budget:
        raise EnumerationLimitError(
            f"all-partitions set has {(n + 1)}^{m} = {k} allocations, over the budget of {budget}"
        )
    allocations = []
    for owners in product(range(n + 1), repeat=m):
        bundles = [0] * n
        for item, owner in enumerate(owners):
            if owner:
                bundles[owner - 1] |= 1 << item
        allocations.append(PureAllocation(tuple(bundles)))
    return AllocationSet(allocations)


def is_swappable(aset):
    """Check closure under pairwise bundle swaps.

    Returns ``(True, None)`` or ``(False, (j, g, h))`` with the first
    allocation index and player pair whose swap is missing.
    """
    for j, a in enumerate(aset.allocations):
        for g, h in combinations(range(aset.n), 2):
            if a.bundles[g] == a.bundles[h]:
                continue
            if a.swap(g, h).bundles not in aset.index:
                return False, (j, g, h)
    return True, None


def swap_closure(allocations, budget=DEFAULT_ENUMERATION_BUDGET):
    """Smallest superset of ``allocations`` closed under pairwise bundle swaps."""
    start = []
    for a in allocations:
        if not isinstance(a, PureAllocation):
            a = PureAllocation(tuple(a))
        start.append(a)
    if not start:
        raise MalformedInstanceError("cannot close an empty allocation list")
    n = start[0].n
    closed = {}
    frontier = []
    for a in start:
        if a.n != n:
            raise MalformedInstanceError("allocations disagree on player count")
        if a.bundles not in closed:
            closed[a.bundles] = a
            frontier.append(a)
    while frontier:
        a = frontier.pop()
        for g, h in combinations(range(n), 2):
            if a.bundles[g] == a.bundles[h]:
                continue
            b = a.swap(g, h)
            if b.bundles not in closed:
                if len(closed) >= budget:
                    raise EnumerationLimitError(
                        f"swap closure exceeds the budget of {budget} allocations"
                    )
                closed[b.bundles] = b
                frontier.append(b)
    return AllocationSet(closed.values())


@dataclass(frozen=True)
class MixedAllocation:
    """A lottery over the allocation set: exact probabilities summing to one."""

    p: tuple[Fraction, ...]

    def __post_init__(self):
        probs = tuple(as_fraction(v) for v in self.p)
        object.__setattr__(self, "p", probs)
        if any(v < 0 for v in probs):
            raise MalformedInstanceError("negative probability in mixed allocation")
        if sum(probs) != 1:
            raise MalformedInstanceError(f"probabilities sum to {sum(probs)}, not 1")

    @classmethod
    def point_mass(cls, k, j):
        return cls(tuple(Fraction(1) if i == j else Fraction(0) for i in range(k)))

    @classmethod
    def uniform(cls, k):
        return cls((Fraction(1, k),) * k)

    @classmethod
    def from_support(cls, k, support):
        """Build from a {index: probability} mapping over a set of size k."""
        probs = [Fraction(0)] * k
        for j, q in support.items():
            probs[j] += as_fraction(q)
        return cls(tuple(probs))

    def support(self):
        return tuple(j for j, q in enumerate(self.p) if q > 0)


@dataclass(frozen=True)
class WeightVector:
    """A point of the truncated simplex: sums to one, every coordinate >= epsilon."""

    w: tuple[Fraction, ...]
    epsilon: Fraction

    def __post_init__(self):
        w = tuple(as_fraction(v) for v in self.w)
        eps = as_fraction(self.epsilon)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "epsilon", eps)
        n = len(w)
        if n == 0:
            raise MalformedInstanceError("empty weight vector")
        if not 0 < eps <= Fraction(1, n):
            raise MalformedInstanceError(f"floor {eps} outside (0, 1/{n}]")
        if sum(w) != 1:
            raise MalformedInstanceError(f"weights sum to {sum(w)}, not 1")
        if any(v < eps for v in w):
            raise MalformedInstanceError("weight below the floor")

    @classmethod
    def uniform(cls, n, epsilon):
        return cls((Fraction(1, n),) * n, epsilon)


def expected_utility(p, viewer, owner, inst):
    """Viewer's expected value for the bundle stream handed to ``owner``."""
    if len(p.p) != len(inst.allocations):
        raise MalformedInstanceError(
            f"lottery over {len(p.p)} allocations, instance has {len(inst.allocations)}"
        )
    total = Fraction(0)
    for j, q in enumerate(p.p):
        if q:
            total += q * inst.value(viewer, inst.allocations[j].bundles[owner])
    return total
