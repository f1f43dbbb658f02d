"""Domain types for lottery-based fair division of indivisible items.

Bundles are bitmasks over items (bit ``i`` is item ``i + 1``).  Utility
values enter as exact :class:`fractions.Fraction`; ``normalize_utilities``
normalizes them once, straight into a :class:`UtilityProfile` of int
numerators over one denominator shared by every player, and everything
downstream reads those ints; the raw Fractions are kept only to be written
back out.  An allocation set stores only its tuple of bundle tuples; the
:class:`PureAllocation` objects it hands out are views made on demand.  A
lottery stores only its support, as ascending (index, probability) pairs,
and ``expected_utility`` sums all its views in ints, in one pass.  Counts,
indices and masks are ints, never bools (``is_int``).
Nothing in this module rounds.  Every type is immutable after construction
and safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations, permutations
from math import gcd, lcm
from operator import ge

from .errors import EnumerationLimitError, MalformedInstanceError

MAX_ITEMS = 24
DEFAULT_ENUMERATION_BUDGET = 200_000


def as_fraction(value):
    """Coerce ints, Fractions and 'num/den' strings; reject floats, bools and x/0.
    A plain ASCII 'digits/digits' string is parsed in ints, any other through ``Fraction``."""
    if isinstance(value, str):
        num, _, den = value.partition("/")
        if value.isascii() and num.isdigit() and den.isdigit() and den.strip("0"):
            try:
                return Fraction(int(num), int(den))
            except ValueError:  # over the int-from-str digit limit
                pass
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise MalformedInstanceError(f"bad rational {value!r}: {exc}") from exc
    if isinstance(value, bool):
        raise MalformedInstanceError(f"boolean is not a rational value: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    # last: an isinstance check against Fraction, an ABC, is slow for other types
    if isinstance(value, Fraction):
        return value
    raise MalformedInstanceError(f"non-rational value of type {type(value).__name__}: {value!r}")


def is_int(value):
    """The rule every integer input follows: an int, not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def over_common_denominator(values):
    """Rationals as int numerators over their lcm, ``(numerators, lcm)``; reads ``values`` twice."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _require_int(value, name):
    if not is_int(value):
        raise MalformedInstanceError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class PureAllocation:
    """One deterministic allocation: bundle ``bundles[i]`` goes to player ``i``.

    Bundles must be pairwise disjoint.  They need not cover all items;
    partially allocated outcomes are legal.
    """

    bundles: tuple[int, ...]

    def __post_init__(self):
        bundles = tuple(self.bundles)
        seen = 0
        for b in bundles:
            if not is_int(b) or b < 0:
                raise MalformedInstanceError(f"bundle mask {b!r} is not an integer >= 0")
            if seen & b:
                raise MalformedInstanceError(f"overlapping bundles in {bundles}")
            seen |= b
        object.__setattr__(self, "bundles", bundles)

    @property
    def n(self):
        return len(self.bundles)

    @classmethod
    def _of(cls, bundles):
        """Wrap a bundle tuple already known to be valid, without re-checking it."""
        out = object.__new__(cls)
        object.__setattr__(out, "bundles", bundles)
        return out


class AllocationSet:
    """An ordered, duplicate-free collection of pure allocations.

    The set stores its allocations as one form, ``bundles``: a tuple of
    bundle tuples, with ``index`` mapping each back to its position.
    ``aset[j]`` and iteration give :class:`PureAllocation` views, made when
    asked for and not stored.  Duplicates passed to the constructor are
    collapsed, keeping first occurrence order, and every allocation is
    validated: bundle types and overlaps, then a common player count.  Sets
    the program builds itself (all partitions, swap closures) are wrapped
    by ``_of`` and not re-validated.
    """

    def __init__(self, allocations):
        index = {}
        for a in allocations:
            if not isinstance(a, PureAllocation):
                a = PureAllocation(tuple(a))
            index.setdefault(a.bundles, len(index))
        if not index:
            raise MalformedInstanceError("allocation set may not be empty")
        bundles = tuple(index)
        n = len(bundles[0])
        for bs in bundles:
            if len(bs) != n:
                raise MalformedInstanceError("allocations disagree on player count")
        self._init(bundles, n, index, None)

    @classmethod
    def _of(cls, bundles, n, seen=None):
        """Wrap distinct, valid bundle tuples over n players without re-checking
        them; ``seen``, when given, is their ``bundles_seen()``."""
        out = object.__new__(cls)
        bundles = tuple(bundles)
        out._init(bundles, n, dict(zip(bundles, range(len(bundles)))), seen)
        return out

    def _init(self, bundles, n, index, seen):
        self.bundles = bundles
        self.n = n
        self.index = index
        self._bundles_seen = seen

    def __len__(self):
        return len(self.bundles)

    def __iter__(self):
        return map(PureAllocation._of, self.bundles)

    def __getitem__(self, j):
        if isinstance(j, slice):
            return tuple(map(PureAllocation._of, self.bundles[j]))
        return PureAllocation._of(self.bundles[j])

    def __eq__(self, other):
        return isinstance(other, AllocationSet) and self.bundles == other.bundles

    def __repr__(self):
        return f"AllocationSet(k={len(self.bundles)}, n={self.n})"

    def bundles_seen(self):
        """Every bundle mask appearing anywhere in the set, computed once per set."""
        if self._bundles_seen is None:
            self._bundles_seen = frozenset(chain.from_iterable(self.bundles))
        return self._bundles_seen


@dataclass(frozen=True)
class UtilityProfile:
    """Per-player bundle values rescaled into [1, 2], as ints over one denominator.

    ``table[i][bundle]`` is player i's rescaled value times ``scale``, the
    least positive int that makes every player's values ints.  Envy-freeness,
    Pareto efficiency and every welfare argmax are unchanged by multiplying
    all values by one positive constant, so consumers may compare the ints
    directly; player i's rescaled value is ``Fraction(table[i][bundle],
    scale)``.  ``raw_values`` keeps the originals, as Fractions.
    """

    table: tuple[dict, ...]
    scale: int
    raw_values: tuple[dict, ...]

    @property
    def n(self):
        return len(self.table)


def normalize_utilities(raw):
    """Rescale each player's values affinely onto [1, 2], in integers.

    ``raw`` holds one mapping per player from bundle mask (an int >= 0) to
    rational value.  Over the player's common denominator x maps to
    span + x - lo, then the entries and the span divide by their gcd, which
    leaves them over the player's least denominator d_i; a constant player
    gets all 1s over 1.  Each player's entries are then multiplied by
    D // d_i, where D, the profile's ``scale``, is the lcm of every d_i.
    Normalizing twice is a no-op.
    """
    tables = []
    least = []
    originals = []
    for i, values in enumerate(raw):
        if not values:
            raise MalformedInstanceError(f"player {i} has no utility values")
        checked = {}
        for bundle, v in values.items():
            if not is_int(bundle) or bundle < 0:
                raise MalformedInstanceError(f"bundle mask {bundle!r} is not an integer >= 0")
            checked[bundle] = as_fraction(v)
        ints = dict(zip(checked, over_common_denominator(checked.values())[0]))
        lo = min(ints.values())
        span = max(ints.values()) - lo
        if span == 0:
            tables.append(dict.fromkeys(ints, 1))
            least.append(1)
        else:
            g = gcd(span, *(x - lo for x in ints.values()))
            tables.append({b: (span + x - lo) // g for b, x in ints.items()})
            least.append(span // g)
        originals.append(checked)
    common = lcm(*least)
    table = tuple({b: x * (common // d) for b, x in row.items()} for row, d in zip(tables, least))
    return UtilityProfile(table, common, tuple(originals))


@dataclass(frozen=True)
class Instance:
    """A fair-division instance: players, items, utilities, legal allocations."""

    n: int
    m: int
    utilities: UtilityProfile
    allocations: AllocationSet

    def __post_init__(self):
        _require_int(self.n, "player count n")
        _require_int(self.m, "item count m")
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
        bundles = self.allocations.bundles_seen()
        # every mask is >= 0, so the largest one has a bit at or above m
        # exactly when some allocation uses an item beyond m
        if max(bundles) >> self.m:
            culprit = next(bs for bs in self.allocations.bundles if max(bs) >> self.m)
            raise MalformedInstanceError(f"allocation {culprit} uses items beyond m={self.m}")
        for i in range(self.n):
            missing = bundles - self.utilities.table[i].keys()
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

    @cached_property
    def kernel(self):
        """The instance's :class:`UtilityKernel`, built on first use."""
        return UtilityKernel.of(self)


@dataclass(frozen=True)
class Frontier:
    """The Pareto-maximal own-utility vectors, as integer points.

    ``points[f][i]`` is player i's entry of the profile's integer table in
    frontier vector f, its value times the profile's one ``scale``;
    ``members[f]`` are the ascending indices of the allocations that give
    it.  The frontier reads as the sequence of its integer points.
    """

    members: tuple
    points: tuple

    def __len__(self):
        return len(self.points)

    def __getitem__(self, f):
        return self.points[f]


@dataclass(frozen=True)
class UtilityKernel:
    """Own-utility data of an instance, derived once, in integers.

    ``table`` is the instance's :class:`UtilityProfile` integer table, every
    entry over the profile's one scale.  ``bundles`` is the allocation set's
    own tuple of bundle tuples, not a copy, and ``own_num[i][j]`` player i's
    entry for their bundle in allocation j, read down the set's bundle
    columns.  ``points`` are the distinct own-utility vectors (columns of
    ``own_num``) in order of first occurrence, ``members[v]`` the ascending
    indices of the allocations sharing point v; allocations with equal own
    vectors stay separate, because their envy views differ.  ``frontier``
    keeps the points that no other point weakly dominates.  ``rho``, the
    envy-gap constant, is derived on first use.
    """

    table: tuple
    bundles: tuple
    own_num: tuple
    points: tuple
    members: tuple
    frontier: Frontier

    @classmethod
    def of(cls, inst):
        table = inst.utilities.table
        bundles = inst.allocations.bundles
        own_num = tuple(
            tuple(map(row.__getitem__, column)) for row, column in zip(table, zip(*bundles))
        )
        groups = {}
        for j, point in enumerate(zip(*own_num)):
            groups.setdefault(point, []).append(j)
        points = tuple(groups)
        members = tuple(tuple(js) for js in groups.values())
        kept = pareto_frontier(points)
        frontier = Frontier(tuple(members[v] for v in kept), tuple(points[v] for v in kept))
        return cls(table, bundles, own_num, points, members, frontier)

    @cached_property
    def rho(self):
        """Half the minimum mutual-envy margin ratio; 1 when no triple qualifies.

        A triple (i, h, j) qualifies when, inside allocation j, both i and h
        strictly prefer h's bundle to i's.  The ratio of the two margins
        depends only on the two bundles, so each distinct bundle pair is
        visited once per ordered player pair.  Both margins are over the
        table's one scale, so their ratio is gain / loss, and ratios compare
        exactly by cross-multiplication.  On swappable sets every qualifying
        ratio appears with its reciprocal, so the result is at most 1/2
        whenever any triple qualifies.
        """
        table = self.table
        best_num = best_den = None
        for i, h in permutations(range(len(table)), 2):
            mine, theirs = table[i], table[h]
            for b_i, b_h in {(bs[i], bs[h]) for bs in self.bundles}:
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


def pareto_frontier(vectors):
    """Ascending indices of the distinct ``vectors`` that no other weakly dominates.

    Sort-based skyline: in descending lexicographic order a vector can only
    be dominated by one that came before it, so one pass that keeps each
    vector no kept vector dominates finds the maximal set.
    """
    kept = []
    for v in sorted(range(len(vectors)), key=vectors.__getitem__, reverse=True):
        vec = vectors[v]
        if not any(all(map(ge, vectors[u], vec)) for u in kept):
            kept.append(v)
    return sorted(kept)


def all_partitions_allocation_set(n, m):
    """Every assignment of each item to one of the n players or to nobody.

    Yields (n+1)^m allocations in the order of
    ``itertools.product(range(n + 1), repeat=m)`` over the items' owners
    (0 for nobody, item 1 varying slowest).  The set is built column-wise:
    one list of masks per player, grown from the last item to the first,
    then zipped into the bundle tuples.  They are disjoint, distinct
    and swap-closed by construction and are wrapped without re-validation;
    every mask over the m items appears in them, so ``bundles_seen()`` is
    recorded as all of them.
    """
    _require_int(n, "player count n")
    _require_int(m, "item count m")
    if n < 1 or m < 0:
        raise MalformedInstanceError(f"all-partitions set needs n >= 1 and m >= 0, got n={n}, m={m}")
    k = (n + 1) ** m
    if k > DEFAULT_ENUMERATION_BUDGET:
        raise EnumerationLimitError(
            f"all-partitions set has {(n + 1)}^{m} = {k} allocations,"
            f" over the budget of {DEFAULT_ENUMERATION_BUDGET}"
        )
    # the owner of the current item varies slowest among the items so far
    # built: its owner-0 block comes first, then one block per player, and
    # only player s's own block (the (s+1)-th) carries the item's bit
    columns = [[0] for _ in range(n)]
    for item in reversed(range(m)):
        bit = 1 << item
        columns = [
            col * (s + 1) + [b | bit for b in col] + col * (n - 1 - s)
            for s, col in enumerate(columns)
        ]
    return AllocationSet._of(zip(*columns), n, frozenset(range(1 << m)))


def is_swappable(aset):
    """Check closure under pairwise bundle swaps.

    Returns ``(True, None)`` or ``(False, (j, g, h))`` with the first
    allocation index and player pair whose swap is missing.
    """
    pairs = tuple(combinations(range(aset.n), 2))
    for j, bundles in enumerate(aset.bundles):
        for g, h in pairs:
            if bundles[g] != bundles[h] and _swapped(bundles, g, h) not in aset.index:
                return False, (j, g, h)
    return True, None


def _swapped(bundles, g, h):
    """``bundles`` with entries g and h exchanged.  Swapping two disjoint
    bundles keeps them disjoint, so the result needs no validation."""
    out = list(bundles)
    out[g], out[h] = bundles[h], bundles[g]
    return tuple(out)


def swap_closure(allocations):
    """Smallest superset of ``allocations`` closed under pairwise bundle swaps.

    ``allocations`` is an :class:`AllocationSet`, or a list that is
    validated into one; the swaps then run on bundle tuples.  The closure
    holds distinct keys, each a validated tuple or a swap of one, so it is
    wrapped without re-validation.  A swap only moves masks between players,
    so the closure's ``bundles_seen()`` is the given set's.
    """
    if not isinstance(allocations, AllocationSet):
        allocations = AllocationSet(allocations)
    closed = dict.fromkeys(allocations.bundles)
    stack = list(closed)
    pairs = tuple(combinations(range(allocations.n), 2))
    while stack:
        bundles = stack.pop()
        for g, h in pairs:
            if bundles[g] == bundles[h]:
                continue
            swapped = _swapped(bundles, g, h)
            if swapped not in closed:
                if len(closed) >= DEFAULT_ENUMERATION_BUDGET:
                    raise EnumerationLimitError(
                        f"swap closure exceeds the budget of {DEFAULT_ENUMERATION_BUDGET} allocations"
                    )
                closed[swapped] = None
                stack.append(swapped)
    return AllocationSet._of(closed, allocations.n, allocations.bundles_seen())


@dataclass(frozen=True)
class MixedAllocation:
    """A lottery over an allocation set of size ``k``: exact probabilities summing to one.

    Only the support is stored: ``pairs`` holds the ``(index, probability)``
    pairs with positive probability, in ascending index order, so building a
    lottery and reading it cost O(|support|) rather than O(k).  The
    constructor takes any ``(index, probability)`` pairs and checks them:
    indices in 0..k-1, no negative entry, a sum of exactly one; zero entries
    drop out and repeated indices add up.  Equality and hashing follow
    ``(k, pairs)``.
    """

    k: int
    pairs: tuple

    def __post_init__(self):
        _require_int(self.k, "lottery size k")
        object.__setattr__(self, "pairs", _checked_pairs(self.k, self.pairs))

    @classmethod
    def point_mass(cls, k, j):
        return cls(k, ((j, 1),))

    @classmethod
    def uniform(cls, k):
        _require_int(k, "lottery size k")
        if k < 1:
            raise MalformedInstanceError(f"a uniform lottery needs at least one allocation, got k={k}")
        q = Fraction(1, k)
        return cls(k, tuple((j, q) for j in range(k)))

    @classmethod
    def from_support(cls, k, support):
        """Build from an {index: probability} mapping or (index, probability) pairs."""
        return cls(k, support.items() if hasattr(support, "items") else support)

    def support(self):
        return tuple(j for j, _ in self.pairs)


def _checked_pairs(k, items):
    """Ascending positive (index, probability) pairs, validated to sum to one."""
    probs = {}
    for j, q in items:
        _require_int(j, "lottery index")
        if not 0 <= j < k:
            raise MalformedInstanceError(f"lottery index {j!r} outside 0..{k - 1}")
        q = as_fraction(q)
        if q < 0:
            raise MalformedInstanceError("negative probability in mixed allocation")
        if q:
            probs[j] = probs.get(j, 0) + q
    total = sum(probs.values())
    if total != 1:
        raise MalformedInstanceError(f"probabilities sum to {total}, not 1")
    return tuple(sorted(probs.items()))


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


def expected_utility(p, inst):
    """The n x n view matrix: ``views[i][h]`` is player i's expected value of
    player h's bundle stream.  The support's probabilities go over their
    common denominator, each view is summed in the table's ints, and each
    entry is one Fraction, over that denominator times the table's scale.
    """
    if p.k != len(inst.allocations):
        raise MalformedInstanceError(
            f"lottery over {p.k} allocations, instance has {len(inst.allocations)}"
        )
    weights, den = over_common_denominator([q for _, q in p.pairs])
    den *= inst.utilities.scale
    support = [inst.allocations.bundles[j] for j, _ in p.pairs]
    return [
        [Fraction(sum(a * row[bs[h]] for a, bs in zip(weights, support)), den) for h in range(inst.n)]
        for row in inst.utilities.table
    ]
