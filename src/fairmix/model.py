"""Domain types for lottery-based fair division of indivisible items.

Bundles are bitmasks over items (bit ``i`` is item ``i + 1``).  Utility
values are exact rationals, read as int (numerator, denominator) pairs;
``normalize_utilities`` normalizes them once, in ints, straight into a
:class:`UtilityProfile` of int numerators over one denominator shared by
every player, and everything downstream reads those ints.  The raw values
are kept as ints over each player's least denominator; their Fraction form
is built only when asked for, to be written back out.  An allocation set
stores only its tuple of bundle tuples; the :class:`PureAllocation` objects
it hands out are views made on demand.  The kernel reads its own vectors
and distinct points in C-level passes over the set's per-player columns,
and ``Instance.rho``, the envy-gap constant, reads the table and the set's
bundle pairs; each is derived once per instance.  A
lottery stores only its support, as ascending (index, probability) pairs,
and ``expected_utility`` gives all its views as ints over one denominator,
in one pass.  Counts, indices and masks are ints, never bools (``is_int``).
Nothing in this module rounds.  No type changes a value it holds after
construction, but some derive values on first read and keep them, each
as a ``functools.cached_property``: ``AllocationSet.bundles_seen`` and
``AllocationSet.columns``, ``UtilityProfile.raw_values``,
``Instance.kernel`` and ``Instance.rho``.  Each such cache is idempotent:
concurrent first reads may each compute it, and they compute the same
value.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations, compress, permutations
from math import gcd, lcm
from operator import ge

from .errors import EnumerationLimitError, MalformedInstanceError

MAX_ITEMS = 24
DEFAULT_ENUMERATION_BUDGET = 200_000
SHOWN_CHARS = 60


def _shown(value):
    """``repr(value)`` for an error message, clipped by ``_clipped``.  An int
    past Python's int-to-str digit limit, whose ``repr`` raises, is described
    by its size instead, and a container whose ``repr`` raises (it holds such
    an int, or nests past the recursion limit) by its type."""
    try:
        text = repr(value)
    except (ValueError, RecursionError):
        if is_int(value):
            return f"<{'negative ' if value < 0 else ''}int of {value.bit_length()} bits>"
        return f"<{type(value).__name__} that cannot be shown>"
    return _clipped(text)


def _clipped(text, limit=SHOWN_CHARS):
    """``text`` whole up to ``limit`` characters, else its first ``limit`` and its length."""
    if len(text) <= limit:
        return text
    return f"{text[:limit]}... ({len(text)} characters)"


def as_fraction(value):
    """Coerce ints, Fractions and 'num/den' strings; reject floats, bools and x/0.
    A plain ASCII 'digits/digits' string is parsed in ints, any other through ``Fraction``."""
    if isinstance(value, str):
        pair = _plain_ratio(value)
        if pair is not None:
            return Fraction(*pair)
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            # Fraction's own message may echo the string whole
            shown = _shown(value)
            raise MalformedInstanceError(f"bad rational {shown}: {str(exc).replace(repr(value), shown)}") from exc
    if isinstance(value, bool):
        raise MalformedInstanceError(f"boolean is not a rational value: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    # last: an isinstance check against Fraction, an ABC, is slow for other types
    if isinstance(value, Fraction):
        return value
    raise MalformedInstanceError(f"non-rational value of type {type(value).__name__}: {_shown(value)}")


def _plain_ratio(text):
    """A plain ASCII 'digits/digits' string as an int pair, not reduced; None
    for any other string, or one over the int-from-str digit limit."""
    num, _, den = text.partition("/")
    if text.isascii() and num.isdigit() and den.isdigit() and den.strip("0"):
        try:
            return int(num), int(den)
        except ValueError:
            pass
    return None


def _num_den(value):
    """``value`` as an int pair ``(numerator, denominator)``, the denominator > 0.
    Reads exactly what ``as_fraction`` accepts, with its errors; a plain string
    is split in ints, with no Fraction built."""
    pair = _plain_ratio(value) if isinstance(value, str) else None
    if pair is None:
        q = as_fraction(value)
        pair = q.numerator, q.denominator
    return pair


def is_int(value):
    """The rule every integer input follows: an int, not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def over_common_denominator(values):
    """Rationals as int numerators over their lcm, ``(numerators, lcm)``; reads ``values`` twice."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _pairs_over_common_denominator(pairs):
    """``over_common_denominator`` on int pairs ``(numerator, denominator > 0)``; reads ``pairs`` twice."""
    den = lcm(*(d for _, d in pairs))
    return [x * (den // d) for x, d in pairs], den


def _require_int(value, name):
    if not is_int(value):
        raise MalformedInstanceError(f"{name} must be an integer, got {_shown(value)}")


def _entries(values, name):
    """``iter(values)``, or ``MalformedInstanceError`` naming ``values`` if it is not iterable."""
    try:
        return iter(values)
    except TypeError:
        raise MalformedInstanceError(f"{name} {_shown(values)} is not a sequence") from None


class Value:
    """Base of the package's immutable value types.

    A subclass's fields are the parameters of its ``__init__``, in order;
    the ``__init__`` runs the class's checks and stores the fields in the
    instance dict.  Values the program built itself skip the checks
    through ``_of``.  Objects of one class are equal, with equal hashes,
    when their fields are; ``repr`` shows ``Name(field=value, ...)``;
    assigning or deleting an attribute raises ``AttributeError``.  Cached
    properties write to the instance dict themselves, so they still work.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]

    @classmethod
    def _of(cls, *fields):
        """Wrap field values the program built, one per field, without running
        ``__init__``: they must be exactly what ``__init__`` would store."""
        out = object.__new__(cls)
        out.__dict__.update(zip(cls._fields, fields))
        return out

    def _key(self):
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._key()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class PureAllocation(Value):
    """One deterministic allocation: bundle ``bundles[i]`` goes to player ``i``.

    Bundles must be pairwise disjoint.  They need not cover all items;
    partially allocated outcomes are legal.
    """

    def __init__(self, bundles):
        bundles = tuple(_entries(bundles, "bundle list"))
        seen = 0
        for b in bundles:
            if not is_int(b) or b < 0:
                raise MalformedInstanceError(f"bundle mask {_shown(b)} is not an integer >= 0")
            if seen & b:
                raise MalformedInstanceError(f"overlapping bundles in {_shown(bundles)}")
            seen |= b
        self.__dict__.update(bundles=bundles)


class AllocationSet:
    """An ordered, duplicate-free collection of pure allocations.

    The set stores its allocations as one form, ``bundles``: a tuple of
    bundle tuples, with ``index`` mapping each back to its position.
    ``aset[j]`` and iteration give :class:`PureAllocation` views, made when
    asked for and not stored.  Duplicates passed to the constructor are
    collapsed, keeping first occurrence order, and every allocation is
    validated: bundle types and overlaps, then a common player count.  Sets
    the program builds itself (all partitions, swap closures) are wrapped
    by ``_of``, not re-validated, and recorded ``built_closed`` (swap-closed);
    a caller's list is not recorded, even when it is closed.  The cached
    properties ``bundles_seen`` and ``columns`` give every mask in the set
    and the per-player bundle columns, once per set.
    """

    def __init__(self, allocations):
        index = {}
        for a in _entries(allocations, "allocation list"):
            if not isinstance(a, PureAllocation):
                a = PureAllocation(a)
            index.setdefault(a.bundles, len(index))
        if not index:
            raise MalformedInstanceError("allocation set may not be empty")
        bundles = tuple(index)
        n = len(bundles[0])
        for bs in bundles:
            if len(bs) != n:
                raise MalformedInstanceError("allocations disagree on player count")
        self.bundles, self.n, self.index, self.built_closed = bundles, n, index, False

    @classmethod
    def _of(cls, bundles, n, seen=None, columns=None):
        """Wrap distinct, valid bundle tuples over n players without re-checking
        them, recorded ``built_closed``: both callers, all partitions and swap
        closure, build swap-closed sets.  ``seen`` and ``columns``, if given,
        pre-fill ``bundles_seen`` and ``columns``."""
        out = object.__new__(cls)
        out.bundles = bundles = tuple(bundles)
        out.n, out.index, out.built_closed = n, dict(zip(bundles, range(len(bundles)))), True
        if seen is not None:
            out.bundles_seen = seen
        if columns is not None:
            out.columns = columns
        return out

    def __len__(self):
        return len(self.bundles)

    def __iter__(self):
        return map(PureAllocation, self.bundles)

    def __getitem__(self, j):
        return PureAllocation(self.bundles[j])

    def __eq__(self, other):
        return isinstance(other, AllocationSet) and self.bundles == other.bundles

    def __repr__(self):
        return f"AllocationSet(k={len(self.bundles)}, n={self.n})"

    @cached_property
    def bundles_seen(self):
        """Every bundle mask appearing anywhere in the set."""
        return frozenset(chain.from_iterable(self.bundles))

    @cached_property
    def columns(self):
        """The bundles read down by player, ``tuple(zip(*bundles))``: ``columns[i][j]``
        is player i's bundle in allocation j."""
        return tuple(zip(*self.bundles))


class UtilityProfile(Value):
    """Per-player bundle values rescaled into [1, 2], as ints over one denominator.

    ``table[i][bundle]`` is player i's rescaled value times ``scale``, the
    least positive int that makes every player's values ints.  Envy-freeness,
    Pareto efficiency and every welfare argmax are unchanged by multiplying
    all values by one positive constant, so consumers may compare the ints
    directly; player i's rescaled value is ``Fraction(table[i][bundle],
    scale)``.  The raw values are kept as ints too: ``raw_num[i][bundle]``
    over ``raw_den[i]``, player i's least denominator, a canonical form.
    ``raw_values`` gives them as Fractions, built on first use.
    """

    def __init__(self, table, scale, raw_num, raw_den):
        self.__dict__.update(table=table, scale=scale, raw_num=raw_num, raw_den=raw_den)

    @property
    def n(self):
        return len(self.table)

    @cached_property
    def raw_values(self):
        """The raw values as Fractions, one {bundle: value} dict per player."""
        return tuple(
            {b: Fraction(x, den) for b, x in nums.items()}
            for nums, den in zip(self.raw_num, self.raw_den)
        )


def normalize_utilities(raw):
    """Rescale each player's values affinely onto [1, 2], in integers.

    ``raw`` holds one mapping per player from bundle mask (an int >= 0) to
    rational value (see ``as_fraction``).  Over the player's common
    denominator x maps to span + x - lo, then the entries and the span
    divide by their gcd, which leaves them over the player's least
    denominator d_i; a constant player gets all 1s over 1.  Each player's
    entries are then multiplied by D // d_i, where D, the profile's
    ``scale``, is the lcm of every d_i.  Normalizing twice is a no-op.  A
    ``raw`` that is not a sequence, or a table that is not a mapping, raises
    ``MalformedInstanceError`` naming it.
    """
    tables = []
    for i, values in enumerate(_entries(raw, "utility list")):
        if not hasattr(values, "items"):
            raise MalformedInstanceError(f"utility table {_shown(values)} of player {i} is not a mapping")
        checked = {}
        for bundle, v in values.items():
            if not is_int(bundle) or bundle < 0:
                raise MalformedInstanceError(f"bundle mask {_shown(bundle)} is not an integer >= 0")
            checked[bundle] = _num_den(v)
        tables.append(checked)
    return _normalize_checked(tables)


def _normalize_checked(checked):
    """The int normalizer behind ``normalize_utilities``, on tables already
    checked: every key an int mask >= 0 and every value an int pair
    ``(numerator, denominator > 0)``.  A player's values go over their lcm,
    and one gcd brings them to their least denominator, the canonical form
    kept as the profile's raw values."""
    tables = []
    least = []
    raw_num = []
    raw_den = []
    for i, values in enumerate(checked):
        if not values:
            raise MalformedInstanceError(f"player {i} has no utility values")
        over, den = _pairs_over_common_denominator(values.values())
        nums = dict(zip(values, over))
        g = gcd(den, *over)
        if g != 1:
            nums = {b: x // g for b, x in nums.items()}
            den //= g
        raw_num.append(nums)
        raw_den.append(den)
        lo = min(nums.values())
        span = max(nums.values()) - lo
        if span == 0:
            tables.append(dict.fromkeys(nums, 1))
            least.append(1)
        else:
            g = gcd(span, *(x - lo for x in nums.values()))
            tables.append({b: (span + x - lo) // g for b, x in nums.items()})
            least.append(span // g)
    common = lcm(*least)
    table = tuple({b: x * (common // d) for b, x in row.items()} for row, d in zip(tables, least))
    return UtilityProfile(table, common, tuple(raw_num), tuple(raw_den))


class Instance(Value):
    """A fair-division instance: players, items, utilities, legal allocations.

    ``utilities`` is a :class:`UtilityProfile` and ``allocations`` an
    :class:`AllocationSet`; ``build`` makes both from raw input."""

    def __init__(self, n, m, utilities, allocations):
        self.__dict__.update(n=n, m=m, utilities=utilities, allocations=allocations)
        _require_int(self.n, "player count n")
        _require_int(self.m, "item count m")
        if self.n < 1:
            raise MalformedInstanceError(f"need at least one player, got n={_shown(self.n)}")
        if self.m < 0:
            raise MalformedInstanceError(f"negative item count m={_shown(self.m)}")
        if self.m > MAX_ITEMS:
            raise MalformedInstanceError(f"m={_shown(self.m)} exceeds the bitmask cap of {MAX_ITEMS}")
        for name, kind in (("allocations", AllocationSet), ("utilities", UtilityProfile)):
            value = getattr(self, name)
            if not isinstance(value, kind):
                raise MalformedInstanceError(
                    f"{name} must be of type {kind.__name__}, got {type(value).__name__};"
                    " use Instance.build for raw input"
                )
        if self.allocations.n != self.n:
            raise MalformedInstanceError(
                f"allocations are over {self.allocations.n} players, instance has {self.n}"
            )
        if self.utilities.n != self.n:
            raise MalformedInstanceError(
                f"utilities are over {self.utilities.n} players, instance has {self.n}"
            )
        bundles = self.allocations.bundles_seen
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
        m = max(allocations.bundles_seen, default=0).bit_length()
        return cls(n=n, m=m, utilities=profile, allocations=allocations)

    @cached_property
    def kernel(self):
        """The instance's :class:`UtilityKernel`, built on first use."""
        return UtilityKernel.of(self)

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

        Swap closure makes a set closed under every permutation of its
        players, so on a set recorded ``built_closed`` every ordered player
        pair has the same bundle pairs as players 0 and 1; that one set is
        built once.  An unrecorded set gets a pair set per player pair.
        """
        table = self.utilities.table
        bundles = self.allocations.bundles
        shared = None
        if self.allocations.built_closed and self.n >= 2:
            shared = {(bs[0], bs[1]) for bs in bundles}
        best_num = best_den = None
        for i, h in permutations(range(self.n), 2):
            mine, theirs = table[i], table[h]
            pairs = shared if shared is not None else {(bs[i], bs[h]) for bs in bundles}
            for b_i, b_h in pairs:
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


class UtilityKernel(Value):
    """Own-utility data of an instance, derived once, in integers.

    ``own_num[i][j]`` is player i's entry of the profile's integer table
    for their bundle in allocation j, read down the set's bundle columns.
    ``points`` are the distinct own-utility vectors (columns of
    ``own_num``) in order of first occurrence.  ``frontier`` keeps the
    points that no other point weakly dominates, and ``members[f]`` the
    ascending indices of the allocations that give frontier point f;
    allocations with equal own vectors stay separate, because their envy
    views differ.
    """

    def __init__(self, own_num, points, frontier, members):
        self.__dict__.update(own_num=own_num, points=points, frontier=frontier, members=members)

    @classmethod
    def of(cls, inst):
        table = inst.utilities.table
        columns = inst.allocations.columns
        own_num = tuple(tuple(map(row.__getitem__, column)) for row, column in zip(table, columns))
        vectors = tuple(zip(*own_num))
        points = tuple(dict.fromkeys(vectors))
        # members are collected for the frontier points only, in one pass
        members = {points[v]: [] for v in pareto_frontier(points)}
        for j, point in compress(enumerate(vectors), map(members.__contains__, vectors)):
            members[point].append(j)
        return cls(own_num, points, tuple(members), tuple(map(tuple, members.values())))


def pareto_frontier(vectors):
    """Ascending indices of the distinct ``vectors`` that no other weakly dominates.

    Sort-based skyline: in descending lexicographic order a vector can only
    be dominated by one that came before it, so one pass that keeps each
    vector no kept vector dominates finds the maximal set.  Neighbours in
    that order tend to share a dominator, so the last dominator found is
    tested first, a move-to-front of one entry (Börzsönyi, Kossmann and
    Stocker 2001); it costs one reference of extra memory.
    """
    kept = []
    last = None
    for v in sorted(range(len(vectors)), key=vectors.__getitem__, reverse=True):
        vec = vectors[v]
        if last is not None and all(map(ge, last, vec)):
            continue
        for u in kept:
            if all(map(ge, vectors[u], vec)):
                last = vectors[u]
                break
        else:
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
    every mask over the m items appears in them, so ``bundles_seen`` is
    recorded as all of them, and the columns as ``columns``.
    """
    _require_int(n, "player count n")
    _require_int(m, "item count m")
    if n < 1 or m < 0:
        raise MalformedInstanceError(
            f"all-partitions set needs n >= 1 and m >= 0, got n={_shown(n)}, m={_shown(m)}"
        )
    k = (n + 1) ** m
    if k > DEFAULT_ENUMERATION_BUDGET:
        raise EnumerationLimitError(
            f"all-partitions set has {_shown(n + 1)}^{_shown(m)} = {_shown(k)} allocations,"
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
    columns = tuple(map(tuple, columns))
    return AllocationSet._of(zip(*columns), n, frozenset(range(1 << m)), columns)


def is_swappable(aset):
    """Check closure under pairwise bundle swaps.

    ``aset`` is an :class:`AllocationSet`, or a list that is validated into
    one.  Returns ``(True, None)`` or ``(False, (j, g, h))`` with the first
    allocation index and player pair whose swap is missing.
    """
    if not isinstance(aset, AllocationSet):
        aset = AllocationSet(aset)
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
    so the closure's ``bundles_seen`` is the given set's.
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
    return AllocationSet._of(closed, allocations.n, allocations.bundles_seen)


class MixedAllocation(Value):
    """A lottery over an allocation set of size ``k``: exact probabilities summing to one.

    Only the support is stored: ``pairs`` holds the ``(index, probability)``
    pairs with positive probability, in ascending index order, so building a
    lottery and reading it cost O(|support|) rather than O(k).  The
    constructor takes any ``(index, probability)`` pairs and checks them:
    indices in 0..k-1, no negative entry, a sum of exactly one; zero entries
    drop out and repeated indices add up.  Equality and hashing follow
    ``(k, pairs)``.  Pairs the program built already in that form (a
    verified LP optimum: ascending indices in 0..k-1, each with a positive
    Fraction, summing to one) are wrapped by ``_of`` unchecked.
    """

    def __init__(self, k, pairs):
        _require_int(k, "lottery size k")
        self.__dict__.update(k=k, pairs=_checked_pairs(k, pairs))

    @classmethod
    def point_mass(cls, k, j):
        return cls(k, ((j, 1),))

    @classmethod
    def from_support(cls, k, support):
        """Build from an {index: probability} mapping or (index, probability) pairs."""
        return cls(k, support.items() if hasattr(support, "items") else support)

    def support(self):
        return tuple(j for j, _ in self.pairs)


def _checked_pairs(k, items):
    """Ascending positive (index, probability) pairs, validated to sum to one."""
    probs = {}
    for pair in _entries(items, "lottery support"):
        try:
            j, q = pair
        except (TypeError, ValueError):
            msg = f"lottery entry {_shown(pair)} is not an (index, probability) pair"
            raise MalformedInstanceError(msg) from None
        _require_int(j, "lottery index")
        if not 0 <= j < k:
            raise MalformedInstanceError(f"lottery index {_shown(j)} outside 0..{_shown(k - 1)}")
        q = as_fraction(q)
        if q < 0:
            raise MalformedInstanceError("negative probability in mixed allocation")
        if q:
            probs[j] = probs.get(j, 0) + q
    total = sum(probs.values())
    if total != 1:
        raise MalformedInstanceError(f"probabilities sum to {total}, not 1")
    return tuple(sorted(probs.items()))


class WeightVector(Value):
    """A point of the truncated simplex: sums to one, every coordinate >= epsilon.

    The constructor checks and coerces; a weight the program built on the
    simplex (a scanned vertex: Fractions summing to one, each at least the
    Fraction ``epsilon``) is wrapped by ``_of`` unchecked."""

    def __init__(self, w, epsilon):
        w = tuple(as_fraction(v) for v in _entries(w, "weight vector"))
        eps = as_fraction(epsilon)
        self.__dict__.update(w=w, epsilon=eps)
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


def _require_lottery_for(p, inst):
    if p.k != len(inst.allocations):
        raise MalformedInstanceError(
            f"lottery over {p.k} allocations, instance has {len(inst.allocations)}"
        )


def expected_utility(p, inst):
    """The lottery's views in the table's form, ``(views, den)``: an n x n int
    matrix whose ``Fraction(views[i][h], den)`` is player i's expected value of
    player h's bundle stream.  The support's probabilities go over their common
    denominator, and ``den`` is that denominator times the table's scale.
    """
    _require_lottery_for(p, inst)
    weights, den = over_common_denominator([q for _, q in p.pairs])
    support = [inst.allocations.bundles[j] for j, _ in p.pairs]
    views = [
        [sum(a * row[bs[h]] for a, bs in zip(weights, support)) for h in range(inst.n)]
        for row in inst.utilities.table
    ]
    return views, den * inst.utilities.scale
