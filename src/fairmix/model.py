"""Domain types for lottery-based fair division of indivisible items.

Bundles are bitmasks over items (bit ``i`` is item ``i + 1``).  Rationals
are read in one place: ``_num_den`` turns an accepted value (an int, a
Fraction or a 'num/den' string) into an int (numerator, denominator) pair,
or refuses it, and ``as_fraction`` builds its Fraction from that pair.
Utility values are read as such pairs; ``normalize_utilities`` normalizes
them once, in ints, straight into a :class:`UtilityProfile` of int
numerators over one denominator shared by every player, and everything
downstream reads those ints.  The raw values are kept as ints over each
player's least denominator; their Fraction form is built only when asked
for, to be written back out.  An allocation set
stores its allocations as bundle tuples or, when it is all partitions, as
per-player columns only; the :class:`PureAllocation` objects it hands out
are views made on demand.  The kernel reads its own vectors and distinct
points in C-level passes over the set's columns, and ``Instance.rho``, the
envy-gap constant, reads the table and the bundle pairs the columns hold;
each is derived once per instance.  A
lottery stores only its support, as ascending (index, probability) pairs,
and ``expected_utility`` gives all its views as ints over one denominator,
in one pass.  Counts, indices and masks are ints, never bools (``is_int``).
Nothing in this module rounds.  No type changes a value it holds after
construction, but some derive values on first read and keep them, each
as a ``functools.cached_property``: ``AllocationSet.bundles_seen``,
``bundles``, ``columns`` and ``index``, ``UtilityProfile.raw_values``,
``Instance.kernel`` and ``Instance.rho``.  Each such cache is idempotent:
concurrent first reads may each compute it, and they compute the same
value.
"""

import re
import sys
from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations, compress, permutations
from math import gcd, lcm, perm
from operator import ge, itemgetter

from .errors import EnumerationLimitError, MalformedInstanceError

MAX_ITEMS = 24
DEFAULT_ENUMERATION_BUDGET = 200_000
SHOWN_CHARS = 60
# a decimal string with an exponent, in the syntax ``Fraction`` reads:
# integer digits, fraction digits and the exponent, each with underscores;
# compiled on first use, by ``re``'s cache, to keep it out of the import
_EXPONENT_FORM = r"\s*[-+]?(?=\d|\.\d)(\d*|\d+(?:_\d+)*)(?:\.(\d*|\d+(?:_\d+)*))?[eE]([-+]?\d+(?:_\d+)*)\s*"


def _shown(value, text=repr):
    """``text(value)`` for an error message, clipped by ``_clipped``: the
    ``repr`` by default, or ``str`` for a Fraction ('1/3').  A value whose
    text raises is described by ``_sized`` instead."""
    try:
        shown = text(value)
    except (ValueError, RecursionError):
        return _sized(value)
    return _clipped(shown)


def _sized(value):
    """An int past Python's int-to-str digit limit described by its size, a
    Fraction with such a numerator or denominator by their sizes, and a
    container whose ``repr`` raises (it holds such a number, or nests past
    the recursion limit) by its type."""
    if is_int(value):
        return f"<{'negative ' if value < 0 else ''}int of {value.bit_length()} bits>"
    if isinstance(value, Fraction):
        sign = "negative " if value < 0 else ""
        bits = value.numerator.bit_length(), value.denominator.bit_length()
        return f"<{sign}rational with a {bits[0]}-bit numerator and a {bits[1]}-bit denominator>"
    return f"<{type(value).__name__} that cannot be shown>"


def _clipped(text, limit=SHOWN_CHARS):
    """``text`` whole up to ``limit`` characters, else its first ``limit`` and its length."""
    if len(text) <= limit:
        return text
    return f"{text[:limit]}... ({len(text)} characters)"


def as_fraction(value):
    """Coerce ints, Fractions and 'num/den' strings to a Fraction; reject
    floats, bools and x/0.  A value of type Fraction is returned as it is;
    any other is read by ``_num_den``, with its errors."""
    if type(value) is Fraction:
        return value
    return Fraction(*_num_den(value))


def _refuse_huge_exponent(text):
    """``MalformedInstanceError`` for a decimal string whose exponent would make
    ``Fraction`` build an int past Python's int-to-str digit limit (4300 by
    default), the limit that refuses the same value written out in digits.
    Expanding the exponent costs time that grows with it: '1e20000000'
    builds a 66-million-bit int."""
    if "e" not in text and "E" not in text:
        return
    limit = getattr(sys, "get_int_max_str_digits", lambda: 4300)()
    match = re.fullmatch(_EXPONENT_FORM, text) if limit else None
    if match is None:
        return
    whole, part, exp = (group.replace("_", "") for group in match.groups(""))
    if len(exp.lstrip("+-")) > limit:
        return  # ``Fraction`` refuses the exponent itself, as an int past the limit
    shift = int(exp) - len(part)
    digits = (len((whole + part).lstrip("0")) or 1) + shift if shift >= 0 else 1 - shift
    if digits > limit:
        message = f"its exponent makes an int of more than {limit} digits"
        raise MalformedInstanceError(f"bad rational {_shown(text)}: {message}")


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
    """``value`` as an int pair ``(numerator, denominator)``, the denominator > 0;
    the package's one reader of rationals.  A plain ASCII 'digits/digits'
    string is split in ints, not reduced, with no Fraction built; any other
    string is read by ``Fraction`` once ``_refuse_huge_exponent`` has passed
    it.  An int, or a Fraction, gives its own numerator and denominator;
    floats, bools and anything else are a ``MalformedInstanceError``."""
    if isinstance(value, str):
        pair = _plain_ratio(value)
        if pair is not None:
            return pair
        _refuse_huge_exponent(value)
        try:
            q = Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            # Fraction's own message may echo the string whole
            shown = _shown(value)
            raise MalformedInstanceError(f"bad rational {shown}: {str(exc).replace(repr(value), shown)}") from exc
        return q.numerator, q.denominator
    if isinstance(value, bool):
        raise MalformedInstanceError(f"boolean is not a rational value: {value!r}")
    if isinstance(value, int):
        return value.numerator, 1
    # last: an isinstance check against Fraction, an ABC, is slow for other types
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    raise MalformedInstanceError(f"non-rational value of type {type(value).__name__}: {_shown(value)}")


def is_int(value):
    """The rule every integer input follows: an int, not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def over_common_denominator(values):
    """Rationals as int numerators over their lcm, ``(numerators, lcm)``; reads ``values`` twice."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _over_lcm(nums, dens):
    """The rationals ``nums[j] / dens[j]`` (ints, each denominator > 0) as
    int numerators over the lcm of ``dens``, ``(numerators, lcm)``; the
    numerators are ``nums`` itself when that lcm is 1."""
    den = lcm(*dens)
    if den == 1:
        return nums, 1
    return [x * (den // d) for x, d in zip(nums, dens)], den


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

    The set holds its allocations in two forms, each built on first read
    from the other when it was not given: ``bundles``, a tuple of bundle
    tuples, and ``columns``, the same bundles read down by player.
    ``index`` maps each bundle tuple back to its position, and ``k`` is the
    number of allocations.  ``aset[j]`` and iteration give
    :class:`PureAllocation` views, made when asked for and not stored.
    Duplicates passed to the constructor are collapsed, keeping first
    occurrence order, and every allocation is validated: bundle types and
    overlaps, then a common player count; such a set stores ``bundles`` and
    ``index``.  Sets the program builds itself (all partitions, swap
    closures) are wrapped by ``_of``, not re-validated, and recorded
    ``built_closed`` (swap-closed); a caller's list is not recorded, even
    when it is closed.  All partitions store only their ``columns`` and
    record their item count as ``partitions_of`` (None on every other
    set), so ``position`` finds an allocation by arithmetic, and neither
    ``bundles`` nor ``index`` is built unless something reads it.  The
    cached properties ``bundles_seen``, ``bundles``, ``columns`` and
    ``index`` are each built once per set.
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
        self.bundles, self.n, self.index, self.k = bundles, n, index, len(bundles)
        self.built_closed, self.partitions_of = False, None

    @classmethod
    def _of(cls, n, seen, bundles=None, columns=None, partitions_of=None):
        """Wrap distinct, valid allocations over n players without re-checking
        them, recorded ``built_closed``: both callers, all partitions and swap
        closure, build swap-closed sets.  The allocations come as their
        bundle tuples ``bundles`` or, for n >= 1, as the per-player
        ``columns``; ``seen`` is every mask in them, and ``partitions_of`` the
        item count of an all-partitions set in ``itertools.product`` order."""
        out = object.__new__(cls)
        out.n, out.bundles_seen, out.built_closed, out.partitions_of = n, seen, True, partitions_of
        if columns is None:
            out.bundles = bundles = tuple(bundles)
            out.k = len(bundles)
        else:
            out.columns = columns
            out.k = len(columns[0])
        return out

    def __len__(self):
        return self.k

    def __iter__(self):
        return map(PureAllocation, self.bundles)

    def __getitem__(self, j):
        return PureAllocation(self.bundles[j])

    def __eq__(self, other):
        return isinstance(other, AllocationSet) and self.bundles == other.bundles

    def __repr__(self):
        return f"AllocationSet(k={self.k}, n={self.n})"

    def position(self, bundles):
        """The position in the set of the allocation whose bundle tuple is
        ``bundles``, int masks one per player, or None when the set does not
        hold it.  On all partitions of m items it is arithmetic: each item's
        owner (0 for nobody, else the player's number from 1), read as a
        base-(n+1) numeral with item 1 most significant, is the allocation's
        ``itertools.product`` rank; a wrong player count, a mask past m or
        two overlapping masks give None.  On any other set it is
        ``index.get``."""
        m = self.partitions_of
        if m is None:
            return self.index.get(bundles)
        if len(bundles) != self.n:
            return None
        owners = [0] * m
        taken = 0
        for owner, mask in enumerate(bundles, 1):
            if mask >> m or taken & mask:
                return None
            taken |= mask
            for g in range(mask.bit_length()):
                if mask >> g & 1:
                    owners[g] = owner
        j = 0
        base = self.n + 1
        for owner in owners:
            j = j * base + owner
        return j

    @cached_property
    def bundles_seen(self):
        """Every bundle mask appearing anywhere in the set."""
        return frozenset(chain.from_iterable(self.bundles))

    @cached_property
    def bundles(self):
        """The allocations' bundle tuples, ``tuple(zip(*columns))``: ``bundles[j][i]``
        is player i's bundle in allocation j."""
        return tuple(zip(*self.columns))

    @cached_property
    def columns(self):
        """The bundles read down by player, ``tuple(zip(*bundles))``: ``columns[i][j]``
        is player i's bundle in allocation j."""
        return tuple(zip(*self.bundles))

    @cached_property
    def index(self):
        """Each bundle tuple mapped to its position."""
        return dict(zip(self.bundles, range(self.k)))


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
    rows = []
    for i, values in enumerate(_entries(raw, "utility list")):
        if not hasattr(values, "items"):
            raise MalformedInstanceError(f"utility table {_shown(values)} of player {i} is not a mapping")
        masks, nums, dens = [], [], []
        for bundle, v in values.items():
            if not is_int(bundle) or bundle < 0:
                raise MalformedInstanceError(f"bundle mask {_shown(bundle)} is not an integer >= 0")
            x, d = _num_den(v)
            masks.append(bundle)
            nums.append(x)
            dens.append(d)
        rows.append((masks, nums, dens))
    return _normalize_rows(rows)


def _normalize_rows(rows):
    """The int normalizer behind ``normalize_utilities``, on rows already
    checked: each row is three parallel sequences, its bundle masks
    (distinct ints >= 0), their values' int numerators and their
    denominators (ints > 0).  A player's values go over their lcm, and one
    gcd brings them to their least denominator, the canonical form kept as
    the profile's raw values; each mapping keeps the row's mask order."""
    tables = []
    least = []
    raw_num = []
    raw_den = []
    for i, (masks, nums, dens) in enumerate(rows):
        if not masks:
            raise MalformedInstanceError(f"player {i} has no utility values")
        nums, den = _over_lcm(nums, dens)
        g = gcd(den, *nums)
        if g != 1:
            nums = [x // g for x in nums]
            den //= g
        raw_num.append(dict(zip(masks, nums)))
        raw_den.append(den)
        lo = min(nums)
        span = max(nums) - lo
        if span == 0:
            tables.append((masks, [1] * len(masks)))
            least.append(1)
        else:
            shifted = [x - lo for x in nums]
            g = gcd(span, *shifted)
            tables.append((masks, [(span + x) // g for x in shifted]))
            least.append(span // g)
    common = lcm(*least)
    table = tuple(
        dict(zip(masks, values if d == common else [x * (common // d) for x in values]))
        for (masks, values), d in zip(tables, least)
    )
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
        visited once per unordered player pair i < h, read from the set's
        columns.  For the pair (b_i, b_h), let g = t_i[b_h] - t_i[b_i] and
        l = t_h[b_h] - t_h[b_i]: both > 0 is the triple (i, h) with ratio
        g / l, and both < 0 is the triple (h, i), which reads the same pair
        reversed, with ratio (-l) / (-g); any other signs qualify neither.
        Both margins are over the table's one scale, so each ratio is a
        quotient of table ints, and ratios compare exactly by
        cross-multiplication.  On swappable sets every qualifying ratio
        appears with its reciprocal, so the result is at most 1/2 whenever
        any triple qualifies.

        Swap closure makes a set closed under every permutation of its
        players, so on a set recorded ``built_closed`` every player pair has
        the same bundle pairs as players 0 and 1, and each pair (a, b) comes
        with its reversal (b, a), whose ratio is the reciprocal.  That one
        set is built once, with each pair in one orientation, a < b (a pair
        a = b qualifies nothing), and a qualifying pair gives the smaller of
        its two ratios, min(|g|, |l|) / max(|g|, |l|).  An unrecorded set
        gets a pair set per player pair, in both orientations.
        """
        table = self.utilities.table
        columns = self.allocations.columns
        closed = self.allocations.built_closed
        if closed and self.n >= 2:
            shared = {(a, b) for a, b in zip(columns[0], columns[1]) if a < b}
        best_num = best_den = None
        for i, h in combinations(range(self.n), 2):
            mine, theirs = table[i], table[h]
            pairs = shared if closed else set(zip(columns[i], columns[h]))
            for b_i, b_h in pairs:
                gain = mine[b_h] - mine[b_i]
                loss = theirs[b_h] - theirs[b_i]
                if gain > 0 and loss > 0:
                    num, den = gain, loss
                elif gain < 0 and loss < 0:
                    num, den = -loss, -gain
                else:
                    continue
                if closed and num > den:
                    num, den = den, num
                if best_num is None or num * best_den < best_num * den:
                    best_num, best_den = num, den
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
        own_num = tuple(map(_gather, table, columns))
        vectors = tuple(zip(*own_num))
        points = tuple(dict.fromkeys(vectors))
        # members are collected for the frontier points only, in one pass
        members = {points[v]: [] for v in pareto_frontier(points)}
        for j, point in compress(enumerate(vectors), map(members.__contains__, vectors)):
            members[point].append(j)
        return cls(own_num, points, tuple(members), tuple(map(tuple, members.values())))


def _gather(row, column):
    """``row``'s entries at ``column``'s indices, as a tuple, gathered by
    ``itemgetter`` in C; one index is read directly, since ``itemgetter``
    of a single index returns the bare entry."""
    if len(column) == 1:
        return (row[column[0]],)
    return itemgetter(*column)(row)


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
    and only these columns are stored: the bundle tuples and ``index`` are
    built if something reads them, and ``AllocationSet.position`` finds an
    allocation without either.  The allocations are disjoint, distinct
    and swap-closed by construction and are wrapped without re-validation;
    every mask over the m items appears in them, so ``bundles_seen`` is
    recorded as all of them.
    """
    _require_int(n, "player count n")
    _require_int(m, "item count m")
    if n < 1 or m < 0:
        raise MalformedInstanceError(
            f"all-partitions set needs n >= 1 and m >= 0, got n={_shown(n)}, m={_shown(m)}"
        )
    # (n+1)^m >= 2^m, which exceeds the budget once m passes its bit
    # length, so a large m is refused before (n+1)^m is built
    over = f"over the budget of {DEFAULT_ENUMERATION_BUDGET}"
    if m > DEFAULT_ENUMERATION_BUDGET.bit_length():
        raise EnumerationLimitError(f"all-partitions set has {_shown(n + 1)}^{_shown(m)} allocations, {over}")
    k = (n + 1) ** m
    if k > DEFAULT_ENUMERATION_BUDGET:
        shown = f"{_shown(n + 1)}^{_shown(m)} = {_shown(k)}"
        raise EnumerationLimitError(f"all-partitions set has {shown} allocations, {over}")
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
    return AllocationSet._of(n, frozenset(range(1 << m)), columns=tuple(map(tuple, columns)), partitions_of=m)


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
    validated into one.  Pairwise swaps generate every permutation of the
    players, so the closure is the union of the listed allocations'
    player-permutation orbits.  An allocation's non-empty bundles are
    disjoint, so only the empty bundle can repeat: its orbit is fixed by
    the set of its non-empty masks, and with r of them it has exactly
    perm(n, r) members, one per placement of those r masks on r distinct
    players.  The closure's size, the sum of perm(n, r) over the distinct
    orbits, is checked against ``DEFAULT_ENUMERATION_BUDGET`` before any
    allocation is built.

    The result holds the listed allocations first, in listed order, then
    each orbit's other members, the orbits in the order of their first
    listed member.  Within an orbit the members run over each choice of
    holding players in ``combinations`` order, then each arrangement of the
    first listed member's non-empty bundles, in player order, in
    ``permutations`` order.  The members are distinct keys, each a
    validated tuple or a rearrangement of one, so the closure is wrapped
    without re-validation, and its ``bundles_seen`` is the given set's.
    """
    if not isinstance(allocations, AllocationSet):
        allocations = AllocationSet(allocations)
    n = allocations.n
    listed = allocations.bundles
    # each orbit's non-empty masks, as its first listed member holds them
    orbits = {}
    for bundles in listed:
        masks = tuple(filter(None, bundles))
        orbits.setdefault(frozenset(masks), masks)
    total = sum(perm(n, len(masks)) for masks in orbits.values())
    # a list already closed is never refused: only adding past the budget is
    if total > max(len(listed), DEFAULT_ENUMERATION_BUDGET):
        raise EnumerationLimitError(
            f"swap closure exceeds the budget of {DEFAULT_ENUMERATION_BUDGET} allocations"
        )
    closed = dict.fromkeys(listed)
    # a closed list adds nothing; every list over one player is closed
    if total > len(listed):
        # getters[r] places an arrangement of r masks, padded with one empty
        # bundle, on each choice of r holding players
        getters = {}
        for masks in orbits.values():
            r = len(masks)
            if r not in getters:
                getters[r] = [
                    itemgetter(*(held.index(g) if g in held else r for g in range(n)))
                    for held in combinations(range(n), r)
                ]
            padded = [(*arrangement, 0) for arrangement in permutations(masks)]
            for get in getters[r]:
                closed.update(dict.fromkeys(map(get, padded)))
    return AllocationSet._of(n, allocations.bundles_seen, bundles=closed)


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
        raise MalformedInstanceError(f"probabilities sum to {_shown(total, str)}, not 1")
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
            raise MalformedInstanceError(f"floor {_shown(eps, str)} outside (0, 1/{n}]")
        if sum(w) != 1:
            raise MalformedInstanceError(f"weights sum to {_shown(sum(w), str)}, not 1")
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
    support = [j for j, _ in p.pairs]
    columns = inst.allocations.columns
    views = [
        [sum(a * row[column[j]] for a, j in zip(weights, support)) for column in columns]
        for row in inst.utilities.table
    ]
    return views, den * inst.utilities.scale
