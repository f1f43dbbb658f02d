"""Domain model: allocations, utility normalization, swap closure, lotteries."""

import sys
import time
import tracemalloc
from fractions import Fraction
from itertools import chain, product
from math import gcd, lcm, perm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairmix import cli
from fairmix.envy import certify
from fairmix.engine import choose_epsilon, find_fixed_point, select_p_in_P
from fairmix.errors import EnumerationLimitError, MalformedInstanceError, PreconditionError
from fairmix.hard import DisjointnessInput, build_hard_instance, check_submodular, split_count
from fairmix.lp import project_onto_truncated_simplex
from fairmix.model import (
    DEFAULT_ENUMERATION_BUDGET,
    MAX_ITEMS,
    AllocationSet,
    Instance,
    MixedAllocation,
    PureAllocation,
    WeightVector,
    all_partitions_allocation_set,
    expected_utility,
    is_int,
    is_swappable,
    normalize_utilities,
    over_common_denominator,
    swap_closure,
)
from fairmix.serialize import (
    dump_certificate,
    dump_instance,
    dump_solve_result,
    dump_trace_record,
    items_to_mask,
    load_instance,
    load_mixed_allocation,
)
from conftest import pinned_entries, random_allocation_list, seeded_rng, swapped
from oracles import fraction_normalize, reference_swap_closure

F = Fraction


def rescaled(prof):
    """The profile's rescaled values: each table entry over the one scale."""
    return [{b: F(x, prof.scale) for b, x in row.items()} for row in prof.table]


class TestNormalizeUtilities:
    def test_affine_rescale_endpoints(self):
        raw = [{0: 0, 1: 5, 2: 10, 3: 15}]
        prof = normalize_utilities(raw)
        assert rescaled(prof)[0] == {0: F(1), 1: F(4, 3), 2: F(5, 3), 3: F(2)}
        assert prof.raw_values[0] == {0: F(0), 1: F(5), 2: F(10), 3: F(15)}

    def test_raw_values_are_the_given_rationals(self):
        # kept as ints over the least denominator, 2, and built as Fractions on demand
        values = ["6/4", "0/7", "3", "-1/2", 5]
        data = {
            "n": 1,
            "m": 3,
            "utilities": {"type": "table", "values": [[[mask, v] for mask, v in enumerate(values)]]},
            "allocations": [[[]], [[1]], [[2]], [[1, 2]], [[3]]],
        }
        loaded = load_instance(data).utilities
        assert loaded == normalize_utilities([dict(enumerate(values))])
        assert loaded.raw_num == ({0: 3, 1: 0, 2: 6, 3: -1, 4: 10},) and loaded.raw_den == (2,)
        assert loaded.raw_values == ({mask: F(v) for mask, v in enumerate(values)},)
        assert normalize_utilities(loaded.raw_values) == loaded

    def test_degenerate_range_maps_to_one(self):
        prof = normalize_utilities([{0: 7, 1: 7, 3: 7}])
        assert set(rescaled(prof)[0].values()) == {F(1)}

    def test_already_in_range_unchanged(self):
        prof = normalize_utilities([{0: 1, 1: 2}])
        assert rescaled(prof)[0] == {0: F(1), 1: F(2)}

    def test_rejects_float(self):
        with pytest.raises(MalformedInstanceError):
            normalize_utilities([{0: 0.5, 1: 1}])

    def test_rejects_empty_player(self):
        with pytest.raises(MalformedInstanceError):
            normalize_utilities([{}])

    def test_accepts_rational_strings(self):
        prof = normalize_utilities([{0: "1/2", 1: "3/2"}])
        assert rescaled(prof)[0] == {0: F(1), 1: F(2)}

    @pytest.mark.parametrize(
        "table",
        [{1.9: 2, 0: 1}, {True: 2, 0: 1}, {-1: 2, 0: 1, 1: 3}, {"x": 2, 0: 1, 1: 3}],
        ids=["float", "bool", "negative", "string"],
    )
    def test_rejects_bad_bundle_key(self, table):
        with pytest.raises(MalformedInstanceError, match="bundle mask"):
            normalize_utilities([table])
        with pytest.raises(MalformedInstanceError, match="bundle mask"):
            Instance.build([table], all_partitions_allocation_set(1, 1))

    @given(
        st.lists(
            st.fractions(min_value=-50, max_value=50, max_denominator=20),
            min_size=1,
            max_size=8,
        )
    )
    def test_idempotent(self, vals):
        raw = [{b: v for b, v in enumerate(vals)}]
        once = normalize_utilities(raw)
        twice = normalize_utilities(rescaled(once))
        assert (twice.table, twice.scale) == (once.table, once.scale)

    @given(
        st.lists(
            st.fractions(min_value=-50, max_value=50, max_denominator=20),
            min_size=1,
            max_size=8,
        )
    )
    def test_range_bounds(self, vals):
        prof = normalize_utilities([{b: v for b, v in enumerate(vals)}])
        for v in rescaled(prof)[0].values():
            assert F(1) <= v <= F(2)


class TestPureAllocation:
    def test_rejects_overlap(self):
        with pytest.raises(MalformedInstanceError):
            PureAllocation((0b11, 0b10))

    def test_swap(self):
        closed = swap_closure([PureAllocation((0b01, 0b10, 0))])
        assert (0, 0b10, 0b01) in closed.index

    def test_partial_allocation_allowed(self):
        a = PureAllocation((0, 0))
        assert a.bundles == (0, 0)

    @pytest.mark.parametrize("bad", [1.9, True, "x", -1], ids=repr)
    @pytest.mark.parametrize(
        "build",
        [
            PureAllocation,
            lambda bundles: AllocationSet([bundles]),
            lambda bundles: swap_closure([bundles]),
            lambda bundles: Instance.build([{0: 0, 2: 1}, {0: 0, 2: 1}], [bundles]),
        ],
        ids=["PureAllocation", "AllocationSet", "swap_closure", "Instance.build"],
    )
    def test_rejects_bundles_that_are_not_masks(self, build, bad):
        # neither coerced (1.9 and True would become 1) nor a raw ValueError
        with pytest.raises(MalformedInstanceError, match="not an integer >= 0"):
            build((bad, 2))


class TestAllocationSet:
    def test_collapses_duplicates(self):
        s = AllocationSet([PureAllocation((1, 0)), PureAllocation((1, 0))])
        assert len(s) == 1

    def test_index_lookup(self):
        s = AllocationSet([PureAllocation((1, 0)), PureAllocation((0, 1))])
        assert s.index[(0, 1)] == 1

    def test_rejects_mixed_player_counts(self):
        with pytest.raises(MalformedInstanceError):
            AllocationSet([PureAllocation((1,)), PureAllocation((0, 1))])

    def test_rejects_empty(self):
        with pytest.raises(MalformedInstanceError, match="may not be empty"):
            AllocationSet([])


# (n, m) pairs whose all-partitions sets the program loads or builds: the
# desk mix (n = 2..3, m = 2..4), the wide mix (n = 4, m = 3), and the
# gen-hard instances for p = 2 and p = 3 (n = 2, m = 2p)
WORKLOAD_SIZES = [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4), (4, 3), (2, 6)]
PARTITION_SIZES = [
    (n, m)
    for n in range(1, 5)
    for m in range(7)
    if (n + 1) ** m <= DEFAULT_ENUMERATION_BUDGET
]


def product_partitions(n, m):
    """Reference all-partitions bundle tuples, in ``itertools.product`` order."""
    out = []
    for owners in product(range(n + 1), repeat=m):
        bundles = [0] * n
        for item, owner in enumerate(owners):
            if owner:
                bundles[owner - 1] |= 1 << item
        out.append(tuple(bundles))
    return out


def assert_same_set(trusted, validated):
    assert trusted == validated
    assert trusted.n == validated.n
    assert trusted.index == validated.index
    assert trusted.bundles_seen == validated.bundles_seen


class TestAllPartitions:
    def test_grid_covers_workload_sizes(self):
        assert set(WORKLOAD_SIZES) <= set(PARTITION_SIZES)

    @pytest.mark.parametrize("n, m", PARTITION_SIZES, ids=[f"n{n}-m{m}" for n, m in PARTITION_SIZES])
    def test_matches_product_order_and_full_validation(self, n, m):
        built = all_partitions_allocation_set(n, m)
        reference = product_partitions(n, m)
        assert list(built.bundles) == reference
        # the recorded bundles_seen is the set scanned from the tuples
        assert built.bundles_seen == frozenset(chain.from_iterable(built.bundles))
        assert_same_set(built, AllocationSet([PureAllocation(b) for b in reference]))
        assert is_swappable(built) == (True, None)
        raw = [{mask: mask * (i + 1) for mask in range(1 << m)} for i in range(n)]
        inst = Instance(n=n, m=m, utilities=normalize_utilities(raw), allocations=built)
        assert inst.allocations is built

    def test_n2_m1(self):
        s = all_partitions_allocation_set(2, 1)
        assert len(s) == 3
        assert set(s.index) == {(1, 0), (0, 1), (0, 0)}

    def test_n2_m2_count(self):
        assert len(all_partitions_allocation_set(2, 2)) == 9

    def test_n1_m0(self):
        s = all_partitions_allocation_set(1, 0)
        assert len(s) == 1
        assert s[0].bundles == (0,)

    def test_budget(self, monkeypatch):
        # 4^9 = 262,144 > 200,000 is refused before any allocation is built
        tracemalloc.start()
        try:
            with pytest.raises(EnumerationLimitError, match="262144 allocations"):
                all_partitions_allocation_set(3, 9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000
        # the limit is read from the module constant at call time: k = 9 passes at 9, not at 8
        monkeypatch.setattr("fairmix.model.DEFAULT_ENUMERATION_BUDGET", 9)
        assert len(all_partitions_allocation_set(2, 2)) == 9
        monkeypatch.setattr("fairmix.model.DEFAULT_ENUMERATION_BUDGET", 8)
        with pytest.raises(EnumerationLimitError):
            all_partitions_allocation_set(2, 2)

    def test_a_large_item_count_is_refused_before_the_set_size_is_built(self):
        # (n+1)^m >= 2^m passes the budget once m passes its bit length, 18,
        # so 3^(10^7), a 15.8-million-bit int, is never built
        start = time.perf_counter()
        with pytest.raises(EnumerationLimitError, match=r"has 3\^10000000 allocations, over the budget of 200000"):
            all_partitions_allocation_set(2, 10**7)
        assert time.perf_counter() - start < 1
        with pytest.raises(EnumerationLimitError, match=r"has 2\^19 allocations"):
            all_partitions_allocation_set(1, 19)
        with pytest.raises(EnumerationLimitError, match=r"has 2\^18 = 262144 allocations"):
            all_partitions_allocation_set(1, 18)

    @pytest.mark.parametrize("n, m", [(0, 2), (-1, 0), (2, -1)])
    def test_rejects_bad_sizes(self, n, m):
        with pytest.raises(MalformedInstanceError, match="needs n >= 1 and m >= 0"):
            all_partitions_allocation_set(n, m)

    @given(st.integers(1, 3), st.integers(0, 3))
    def test_always_swappable(self, n, m):
        ok, witness = is_swappable(all_partitions_allocation_set(n, m))
        assert ok and witness is None

    @pytest.mark.parametrize(
        "n, m, error",
        [(True, 1, MalformedInstanceError), ([2], 1, MalformedInstanceError), (3, 9, EnumerationLimitError)],
        ids=["bool-n", "list-n", "over-budget"],
    )
    def test_bad_shapes_raise_typed_errors(self, n, m, error):
        with pytest.raises(error):
            all_partitions_allocation_set(n, m)

    def test_columns_read_the_bundles_by_player(self):
        built = all_partitions_allocation_set(3, 2)
        listed = AllocationSet([(1, 2, 0), (2, 1, 0), (0, 0, 3)])
        for aset in (built, listed):
            assert aset.columns == tuple(zip(*aset.bundles))
            assert aset.columns is aset.columns

    def test_only_the_columns_are_built(self):
        # the bundle tuples and the index are built on first read, from the
        # columns (test_matches_product_order_and_full_validation reads them)
        built = all_partitions_allocation_set(3, 3)
        assert "bundles" not in built.__dict__ and "index" not in built.__dict__
        assert built.partitions_of == 3 and len(built) == 64

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_position_is_the_index_lookup(self, n):
        for m in range(5):
            built = all_partitions_allocation_set(n, m)
            found = [built.position(bundles) for bundles in product_partitions(n, m)]
            assert "index" not in built.__dict__
            assert found == [built.index[bundles] for bundles in built.bundles] == list(range(len(built)))

    def test_position_gives_none_off_the_set(self):
        built = all_partitions_allocation_set(2, 3)
        assert built.position((0b1000, 0)) is None  # item 4, past m = 3
        assert built.position((0b001, 0b1000)) is None
        assert built.position((0b001, 0b010, 0)) is None  # three players, not two
        assert built.position((0b001,)) is None
        assert built.position((0b011, 0b010)) is None  # item 2 held twice
        assert built.position((-1, 0)) is None
        assert "index" not in built.__dict__
        # every other set looks the allocation up in its index
        for aset in (AllocationSet([(1, 2), (2, 1)]), swap_closure([(1, 2)])):
            assert aset.partitions_of is None
            assert [aset.position(b) for b in ((1, 2), (2, 1), (1, 0), (4, 0), (1, 2, 0))] == [0, 1, None, None, None]


def builder_outputs():
    """Every allocation set the benchmark traffic builds, by name: all
    partitions for the desk and wide sizes, gen-hard's sets for p = 1..3,
    and the closure of each explicit list in the wide set."""
    sizes = [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4), (4, 3)]
    sets = [(f"all-n{n}-m{m}", all_partitions_allocation_set(n, m)) for n, m in sizes]
    for p in (1, 2, 3):
        r = split_count(p)
        inst = build_hard_instance(DisjointnessInput(p, (1,) * r, (0,) * r))
        sets.append((f"hard-p{p}", inst.allocations))
    for j, entry in enumerate(pinned_entries("wide")):
        if isinstance(entry["allocations"], list):
            sets.append((f"wide-{j}", load_instance(entry).allocations))
    return sets


class TestBuiltClosed:
    """The solver trusts ``built_closed``; the full proof runs here instead."""

    def test_builders_cover_the_traffic(self):
        names = [name for name, _ in builder_outputs()]
        assert {"hard-p1", "hard-p2", "hard-p3"} <= set(names)
        assert sum(name.startswith("wide-") for name in names) == 12

    def test_builder_outputs_are_recorded_and_swap_closed(self):
        for name, built in builder_outputs():
            assert built.built_closed, name
            # an unrecorded copy of the same tuples goes through the full proof
            copy = AllocationSet(built.bundles)
            assert not copy.built_closed, name
            assert is_swappable(copy) == (True, None), name

    def test_a_callers_list_is_not_recorded_even_when_closed(self):
        closed = AllocationSet([(0b01, 0b10), (0b10, 0b01)])
        assert is_swappable(closed) == (True, None)
        assert not closed.built_closed
        assert swap_closure(closed).built_closed


class TestStoredForm:
    """A set stores its bundle tuples; PureAllocation views are made on demand."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: AllocationSet([(0b01, 0b10), (0b10, 0b01), (0, 0b11), (0b01, 0b10)]),
            lambda: all_partitions_allocation_set(2, 3),
            lambda: swap_closure([(0b001, 0b010, 0)]),
        ],
        ids=["validated", "built", "closure"],
    )
    def test_views_agree_with_the_stored_tuples(self, make):
        aset = make()
        assert [a.bundles for a in aset] == list(aset.bundles)
        for j in range(len(aset)):
            assert isinstance(aset[j], PureAllocation)
            assert aset[j].bundles == aset.bundles[j]
            assert aset.index[aset[j].bundles] == j
        assert aset[-1].bundles == aset.bundles[-1]
        again = AllocationSet(list(aset))
        assert_same_set(aset, again)
        assert aset == make() and len(aset) == len(aset.bundles)
        assert aset.n == len(aset.bundles[0])

    def test_built_and_validated_sets_are_equal(self):
        built = all_partitions_allocation_set(2, 2)
        validated = AllocationSet(product_partitions(2, 2))
        assert_same_set(built, validated)
        assert built != AllocationSet(product_partitions(2, 2)[::-1])

    def test_no_wrapper_on_load_verify_dump_or_solve(self, monkeypatch, tmp_path):
        hard = dump_instance(build_hard_instance(DisjointnessInput(3, (1, 0) * 5, (0, 1) * 5)))
        desk = tmp_path / "desk.json"
        desk.write_text(
            '{"n": 3, "m": 3, "allocations": "all_partitions", "utilities": {"type": "additive",'
            ' "items": [["1", "3", "0"], ["2", "1", "1/2"], ["0", "1", "4"]]}}',
            encoding="utf-8",
        )

        def refuse(aset, *index):
            raise AssertionError(f"a PureAllocation view of {aset!r} was built")

        # iteration and indexing are the only ways a set makes views
        monkeypatch.setattr(AllocationSet, "__iter__", refuse)
        monkeypatch.setattr(AllocationSet, "__getitem__", refuse)
        inst = load_instance(hard)
        empty = {"support": [{"bundles": [[], []], "probability": "1/1"}]}
        cert = certify(load_mixed_allocation(empty, inst), inst)
        out = dump_certificate(cert, inst)
        assert not out["ok"] and not out["pe"]["ok"]
        assert out["pe"]["dominator"] == {"support": [{"bundles": [[1, 2, 3], [4, 5, 6]], "probability": "1/1"}]}
        assert out["pe"]["gains"] == ["1/1", "8/9"]
        assert cli.main(["solve", "--instance", str(desk)]) == 0

    def test_verify_and_solve_build_no_bundle_tuples_or_index(self):
        # an all-partitions set stores its columns only, and loading, verify
        # (a dominated lottery, so a dominator is dumped too) and a traced
        # solve read nothing else of it
        hard = dump_instance(build_hard_instance(DisjointnessInput(3, (1, 0) * 5, (0, 1) * 5)))
        lotteries = [
            {"support": [{"bundles": [[1, 2, 3], [4, 5, 6]], "probability": "1/1"}]},
            {"support": [{"bundles": [[], []], "probability": "1/1"}]},
        ]
        for data in lotteries:
            inst = load_instance(hard)
            dump_certificate(certify(load_mixed_allocation(data, inst), inst), inst)
            assert not {"bundles", "index"} & set(inst.allocations.__dict__)
        desk = pinned_entries("desk")
        for entry in desk[:: len(desk) // 8]:
            inst = load_instance(entry)
            trace = []
            state, cert = find_fixed_point(inst, trace_sink=trace)
            dump_solve_result(state, cert, inst, 0.0)
            for rec in trace:
                dump_trace_record(rec, inst)
            assert not {"bundles", "index"} & set(inst.allocations.__dict__)


class TestIsSwappable:
    def test_missing_swap_reported(self):
        s = AllocationSet([PureAllocation((1, 0))])
        ok, witness = is_swappable(s)
        assert not ok
        assert witness == (0, 0, 1)

    def test_swap_pair_present(self):
        s = AllocationSet([PureAllocation((1, 0)), PureAllocation((0, 1))])
        assert is_swappable(s) == (True, None)

    def test_a_list_is_validated_into_a_set(self):
        assert is_swappable([(1, 2), (2, 1)]) == (True, None)
        assert is_swappable([(1, 2)]) == (False, (0, 0, 1))
        with pytest.raises(MalformedInstanceError, match="overlapping bundles"):
            is_swappable([(1, 3)])
        with pytest.raises(MalformedInstanceError, match="is not a sequence"):
            is_swappable(5)

    def test_first_missing_swap_is_the_witness(self):
        # allocation 0 is closed under every swap; allocation 1 has its
        # (0, 1) swap (allocation 2) but lacks (0, 2) and (1, 2), and
        # allocation 2 lacks swaps too: the first gap in (j, g, h) order wins
        s = AllocationSet(
            [
                PureAllocation((0, 0, 0)),
                PureAllocation((1, 2, 4)),
                PureAllocation((2, 1, 4)),
            ]
        )
        assert is_swappable(s) == (False, (1, 0, 2))

    @given(
        st.lists(
            st.lists(st.sampled_from([0, 0b001, 0b010, 0b100]), min_size=3, max_size=3)
            .filter(lambda bs: not (bs[0] & bs[1] or bs[0] & bs[2] or bs[1] & bs[2])),
            min_size=1,
            max_size=5,
        )
    )
    def test_witness_matches_swapping_validated_allocations(self, bundle_lists):
        s = AllocationSet([PureAllocation(tuple(b)) for b in bundle_lists])
        expected = (True, None)
        for j, a in enumerate(s):
            gaps = [
                (j, g, h)
                for g, h in ((0, 1), (0, 2), (1, 2))
                if a.bundles[g] != a.bundles[h] and swapped(a.bundles, g, h) not in s.index
            ]
            if gaps:
                expected = (False, gaps[0])
                break
        assert is_swappable(s) == expected


class TestSwapClosure:
    def test_three_player_orbit(self):
        s = swap_closure([PureAllocation((0b01, 0b10, 0))])
        assert len(s) == 6
        assert is_swappable(s)[0]

    def test_symmetric_fixed_point(self):
        s = swap_closure([PureAllocation((0, 0))])
        assert len(s) == 1

    def test_two_orbits(self):
        s = swap_closure([PureAllocation((1, 0)), PureAllocation((2, 0))])
        assert len(s) == 4

    def test_budget(self, monkeypatch):
        # the orbit of four distinct bundles has 4! = 24 allocations
        start = [PureAllocation((1, 2, 4, 8))]
        monkeypatch.setattr("fairmix.model.DEFAULT_ENUMERATION_BUDGET", 24)
        assert len(swap_closure(start)) == 24
        monkeypatch.setattr("fairmix.model.DEFAULT_ENUMERATION_BUDGET", 23)
        with pytest.raises(EnumerationLimitError, match="exceeds the budget of 23 allocations"):
            swap_closure(start)

    def test_order_is_listed_then_each_orbit_by_holders_then_arrangements(self):
        # the orbit of {1, 2}, read off its first listed member (0, 2, 1):
        # holders (0, 1), (0, 2), (1, 2), each with the masks as (2, 1) then
        # (1, 2); then the orbit of {4}, by its holder
        s = swap_closure([PureAllocation((0, 2, 1)), PureAllocation((0, 0, 4)), PureAllocation((1, 2, 0))])
        assert s.bundles == (
            (0, 2, 1), (0, 0, 4), (1, 2, 0),
            (2, 1, 0), (2, 0, 1), (1, 0, 2), (0, 1, 2),
            (4, 0, 0), (0, 4, 0),
        )

    @pytest.mark.parametrize("n", range(1, 8))
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_the_swap_search(self, n, seed, monkeypatch):
        # up to four items among up to seven players: most allocations hold
        # several empty bundles, the one mask an allocation can repeat
        rng = seeded_rng(f"closure:{n}:{seed}")
        listed = AllocationSet(random_allocation_list(rng, n, rng.randint(0, 4), rng.randint(1, 6)))
        want = reference_swap_closure(listed)
        got = swap_closure(listed)
        assert set(got.bundles) == set(want)
        assert got.bundles[: len(listed)] == listed.bundles
        orbits = {frozenset(bundles) - {0} for bundles in listed.bundles}
        assert len(got) == sum(perm(n, len(orbit)) for orbit in orbits)
        # refused under the same condition, with the same message: a list
        # already closed passes a budget below its own size
        for budget in (len(listed) - 1, len(want) - 1, len(want)):
            monkeypatch.setattr("fairmix.model.DEFAULT_ENUMERATION_BUDGET", budget)
            outcomes = []
            for close in (lambda: swap_closure(listed).bundles, lambda: reference_swap_closure(listed)):
                try:
                    outcomes.append(set(close()))
                except EnumerationLimitError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1], budget

    def test_an_orbit_over_the_budget_is_refused_before_it_is_built(self):
        # nine single-item bundles over nine players: 9! = 362,880 > 200,000,
        # a size known before any allocation is built; a search over swaps
        # builds 200,000 tuples before it refuses
        start = [PureAllocation(tuple(1 << g for g in range(9)))]
        tracemalloc.start()
        try:
            with pytest.raises(EnumerationLimitError, match="^swap closure exceeds the budget of 200000 allocations$"):
                swap_closure(start)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @given(
        st.lists(
            st.permutations([0b001, 0b010, 0b100, 0]).map(lambda p: tuple(p[:3])),
            min_size=1,
            max_size=4,
        )
    )
    def test_closure_is_swappable(self, bundle_lists):
        s = swap_closure([PureAllocation(b) for b in bundle_lists])
        assert is_swappable(s)[0]

    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(0, n), min_size=3, max_size=3).map(
                    lambda owners: tuple(
                        sum(1 << g for g, o in enumerate(owners) if o == i + 1) for i in range(n)
                    )
                ),
                min_size=1,
                max_size=4,
            )
        )
    )
    def test_trusted_wrap_equals_validated_set(self, bundle_lists):
        s = swap_closure([PureAllocation(b) for b in bundle_lists])
        assert_same_set(s, AllocationSet([PureAllocation(a.bundles) for a in s]))


class TestMixedAllocation:
    def test_rejects_bad_sum(self):
        with pytest.raises(MalformedInstanceError):
            MixedAllocation(2, ((0, F(1, 2)), (1, F(1, 3))))

    def test_rejects_negative(self):
        with pytest.raises(MalformedInstanceError):
            MixedAllocation(2, ((0, F(3, 2)), (1, F(-1, 2))))

    def test_point_mass_and_support(self):
        p = MixedAllocation.point_mass(4, 2)
        assert p.support() == (2,)
        assert p.pairs == ((2, F(1)),)

    def test_uniform(self):
        p = MixedAllocation(3, [(j, F(1, 3)) for j in range(3)])
        assert p.pairs == ((0, F(1, 3)), (1, F(1, 3)), (2, F(1, 3)))

    def test_from_support(self):
        p = MixedAllocation.from_support(3, {0: F(1, 4), 2: F(3, 4)})
        assert p.pairs == ((0, F(1, 4)), (2, F(3, 4)))

    def test_stores_only_the_support(self):
        p = MixedAllocation.from_support(5, {4: F(1, 3), 1: F(2, 3), 2: F(0)})
        assert p.k == 5
        assert p.pairs == ((1, F(2, 3)), (4, F(1, 3)))
        assert p.support() == (1, 4)

    def test_constructor_and_duplicate_support_agree(self):
        direct = MixedAllocation(4, ((1, F(1, 2)), (3, F(1, 2))))
        split = MixedAllocation.from_support(
            4, [(3, F(1, 4)), (1, F(1, 2)), (0, 0), (3, F(1, 4))]
        )
        assert direct == split
        assert hash(direct) == hash(split)
        assert direct != MixedAllocation.from_support(5, {1: F(1, 2), 3: F(1, 2)})

    def test_pairs_round_trip(self):
        p = MixedAllocation(5, [(4, F(1, 3)), (0, F(1, 6)), (3, 0), (2, "1/2")])
        assert p.pairs == ((0, F(1, 6)), (2, F(1, 2)), (4, F(1, 3)))
        assert MixedAllocation(p.k, p.pairs) == p
        assert MixedAllocation.from_support(p.k, dict(p.pairs)) == p

    def test_rejects_indices_outside_the_set(self):
        with pytest.raises(MalformedInstanceError):
            MixedAllocation.from_support(3, {-1: 1})
        with pytest.raises(MalformedInstanceError):
            MixedAllocation.from_support(3, {3: 1})
        with pytest.raises(MalformedInstanceError, match="outside"):
            MixedAllocation.point_mass(3, 3)
        with pytest.raises(MalformedInstanceError):
            MixedAllocation.point_mass(3, -1)

    def test_rejects_negative_support_entry(self):
        with pytest.raises(MalformedInstanceError):
            MixedAllocation.from_support(3, [(0, F(3, 2)), (0, F(-1, 2))])


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: MixedAllocation(2, ((0,),)), r"lottery entry \(0,\) is not an \(index, probability\) pair"),
        (lambda: MixedAllocation.from_support(2, "ab"), "lottery entry 'a' is not an"),
        (lambda: MixedAllocation(2, 5), "lottery support 5 is not a sequence"),
        (lambda: PureAllocation(5), "bundle list 5 is not a sequence"),
        (lambda: AllocationSet([[1, 2], 3]), "bundle list 3 is not a sequence"),
        (lambda: AllocationSet(5), "allocation list 5 is not a sequence"),
        (lambda: WeightVector(5, F(1, 4)), "weight vector 5 is not a sequence"),
    ],
    ids=[
        "short-pair", "string-support", "int-support", "int-bundles", "int-allocation", "int-set",
        "int-weights",
    ],
)
def test_constructors_name_the_malformed_entry(build, message):
    # the same class of input fault as a bad mask: never a raw TypeError or ValueError
    with pytest.raises(MalformedInstanceError, match=message):
        build()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: normalize_utilities(5), "utility list 5 is not a sequence"),
        (lambda: normalize_utilities([5]), "utility table 5 of player 0 is not a mapping"),
        (lambda: normalize_utilities([None]), "utility table None of player 0 is not a mapping"),
        (lambda: normalize_utilities([{0: 1}, (0, 1)]), r"utility table \(0, 1\) of player 1 is not a mapping"),
        (lambda: Instance.build(5, all_partitions_allocation_set(1, 1)), "utility list 5 is not a sequence"),
        (lambda: Instance.build([5], all_partitions_allocation_set(1, 1)), "utility table 5 of player 0"),
    ],
    ids=["int-list", "int-table", "none-table", "tuple-table", "build-int-list", "build-int-table"],
)
def test_utilities_of_the_wrong_shape_are_malformed(build, message):
    with pytest.raises(MalformedInstanceError, match=message):
        build()


def _select_on(argmax):
    inst = Instance.build(
        [{0: 0, 1: 1, 2: 2, 3: 3}, {0: 0, 1: 2, 2: 1, 3: 3}], all_partitions_allocation_set(2, 2)
    )
    return select_p_in_P(WeightVector.uniform(2, F(1, 4)), inst, argmax)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: project_onto_truncated_simplex(5, F(1, 4)), PreconditionError, "projection input 5 is not a sequence"),
        (lambda: DisjointnessInput(1, 5, (1,)), MalformedInstanceError, "x1 5 is not a sequence"),
        (lambda: DisjointnessInput(1, None, (1,)), MalformedInstanceError, "x1 None is not a sequence"),
        (lambda: check_submodular(5, 1), MalformedInstanceError, "bundle table 5 is not a sequence"),
        (lambda: check_submodular({0: 0, 1: 1}, 1.5), MalformedInstanceError, "item count m must be an integer, got 1.5"),
        (lambda: check_submodular({0: 0, 1: 1}, True), MalformedInstanceError, "item count m must be an integer, got True"),
        (lambda: check_submodular({0: 0, 1: 1}, -1), MalformedInstanceError, "negative item count m=-1"),
        (lambda: _select_on(()), PreconditionError, r"argmax \(\) is not a non-empty list of indices in 0..8"),
        (lambda: _select_on((0, 99)), PreconditionError, r"argmax \(0, 99\) is not a non-empty list"),
        (lambda: _select_on((0, True)), PreconditionError, r"argmax \(0, True\) is not a non-empty list"),
        (lambda: _select_on(4), PreconditionError, "argmax 4 is not a non-empty list"),
    ],
    ids=[
        "projection-int", "disjointness-int", "disjointness-none", "submodular-int-table",
        "submodular-float-m", "submodular-bool-m", "submodular-negative-m", "select-empty-argmax",
        "select-argmax-out-of-range", "select-bool-index", "select-int-argmax",
    ],
)
def test_entry_points_reject_a_malformed_argument_with_a_typed_error(call, error, message):
    # a caller's bad input, never a raw TypeError, ValueError or IndexError,
    # nor an engine invariant failure
    with pytest.raises(error, match=message):
        call()


HUGE = 10**5000  # its repr passes Python's default int-to-str limit of 4,300 digits


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: PureAllocation((-HUGE,)), MalformedInstanceError),
        (lambda: MixedAllocation(2, ((HUGE, 1),)), MalformedInstanceError),
        (lambda: DisjointnessInput(HUGE, (1,), (0,)), MalformedInstanceError),
        (lambda: split_count(-HUGE), MalformedInstanceError),
        (lambda: choose_epsilon(1, -HUGE), PreconditionError),
        (lambda: all_partitions_allocation_set(-HUGE, 1), MalformedInstanceError),
        (lambda: instance_with(TestInstance().build_symmetric(), n=-HUGE), MalformedInstanceError),
    ],
    ids=["bundle-mask", "lottery-index", "half-count", "split-count", "player-count", "partitions-n", "instance-n"],
)
def test_an_int_too_long_to_print_is_named_by_its_size(call, error):
    # the message describes the int instead of raising a raw ValueError
    with pytest.raises(error) as info:
        call()
    message = str(info.value)
    assert len(message) < 200
    # where the interpreter has a digit limit below HUGE's 5,001 digits
    if 0 < getattr(sys, "get_int_max_str_digits", int)() < 5001:
        assert "int of 16610 bits>" in message


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: choose_epsilon(F(HUGE), 1), PreconditionError),
        (lambda: project_onto_truncated_simplex((1,), -HUGE), PreconditionError),
        (lambda: WeightVector((F(HUGE),), F(1, 2)), MalformedInstanceError),
        (lambda: MixedAllocation(1, ((0, HUGE),)), MalformedInstanceError),
    ],
    ids=["gap-constant", "projection-floor", "weight-sum", "probability-sum"],
)
def test_a_rational_too_long_to_print_is_named_by_its_size(call, error):
    # the message describes the rational instead of raising a raw ValueError
    with pytest.raises(error) as info:
        call()
    message = str(info.value)
    assert len(message) < 200
    if 0 < getattr(sys, "get_int_max_str_digits", int)() < 5001:
        assert "rational with a 16610-bit numerator and a 1-bit denominator>" in message


class TestWeightVector:
    def test_rejects_floor_violation(self):
        with pytest.raises(MalformedInstanceError):
            WeightVector((F(19, 20), F(1, 20)), F(1, 10))

    def test_rejects_large_epsilon(self):
        with pytest.raises(MalformedInstanceError):
            WeightVector((F(1, 2), F(1, 2)), F(2, 3))

    def test_rejects_bad_sum(self):
        with pytest.raises(MalformedInstanceError):
            WeightVector((F(1, 2), F(1, 4)), F(1, 10))

    def test_uniform(self):
        w = WeightVector.uniform(3, F(1, 10))
        assert w.w == (F(1, 3),) * 3

    def test_rejects_empty(self):
        with pytest.raises(MalformedInstanceError, match="empty weight vector"):
            WeightVector((), F(1, 2))


def instance_with(inst, **changes):
    """``Instance(...)`` over ``inst``'s fields, with ``changes`` in place of some."""
    fields = {"n": inst.n, "m": inst.m, "utilities": inst.utilities, "allocations": inst.allocations}
    return Instance(**{**fields, **changes})


class TestInstance:
    def build_symmetric(self):
        raw = [{0: 0, 1: 1, 2: 1, 3: 2}] * 2
        return Instance.build(raw, all_partitions_allocation_set(2, 2))

    def test_build_infers_sizes(self):
        inst = self.build_symmetric()
        assert (inst.n, inst.m) == (2, 2)
        assert len(inst.allocations) == 9

    def test_missing_bundle_value_rejected(self):
        raw = [{0: 0, 1: 1, 2: 1}, {0: 0, 1: 1, 2: 1, 3: 2}]
        with pytest.raises(MalformedInstanceError):
            Instance.build(raw, all_partitions_allocation_set(2, 2))

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("n", 0, "at least one player"),
            ("m", -1, "negative item count"),
            ("m", MAX_ITEMS + 1, "bitmask cap"),
            ("allocations", all_partitions_allocation_set(3, 2), "allocations are over 3 players"),
            ("utilities", normalize_utilities([{0: 0, 1: 1, 2: 1, 3: 2}] * 3), "utilities are over 3 players"),
        ],
        ids=["no-player", "negative-m", "m-over-cap", "allocations-of-3", "utilities-of-3"],
    )
    def test_rejects_inconsistent_fields(self, field, value, match):
        with pytest.raises(MalformedInstanceError, match=match):
            instance_with(self.build_symmetric(), **{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [("allocations", [(1, 0), (0, 1)]), ("utilities", [{0: 0, 1: 1}, {0: 0, 1: 1}])],
        ids=["allocations-list", "utilities-dicts"],
    )
    def test_a_field_of_the_wrong_type_points_to_build(self, field, value):
        # raw input belongs to Instance.build; the constructor takes built fields
        with pytest.raises(MalformedInstanceError, match=f"^{field} must be of type .*, got list; use Instance.build"):
            instance_with(self.build_symmetric(), **{field: value})

    def test_item_beyond_m_names_the_allocation(self):
        allocations = AllocationSet([PureAllocation((1, 0)), PureAllocation((0, 4)), PureAllocation((2, 1))])
        raw = [{b: b for b in range(8)}] * 2
        with pytest.raises(MalformedInstanceError, match=r"allocation \(0, 4\) uses items beyond m=2"):
            Instance(n=2, m=2, utilities=normalize_utilities(raw), allocations=allocations)

    def test_point_mass_own_value(self):
        inst = self.build_symmetric()
        j = inst.allocations.index[(0b11, 0)]
        p = MixedAllocation.point_mass(len(inst.allocations), j)
        views, den = expected_utility(p, inst)
        assert F(views[0][0], den) == F(2)
        assert F(views[1][1], den) == F(1)

    def test_uniform_average(self):
        inst = self.build_symmetric()
        ja = inst.allocations.index[(0b01, 0b10)]
        jb = inst.allocations.index[(0b10, 0b01)]
        p = MixedAllocation.from_support(
            len(inst.allocations), {ja: F(1, 2), jb: F(1, 2)}
        )
        # each single item normalizes to 3/2 here, so the mean is 3/2
        views, den = expected_utility(p, inst)
        for viewer in range(2):
            for owner in range(2):
                assert F(views[viewer][owner], den) == F(3, 2)

    @given(st.integers(0, 2**30 - 1), st.fractions(min_value=0, max_value=1, max_denominator=16))
    @settings(max_examples=40)
    def test_expected_utility_linear_in_p(self, seed, alpha):
        from conftest import fraction_views, random_table_instance, seeded_rng

        inst = random_table_instance(seeded_rng(seed), n=2, m=2)
        k = len(inst.allocations)
        rng = seeded_rng(seed + 1)
        pa = MixedAllocation.point_mass(k, rng.randrange(k))
        pb = MixedAllocation(k, [(j, F(1, k)) for j in range(k)])
        mix = MixedAllocation.from_support(
            k, [(j, alpha * q) for j, q in pa.pairs] + [(j, (1 - alpha) * q) for j, q in pb.pairs]
        )
        views_mix, views_a, views_b = (fraction_views(q, inst) for q in (mix, pa, pb))
        for viewer in range(2):
            for owner in range(2):
                lhs = views_mix[viewer][owner]
                rhs = alpha * views_a[viewer][owner] + (1 - alpha) * views_b[viewer][owner]
                assert lhs == rhs

    @given(st.integers(0, 2**30 - 1))
    @settings(max_examples=40)
    def test_expected_utility_matches_dense_sum(self, seed):
        from conftest import random_table_instance, seeded_rng

        def check(p, inst):
            views, den = expected_utility(p, inst)
            assert den == lcm(*(q.denominator for _, q in p.pairs)) * inst.utilities.scale
            assert len(views) == inst.n and all(len(row) == inst.n for row in views)
            probs = dict(p.pairs)
            values = fraction_normalize(inst.utilities.raw_values)
            for viewer in range(inst.n):
                for owner in range(inst.n):
                    dense = sum(
                        probs.get(j, 0) * values[viewer][inst.allocations[j].bundles[owner]]
                        for j in range(len(inst.allocations))
                    )
                    assert type(views[viewer][owner]) is int and F(views[viewer][owner], den) == dense

        rng = seeded_rng(seed)
        inst = random_table_instance(rng)
        k = len(inst.allocations)
        picks = [rng.randrange(k) for _ in range(rng.randint(1, 6))]
        raw = [F(rng.randint(0, 5)) for _ in picks]
        raw[0] += 1
        p = MixedAllocation.from_support(k, [(j, r / sum(raw)) for j, r in zip(picks, raw)])
        assert list(p.support()) == sorted(set(p.support()))
        assert MixedAllocation(k, p.pairs) == p
        check(p, inst)
        # n = 2..5 with one to three allocations in the support; the single
        # allocation is a point mass, where every view sums to an int
        for n in range(2, 6):
            inst = random_table_instance(rng, n=n, m=2)
            k = len(inst.allocations)
            for size in (1, 2, 3):
                support = rng.sample(range(k), size)
                raw = [F(rng.randint(1, 5)) for _ in support]
                check(MixedAllocation.from_support(k, {j: r / sum(raw) for j, r in zip(support, raw)}), inst)

    def test_expected_utility_rejects_foreign_lottery(self):
        inst = self.build_symmetric()
        with pytest.raises(MalformedInstanceError):
            expected_utility(MixedAllocation.point_mass(4, 0), inst)


def one_item_instance():
    return Instance.build([{0: 0, 1: 1}] * 2, all_partitions_allocation_set(2, 1))


@pytest.mark.parametrize(
    "build",
    [
        lambda: MixedAllocation.point_mass(3, True),
        lambda: MixedAllocation.from_support(3, {True: 1}),
        lambda: MixedAllocation(True, ((0, 1),)),
        lambda: all_partitions_allocation_set(2.0, 2),
        lambda: all_partitions_allocation_set(2, 2.0),
        lambda: all_partitions_allocation_set("2", 2),
        lambda: all_partitions_allocation_set(True, 1),
        lambda: instance_with(one_item_instance(), n=2.0),
        lambda: instance_with(one_item_instance(), m=1.5),
        lambda: instance_with(one_item_instance(), m=True),
    ],
    ids=[
        "point-mass-bool-index",
        "support-bool-index",
        "lottery-bool-size",
        "partitions-float-n",
        "partitions-float-m",
        "partitions-string-n",
        "partitions-bool-n",
        "instance-float-n",
        "instance-float-m",
        "instance-bool-m",
    ],
)
def test_counts_and_indices_are_ints_not_bools(build):
    # the rule bundle masks already follow: an int, not a bool
    with pytest.raises(MalformedInstanceError, match="must be an integer"):
        build()


def _instance_json(n=2, m=1, mask=1):
    return {
        "n": n,
        "m": m,
        "utilities": {"type": "table", "values": [[[0, "0"], [mask, "1"]]] * 2},
        "allocations": "all_partitions",
    }


# Every site that applies the int-not-bool rule (``model.is_int``), each
# with the message it raised before the rule was shared.
INT_SITES = [
    ("PureAllocation", lambda x: PureAllocation((x, 0)), "bundle mask {x!r} is not an integer >= 0"),
    ("normalize_utilities", lambda x: normalize_utilities([{x: 1}]), "bundle mask {x!r} is not an integer >= 0"),
    ("split_count", lambda x: split_count(x), "half-count must be an integer in 1..12, got {x!r}"),
    ("DisjointnessInput", lambda x: DisjointnessInput(1, (x,), (0,)), "x1 contains a non-bit entry {x!r}"),
    ("items_to_mask", lambda x: items_to_mask([x], 2), "item {x!r} outside 1..2"),
    ("load_instance-n", lambda x: load_instance(_instance_json(n=x)), "field 'n': need an integer >= 1"),
    ("load_instance-m", lambda x: load_instance(_instance_json(m=x)), f"field 'm': need an integer in 0..{MAX_ITEMS}"),
    ("load_instance-mask", lambda x: load_instance(_instance_json(mask=x)), "field 'utilities.values[0]': bundle mask {x!r} outside 0..1"),
]


@pytest.mark.parametrize("x", [True, 2.0], ids=repr)
@pytest.mark.parametrize("build, message", [s[1:] for s in INT_SITES], ids=[s[0] for s in INT_SITES])
def test_int_rule_sites_keep_their_messages(build, message, x):
    with pytest.raises(MalformedInstanceError) as info:
        build(x)
    assert str(info.value) == message.format(x=x)


@given(st.lists(st.one_of(st.integers(-30, 30), st.fractions(max_denominator=60)), min_size=1, max_size=6))
def test_over_common_denominator_round_trips(values):
    nums, den = over_common_denominator(values)
    assert all(is_int(x) for x in nums) and is_int(den) and den >= 1
    assert [F(x, den) for x in nums] == [F(v) for v in values]
    assert gcd(den, *nums) == 1


def test_over_common_denominator_examples():
    assert over_common_denominator((F(1, 2), F(1, 3), 2)) == ([3, 2, 12], 6)
    assert over_common_denominator((F(3, 4),)) == ([3], 4)
    assert over_common_denominator((0, 5)) == ([0, 5], 1)
