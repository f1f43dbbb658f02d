"""Round trips and schema validation for the JSON/DOT formats."""

import gc
import json
import random
import re
import sys
import time
from enum import IntEnum
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fairmix import (
    Certificate,
    Instance,
    MalformedInstanceError,
    MixedAllocation,
    PureAllocation,
    all_partitions_allocation_set,
    build_envy_graph,
    certify,
    dump_certificate,
    dump_dichotomy_report,
    dump_instance,
    dump_mixed_allocation,
    dump_trace_record,
    envy_graph_to_dot,
    format_rational,
    load_instance,
    load_mixed_allocation,
    normalize_utilities,
    verify_welfare_dichotomy,
)
from fairmix.engine import FixedPointState, find_fixed_point
from fairmix.hard import DisjointnessInput, build_hard_instance
from fairmix.model import SHOWN_CHARS, WeightVector, _normalize_rows, _num_den, as_fraction
from fairmix.serialize import _checked_row, _plain_row, dump_solve_result, dumps, items_to_mask, mask_to_items

from conftest import additive_table, pinned_entries, pinned_instances
from oracles import reference_table_rows

F = Fraction
# the one message a string outside the rational grammar gets, after its value
EXPECTED = "expected an integer or 'num/den' in ASCII digits"


def symmetric_instance_data():
    return {
        "n": 2,
        "m": 2,
        "utilities": {"type": "additive", "items": [["1/1", "1/1"], ["1/1", "1/1"]]},
        "allocations": "all_partitions",
    }


class TestRationals:
    @pytest.mark.parametrize("q", [F(0), F(1), F(-3, 7), F(22, 7)])
    def test_round_trip(self, q):
        assert as_fraction(format_rational(q)) == q

    def test_always_slash_form(self):
        assert format_rational(F(3)) == "3/1"

    @pytest.mark.parametrize("q", [0.1, True, "x"])
    def test_format_rejects_what_as_fraction_rejects(self, q):
        with pytest.raises(MalformedInstanceError):
            format_rational(q)

    def test_zero_denominator_rejected(self):
        with pytest.raises(MalformedInstanceError):
            as_fraction("1/0")

    def test_float_rejected(self):
        with pytest.raises(MalformedInstanceError):
            as_fraction(0.5)

    @pytest.mark.parametrize(
        "value, message",
        [
            ("abc", f"bad rational 'abc': {EXPECTED}"),
            ("1/0", f"bad rational '1/0': {EXPECTED}"),
            ([1, "2"], "non-rational value of type list: [1, '2']"),
            # a string of SHOWN_CHARS - 2 characters has a repr of exactly SHOWN_CHARS
            ("x" * (SHOWN_CHARS - 2), f"bad rational {'x' * (SHOWN_CHARS - 2)!r}: {EXPECTED}"),
        ],
        ids=["letters", "zero-denominator", "list", "at-the-limit"],
    )
    def test_short_values_are_echoed_whole(self, value, message):
        with pytest.raises(MalformedInstanceError) as info:
            as_fraction(value)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "value",
        ["1/" + "9" * 5000, "x" * (SHOWN_CHARS - 1), "x" * 5000, ["1"] * 5000],
        ids=["digits", "just-over", "letters", "list"],
    )
    def test_long_values_are_clipped_to_a_prefix_and_their_length(self, value):
        # the digit-limit case: a string of plain digits too long to read
        with pytest.raises(MalformedInstanceError) as info:
            as_fraction(value)
        message = str(info.value)
        shown = f"{repr(value)[:SHOWN_CHARS]}... ({len(repr(value))} characters)"
        assert len(message) < 300 and message.count(shown) >= 1

    @staticmethod
    def outcome(parse, text, errors):
        try:
            return parse(text)
        except errors:
            return MalformedInstanceError

    @given(
        st.one_of(
            st.text(alphabet="0123456789/-+ ._e\u0663\u00b3", max_size=12),
            st.from_regex(r"\A-?[0-9]{1,6}(/[0-9]{1,6})?\Z"),
            st.text(max_size=8),
        )
    )
    @example("007/010")
    @example("3/0")
    @example("0/00")
    @example("-3/4")
    @example(" 3/4")
    @example("1.5")
    @example("1_0/3")
    @example("/4")
    @example("3/")
    @example("1/2/3")
    @example("\u0663/4")
    @example("\u00b3/4")
    @example("1" * 5000 + "/3")
    @example("1e4299")
    @example("1e4300")
    @example("0.5e-4299")
    @example("1_0e4_298")
    @example("0e99999")
    def test_agrees_with_as_fraction(self, text):
        # the reference is the one grammar the package writes: ASCII
        # '[-]digits' or '[-]digits/digits' with a nonzero denominator,
        # each part within the int-from-str digit limit
        reference = self.read_in_the_grammar(text)
        assert self.outcome(as_fraction, text, MalformedInstanceError) == reference
        # as_fraction reads through _num_den, the one reader, and hands a
        # Fraction back as the same object
        assert self.outcome(lambda t: Fraction(*_num_den(t)), text, MalformedInstanceError) == reference
        if reference is not MalformedInstanceError:
            assert as_fraction(reference) is reference

    @staticmethod
    def read_in_the_grammar(text):
        if re.fullmatch(r"-?[0-9]+(/[0-9]+)?", text) is None:
            return MalformedInstanceError
        num, _, den = text.partition("/")
        den = den or "1"
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit and max(len(num.lstrip("-")), len(den)) > limit or int(den) == 0:
            return MalformedInstanceError
        return Fraction(int(num), int(den))


class TestMasks:
    def test_mask_to_items(self):
        assert mask_to_items(0b101) == [1, 3]
        assert mask_to_items(0) == []

    def test_items_to_mask(self):
        assert items_to_mask([1, 3], 3) == 0b101
        assert items_to_mask([], 3) == 0

    def test_out_of_range_item(self):
        with pytest.raises(MalformedInstanceError):
            items_to_mask([4], 3)

    def test_duplicate_item(self):
        with pytest.raises(MalformedInstanceError):
            items_to_mask([2, 2], 3)

    @pytest.mark.parametrize("mask", [-1, -6, True, False, None, 2.0, "3", F(1)], ids=repr)
    def test_bad_mask_is_rejected(self, mask):
        # a negative mask used to shift forever (-1 >> 1 == -1)
        with pytest.raises(MalformedInstanceError) as info:
            mask_to_items(mask)
        assert str(info.value) == f"bundle mask {mask!r} is not an integer >= 0"

    @pytest.mark.parametrize("items", [5, None, 2.0], ids=repr)
    def test_non_sequence_items_are_rejected(self, items):
        with pytest.raises(MalformedInstanceError) as info:
            items_to_mask(items, 2)
        assert str(info.value) == f"item list {items!r} is not a sequence"


class TestInstanceLoad:
    def test_additive_matches_table_built_instance(self):
        inst = load_instance(symmetric_instance_data())
        reference = Instance.build(
            [additive_table([F(1), F(1)]), additive_table([F(1), F(1)])],
            all_partitions_allocation_set(2, 2),
        )
        assert inst.n == reference.n and inst.m == reference.m
        assert inst.utilities.scale == reference.utilities.scale
        assert inst.utilities.table == reference.utilities.table

    def test_table_utilities(self):
        data = {
            "n": 1,
            "m": 1,
            "utilities": {"type": "table", "values": [[[0, "0/1"], [1, "7/2"]]]},
            "allocations": "all_partitions",
        }
        inst = load_instance(data)
        assert inst.utilities.raw_values[0][1] == F(7, 2)
        # top of the rescaled range
        assert inst.utilities.table[0][1] == 2 * inst.utilities.scale

    def test_declared_m_is_respected(self):
        data = {
            "n": 2,
            "m": 3,
            "utilities": {"type": "additive", "items": [["1/1"] * 3, ["1/1"] * 3]},
            "allocations": [[[1], [2]], [[2], [1]]],
        }
        assert load_instance(data).m == 3

    def test_explicit_list_closed_with_warning(self):
        data = {
            "n": 2,
            "m": 2,
            "utilities": {"type": "additive", "items": [["1/1", "1/1"], ["1/1", "2/1"]]},
            "allocations": [[[1], [2]]],
        }
        messages = []
        inst = load_instance(data, warn=messages.append)
        assert len(inst.allocations) == 2  # the swap was added
        assert messages and "closure" in messages[0]

    def test_removed_strict_option_is_refused(self):
        # an explicit list is always closed; no option refuses it instead
        data = {
            "n": 2,
            "m": 2,
            "utilities": {"type": "additive", "items": [["1/1", "1/1"], ["1/1", "2/1"]]},
            "allocations": [[[1], [2]]],
        }
        with pytest.raises(TypeError):
            load_instance(data, strict=True)

    def test_closed_list_loads_silently(self):
        data = {
            "n": 2,
            "m": 2,
            "utilities": {"type": "additive", "items": [["1/1", "1/1"], ["1/1", "1/1"]]},
            "allocations": [[[1], [2]], [[2], [1]]],
        }
        messages = []
        load_instance(data, warn=messages.append)
        assert messages == []

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.pop("n"),
            lambda d: d.update(extra=1),
            lambda d: d.update(n=0),
            lambda d: d.update(m=99),
            lambda d: d.update(utilities={"type": "mystery"}),
            lambda d: d.update(allocations=[]),
            lambda d: d.update(allocations=[[[1], [1]]]),  # overlapping bundles
            lambda d: d.update(allocations=[[[3], []]]),  # item beyond m
        ],
    )
    def test_schema_violations(self, mutate):
        data = symmetric_instance_data()
        mutate(data)
        with pytest.raises(MalformedInstanceError):
            load_instance(data)

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda d: d.update(allocations=[[[1], [1]]]), "field 'allocations[0]': overlapping bundles in (1, 1)"),
            (lambda d: d.update(allocations=[[[1], [2]], [[3], []]]), "field 'allocations[1]': item 3 outside 1..2"),
            (lambda d: d.update(allocations=[[[1, 1], []]]), "field 'allocations[0]': item 1 listed twice"),
            (
                lambda d: d["utilities"]["items"][1].__setitem__(0, 0.5),
                "field 'utilities.items[1]': non-rational value of type float: 0.5",
            ),
            (
                lambda d: d.update(utilities={"type": "table", "values": [[[0, "1"]], [[0, 0.5]]]}),
                "field 'utilities.values[1]': non-rational value of type float: 0.5",
            ),
            (
                lambda d: d.update(utilities={"type": "table", "values": [[[0, "1"]], [[0, "1"]]]}),
                "field 'utilities': player 0 lacks a utility for bundle mask 1",
            ),
            (
                lambda d: d.update(utilities={"type": "table", "values": [[], [[0, "1"]]]}),
                "field 'utilities': player 0 has no utility values",
            ),
            (
                lambda d: d.update(utilities={"type": "table", "values": [[[0, "1"]], [[1, "1"], [1, "2"]]]}),
                "field 'utilities.values[1]': duplicate bundle mask 1",
            ),
            (
                lambda d: d.update(utilities={"type": "table", "values": [[[0, "1"], [4, "2"]], [[0, "1"]]]}),
                "field 'utilities.values[0]': bundle mask 4 outside 0..3",
            ),
            (
                lambda d: d.update(utilities={"type": "table", "values": [[[-1, "1"]], [[0, "1"]]]}),
                "field 'utilities.values[0]': bundle mask -1 outside 0..3",
            ),
        ],
        ids=[
            "overlap",
            "item-beyond-m",
            "item-twice",
            "float-item-value",
            "float-table-value",
            "missing-mask",
            "empty-table",
            "duplicate-mask",
            "mask-beyond-m",
            "negative-mask",
        ],
    )
    def test_nested_errors_name_their_field(self, mutate, message):
        data = symmetric_instance_data()
        mutate(data)
        with pytest.raises(MalformedInstanceError, match=re.escape(message)):
            load_instance(data)

    def test_duplicate_table_mask_rejected(self):
        data = {
            "n": 1,
            "m": 1,
            "utilities": {"type": "table", "values": [[[1, "1/1"], [1, "2/1"]]]},
            "allocations": "all_partitions",
        }
        with pytest.raises(MalformedInstanceError):
            load_instance(data)

    @pytest.mark.parametrize("kind, key, noun", [("additive", "items", "item list"), ("table", "values", "table")])
    def test_row_count_is_checked_before_the_allocation_set(self, kind, key, noun):
        # all partitions of no items over n players are n columns of one
        # mask: at this n, building them first would exhaust memory
        n = 10**12
        data = {"n": n, "m": 0, "utilities": {"type": kind, key: [[]]}, "allocations": "all_partitions"}
        start = time.perf_counter()
        with pytest.raises(MalformedInstanceError) as info:
            load_instance(data)
        assert time.perf_counter() - start < 1
        assert str(info.value) == f"field 'utilities.{key}': need one {noun} per player ({n})"

    def test_unknown_utility_type_is_clipped(self):
        data = symmetric_instance_data()
        data["utilities"] = {"type": "t" * 1000}
        with pytest.raises(MalformedInstanceError) as info:
            load_instance(data)
        assert str(info.value) == (
            f"field 'utilities.type': expected 'table' or 'additive', got {'t' * 1000!r:.60}... (1002 characters)"
        )

    @pytest.mark.parametrize("workload", ["desk", "wide"])
    def test_loaded_profile_matches_normalize_utilities(self, workload):
        # load_instance normalizes the tables it has checked without checking
        # them again; normalize_utilities, with every check, agrees
        for entry in pinned_entries(workload):
            profile = load_instance(entry).utilities
            assert normalize_utilities(profile.raw_values) == profile


def table_instance_data(rows, m):
    return {"n": len(rows), "m": m, "utilities": {"type": "table", "values": rows}, "allocations": "all_partitions"}


def assert_rows_read_as_reference(rows, m):
    """``load_instance`` reads ``rows`` as the per-entry reference does: the
    same raw values, in row order, and the profile ``normalize_utilities``
    makes of them, or an error of the same type with the same message (an
    error of the instance built from the rows names the field 'utilities')."""
    data = table_instance_data(rows, m)
    try:
        tables = reference_table_rows(rows, m)
        raw = tuple({mask: F(x, d) for mask, (x, d) in table.items()} for table in tables)
        try:
            Instance(len(rows), m, normalize_utilities(raw), all_partitions_allocation_set(len(rows), m))
        except MalformedInstanceError as exc:
            raise MalformedInstanceError(f"field 'utilities': {exc}") from exc
    except MalformedInstanceError as exc:
        with pytest.raises(MalformedInstanceError) as info:
            load_instance(data)
        assert type(info.value) is type(exc) and str(info.value) == str(exc)
        return
    profile = load_instance(data).utilities
    assert profile.raw_values == raw
    assert [list(values) for values in profile.raw_values] == [list(table) for table in tables]
    assert profile == normalize_utilities(raw)


class TestTableRows:
    """The whole-row reader of plain table rows agrees with the per-entry
    reader in ``oracles.reference_table_rows`` on every row, and leaves each
    error, and which entry reports first, to it."""

    @pytest.mark.parametrize(
        "row, m, message",
        [
            ([[0, "x"], [0, "1/1"]], 7, "bad rational 'x'"),
            ([[0, "x"], [99, "1/1"]], 7, "bad rational 'x'"),
            ([[0, "x"], [99, "1/1"]], 1, "bad rational 'x'"),
            ([[1, "1/0"], [1, "2/1"]], 1, "bad rational '1/0'"),
            ([[0, "1/1"], [0, "x"]], 1, "duplicate bundle mask 0"),
            ([[2, "1/1"], [0, "x"]], 1, "bundle mask 2 outside 0..1"),
        ],
    )
    def test_a_row_reports_its_first_bad_entry(self, row, m, message):
        with pytest.raises(MalformedInstanceError) as info:
            load_instance(table_instance_data([row], m))
        assert str(info.value).startswith(f"field 'utilities.values[0]': {message}")
        assert_rows_read_as_reference([row], m)

    @pytest.mark.parametrize(
        "value",
        [5, 0, -3, "3", "-3", "-007/010", "0.5", "1e2", "-1/2", " 1/2", "\u0661/\u0662", "1_0/3", "00/01", "7/00", "+1/2", "1/2/3", "",
         "1" + "0" * 4300 + "/1", "1/" + "1" * 4301, True, None, 1.5, [1, 2]],
        ids=lambda value: repr(value)[:20],
    )
    def test_each_value_form_reads_as_reference(self, value):
        assert_rows_read_as_reference([[[0, value], [1, "1/1"]]], 1)
        assert_rows_read_as_reference([[[1, "1/1"], [0, value]]], 1)
        assert_rows_read_as_reference([[[0, "1/1"], [1, "2/1"]], [[1, value], [0, "3/1"]]], 1)

    @pytest.mark.parametrize(
        "row",
        [
            [[True, "1/1"], [1, "2/1"]],
            [[0, "1/1"], [False, "2/1"]],
            [(0, "1/1"), [1, "2/1"]],
            [[0, "1/1"], "1"],
            [[0, "1/1"], [1, "2/1", 3]],
            [[0, "1/1"], [1]],
            [[0.0, "1/1"], [1, "2/1"]],
            [[-1, "1/1"], [1, "2/1"]],
            [],
            [[1, "1/1"]],
        ],
        ids=repr,
    )
    def test_other_entries_read_as_reference(self, row):
        assert_rows_read_as_reference([row], 1)
        assert_rows_read_as_reference([[[0, "1/1"], [1, "2/1"]], row], 1)

    def test_an_earlier_row_reports_first(self):
        rows = [[[0, "1/1"], [0, "1/1"]], [[0, "x"]]]
        with pytest.raises(MalformedInstanceError) as info:
            load_instance(table_instance_data(rows, 1))
        assert str(info.value) == "field 'utilities.values[0]': duplicate bundle mask 0"
        assert_rows_read_as_reference(rows, 1)

    @pytest.mark.parametrize("seed", range(40))
    def test_seeded_rows_read_as_reference(self, seed):
        rng = random.Random(seed)
        m = rng.randrange(1, 5)
        rows = []
        for _ in range(rng.randrange(1, 3)):
            masks = rng.sample(range(1 << m), 1 << m)
            if seed % 8 == 5:
                # a bundle left out: the instance build refuses the rows
                masks.pop()
            # whole rows of negative, unreduced and bare-integer strings
            # stay with the whole-row reader
            rows.append([[mask, self.drawn_value(rng)] for mask in masks])
        if seed % 4 == 3:
            # one entry in another form: the row goes to the per-entry reader
            row = rng.choice(rows)
            row[rng.randrange(len(row))][1] = rng.choice([7, "1/0", "x", "0.25", "3", "-2/5"])
        assert_rows_read_as_reference(rows, m)

    @staticmethod
    def drawn_value(rng):
        sign = rng.choice(["", "", "-"])
        zeros = "0" * rng.randrange(2)
        den = rng.choice(["", f"/{zeros}{rng.randrange(1, 13)}"])
        return f"{sign}{zeros}{rng.randrange(40)}{den}"

    def test_negative_and_integer_strings_take_the_whole_row_reader(self):
        row = [[0, "-1/2"], [1, "3"], [2, "-1/2"], [3, "-007/010"]]
        plain = _plain_row(row, 4)
        checked = _checked_row(row, 4, "utilities.values[0]")
        assert plain is not None
        assert list(map(list, plain)) == list(checked) == [[0, 1, 2, 3], [-1, 3, -1, -7], [2, 1, 2, 10]]
        assert _normalize_rows([plain]) == _normalize_rows([checked])
        assert_rows_read_as_reference([row], 2)


class TestInstanceRoundTrip:
    def test_full_partition_set_keeps_marker(self):
        inst = load_instance(symmetric_instance_data())
        dumped = dump_instance(inst)
        assert dumped["allocations"] == "all_partitions"
        again = load_instance(dumped)
        assert again.n == inst.n and again.m == inst.m
        assert again.utilities == inst.utilities
        assert [a.bundles for a in again.allocations] == [a.bundles for a in inst.allocations]

    def test_every_partition_in_another_order_round_trips(self):
        # the set is all of n = 2, m = 1, but not in all-partitions order,
        # and the order fixes the scan order, so it must not become the marker
        data = {
            "n": 2,
            "m": 1,
            "utilities": {"type": "additive", "items": [["1/1"], ["2/1"]]},
            "allocations": [[[], [1]], [[1], []], [[], []]],
        }
        inst = load_instance(data)
        assert [a.bundles for a in inst.allocations] == [(0, 1), (1, 0), (0, 0)]
        dumped = dump_instance(inst)
        assert dumped["allocations"] == [[[], [1]], [[1], []], [[], []]]
        assert load_instance(dumped) == inst

    def test_every_partition_over_the_budget_round_trips(self, monkeypatch):
        # all 9 partitions of n = 2, m = 2 in all-partitions order load as a
        # list past a budget of 8, which refuses building the all-partitions
        # set to compare with, so the dump writes the list back
        monkeypatch.setattr("fairmix.model.DEFAULT_ENUMERATION_BUDGET", 8)
        listed = [
            [[], []], [[2], []], [[], [2]],
            [[1], []], [[1, 2], []], [[1], [2]],
            [[], [1]], [[2], [1]], [[], [1, 2]],
        ]
        data = {
            "n": 2,
            "m": 2,
            "utilities": {"type": "additive", "items": [["1/2", "1/3"], ["2/1", "5/7"]]},
            "allocations": listed,
        }
        inst = load_instance(data)
        dumped = dump_instance(inst)
        assert dumped["allocations"] == listed
        assert load_instance(dumped) == inst

    def test_explicit_set_round_trips(self):
        data = {
            "n": 2,
            "m": 2,
            "utilities": {"type": "additive", "items": [["1/2", "1/3"], ["2/1", "5/7"]]},
            "allocations": [[[1], [2]], [[2], [1]]],
        }
        inst = load_instance(data)
        dumped = dump_instance(inst)
        assert isinstance(dumped["allocations"], list)
        again = load_instance(dumped)
        assert again.utilities == inst.utilities
        assert [a.bundles for a in again.allocations] == [a.bundles for a in inst.allocations]


class TestMixedAllocationFiles:
    def test_round_trip(self):
        inst = load_instance(symmetric_instance_data())
        j = inst.allocations.index[(1, 2)]
        h = inst.allocations.index[(2, 1)]
        p = MixedAllocation.from_support(len(inst.allocations), {j: F(1, 2), h: F(1, 2)})
        dumped = dump_mixed_allocation(p, inst)
        assert load_mixed_allocation(dumped, inst) == p

    def test_accepts_whole_solve_result(self):
        inst = load_instance(symmetric_instance_data())
        p = MixedAllocation.point_mass(len(inst.allocations), 0)
        wrapped = {"p": dump_mixed_allocation(p, inst), "certificate": {}}
        assert load_mixed_allocation(wrapped, inst) == p

    def test_unknown_bundles_rejected(self):
        data = {
            "n": 2,
            "m": 2,
            "utilities": {"type": "additive", "items": [["1/1", "1/1"], ["1/1", "1/1"]]},
            "allocations": [[[1], [2]], [[2], [1]]],
        }
        inst = load_instance(data)
        bad = {"support": [{"bundles": [[1, 2], []], "probability": "1/1"}]}
        with pytest.raises(MalformedInstanceError):
            load_mixed_allocation(bad, inst)

    def test_mask_past_an_all_partitions_set_is_rejected(self):
        # all partitions of items 1-2 in an instance over 3 items: item 3 is
        # a valid item but lies past the set, and the set's arithmetic lookup
        # refuses it as the index did
        raw = [{mask: mask + i for mask in range(4)} for i in range(2)]
        inst = Instance(n=2, m=3, utilities=normalize_utilities(raw), allocations=all_partitions_allocation_set(2, 2))
        bad = {"support": [{"bundles": [[1], [3]], "probability": "1/1"}]}
        message = "field 'support[0]': allocation [[1], [3]] is not in the instance's set"
        with pytest.raises(MalformedInstanceError, match=re.escape(message)):
            load_mixed_allocation(bad, inst)
        good = {"support": [{"bundles": [[1], [2]], "probability": "1/1"}]}
        assert load_mixed_allocation(good, inst).pairs == ((inst.allocations.index[(1, 2)], 1),)

    def test_probabilities_must_sum_to_one(self):
        inst = load_instance(symmetric_instance_data())
        bad = {"support": [{"bundles": [[1], [2]], "probability": "1/2"}]}
        with pytest.raises(MalformedInstanceError):
            load_mixed_allocation(bad, inst)

    def test_duplicate_support_entry_rejected(self):
        inst = load_instance(symmetric_instance_data())
        entry = {"bundles": [[1], [2]], "probability": "1/2"}
        with pytest.raises(MalformedInstanceError):
            load_mixed_allocation({"support": [entry, dict(entry)]}, inst)


    @pytest.mark.parametrize(
        "support, message",
        [
            ([{"bundles": [[1], [1]], "probability": "1/1"}], "field 'support[0]': overlapping bundles in (1, 1)"),
            (
                [{"bundles": [[1], [2]], "probability": "1/2"}, {"bundles": [[2], [1]], "probability": 0.5}],
                "field 'support[1]': non-rational value of type float: 0.5",
            ),
            ([{"bundles": [[3], []], "probability": "1/1"}], "field 'support[0]': item 3 outside 1..2"),
            ([{"bundles": [[1], [2]], "probability": "1/2"}], "field 'support': probabilities sum to 1/2, not 1"),
        ],
        ids=["overlap", "float-probability", "item-beyond-m", "sum"],
    )
    def test_nested_errors_name_their_field(self, support, message):
        inst = load_instance(symmetric_instance_data())
        with pytest.raises(MalformedInstanceError, match=re.escape(message)):
            load_mixed_allocation({"support": support}, inst)


class TestCertificateJson:
    def test_envy_witness_is_one_based(self):
        inst = load_instance(symmetric_instance_data())
        p = MixedAllocation.point_mass(len(inst.allocations), inst.allocations.index[(3, 0)])
        cert = certify(p, inst)
        dumped = dump_certificate(cert, inst)
        assert dumped["ok"] is False
        assert dumped["ef"]["witness"] == {"envious": 2, "envied": 1, "margin": "1/1"}

    def test_dominator_serialized_for_inefficient_lottery(self):
        inst = load_instance(symmetric_instance_data())
        p = MixedAllocation.point_mass(len(inst.allocations), inst.allocations.index[(0, 0)])
        dumped = dump_certificate(certify(p, inst), inst)
        assert dumped["pe"]["ok"] is False
        assert dumped["pe"]["dominator"]["support"]
        assert all(g is not None for g in dumped["pe"]["gains"])

    def test_clean_certificate(self):
        inst = load_instance(symmetric_instance_data())
        j = inst.allocations.index[(1, 2)]
        h = inst.allocations.index[(2, 1)]
        p = MixedAllocation.from_support(len(inst.allocations), {j: F(1, 2), h: F(1, 2)})
        dumped = dump_certificate(certify(p, inst, residual=F(0)), inst)
        # with no weight given, the efficiency LP finds one: the split is
        # welfare-maximal only at equal weights
        assert dumped == {
            "ok": True,
            "ef": {"ok": True, "witness": None},
            "pe": {"ok": True, "dominator": None, "gains": None, "weight": ["1/2", "1/2"]},
            "fixed_point_residual": "0/1",
        }

    def test_weight_witness_certificate(self):
        inst = load_instance(symmetric_instance_data())
        j = inst.allocations.index[(1, 2)]
        h = inst.allocations.index[(2, 1)]
        p = MixedAllocation.from_support(len(inst.allocations), {j: F(1, 2), h: F(1, 2)})
        dumped = dump_certificate(certify(p, inst, residual=F(0), weight=(F(1, 3), F(2, 6))), inst)
        assert dumped["pe"] == {
            "ok": True, "dominator": None, "gains": None, "weight": ["1/3", "1/3"]
        }
        assert dumped["ok"] is True


class TestDot:
    def test_envy_free_graph(self):
        inst = load_instance(symmetric_instance_data())
        j = inst.allocations.index[(1, 2)]
        h = inst.allocations.index[(2, 1)]
        p = MixedAllocation.from_support(len(inst.allocations), {j: F(1, 2), h: F(1, 2)})
        dot = envy_graph_to_dot(build_envy_graph(p, inst))
        assert "// acyclic: true" in dot
        assert "->" not in dot

    def test_single_edge_graph(self):
        inst = load_instance(symmetric_instance_data())
        p = MixedAllocation.point_mass(len(inst.allocations), inst.allocations.index[(3, 0)])
        dot = envy_graph_to_dot(build_envy_graph(p, inst))
        assert '2 -> 1 [label="1/1"];' in dot
        assert "// acyclic: true" in dot

    def test_cycle_is_reported(self):
        data = {
            "n": 2,
            "m": 2,
            "utilities": {
                "type": "table",
                "values": [
                    [[0, "0/1"], [1, "1/1"], [2, "2/1"], [3, "3/1"]],
                    [[0, "0/1"], [1, "2/1"], [2, "1/1"], [3, "3/1"]],
                ],
            },
            "allocations": [[[1], [2]], [[2], [1]]],
        }
        inst = load_instance(data)
        p = MixedAllocation.point_mass(len(inst.allocations), inst.allocations.index[(1, 2)])
        dot = envy_graph_to_dot(build_envy_graph(p, inst))
        assert "// acyclic: false" in dot
        assert "cycle:" in dot


class TestTraceAndReports:
    def test_trace_record_shape(self):
        inst = load_instance(symmetric_instance_data())
        rec = FixedPointState(
            p=MixedAllocation.point_mass(len(inst.allocations), inst.allocations.index[(1, 2)]),
            w=WeightVector((F(1, 2), F(1, 2)), F(1, 4)),
            residual=F(0),
            iteration=1,
            nu=(F(1, 2), F(1, 2)),
        )
        dumped = dump_trace_record(rec, inst)
        assert dumped == {
            "iteration": 1,
            "w": ["1/2", "1/2"],
            "support": [[[1], [2]]],
            "residual": "0/1",
            "nu": ["1/2", "1/2"],
        }

    def test_dichotomy_report_shape(self):
        report = verify_welfare_dichotomy(DisjointnessInput(1, (1,), (1,)))
        dumped = dump_dichotomy_report(report)
        assert dumped["intersecting"] is True
        assert dumped["dichotomy_holds"] is True
        assert dumped["target_welfare"] == "6/1"
        assert dumped["certified"] == [
            {"kind": "deterministic", "bundles": [[1], [2]], "split_index": None, "welfare": "6/1"}
        ]
        assert dumped["flagged_mixed"] == []


def documents():
    """One of each document the CLI writes, as built in process."""
    hard = build_hard_instance(DisjointnessInput(3, (1, 0, 1, 0, 1, 0, 1, 0, 1, 0), (0, 1, 1, 0, 0, 1, 1, 0, 0, 1)))
    listed = load_instance(
        {
            "n": 3,
            "m": 3,
            "utilities": {"type": "additive", "items": [["3", "1", "2"], ["1", "3", "2"], ["2", "2", "1"]]},
            "allocations": [[[1], [2], [3]], [[1, 2], [], [3]], [[], [], [1, 2, 3]]],
        },
        warn=lambda message: None,
    )
    return [
        dump_instance(hard),
        dump_dichotomy_report(verify_welfare_dichotomy(DisjointnessInput(2, (1, 0, 0), (0, 1, 0)))),
        [[mask_to_items(b) for b in bs] for bs in listed.allocations.bundles],
    ]


def certify_certificates():
    """``dump_certificate`` of every lottery in the pinned certify set."""
    insts = pinned_instances("certify")
    certificates = []
    for entry in pinned_entries("certify")["lotteries"]:
        inst = insts[entry["hard"]]
        p = load_mixed_allocation({"support": entry["support"]}, inst)
        certificates.append(dump_certificate(certify(p, inst), inst))
    return certificates


class Text(str):
    pass


class Real(float):
    pass


class Mapping(dict):
    pass


class Items(list):
    pass


Small = IntEnum("Small", "ONE TWO")


EDGE_VALUES = [
    "",
    "caf\u00e9 \u65e5\u672c \U0001f600",
    "\x00\x01\x1f\x7f\n\t\r\b\f",
    "\ud800",
    '"\\/',
    {},
    [],
    (),
    [[]],
    [{}],
    {"a": [], "b": {}, "c": ()},
    [[], {}, (), [[{}]]],
    (1, (2, ()), [3]),
    1e-07,
    1e16,
    -0.0,
    0.1,
    float("nan"),
    float("inf"),
    float("-inf"),
    True,
    False,
    None,
    0,
    -7,
    10**40,
    {"t": True, "f": False, "n": None, "x": [1.5, "1/2", -2]},
    {1: "int", 2.5: "float", True: "bool", None: "none", float("nan"): "nan"},
    # subclasses, which json writes as their base type
    Text("s\u00e9"),
    Small.TWO,
    Real(0.5),
    Mapping({Text("k"): Items([Small.TWO, Text("v")])}),
]


class TestDumps:
    """``dumps`` writes exactly what ``json.dumps(obj, indent=2)`` writes."""

    @staticmethod
    def assert_as_json(obj):
        assert dumps(obj) == json.dumps(obj, indent=2) + "\n"

    def test_every_golden_answer(self):
        golden = pinned_entries("golden")
        answers = [entry["out"] for entries in golden.values() for entry in entries]
        assert len(answers) == 216
        for answer in answers:
            self.assert_as_json(answer)

    def test_every_certify_certificate_and_each_cli_document(self):
        for obj in certify_certificates() + documents():
            self.assert_as_json(obj)

    @pytest.mark.parametrize("obj", EDGE_VALUES, ids=lambda obj: repr(obj)[:30])
    def test_edge_values(self, obj):
        self.assert_as_json(obj)
        self.assert_as_json([obj, {"k": obj}])

    @pytest.mark.parametrize("obj", [object(), {(1,): 2}, [1, {"k": {1j}}]], ids=["object", "tuple-key", "nested-set"])
    def test_what_json_refuses_is_refused_alike(self, obj):
        with pytest.raises(TypeError) as want:
            json.dumps(obj, indent=2)
        with pytest.raises(TypeError) as got:
            dumps(obj)
        assert str(got.value) == str(want.value)

    def test_an_answer_leaves_no_reference_cycle(self):
        inst = load_instance(symmetric_instance_data())
        state, cert = find_fixed_point(inst)
        answer = dump_solve_result(state, cert, inst, 0.0)
        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            dumps(answer)
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()
