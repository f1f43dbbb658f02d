"""Round trips and schema validation for the JSON/DOT formats."""

import re
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
    verify_welfare_dichotomy,
)
from fairmix.engine import FixedPointState
from fairmix.hard import DisjointnessInput
from fairmix.model import WeightVector, as_fraction
from fairmix.serialize import items_to_mask, mask_to_items

from conftest import additive_table

F = Fraction


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

    def test_zero_denominator_rejected(self):
        with pytest.raises(MalformedInstanceError):
            as_fraction("1/0")

    def test_float_rejected(self):
        with pytest.raises(MalformedInstanceError):
            as_fraction(0.5)

    @staticmethod
    def outcome(parse, text, errors):
        try:
            return parse(text)
        except errors:
            return MalformedInstanceError

    @given(
        st.one_of(
            st.text(alphabet="0123456789/-+ ._e\u0663\u00b3", max_size=12),
            st.from_regex(r"\A[0-9]{1,6}/[0-9]{1,6}\Z"),
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
    def test_agrees_with_as_fraction(self, text):
        # the reference is Fraction itself, with its two parse errors mapped
        reference = self.outcome(Fraction, text, (ValueError, ZeroDivisionError))
        assert self.outcome(as_fraction, text, MalformedInstanceError) == reference


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

    def test_strict_rejects_unclosed_list(self):
        data = {
            "n": 2,
            "m": 2,
            "utilities": {"type": "additive", "items": [["1/1", "1/1"], ["1/1", "2/1"]]},
            "allocations": [[[1], [2]]],
        }
        with pytest.raises(MalformedInstanceError):
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
        ],
        ids=["overlap", "item-beyond-m", "item-twice", "float-item-value", "float-table-value", "missing-mask", "empty-table"],
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
        assert dumped == {
            "ok": True,
            "ef": {"ok": True, "witness": None},
            "pe": {"ok": True, "dominator": None, "gains": None, "weight": None},
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
