"""Hard-instance generator: splits, utility tables, submodularity, dichotomy.

Expected tables below were expanded by hand from the size-band rules before
the assertions were written; the submodularity comparison uses a separate
subset-triple enumeration built on frozensets rather than bitmasks.
"""

import time
from fractions import Fraction
from itertools import chain, combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairmix import (
    DisjointnessInput,
    EnumerationLimitError,
    MalformedInstanceError,
    build_hard_instance,
    check_envy_free,
    check_pareto_efficient,
    check_submodular,
    enumerate_splits,
    hard,
    hard_utility_tables,
    model,
    split_count,
    verify_welfare_dichotomy,
)
from fairmix.cli import main

from oracles import check_monotone

F = Fraction


def subsets(items):
    return chain.from_iterable(combinations(items, r) for r in range(len(items) + 1))


def submodular_by_frozensets(values, m):
    """Independent verdict: enumerate subset pairs as frozensets."""
    ground = range(m)

    def val(s):
        mask = 0
        for e in s:
            mask |= 1 << e
        return values[mask]

    for small in subsets(ground):
        small = frozenset(small)
        for big in subsets(ground):
            big = frozenset(big)
            if not small <= big:
                continue
            for e in ground:
                if e in big:
                    continue
                gain_small = val(small | {e}) - val(small)
                gain_big = val(big | {e}) - val(big)
                if gain_small < gain_big:
                    return False
    return True


class TestSplits:
    def test_single_pair_family(self):
        assert enumerate_splits(1) == ((0b01, 0b10),)

    def test_three_item_pairs(self):
        # {1,2}|{3,4}, {1,3}|{2,4}, {1,4}|{2,3} in that order
        assert enumerate_splits(2) == (
            (0b0011, 0b1100),
            (0b0101, 0b1010),
            (0b1001, 0b0110),
        )

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6])
    def test_count_matches_closed_form(self, p):
        fam = enumerate_splits(p)
        assert len(fam) == split_count(p)

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_sides_partition_and_pin_first_item(self, p):
        full = (1 << (2 * p)) - 1
        seen = set()
        for first, second in enumerate_splits(p):
            assert first & second == 0
            assert first | second == full
            assert first & 1, "item 1 belongs to the first side"
            assert bin(first).count("1") == p
            seen.add(first)
        assert len(seen) == split_count(p)

    def test_budget_enforced(self):
        # the allocation budget of 200,000 counts the splits: r = 92,378 for
        # p = 10 is within it, and r = 352,716 for p = 11 is not
        assert len(enumerate_splits(10)) == 92378
        with pytest.raises(EnumerationLimitError, match="^352716 splits exceed the budget of 200000$"):
            enumerate_splits(11)

    @pytest.mark.parametrize("p", [7_147, 100_000, 1_000_000])
    def test_budget_refuses_a_huge_half_count_quickly(self, p):
        # 2p items pass the 24-item cap: one range check refuses p, and
        # C(2p, p) is never built
        start = time.perf_counter()
        with pytest.raises(MalformedInstanceError, match=f"^half-count must be an integer in 1..12, got {p}$"):
            enumerate_splits(p)
        assert time.perf_counter() - start < 1

    def test_half_count_is_at_most_half_the_item_cap(self):
        assert split_count(12) == 1352078
        for call in (split_count, enumerate_splits, lambda p: DisjointnessInput(p, (0,), (0,))):
            with pytest.raises(MalformedInstanceError, match="^half-count must be an integer in 1..12, got 13$"):
                call(13)

    def test_nonpositive_half_count_rejected(self):
        with pytest.raises(MalformedInstanceError):
            enumerate_splits(0)

    @pytest.mark.parametrize("p", [1.5, True, "2"])
    def test_non_integer_half_count_rejected(self, p):
        with pytest.raises(MalformedInstanceError):
            enumerate_splits(p)
        with pytest.raises(MalformedInstanceError):
            split_count(p)


class TestOneBudget:
    """The allocation budget, ``model.DEFAULT_ENUMERATION_BUDGET``, read when
    called, is the hard family's one limit besides the 24-item cap."""

    def test_every_step_follows_the_allocation_budget(self, monkeypatch):
        def unbuilt(*args):
            raise AssertionError(f"built past the budget: {args}")

        class Untouched:
            __iter__ = __contains__ = __getitem__ = unbuilt

        monkeypatch.setattr(model, "DEFAULT_ENUMERATION_BUDGET", 10)
        # within the budget: r = 10 splits at p = 3, and at p = 1 2^2 bundle
        # values per player and 3^2 allocations, and 2 * 3^1 comparisons at m = 2
        assert len(enumerate_splits(3)) == 10
        assert len(build_hard_instance(DisjointnessInput(1, (1,), (0,))).allocations) == 9
        assert check_submodular({0: 0, 1: 1, 2: 1, 3: 2}, 2) == (True, None)
        # past it, each step is refused before it builds anything
        monkeypatch.setattr(hard, "combinations", unbuilt)
        with pytest.raises(EnumerationLimitError, match="^35 splits exceed the budget of 10$"):
            enumerate_splits(4)
        monkeypatch.setattr(hard, "enumerate_splits", unbuilt)
        with pytest.raises(EnumerationLimitError, match="^16 bundle values per player exceed the budget of 10$"):
            hard_utility_tables(DisjointnessInput(2, (0, 0, 0), (0, 0, 0)))
        with pytest.raises(EnumerationLimitError, match="^m = 3 needs .* over the budget of 10$"):
            check_submodular(Untouched(), 3)
        with pytest.raises(EnumerationLimitError, match=r"3\^4 = 81 allocations, over the budget of 10$"):
            build_hard_instance(DisjointnessInput(2, (0, 0, 0), (0, 0, 0)))

    def test_tables_refuse_p9_before_any_split(self, monkeypatch):
        # at p = 9 the r = 24,310 splits are within the budget of 200,000, but
        # the 2^18 = 262,144 bundle values per player are not; p = 8's 2^16 are
        def no_splits(p):
            raise AssertionError(f"enumerate_splits({p}) was called")

        bits = (0,) * split_count(9)
        assert len(hard_utility_tables(DisjointnessInput(8, (0,) * 6435, (1,) * 6435))[1]) == 2**16
        monkeypatch.setattr(hard, "enumerate_splits", no_splits)
        with pytest.raises(EnumerationLimitError, match="^262144 bundle values per player exceed the budget of 200000$"):
            hard_utility_tables(DisjointnessInput(9, bits, bits))


class TestDisjointnessInput:
    def test_wrong_length_rejected(self):
        with pytest.raises(MalformedInstanceError):
            DisjointnessInput(2, (1, 0), (0, 1, 0))

    @pytest.mark.parametrize("p", range(1, 7))
    def test_only_r_bits_pass_near_the_bound(self, p):
        r = split_count(p)
        for count in {1, 2 ** (p - 1) - 1, 2 ** (p - 1), r - 1, r + 1} - {0, r}:
            with pytest.raises(MalformedInstanceError, match=f"^x1 has {count} bits, expected r = {r} for p = {p}$"):
                DisjointnessInput(p, (0,) * count, (0,) * r)
        assert DisjointnessInput(p, (0,) * r, (1,) * r).x2 == (1,) * r

    def test_non_bit_rejected(self):
        with pytest.raises(MalformedInstanceError):
            DisjointnessInput(1, (2,), (0,))

    @pytest.mark.parametrize(
        "bit", [1.9, "x", True, F(1)], ids=["float", "str", "bool", "fraction"]
    )
    def test_bit_must_be_the_int_0_or_1(self, bit):
        with pytest.raises(MalformedInstanceError):
            DisjointnessInput(1, (bit,), (0,))
        with pytest.raises(MalformedInstanceError):
            DisjointnessInput(1, (0,), (bit,))

    @pytest.mark.parametrize("p", [1.5, True, 0, "1"])
    def test_half_count_must_be_a_positive_int(self, p):
        with pytest.raises(MalformedInstanceError):
            DisjointnessInput(p, (1,), (0,))

    def test_shared_index_detection(self):
        assert DisjointnessInput(2, (1, 0, 1), (0, 0, 1)).shares_flagged_index()
        assert not DisjointnessInput(2, (1, 0, 1), (0, 1, 0)).shares_flagged_index()


class TestUtilityTables:
    def test_hand_expanded_tables_p1_both_flagged(self):
        u1, u2 = hard_utility_tables(DisjointnessInput(1, (1,), (1,)))
        assert u1 == {0: 0, 0b01: 3, 0b10: 2, 0b11: 3}
        assert u2 == {0: 0, 0b01: 2, 0b10: 3, 0b11: 3}

    def test_hand_expanded_tables_p1_neither_flagged(self):
        u1, u2 = hard_utility_tables(DisjointnessInput(1, (0,), (0,)))
        expected = {0: 0, 0b01: 2, 0b10: 2, 0b11: 3}
        assert u1 == expected and u2 == expected

    def test_size_bands_p2_all_zero_strings(self):
        u1, u2 = hard_utility_tables(DisjointnessInput(2, (0, 0, 0), (0, 0, 0)))
        for mask in range(16):
            size = bin(mask).count("1")
            expected = {0: 0, 1: 3, 2: 5, 3: 6, 4: 6}[size]
            assert u1[mask] == expected
            assert u2[mask] == expected

    def test_flag_raises_exactly_one_half_p2(self):
        u1, _ = hard_utility_tables(DisjointnessInput(2, (1, 0, 0), (0, 0, 0)))
        assert u1[0b0011] == 6  # the flagged first side {1,2}
        others = [m for m in range(16) if bin(m).count("1") == 2 and m != 0b0011]
        assert all(u1[m] == 5 for m in others)

    def test_player_two_flags_second_sides(self):
        _, u2 = hard_utility_tables(DisjointnessInput(2, (0, 0, 0), (0, 1, 0)))
        assert u2[0b1010] == 6  # second side of split 2, {2,4}
        assert u2[0b0101] == 5

    def test_instance_keeps_raw_values(self):
        inp = DisjointnessInput(1, (1,), (1,))
        inst = build_hard_instance(inp)
        assert inst.utilities.raw_values[0][0b01] == 3
        assert inst.utilities.raw_values[0][0b10] == 2
        # rescaled top of player 1's range
        assert inst.utilities.table[0][0b01] == 2 * inst.utilities.scale
        assert inst.n == 2 and inst.m == 2
        assert len(inst.allocations) == 9


class TestSubmodularity:
    def test_additive_table_passes(self):
        vals = {m: F(bin(m).count("1")) for m in range(8)}
        ok, witness = check_submodular(vals, 3)
        assert ok and witness is None

    def test_known_supermodular_violation(self):
        vals = {0b00: F(0), 0b01: F(0), 0b10: F(0), 0b11: F(1)}
        ok, witness = check_submodular(vals, 2)
        assert not ok
        assert witness == (0b00, 0b10, 0)  # adding item 1 gains more atop {2}

    def test_item_cap(self):
        # the allocation budget of 200,000 counts the m * 3^(m-1) comparisons:
        # 196,830 at m = 10, which passes and fails on the empty table, and
        # 649,539 at m = 11, which is refused
        with pytest.raises(MalformedInstanceError):
            check_submodular({}, 10)
        with pytest.raises(EnumerationLimitError, match=r"^m = 11 needs m \* 3\^\(m-1\) comparisons, over the budget of 200000$"):
            check_submodular({}, 11)

    @pytest.mark.parametrize("m", [19, 10**5000], ids=["19", "10**5000"])
    def test_a_huge_item_count_is_refused_quickly(self, m):
        # past the budget's bit length 3^(m-1) is not built at all
        start = time.perf_counter()
        with pytest.raises(EnumerationLimitError, match="comparisons, over the budget of 200000$"):
            check_submodular({}, m)
        assert time.perf_counter() - start < 1

    def test_both_tables_of_a_p5_pair_are_submodular(self):
        # m = 10 is the largest size the budget checks, and every instance
        # build_hard_instance can build (p <= 5) is checked in full
        r = split_count(5)
        x1 = tuple(int(j % 3 == 0) for j in range(r))
        x2 = tuple(int(j % 3 == 1) for j in range(r))
        for vals in hard_utility_tables(DisjointnessInput(5, x1, x2)):
            assert check_submodular(vals, 10) == (True, None)

    def test_missing_entry_rejected(self):
        with pytest.raises(MalformedInstanceError):
            check_submodular({0: F(0)}, 2)

    def test_monotone_missing_entry_rejected(self):
        with pytest.raises(MalformedInstanceError, match="bundle mask 1"):
            check_monotone({0: F(0)}, 1)

    def test_monotone_names_the_first_drop(self):
        # adding item 1 to the empty bundle lowers the value
        assert check_monotone({0: 1, 1: 0}, 1) == (False, (0, 0))

    @given(st.lists(st.integers(0, 6), min_size=8, max_size=8))
    @settings(deadline=None, max_examples=60)
    def test_matches_frozenset_oracle(self, raw):
        vals = {m: F(raw[m]) for m in range(8)}
        ok, _ = check_submodular(vals, 3)
        assert ok == submodular_by_frozensets(vals, 3)

    @pytest.mark.parametrize(
        "p,x1,x2",
        [
            (1, (0,), (0,)),
            (1, (1,), (1,)),
            (2, (1, 0, 0), (0, 1, 0)),
            (2, (1, 1, 1), (1, 1, 1)),
            (3, (1, 0, 1, 0, 1, 0, 1, 0, 1, 0), (0, 1, 0, 1, 0, 1, 0, 1, 0, 1)),
        ],
    )
    def test_generated_tables_are_submodular_and_monotone(self, p, x1, x2):
        tables = hard_utility_tables(DisjointnessInput(p, x1, x2))
        for vals in tables:
            ok, witness = check_submodular(vals, 2 * p)
            assert ok, witness
            ok, witness = check_monotone(vals, 2 * p)
            assert ok, witness

    @given(st.integers(0, 7), st.integers(0, 7))
    @settings(deadline=None, max_examples=32)
    def test_random_strings_p2_submodular(self, a, b):
        x1 = tuple((a >> j) & 1 for j in range(3))
        x2 = tuple((b >> j) & 1 for j in range(3))
        for vals in hard_utility_tables(DisjointnessInput(2, x1, x2)):
            ok, witness = check_submodular(vals, 4)
            assert ok, witness


class TestDichotomy:
    def test_p1_both_flagged_reaches_full_welfare(self):
        report = verify_welfare_dichotomy(DisjointnessInput(1, (1,), (1,)))
        assert report.intersecting
        assert report.dichotomy_holds
        assert report.target_welfare == 6
        # the only certified outcome hands each player her flagged side
        assert len(report.certified) == 1
        entry = report.certified[0]
        assert entry.kind == "deterministic"
        assert entry.bundles == (0b01, 0b10)
        assert entry.welfare == 6

    def test_p1_disjoint_pairs_capped(self):
        for x1, x2 in [((1,), (0,)), ((0,), (1,))]:
            report = verify_welfare_dichotomy(DisjointnessInput(1, x1, x2))
            assert not report.intersecting
            assert report.dichotomy_holds
            det = [c for c in report.certified if c.kind == "deterministic"]
            assert det and all(c.welfare <= 5 for c in det)
            assert report.flagged_mixed == ()

    def test_p1_all_zero_certifies_symmetric_outcomes(self):
        report = verify_welfare_dichotomy(DisjointnessInput(1, (0,), (0,)))
        assert report.dichotomy_holds
        # both one-item-each assignments and the 50/50 lottery survive at welfare 4
        kinds = sorted(c.kind for c in report.certified)
        assert kinds == ["deterministic", "deterministic", "split_lottery"]
        assert all(c.welfare == 4 for c in report.certified)

    def test_p2_shared_flag_certifies_exactly_the_flagged_split(self):
        report = verify_welfare_dichotomy(DisjointnessInput(2, (1, 0, 0), (1, 0, 0)))
        assert report.intersecting and report.dichotomy_holds
        assert [c.bundles for c in report.certified] == [(0b0011, 0b1100)]
        assert report.certified[0].welfare == 12

    def test_p2_disjoint_flags_stay_below_full_welfare(self):
        report = verify_welfare_dichotomy(DisjointnessInput(2, (1, 0, 0), (0, 1, 0)))
        assert not report.intersecting
        assert report.dichotomy_holds
        det = [c for c in report.certified if c.kind == "deterministic"]
        assert all(c.welfare <= 11 for c in det)

    def test_p6_is_refused_by_the_allocation_budget_before_any_split(self, monkeypatch, capsys):
        def no_splits(p):
            raise AssertionError(f"enumerate_splits({p}) was called")

        monkeypatch.setattr(hard, "enumerate_splits", no_splits)
        bits = (0,) * split_count(6)
        with pytest.raises(EnumerationLimitError, match=r"3\^12 = 531441 allocations"):
            verify_welfare_dichotomy(DisjointnessInput(6, bits, bits))
        text = "0" * split_count(6)
        assert main(["verify-dichotomy", "--p", "6", "--x1", text, "--x2", text]) == 1
        assert "3^12 = 531441 allocations" in capsys.readouterr().err

    @pytest.mark.parametrize("p", [3, 4, 5])
    def test_split_lotteries_stay_at_or_below_one_less_than_full_welfare(self, p):
        # player 1 flags only first halves, which hold item 1, and so values
        # any second half at 3p - 1; player 2 flags only second halves and
        # values any first half at 3p - 1.  A split lottery gives each
        # player each side with probability 1/2, so its welfare is at most
        # (3p + 3p - 1)/2 + (3p - 1 + 3p)/2 = 6p - 1 in both string cases
        r = split_count(p)
        ones, zeros = (1,) * r, (0,) * r
        lotteries = []
        for x1, x2 in [(ones, ones), (zeros, zeros)]:
            report = verify_welfare_dichotomy(DisjointnessInput(p, x1, x2))
            assert report.dichotomy_holds and report.flagged_mixed == ()
            lotteries += [c for c in report.certified if c.kind == "split_lottery"]
        # the all-zero strings certify every split lottery, at 6p - 2 each
        assert len(lotteries) == r
        assert all(c.welfare <= 6 * p - 1 for c in lotteries)

    def test_certified_outcomes_recheck_under_oracles(self):
        """Everything the report certifies must independently pass both checks."""
        inp = DisjointnessInput(2, (0, 1, 0), (0, 1, 0))
        report = verify_welfare_dichotomy(inp)
        inst = build_hard_instance(inp)
        from fairmix import MixedAllocation

        k = len(inst.allocations)
        splits = enumerate_splits(2)
        for entry in report.certified:
            if entry.kind == "deterministic":
                j = inst.allocations.index[entry.bundles]
                p = MixedAllocation.point_mass(k, j)
            else:
                t1, t2 = splits[entry.split_index]
                ja = inst.allocations.index[(t1, t2)]
                jb = inst.allocations.index[(t2, t1)]
                p = MixedAllocation.from_support(k, {ja: F(1, 2), jb: F(1, 2)})
            assert check_envy_free(p, inst).ok
            assert check_pareto_efficient(p, inst).ok
