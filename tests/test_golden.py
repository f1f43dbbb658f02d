"""Pinned answers: the benchmark's instance sets, solved and verified in process.

``tests/data`` holds the desk (120) and wide (24) solve instances, the
certify set (12 ``gen-hard`` strings plus 48 lotteries), two sets that are
not benchmark sets: six n = 5-7 solve instances (``many``) and six n = 2-6
solve instances whose lowest envelope vertex has envy (``envious``), and
``golden.json`` the answer the CLI gave for each: its exit code, its
stdout JSON without ``wall_time``, and its stderr.  Any change of answer fails here, naming the
first instance and field that differ.  ``tests/data/make_goldens.py``
rewrites the files.
"""

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest

from conftest import pinned_entries
from fairmix.cli import main
from fairmix.serialize import load_instance, load_mixed_allocation
from oracles import weight_witness_ok

WORKLOADS = ("desk", "certify", "wide", "many", "envious")


def write(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return path


def run(argv):
    """One CLI call, normalized: exit code, stdout JSON without wall_time, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    text = out.getvalue()
    data = json.loads(text) if text.startswith("{") else text
    if isinstance(data, dict):
        data.pop("wall_time", None)
    return {"code": code, "out": data, "err": err.getvalue()}


def answers(workload, directory):
    """Every normalized answer of one workload's set, in file order."""
    data = pinned_entries(workload)
    if workload != "certify":
        return [
            run(["solve", "--instance", write(os.path.join(directory, f"{workload}-{j}.json"), inst)])
            for j, inst in enumerate(data)
        ]
    hard = []
    for j, (p, x1, x2) in enumerate(data["hard"]):
        path = os.path.join(directory, f"hard-{j}.json")
        if main(["gen-hard", "--p", str(p), "--x1", x1, "--x2", x2, "--out", path]) != 0:
            raise AssertionError(f"gen-hard failed on certify hard[{j}]")
        hard.append(path)
    return [
        run(["verify", "--instance", hard[entry["hard"]], "--allocation",
             write(os.path.join(directory, f"lottery-{j}.json"), {"support": entry["support"]})])
        for j, entry in enumerate(data["lotteries"])
    ]


def first_difference(got, want, path=""):
    """The path of the first field where two JSON values differ, or None."""
    if isinstance(got, dict) and isinstance(want, dict):
        for key in list(want) + [k for k in got if k not in want]:
            if key not in got or key not in want:
                return f"{path}.{key} (present on one side only)"
            diff = first_difference(got[key], want[key], f"{path}.{key}")
            if diff:
                return diff
        return None
    if isinstance(got, list) and isinstance(want, list):
        for j, (a, b) in enumerate(zip(got, want)):
            diff = first_difference(a, b, f"{path}[{j}]")
            if diff:
                return diff
        if len(got) != len(want):
            return f"{path} (length {len(got)} != {len(want)})"
        return None
    if got != want or type(got) is not type(want):
        return f"{path}: got {got!r}, want {want!r}"
    return None


def test_first_difference_names_the_field():
    want = {"code": 0, "out": {"w": ["1/2", "1/2"], "iterations": 1}}
    got = {"code": 0, "out": {"w": ["1/2", "1/3"], "iterations": 1}}
    assert first_difference(got, want) == ".out.w[1]: got '1/3', want '1/2'"
    assert first_difference(want, want) is None
    assert first_difference({"a": [1]}, {"a": [1, 2]}) == ".a (length 1 != 2)"
    assert first_difference({"a": 1}, {"b": 1}) == ".b (present on one side only)"


def test_sets_have_the_benchmark_sizes():
    assert len(pinned_entries("desk")) == 120
    assert len(pinned_entries("wide")) == 24
    certify = pinned_entries("certify")
    assert len(certify["hard"]) == 12 and len(certify["lotteries"]) == 48
    assert sorted(inst["n"] for inst in pinned_entries("many")) == [5, 5, 6, 6, 7, 7]
    assert sorted(inst["n"] for inst in pinned_entries("envious")) == [2, 3, 3, 4, 5, 6]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_answers_match_golden(workload, tmp_path):
    want = pinned_entries("golden")[workload]
    got = answers(workload, str(tmp_path))
    assert len(got) == len(want)
    for j, (a, b) in enumerate(zip(got, want)):
        diff = first_difference(a, b)
        assert diff is None, f"{workload}[{j}]{diff}"


def assert_answers_pass_the_fraction_oracles(name):
    for j, (entry, answer) in enumerate(zip(pinned_entries(name), pinned_entries("golden")[name])):
        inst = load_instance(entry)
        p = load_mixed_allocation(answer["out"]["p"], inst)
        assert weight_witness_ok(p, inst, [Fraction(x) for x in answer["out"]["w"]]), f"{name}[{j}]"
        raw = inst.utilities.raw_values
        for i in range(inst.n):
            views = [sum(q * raw[i][inst.allocations[a].bundles[h]] for a, q in p.pairs) for h in range(inst.n)]
            assert max(views) == views[i], f"{name}[{j}] player {i}"


def test_many_answers_pass_the_fraction_oracles():
    """Each pinned n = 5-7 answer is efficient by its weight witness and
    envy-free, both scored in Fractions from the instance's raw values."""
    assert_answers_pass_the_fraction_oracles("many")


def test_envious_answers_pass_the_fraction_oracles():
    """So is each answer the scan reaches past an envious lowest vertex."""
    assert all(answer["out"]["iterations"] >= 2 for answer in pinned_entries("golden")["envious"])
    assert_answers_pass_the_fraction_oracles("envious")
