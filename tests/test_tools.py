"""The stage harness, ``tools/stage_times.py``, in its smallest mode: one
timed pass over the sets CI runs it on, of loading and checking an answer,
of the solve's lowest-vertex and tie-breaking steps, and of the exact LP
kernel on the programs the sets run."""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

from fairmix import envy

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "tools", "stage_times.py")
LP_STAGES = ["lp_select", "lp_lowest", "lp_weight"]


def run_harness(sets, out):
    argv = [sys.executable, SCRIPT, "--sets", sets, "--repeats", "1", "--out", str(out)]
    return subprocess.run(argv, capture_output=True, encoding="utf-8", timeout=120)


def test_stage_times_appends_one_entry_with_every_key(tmp_path):
    out = tmp_path / "BENCH_stages.json"
    out.write_text(json.dumps([{"earlier": "entry"}]), encoding="utf-8")
    proc = run_harness("envious,certify", out)
    assert proc.returncode == 0, proc.stderr
    entries = json.loads(out.read_text(encoding="utf-8"))
    assert len(entries) == 2 and entries[0] == {"earlier": "entry"}
    entry = entries[1]
    assert set(entry) == {"commit", "src_dirty", "python", "sets", "repeats", "stages"}
    assert entry["sets"] == ["envious", "certify"] and entry["repeats"] == 1
    assert list(entry["stages"]) == ["envious", "certify"]
    for stages in entry["stages"].values():
        assert list(stages) == [
            "argv", "read", "load", "allocations", "kernel", "rho", "load_mixed_allocation", "certify", "dumps",
            "lowest", "select", *LP_STAGES,
        ]
        for name, stats in stages.items():
            extra = {"cells", "pivots"} if name in LP_STAGES else set()
            assert set(stats) == {"calls", "best_s", "median_s", "q1_s", "q3_s"} | extra
            # one pass: its time is the best, the median and both quartiles
            assert 0 <= stats["best_s"] == stats["q1_s"] == stats["median_s"] == stats["q3_s"]
    # each of the six envious solves runs one lowest-vertex step, with its
    # program, and scans two vertices, each with one tie-breaking step; and
    # solving verifies by the answer's own weight, with no weight program
    envious = entry["stages"]["envious"]
    assert envious["lowest"]["calls"] == envious["lp_lowest"]["calls"] == 6
    assert envious["select"]["calls"] == 12 and envious["lp_select"]["calls"] > 0
    assert envious["lp_weight"]["calls"] == 0
    for name in LP_STAGES:
        assert (envious[name]["calls"] > 0) == (envious[name]["cells"] > 0) == (envious[name]["pivots"] > 0)
    # the certify set is 12 gen-hard instances and 48 lotteries over them,
    # each one verify command line that names two files, and each printed
    # as its certificate; each verify solves one weight program, of 2 rows
    # by 3 variables here, in one pivot, and no engine step or program
    certify = entry["stages"]["certify"]
    assert [stats["calls"] for stats in certify.values()] == [48, 96, 12, 12, 12, 12, 48, 48, 48, 0, 0, 0, 0, 48]
    assert [(certify[name]["cells"], certify[name]["pivots"]) for name in LP_STAGES] == [(0, 0), (0, 0), (288, 48)]


def test_solve_sets_certify_each_answer_by_its_weight(monkeypatch):
    # a solve certifies its answer against the answer's vertex weight, so
    # the solve sets' certify stage solves no efficiency weight program
    spec = importlib.util.spec_from_file_location("stage_times", SCRIPT)
    stage_times = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(stage_times)
    files, lotteries, documents, programs, steps = stage_times.read_set("envious")
    calls = stage_times.stage_calls(files, lotteries, documents, programs, steps, [])["certify"]
    solved = []
    monkeypatch.setattr(envy, "solve_lp", solved.append)
    assert len(calls) == 6 and all(call().ok for call in calls)
    assert solved == []


@pytest.mark.parametrize("content", ["", "not json", '{"earlier": "entry"}'], ids=["empty", "not-json", "object"])
def test_stage_times_refuses_an_out_file_that_holds_no_list(tmp_path, content):
    # the file is read before any set is read, captured or timed, and the
    # run ends with one line naming it, not a traceback, and leaves it as
    # it was
    out = tmp_path / "BENCH_stages.json"
    out.write_text(content, encoding="utf-8")
    proc = run_harness("certify", out)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("stage_times: ") and proc.stderr.count("\n") == 1
    assert str(out) in proc.stderr and "Traceback" not in proc.stderr
    assert out.read_text(encoding="utf-8") == content
