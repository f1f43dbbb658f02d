"""The stage harnesses in their smallest mode, one pinned set and one timed
pass: ``tools/lp_stage.py`` (the LP kernel) and ``tools/stage_times.py``
(loading and checking an answer)."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_lp_stage_appends_one_entry_with_every_key(tmp_path):
    out = tmp_path / "BENCH_lp.json"
    out.write_text(json.dumps([{"earlier": "entry"}]), encoding="utf-8")
    script = os.path.join(ROOT, "tools", "lp_stage.py")
    argv = [sys.executable, script, "--sets", "envious", "--repeats", "1", "--out", str(out)]
    subprocess.run(argv, check=True, capture_output=True, timeout=120)
    entries = json.loads(out.read_text(encoding="utf-8"))
    assert len(entries) == 2 and entries[0] == {"earlier": "entry"}
    entry = entries[1]
    assert set(entry) == {"commit", "src_dirty", "python", "sets", "repeats", "kinds"}
    assert entry["sets"] == ["envious"] and entry["repeats"] == 1
    assert set(entry["kinds"]) == {"select", "lowest", "weight"}
    for stats in entry["kinds"].values():
        assert set(stats) == {"lps", "cells", "pivots", "best_s"}
        assert stats["best_s"] >= 0 and (stats["lps"] > 0) == (stats["cells"] > 0)
    # each of the six envious solves runs one lowest-vertex program, and
    # solving verifies by the answer's own weight, with no weight program
    assert entry["kinds"]["lowest"]["lps"] == 6 and entry["kinds"]["select"]["lps"] > 0
    assert entry["kinds"]["weight"]["lps"] == 0


@pytest.mark.parametrize("content", ["", "not json", '{"earlier": "entry"}'], ids=["empty", "not-json", "object"])
def test_lp_stage_refuses_an_out_file_that_holds_no_list(tmp_path, content):
    # the file is read before any program is captured or timed, and the run
    # ends with one line naming it, not a traceback, and leaves it as it was
    out = tmp_path / "BENCH_lp.json"
    out.write_text(content, encoding="utf-8")
    script = os.path.join(ROOT, "tools", "lp_stage.py")
    argv = [sys.executable, script, "--sets", "envious", "--repeats", "1", "--out", str(out)]
    proc = subprocess.run(argv, capture_output=True, encoding="utf-8", timeout=120)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("lp_stage: ") and proc.stderr.count("\n") == 1
    assert str(out) in proc.stderr and "Traceback" not in proc.stderr
    assert out.read_text(encoding="utf-8") == content


def test_stage_times_appends_one_entry_with_every_key(tmp_path):
    out = tmp_path / "BENCH_stages.json"
    out.write_text(json.dumps([{"earlier": "entry"}]), encoding="utf-8")
    script = os.path.join(ROOT, "tools", "stage_times.py")
    argv = [sys.executable, script, "--sets", "certify", "--repeats", "1", "--out", str(out)]
    subprocess.run(argv, check=True, capture_output=True, timeout=120)
    entries = json.loads(out.read_text(encoding="utf-8"))
    assert len(entries) == 2 and entries[0] == {"earlier": "entry"}
    entry = entries[1]
    assert set(entry) == {"commit", "src_dirty", "python", "sets", "repeats", "stages"}
    assert entry["sets"] == ["certify"] and entry["repeats"] == 1
    assert list(entry["stages"]) == ["certify"]
    stages = entry["stages"]["certify"]
    assert list(stages) == [
        "argv", "read", "load", "allocations", "kernel", "rho", "load_mixed_allocation", "certify", "dumps"
    ]
    for stats in stages.values():
        assert set(stats) == {"calls", "best_s", "median_s", "q1_s", "q3_s"}
        # one pass: its time is the best, the median and both quartiles
        assert 0 <= stats["best_s"] == stats["q1_s"] == stats["median_s"] == stats["q3_s"]
    # the certify set is 12 gen-hard instances and 48 lotteries over them,
    # each one verify command line that names two files, and each printed
    # as its certificate
    assert [stats["calls"] for stats in stages.values()] == [48, 96, 12, 12, 12, 12, 48, 48, 48]


@pytest.mark.parametrize("content", ["", '{"earlier": "entry"}'], ids=["empty", "object"])
def test_stage_times_refuses_an_out_file_that_holds_no_list(tmp_path, content):
    out = tmp_path / "BENCH_stages.json"
    out.write_text(content, encoding="utf-8")
    script = os.path.join(ROOT, "tools", "stage_times.py")
    argv = [sys.executable, script, "--sets", "certify", "--repeats", "1", "--out", str(out)]
    proc = subprocess.run(argv, capture_output=True, encoding="utf-8", timeout=120)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("stage_times: ") and proc.stderr.count("\n") == 1
    assert str(out) in proc.stderr and "Traceback" not in proc.stderr
    assert out.read_text(encoding="utf-8") == content
