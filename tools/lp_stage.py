"""Time the exact LP kernel on every LP the pinned sets run, by kind.

    python3 tools/lp_stage.py [--sets desk,wide,many,envious,certify]
                              [--repeats 7] [--out BENCH_lp.json]

Solves every instance of the chosen ``tests/data`` solve sets, and verifies
every lottery of the certify set, once through ``fairmix.cli.main``, as
``tests/test_golden.py`` does, and records each program ``engine`` and
``envy`` hand to ``solve_lp``.  Its kind is the function that built it: the
tie-breaking program (``select``), the lowest-vertex program (``lowest``)
or the efficiency weight program (``weight``).  Each kind's programs are
then solved again by ``solve_lp``, all of them per pass, and the best pass
of ``--repeats`` is kept; one more pass counts the pivots.  One entry is
appended to the JSON list in ``--out``: the commit and whether ``src``
differs from it, the Python version, the sets, the repeats, and per kind
the program count, their constraint-by-variable cells, the pivots and the
best pass in seconds.  ``--out`` is read before the capture, and a file
there that holds no JSON list ends the run at once with a one-line error.
The ``fairmix`` imported is this checkout's ``src``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATA = os.path.join(ROOT, "tests", "data")
SETS = ("desk", "wide", "many", "envious", "certify")
KINDS = {"select_p_in_P": "select", "_lowest_vertex": "lowest", "check_pareto_efficient": "weight"}

sys.path.insert(0, os.path.join(ROOT, "src"))

from fairmix import engine, envy  # noqa: E402
from fairmix import lp as lp_module  # noqa: E402
from fairmix.cli import main as fairmix_main  # noqa: E402


def _write(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return path


def _run_set(name, directory):
    """Run one pinned set through the CLI, as the golden tests do."""
    with open(os.path.join(DATA, f"{name}.json"), encoding="utf-8") as fh:
        data = json.load(fh)
    calls = []
    if name != "certify":
        for j, inst in enumerate(data):
            calls.append(["solve", "--instance", _write(os.path.join(directory, f"{name}-{j}.json"), inst)])
    else:
        hard = []
        for j, (p, x1, x2) in enumerate(data["hard"]):
            hard.append(os.path.join(directory, f"hard-{j}.json"))
            calls.append(["gen-hard", "--p", str(p), "--x1", x1, "--x2", x2, "--out", hard[-1]])
        for j, entry in enumerate(data["lotteries"]):
            lottery = _write(os.path.join(directory, f"lottery-{j}.json"), {"support": entry["support"]})
            calls.append(["verify", "--instance", hard[entry["hard"]], "--allocation", lottery])
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        for argv in calls:
            if fairmix_main(argv) not in (0, 3):
                raise SystemExit(f"lp_stage: {' '.join(argv)} failed")


def capture(sets):
    """Every program the sets hand to ``solve_lp``, grouped by kind."""
    programs = {kind: [] for kind in KINDS.values()}
    solve = lp_module.solve_lp

    def recording(lp):
        programs[KINDS[sys._getframe(1).f_code.co_name]].append(lp)
        return solve(lp)

    saved = engine.solve_lp, envy.solve_lp
    engine.solve_lp = envy.solve_lp = recording
    try:
        with tempfile.TemporaryDirectory() as directory:
            for name in sets:
                _run_set(name, directory)
    finally:
        engine.solve_lp, envy.solve_lp = saved
    return programs


def count_pivots(programs):
    pivots = [0]
    pivot = lp_module._pivot

    def counting(*args):
        pivots[0] += 1
        return pivot(*args)

    lp_module._pivot = counting
    try:
        for lp in programs:
            lp_module.solve_lp(lp)
    finally:
        lp_module._pivot = pivot
    return pivots[0]


def best_pass(programs, repeats):
    solve, clock = lp_module.solve_lp, time.perf_counter
    best = float("inf")
    for _ in range(repeats):
        start = clock()
        for lp in programs:
            solve(lp)
        best = min(best, clock() - start)
    return best if programs else 0.0


def _git(*args):
    try:
        out = subprocess.run(["git", "-C", ROOT, *args], capture_output=True, encoding="utf-8", check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def read_entries(path):
    """The JSON list of entries already in ``path``, or [] if there is no
    such file.  Any other content ends the run with a one-line error."""
    if not os.path.exists(path):
        return []
    try:
        with open(path, encoding="utf-8") as fh:
            entries = json.load(fh)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"lp_stage: cannot read {path} as a JSON list: {exc}") from None
    if not isinstance(entries, list):
        raise SystemExit(f"lp_stage: {path} holds JSON that is not a list of entries")
    return entries


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", default=",".join(SETS), help="comma-separated pinned sets")
    parser.add_argument("--repeats", type=int, default=7, help="timed passes per kind; the best is kept")
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_lp.json"))
    args = parser.parse_args(argv)
    sets = args.sets.split(",")
    if not set(sets) <= set(SETS) or args.repeats < 1:
        parser.error(f"--sets takes names from {','.join(SETS)} and --repeats at least 1")

    entries = read_entries(args.out)
    programs = capture(sets)
    status = _git("status", "--porcelain", "--", "src")
    entry = {
        "commit": _git("rev-parse", "--short", "HEAD"),
        "src_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "sets": sets,
        "repeats": args.repeats,
        "kinds": {
            kind: {
                "lps": len(lps),
                "cells": sum(len(lp.constraints) * lp.num_vars for lp in lps),
                "pivots": count_pivots(lps),
                "best_s": round(best_pass(lps, args.repeats), 6),
            }
            for kind, lps in programs.items()
        },
    }
    entries.append(entry)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(entries, fh, indent=1)
        fh.write("\n")
    print(json.dumps(entry))
    return 0


if __name__ == "__main__":
    sys.exit(main())
