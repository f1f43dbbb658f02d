"""Run the benchmark in alternating parent and change pairs, and record them.

    python3 tools/bench_pairs.py --parent DIR --workload desk --pairs 10
                                 --seed 901 --seconds 30 [--out BENCH_desk.json]

``DIR`` is a checkout of the parent commit, made by ``git clone``, ``git
worktree add`` or ``git archive``; the change is this checkout.  Pair k
runs ``bench/run.py --workload W --seed S+k --seconds T --trace 0`` once in
each, each run a fresh subprocess of this Python, with the parent first in
even pairs and the change first in odd ones, so neither side always runs
on a machine the other has just warmed.  A run that exits non-zero, or
whose result is not correct, ends the recorder at once with a one-line
error and records nothing.

One entry is appended to the JSON list in ``--out`` (by default
``BENCH_<W>.json`` at this checkout's root): the workload, the pairs, the
seconds, the seeds, the Python version, each side's commit and whether its
``src`` differs from it (both null where the checkout has no git
metadata), and for each end-to-end metric ``BENCHMARK.json`` declares: its
unit and better direction, each side's median and lower and upper
quartiles (``statistics.quantiles``, inclusive) and values in pair order,
and the change's ``wins``, the pairs where it is strictly better.
``--out`` is read first, and a file there that holds no JSON list ends the
run at once with a one-line error.  Nothing is fetched or built: each side
runs from its own sources.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def fail(message):
    raise SystemExit(f"bench_pairs: {message}")


def end_to_end():
    """The end-to-end metrics ``BENCHMARK.json`` declares, as (name, unit, better)."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [(m["name"], m["unit"], m["better"]) for m in json.load(fh)["end_to_end"]]


def run_once(checkout, workload, seed, seconds):
    """One ``bench/run.py --trace 0`` run in ``checkout``: its metrics' values."""
    argv = [sys.executable, os.path.join(checkout, "bench", "run.py"), "--workload", workload]
    argv += ["--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, encoding="utf-8")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
    if not result.get("correct"):
        last = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        fail(f"{workload} seed {seed} in {checkout} exited {proc.returncode}: {last}")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def spread(values):
    """The median and the lower and upper quartiles of ``values``."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3}


def git_state(checkout):
    """``{"commit", "src_dirty"}`` of ``checkout``, each None without git metadata."""

    def git(*args):
        try:
            out = subprocess.run(["git", "-C", checkout, *args], capture_output=True, encoding="utf-8", check=True)
        except (OSError, subprocess.CalledProcessError):
            return None
        return out.stdout.strip()

    # an archive unpacked inside another repository must not report that one's commit
    commit = git("rev-parse", "--short", "HEAD") if os.path.exists(os.path.join(checkout, ".git")) else None
    status = None if commit is None else git("status", "--porcelain", "--", "src")
    return {"commit": commit, "src_dirty": None if status is None else bool(status)}


def read_entries(path):
    """The JSON list of entries already in ``path``, or [] if there is no
    such file.  Any other content ends the run with a one-line error."""
    if not os.path.exists(path):
        return []
    try:
        with open(path, encoding="utf-8") as fh:
            entries = json.load(fh)
    except (OSError, ValueError) as exc:
        fail(f"cannot read {path} as a JSON list: {exc}")
    if not isinstance(entries, list):
        fail(f"{path} holds JSON that is not a list of entries")
    return entries


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--workload", required=True, choices=("desk", "certify", "wide"))
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair; pair k runs seed + k")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", help="JSON list to append to (default: BENCH_<workload>.json here)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs takes at least 1")
    parent = os.path.abspath(args.parent)
    if not os.path.isfile(os.path.join(parent, "bench", "run.py")):
        parser.error(f"--parent {args.parent} holds no bench/run.py")
    out = args.out or os.path.join(ROOT, f"BENCH_{args.workload}.json")

    entries = read_entries(out)
    checkouts = {"parent": parent, "change": ROOT}
    seeds = [args.seed + k for k in range(args.pairs)]
    runs = {side: [] for side in SIDES}
    for k, seed in enumerate(seeds):
        for side in SIDES if k % 2 == 0 else SIDES[::-1]:
            runs[side].append(run_once(checkouts[side], args.workload, seed, args.seconds))

    metrics = {}
    for name, unit, better in end_to_end():
        values = {side: [run[name] for run in runs[side]] for side in SIDES}
        sign = 1 if better == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        metrics[name] = {
            "unit": unit,
            "better": better,
            **{side: {**spread(values[side]), "values": values[side]} for side in SIDES},
            "wins": wins,
        }
    entry = {
        "workload": args.workload,
        "pairs": args.pairs,
        "seconds": args.seconds,
        "seeds": seeds,
        "python": platform.python_version(),
        **{side: git_state(checkouts[side]) for side in SIDES},
        "metrics": metrics,
    }
    entries.append(entry)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(entries, fh, indent=1)
        fh.write("\n")
    print(json.dumps(entry))
    return 0


if __name__ == "__main__":
    sys.exit(main())
