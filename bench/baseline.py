"""Baseline tools for the fairmix benchmark, run from the repository root.

    python3 bench/baseline.py spread --seeds 1-10 --seconds 30
    python3 bench/baseline.py self-check

``spread`` runs every workload once per seed (one fresh process each,
--trace 0) and prints, per end-to-end metric, the median and the quartile
distance as a share of the median, as statistics.quantiles(n=4) gives it.
Each run's record also holds its machine speed and its wall-clock figures,
from which the bounded times were scaled (see speed.py).

``self-check`` runs each workload traced, for 8 seconds, twice with seed 3
and once with seed 4; the exact counts, inputs and outputs must repeat for
the same seed, and the inputs (their order, as every workload's operation
set is fixed) must change with the seed.  Exits non-zero otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("desk", "certify", "wide")
CHECK_SEED = 3
CHECK_SECONDS = 8


def run(workload, seed, seconds, trace):
    """stdout lines of one benchmark process; raises if it fails."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    if done.returncode:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr[-2000:]}")
    return done.stdout.strip().splitlines()


def detail(lines, name):
    prefix = name + " "
    return next(line[len(prefix):].strip() for line in lines if line.startswith(prefix))


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(args):
    report = {}
    for workload in WORKLOADS:
        values, runs = {}, []
        for seed in seeds(args.seeds):
            lines = run(workload, seed, args.seconds, 0)
            result = json.loads(lines[-1])
            runs.append({
                "seed": seed,
                "attempted": result["attempted"],
                "fail_ratio": float(detail(lines, "fail_ratio").split()[0]),
                "speed": float(detail(lines, "speed").split()[0]),
                "wall": {
                    name: float(detail(lines, f"wall.{name}").split()[0])
                    for name in ("answers_per_s", "latency_s.middle", "latency_s.tail", "setup_s")
                },
                "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            })
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(workload, seed, json.dumps(runs[-1]), file=sys.stderr, flush=True)
        summary = {}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            summary[name] = {"median": statistics.median(vals), "spread": (q3 - q1) / statistics.median(vals)}
        report[workload] = {"summary": summary, "runs": runs}
    print(json.dumps({"seconds": args.seconds, "seeds": args.seeds, "workloads": report}, indent=1))
    return 0


def self_check(args):
    ok = True
    report = {}
    for workload in WORKLOADS:
        first, again, other = (
            run(workload, seed, CHECK_SECONDS, 1) for seed in (CHECK_SEED, CHECK_SEED, CHECK_SEED + 1)
        )
        same = {
            key: detail(first, key) == detail(again, key)
            for key in ("exact_counts", "inputs_digest", "outputs_digest")
        }
        changed = detail(first, "inputs_digest") != detail(other, "inputs_digest")
        report[workload] = {
            "exact_counts": json.loads(detail(first, "exact_counts")),
            "same_seed_repeats": same,
            "other_seed_changes_inputs": changed,
        }
        ok = ok and all(same.values()) and changed
    print(json.dumps({"seed": CHECK_SEED, "seconds": CHECK_SECONDS, "ok": ok, "workloads": report}, indent=1))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("spread")
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--seconds", type=float, required=True)
    p.set_defaults(func=spread)
    sub.add_parser("self-check").set_defaults(func=self_check)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
