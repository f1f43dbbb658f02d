"""Rewrite the pinned instance sets and answers that tests/test_golden.py checks.

    python3 tests/data/make_goldens.py inputs   # desk.json, wide.json, certify.json
    python3 tests/data/make_goldens.py golden   # golden.json, from the current src

Run from the repository root.  ``inputs`` takes the benchmark's fixed sets
from ``bench/workloads.py`` (its constant-seed pools); ``golden`` solves and
verifies them with the code under ``src`` and records every answer.
"""

import json
import os
import random
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench"), os.path.dirname(HERE)]


def save(name, data):
    with open(os.path.join(HERE, f"{name}.json"), "w") as fh:
        json.dump(data, fh, separators=(",", ":"))
        fh.write("\n")


def inputs():
    import workloads
    from fairmix.cli import main

    save("desk", workloads._pool("desk", workloads.DESK_STRATA, workloads.DESK_PER_STRATUM, workloads._desk_instance))
    save("wide", workloads._pool("wide", workloads.WIDE_STRATA, workloads.WIDE_PER_STRATUM, workloads._wide_instance))

    # the certify workload's pool, as built by workloads.certify
    calls = []

    def recording_main(argv):
        calls.append(argv)
        return main(argv)

    rng = random.Random("certify:pool")
    with tempfile.TemporaryDirectory() as directory:
        files = workloads._Files(directory, "golden")
        hard = [workloads._hard_instance(rng, files, recording_main) for _ in range(workloads.HARD_INSTANCES)]
        ops = [workloads._verify_op(rng, files, h, kind) for h in hard for kind in workloads.CERTIFY_KINDS]
        lotteries = []
        for op in ops:
            path = op.argv[op.argv.index("--instance") + 1]
            with open(op.argv[op.argv.index("--allocation") + 1]) as fh:
                lotteries.append({"hard": [h[0] for h in hard].index(path), **json.load(fh)})
    strings = [[int(argv[2]), argv[4], argv[6]] for argv in calls]
    save("certify", {"hard": strings, "lotteries": lotteries})


def golden():
    import test_golden

    with tempfile.TemporaryDirectory() as directory:
        save("golden", {w: test_golden.answers(w, directory) for w in test_golden.WORKLOADS})


if __name__ == "__main__":
    {"inputs": inputs, "golden": golden}[sys.argv[1]]()
