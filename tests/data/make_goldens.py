"""Rewrite the pinned instance sets and answers that tests/test_golden.py checks.

    python3 tests/data/make_goldens.py inputs   # desk, wide, certify, many, envious and fallback .json
    python3 tests/data/make_goldens.py golden   # golden.json, from the current src

Run from the repository root.  ``inputs`` takes the benchmark's fixed sets
from ``bench/workloads.py`` (its constant-seed pools) and draws the n = 5-7
set ``many`` from a constant seed; ``envious`` holds, for each of a few shapes, the first
constant-seed draw whose first scanned vertex has envy, as the code under
``src`` scans it, and ``fallback`` the first three such draws of each of a
few n = 5-8 shapes; ``golden`` solves and verifies them with the code under
``src`` and records every answer.
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
    with open(os.path.join(HERE, f"{name}.json"), "w", encoding="utf-8") as fh:
        json.dump(data, fh, separators=(",", ":"))
        fh.write("\n")


# (n, m) of each ``many`` instance: additive all-partitions instances with
# item values 1-20, small enough for each to solve well under a second
MANY_SHAPES = ((5, 3), (5, 4), (6, 2), (6, 3), (7, 2), (7, 2))


def many():
    rng = random.Random("many")
    return [
        {
            "n": n,
            "m": m,
            "utilities": {"type": "additive", "items": [[str(rng.randint(1, 20)) for _ in range(m)] for _ in range(n)]},
            "allocations": "all_partitions",
        }
        for n, m in MANY_SHAPES
    ]


# (n, m, utility type) of each ``envious`` instance, item or bundle values
# 1-9: the scan starts at the envelope's lowest vertex, and answers there on
# every benchmark instance but one, so these keep its walk past the lowest
# vertex, and the share step at an envious vertex, covered at every n from
# 2 to 6
ENVIOUS_SHAPES = ((2, 2, "table"), (3, 2, "table"), (3, 3, "additive"), (4, 3, "additive"), (5, 2, "table"), (6, 2, "table"))


def draw(rng, n, m, kind):
    if kind == "additive":
        utilities = {"type": "additive", "items": [[str(rng.randint(1, 9)) for _ in range(m)] for _ in range(n)]}
    else:
        utilities = {"type": "table", "values": [[[b, str(rng.randint(1, 9))] for b in range(1 << m)] for _ in range(n)]}
    return {"n": n, "m": m, "utilities": utilities, "allocations": "all_partitions"}


# (n, m) of each ``fallback`` shape, table values 1-9: the scan goes past
# an envious lowest vertex at every n from 5 to 8, on draws that each solve
# in well under 0.1 s
FALLBACK_SHAPES = ((5, 3), (6, 3), (7, 2), (8, 2))
FALLBACK_DRAWS = 3


def envious_draws(seed, n, m, kind, count):
    """The first ``count`` draws from ``seed`` whose first scanned vertex has envy."""
    from fairmix.engine import find_fixed_point
    from fairmix.serialize import load_instance

    rng = random.Random(seed)
    out = []
    for _ in range(10_000):
        entry = draw(rng, n, m, kind)
        trace = []
        find_fixed_point(load_instance(entry), trace_sink=trace)
        if trace[0].residual:
            out.append(entry)
            if len(out) == count:
                return out
    raise SystemExit(f"fewer than {count} envious draws of shape {(n, m, kind)}")


def envious():
    return [
        entry
        for n, m, kind in ENVIOUS_SHAPES
        for entry in envious_draws(f"envious:{n}:{m}:{kind}", n, m, kind, 1)
    ]


def fallback():
    return [
        entry
        for n, m in FALLBACK_SHAPES
        for entry in envious_draws(f"fallback:{n}:{m}", n, m, "table", FALLBACK_DRAWS)
    ]


def inputs():
    import workloads
    from fairmix.cli import main

    save("many", many())
    save("envious", envious())
    save("fallback", fallback())

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
            with open(op.argv[op.argv.index("--allocation") + 1], encoding="utf-8") as fh:
                lotteries.append({"hard": [h[0] for h in hard].index(path), **json.load(fh)})
    strings = [[int(argv[2]), argv[4], argv[6]] for argv in calls]
    save("certify", {"hard": strings, "lotteries": lotteries})


def golden():
    import test_golden

    with tempfile.TemporaryDirectory() as directory:
        save("golden", {w: test_golden.answers(w, directory) for w in test_golden.WORKLOADS})


if __name__ == "__main__":
    {"inputs": inputs, "golden": golden}[sys.argv[1]]()
