"""fairmix benchmark: one workload, one seed, one fresh process.

    python3 bench/run.py --workload desk --seed 1 --seconds 30 --trace 0

Runs a closed loop with one client: each operation is one in-process call
of ``fairmix.cli.main`` on files generated from the seed, and the next one
starts when it returns.  Answers are checked after the loop, outside the
timed region, by the independent oracles in ``oracle.py``.  A wrong answer,
or an "internal check failed" exit, ends the run with a non-zero code.

--trace 0 measures whole rounds of the workload (``workloads.ROUND``), at
least one, as many as take about --seconds at the benchmark's defining
commit (``SIZING_RATE``); it reports the end-to-end metrics.  The
operations' times are scaled to the machine's nominal speed by a reference
workload run before each operation (``speed.py``); the wall-clock figures
are printed too, as ``wall.<metric>``.
--trace 1 runs each operation of a fixed-size batch once untraced and once
traced, checks that both gave identical outputs, and reports the per-layer
metrics.

The last line of standard output is the JSON result; the lines before it
give every metric by name with its unit, plus the details behind them.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout

import oracle
import speed
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".bench_run")

# Set-up is sampled in fresh processes before and after the loop, because
# the speed of a shared machine drifts by tens of percent over seconds.
SETUP_PROCESSES = (7, 8)
# The bounded latencies are means over percentile bands, not single
# percentiles: the desk mix puts both its median and its p95 in gaps between
# cheap and costly strata (or the fast and slow solves of one stratum), where
# the single sample at the percentile jumps from run to run.
MIDDLE_BAND = (30, 70)
TAIL_BAND = (90, 99)
# Sizing constants, operations per second: about the median wall-clock rate
# of each workload at the benchmark's defining commit on a 2-core machine.
# They fix the work of a run, so that it takes about --seconds there: the
# number of whole rounds --trace 0 measures, and the --trace 1 batch, whose
# two passes take about 60% of --seconds.
SIZING_RATE = {"desk": 7.8, "certify": 4.9, "wide": 1.3}
TAIL_PERCENTILES = (99, 95, 90, 85, 80, 75, 70, 65, 60, 55, 50)
TAIL_BEYOND = 10


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("desk", "certify", "wide"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_samples(count):
    """Times, in fresh processes, to import fairmix.cli.

    fairmix.cli does no other one-time work before its first operation.
    """
    code = (
        "import sys, time\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "start = time.perf_counter()\n"
        "import fairmix.cli\n"
        "print(time.perf_counter() - start)\n"
    )
    samples = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, "-I", "-c", code, SRC], capture_output=True, text=True, timeout=60, check=True
        )
        samples.append(float(done.stdout))
    return samples


def call(cli_main, argv):
    """One operation: (exit code, stdout, stderr); exceptions become code None."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli_main(argv)
    except Exception:  # an escaped exception is a wrong answer, reported by the check
        return None, out.getvalue(), traceback.format_exc()
    return code, out.getvalue(), err.getvalue()


def timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def percentile(ordered, q):
    """Nearest-rank q-th percentile of sorted samples, and the count above it."""
    rank = max(1, math.ceil(q * len(ordered) / 100))
    return ordered[rank - 1], len(ordered) - rank


def tail(ordered):
    """Highest listed percentile with at least TAIL_BEYOND samples above it."""
    for q in TAIL_PERCENTILES:
        value, beyond = percentile(ordered, q)
        if beyond >= TAIL_BEYOND:
            return value, q, beyond
    value, beyond = percentile(ordered, 50)
    return value, 50, beyond


def band_mean(ordered, band):
    """Mean of the sorted samples from the band's lower to its upper nearest-rank percentile."""
    lo, hi = (max(1, math.ceil(q * len(ordered) / 100)) for q in band)
    return statistics.fmean(ordered[lo - 1:hi])


def normalized(code, out, err):
    """Output with the solve's own wall-clock field removed, for comparisons."""
    if code == 0 and out.startswith("{"):
        data = json.loads(out)
        if isinstance(data, dict):
            data.pop("wall_time", None)
            out = json.dumps(data, sort_keys=True)
    return [code, out, err]


def digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def check_all(ops, answers):
    """Oracle verdicts for every answer; raises oracle.WrongAnswer on the first wrong one."""
    verdicts = []
    for op, (code, out, err) in zip(ops, answers):
        if code is None:
            raise oracle.WrongAnswer(f"exception escaped the CLI:\n{err}")
        verdicts.append(op.check(code, out, err))
    return verdicts


def inputs_digest(ops):
    contents = []
    for op in ops:
        for arg in op.argv:
            if arg.endswith(".json") and os.path.exists(arg):
                with open(arg) as fh:
                    contents.append(fh.read())
    return digest(contents)


def emit(lines, result):
    for name, value, unit in lines:
        print(f"{name} {value} {unit}")
    print(json.dumps(result))


def run_timed(args, cli_main, stream):
    setup = setup_samples(SETUP_PROCESSES[0])
    ops, answers, latencies, references = [], [], [], []
    # A fixed number of rounds, not a time limit: stopping on time makes the
    # count of rounds follow the machine's drifting speed, and on wide, with
    # rounds of 20-25 s, that split runs into one-round and two-round groups
    # whose figures differed by 30%.
    size = workloads.ROUND[args.workload]
    rounds = max(1, round(args.seconds * SIZING_RATE[args.workload] / size))
    for _ in range(rounds * size):
        op = next(stream)
        references.append(speed.reference())
        answer, dt = timed(call, cli_main, op.argv)
        ops.append(op)
        answers.append(answer)
        latencies.append(dt)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    verdicts = check_all(ops, answers)
    setup += setup_samples(SETUP_PROCESSES[1])

    attempted = len(ops)
    search_failed = verdicts.count("search_failed")

    def figures(latencies, setup):
        ordered = sorted(latencies)
        spent = sum(latencies)
        tail_s, tail_q, beyond = tail(ordered)
        return {
            "answers_per_s": (attempted / spent, "1/s"),
            "latency_s.middle": (band_mean(ordered, MIDDLE_BAND), "s"),
            "latency_s.tail": (band_mean(ordered, TAIL_BAND), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "goodput_per_s": ((attempted - search_failed) / spent, "1/s"),
            "latency_s.p50": (percentile(ordered, 50)[0], "s"),
            f"latency_s.p{tail_q}": (tail_s, "s"),
            f"latency_s.p{tail_q}.beyond": (beyond, "count"),
        }

    # Set-up stays in wall-clock time: fresh processes importing fairmix took
    # the same time when the loop's speed reference read 0.7 and 1.0.
    scaled = figures(speed.scaled(latencies, references), setup)
    wall = figures(latencies, setup)
    metrics = {name: scaled[name] for name in ("answers_per_s", "latency_s.middle", "latency_s.tail", "setup_s")}
    metrics["solved_ratio"] = ((attempted - search_failed) / attempted, "ratio")
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    lines = [
        ("workload", args.workload, ""),
        ("seed", args.seed, ""),
        ("attempted", attempted, "count"),
        ("rounds", rounds, "count"),
        ("loop_s", round(sum(latencies), 4), "s"),
        ("speed", speed.NOMINAL_S / statistics.median(references), "ratio"),
        ("fail_ratio", search_failed / attempted, "ratio"),
        ("verdicts", json.dumps({v: verdicts.count(v) for v in sorted(set(verdicts))}), ""),
    ]
    lines += [(name, value, unit) for name, (value, unit) in scaled.items() if name not in metrics]
    lines += [(f"wall.{name}", value, unit) for name, (value, unit) in wall.items()]
    lines += [(name, value, unit) for name, (value, unit) in metrics.items()]
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": 0,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return lines, result


def run_traced(args, cli_main, stream):
    batch = max(4, round(SIZING_RATE[args.workload] * args.seconds * 0.3))
    ops = [next(stream) for _ in range(batch)]

    # Each operation runs once untraced and once traced, alternating which
    # goes first, so warm caches favour neither side.  The program's lazy
    # imports fall on the first pass of the first operation that needs them.
    tracer = tracing.Tracer()
    plain, traced = [], []
    plain_s = traced_s = 0.0
    for i, op in enumerate(ops):
        for with_trace in (False, True) if i % 2 == 0 else (True, False):
            if not with_trace:
                answer, dt = timed(call, cli_main, op.argv)
                plain.append(answer)
                plain_s += dt
                continue
            tracer.install()
            try:
                answer, dt = timed(tracer.operation, i, call, cli_main, op.argv)
            finally:
                tracer.restore()
            traced.append(answer)
            traced_s += dt

    verdicts = check_all(ops, plain)
    if [normalized(*a) for a in plain] != [normalized(*a) for a in traced]:
        raise oracle.WrongAnswer("traced outputs differ from untraced outputs")

    layers = tracing.layer_metrics(tracer)
    bound = {name for _, _, name, _ in tracing.BINDINGS}
    missing = set(tracer.missing)
    absent = sorted(
        name
        for name in bound
        if all(f"{m}.{p}" in missing for m, p, n, _ in tracing.BINDINGS if n == name)
    )
    answered = len(ops)
    answers_plain = answered / plain_s
    answers_traced = answered / traced_s
    search_failed = verdicts.count("search_failed")
    metrics = dict(layers)
    metrics["fail_ratio"] = (search_failed / answered, "ratio")
    metrics["trace.overhead_answers_per_s"] = (answers_plain - answers_traced, "1/s")
    metrics["trace.missing_bindings"] = (len(missing), "count")
    counts = {name: layers[name][0] for name in tracing.EXACT_COUNTS}
    lines = [
        ("workload", args.workload, ""),
        ("seed", args.seed, ""),
        ("batch", answered, "count"),
        ("untraced_answers_per_s", answers_plain, "1/s"),
        ("traced_answers_per_s", answers_traced, "1/s"),
        ("absent_layers", json.dumps(absent), ""),
        ("missing_bindings", json.dumps(sorted(missing)), ""),
        ("unreadable_span_info", json.dumps(sorted(tracer.info_errors)), ""),
        ("exact_counts", json.dumps(counts, sort_keys=True), ""),
        ("inputs_digest", inputs_digest(ops), ""),
        ("outputs_digest", digest([normalized(*a) for a in plain]), ""),
    ] + [(name, value, unit) for name, (value, unit) in metrics.items()]
    result = {
        "correct": True,
        "attempted": answered,
        "failed": 0,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return lines, result


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fairmix", "cli.py")):
        print(f"error: no fairmix sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import fairmix
    import fairmix.cli

    if os.path.dirname(os.path.abspath(fairmix.__file__)) != os.path.join(SRC, "fairmix"):
        print(f"error: imported fairmix from {fairmix.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    directory = os.path.join(RUN_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(directory)
    try:
        stream = workloads.operations(args.workload, args.seed, directory, fairmix.cli.main)
        runner = run_traced if args.trace else run_timed
        try:
            lines, result = runner(args, fairmix.cli.main, stream)
        except oracle.WrongAnswer as exc:
            print(f"wrong answer: {exc}", file=sys.stderr)
            print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
            return 1
    finally:
        shutil.rmtree(directory, ignore_errors=True)
        try:
            os.rmdir(RUN_DIR)
        except OSError:
            pass
    emit(lines, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
