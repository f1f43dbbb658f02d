"""Time the stages that prepare and check an answer, on the pinned sets.

    python3 tools/stage_times.py [--sets desk,wide,many,envious,fallback,certify]
                                 [--repeats 7] [--out BENCH_stages.json]

Each chosen ``tests/data`` set is read once.  Its instances are the solve
sets' instance files, or the certify set's ``gen-hard`` instances, and its
lotteries are the certify set's listed lotteries, or each solve instance's
answer with its vertex weight, found once by ``find_fixed_point`` outside
the timed passes.  Each operation's command line is built as the benchmark
runs it, a ``verify`` of each certify lottery or a ``solve`` of each solve
instance, over files written once to a temporary folder.  While the
answers are found, every program ``engine`` and ``envy`` hand to
``solve_lp`` is recorded, filed under the function that built it, and so
are the arguments of every call of the solve's lowest-vertex,
tie-breaking and envelope steps; the recording is removed before any pass
is timed.  Sixteen stages are then timed, each as one pass over the whole
set, ``--repeats`` times:

- ``argv``: ``cli._read_argv``, the CLI's reading of every command line;
- ``read``: ``cli._read_json`` of every file the command lines name;
- ``load``: ``serialize.load_instance`` of every instance file;
- ``allocations``: the allocation-set build inside it, by
  ``all_partitions_allocation_set``, or by ``swap_closure`` of the listed
  set, parsed outside the pass;
- ``kernel``: ``UtilityKernel.of`` on every loaded instance;
- ``rho``: the ``Instance.rho`` computation on every loaded instance;
- ``load_mixed_allocation``: every lottery read against its instance;
- ``certify``: ``envy.certify`` of every lottery, as the CLI certifies it:
  a solve set's answer against its own vertex weight, by the integer
  witness scan, and a certify lottery by the efficiency weight program;
- ``dumps``: ``serialize.dumps`` of the document the CLI prints for each,
  a solve instance's answer (with a wall time of 0.0) or a certify
  lottery's certificate, built outside the timed passes;
- ``solve``: ``find_fixed_point`` on every instance of a solve set (none
  for the certify set), each loaded apart from the other stages' instances
  and its kernel and ``rho`` built before the passes;
- ``lowest``, ``select`` and ``envelope``: ``engine._lowest_vertex``,
  ``engine.select_p_in_P`` and ``engine._envelope_vertices`` on every
  recorded call's arguments, each step whole, a program's build and its
  reading of the optimum included;
- ``lp_select``, ``lp_lowest`` and ``lp_weight``: ``solve_lp`` of every
  recorded tie-breaking program (``select_p_in_P``), lowest-vertex program
  (``_lowest_vertex``) or efficiency weight program
  (``check_pareto_efficient``).

The stages after ``load`` run on instances loaded once, so caches an
instance or its set keeps (the set's columns, the kernel) are warm there,
and each stage's time is its own.  One entry is appended to the JSON list
in ``--out``: the commit and whether ``src`` differs from it, the Python
version, the sets, the repeats, and per set and stage the calls of one
pass and, in seconds, the best pass, the median pass and the lower and
upper quartiles of the passes (``statistics.quantiles``, inclusive), so
that a difference between two entries can be weighed against the spread
of each; an LP stage also has its programs' constraint-by-variable
``cells`` and the ``pivots`` of one untimed pass before the timed ones.
``--out`` is read first, and a file there that holds no JSON list ends the
run at once with a one-line error.
The ``fairmix`` imported is this checkout's ``src``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATA = os.path.join(ROOT, "tests", "data")
SETS = ("desk", "wide", "many", "envious", "fallback", "certify")
KINDS = {"select_p_in_P": "lp_select", "_lowest_vertex": "lp_lowest", "check_pareto_efficient": "lp_weight"}
STEPS = {"_lowest_vertex": "lowest", "select_p_in_P": "select", "_envelope_vertices": "envelope"}
STAGES = ("argv", "read", "load", "allocations", "kernel", "rho", "load_mixed_allocation", "certify", "dumps", "solve")
STAGES += (*STEPS.values(), *KINDS.values())

sys.path.insert(0, os.path.join(ROOT, "src"))

from fairmix import cli, engine, envy  # noqa: E402
from fairmix import lp as lp_module  # noqa: E402
from fairmix.engine import find_fixed_point  # noqa: E402
from fairmix.envy import certify  # noqa: E402
from fairmix.hard import DisjointnessInput, build_hard_instance  # noqa: E402
from fairmix.model import (  # noqa: E402
    AllocationSet,
    Instance,
    UtilityKernel,
    all_partitions_allocation_set,
    swap_closure,
)
from fairmix.serialize import (  # noqa: E402
    dump_certificate,
    dump_instance,
    dump_mixed_allocation,
    dump_solve_result,
    dumps,
    items_to_mask,
    load_instance,
    load_mixed_allocation,
)


def read_set(name):
    """The set's instance files, its lotteries, as (instance position, support
    file, weight) triples, the weight None for a certify lottery and the
    answer's vertex weight for a solve instance, the documents the CLI prints
    for them (each solve instance's answer, or each certify lottery's
    certificate), by LP stage, every program ``engine`` and ``envy`` hand to
    ``solve_lp`` while the documents are found, and by step stage, the
    arguments of every call of that ``engine`` step meanwhile."""
    programs = {kind: [] for kind in KINDS.values()}
    steps = {stage: [] for stage in STEPS.values()}

    def recording(lp):
        programs[KINDS[sys._getframe(1).f_code.co_name]].append(lp)
        return lp_module.solve_lp(lp)

    def recorder(step, calls):
        def record(*args):
            calls.append(args)
            return step(*args)

        return record

    swaps = [(engine, "solve_lp", recording), (envy, "solve_lp", recording)]
    swaps += [(engine, step, recorder(getattr(engine, step), steps[stage])) for step, stage in STEPS.items()]
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in swaps]
    for module, attr, wrapper in swaps:
        setattr(module, attr, wrapper)
    try:
        return (*_answers(name), programs, steps)
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)


def capture(sets):
    """Every program the sets hand to ``solve_lp`` in ``read_set``, by LP stage."""
    programs = {kind: [] for kind in KINDS.values()}
    for name in sets:
        for kind, lps in read_set(name)[3].items():
            programs[kind] += lps
    return programs


def _answers(name):
    with open(os.path.join(DATA, f"{name}.json"), encoding="utf-8") as fh:
        data = json.load(fh)
    if name == "certify":
        files = [
            dump_instance(build_hard_instance(DisjointnessInput(p, tuple(map(int, x1)), tuple(map(int, x2)))))
            for p, x1, x2 in data["hard"]
        ]
        lotteries = [(entry["hard"], {"support": entry["support"]}, None) for entry in data["lotteries"]]
        insts = [load_instance(entry) for entry in files]
        documents = []
        for j, support, _ in lotteries:
            p = load_mixed_allocation(support, insts[j])
            documents.append(dump_certificate(certify(p, insts[j]), insts[j]))
        return files, lotteries, documents
    lotteries = []
    documents = []
    for j, entry in enumerate(data):
        inst = load_instance(entry)
        state, cert = find_fixed_point(inst)
        lotteries.append((j, dump_mixed_allocation(state.p, inst), state.w.w))
        documents.append(dump_solve_result(state, cert, inst, 0.0))
    return data, lotteries, documents


def write_ops(name, files, lotteries, folder):
    """Each operation's command line as the benchmark runs it, over files
    written to ``folder``: a verify of each certify lottery, or a solve of
    each instance of a solve set."""

    def write(stem, data):
        path = os.path.join(folder, f"{name}-{stem}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        return path

    paths = [write(f"instance-{j}", entry) for j, entry in enumerate(files)]
    if name != "certify":
        return [["solve", "--instance", path] for path in paths]
    return [
        ["verify", "--instance", paths[j], "--allocation", write(f"lottery-{t}", support)]
        for t, (j, support, _) in enumerate(lotteries)
    ]


def _build(entry):
    """The argument-free allocation-set build for one instance file."""
    n, m, spec = entry["n"], entry["m"], entry["allocations"]
    if spec == "all_partitions":
        return lambda: all_partitions_allocation_set(n, m)
    listed = AllocationSet(tuple(items_to_mask(bundle, m) for bundle in allocation) for allocation in spec)
    return lambda: swap_closure(listed)


def stage_calls(files, lotteries, documents, programs, steps, argvs):
    """Each stage's calls of one pass, as argument-free functions."""
    insts = [load_instance(entry) for entry in files]
    rho = Instance.__dict__["rho"].func
    checks = [(load_mixed_allocation(data, insts[j]), insts[j], weight) for j, data, weight in lotteries]
    # a solve set's lotteries are its answers, each with its vertex weight;
    # the solve stage loads its own instances, so the other stages' caches
    # stay as they were
    solves = [load_instance(files[j]) for j, _, weight in lotteries if weight is not None]
    for inst in solves:
        inst.kernel, inst.rho  # built before the passes, as the other stages find them
    return {
        "argv": [lambda argv=argv: cli._read_argv(argv) for argv in argvs],
        # a command line's files are its flags' values: every second word from the third
        "read": [lambda path=path: cli._read_json(path) for argv in argvs for path in argv[2::2]],
        "load": [lambda entry=entry: load_instance(entry) for entry in files],
        "allocations": [_build(entry) for entry in files],
        "kernel": [lambda inst=inst: UtilityKernel.of(inst) for inst in insts],
        "rho": [lambda inst=inst: rho(inst) for inst in insts],
        "load_mixed_allocation": [
            lambda data=data, inst=insts[j]: load_mixed_allocation(data, inst) for j, data, _ in lotteries
        ],
        "certify": [lambda p=p, inst=inst, w=w: certify(p, inst, weight=w) for p, inst, w in checks],
        "dumps": [lambda doc=doc: dumps(doc) for doc in documents],
        "solve": [lambda inst=inst: find_fixed_point(inst) for inst in solves],
        **{
            stage: [lambda step=getattr(engine, step), args=args: step(*args) for args in steps[stage]]
            for step, stage in STEPS.items()
        },
        **{kind: [lambda lp=lp: lp_module.solve_lp(lp) for lp in lps] for kind, lps in programs.items()},
    }


def pass_stats(calls, repeats):
    """The calls of one pass, and the best, median and quartile seconds of
    ``repeats`` passes over them (each 0.0 when there are no calls)."""
    clock = time.perf_counter
    times = []
    for _ in range(repeats):
        start = clock()
        for call in calls:
            call()
        times.append(clock() - start if calls else 0.0)
    q1, _, q3 = statistics.quantiles(times, n=4, method="inclusive") if repeats > 1 else times * 3
    stats = {"best_s": min(times), "median_s": statistics.median(times), "q1_s": q1, "q3_s": q3}
    return {"calls": len(calls), **{key: round(value, 6) for key, value in stats.items()}}


def lp_counts(lps):
    """The programs' constraint-by-variable cells, and the pivots of one
    pass of ``solve_lp`` over them."""
    pivots = 0
    pivot = lp_module._pivot

    def counting(*args):
        nonlocal pivots
        pivots += 1
        return pivot(*args)

    lp_module._pivot = counting
    try:
        for lp in lps:
            lp_module.solve_lp(lp)
    finally:
        lp_module._pivot = pivot
    return {"cells": sum(len(lp.constraints) * lp.num_vars for lp in lps), "pivots": pivots}


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
        raise SystemExit(f"stage_times: cannot read {path} as a JSON list: {exc}") from None
    if not isinstance(entries, list):
        raise SystemExit(f"stage_times: {path} holds JSON that is not a list of entries")
    return entries


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", default=",".join(SETS), help="comma-separated pinned sets")
    parser.add_argument("--repeats", type=int, default=7, help="timed passes per stage")
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_stages.json"))
    args = parser.parse_args(argv)
    sets = args.sets.split(",")
    if not set(sets) <= set(SETS) or args.repeats < 1:
        parser.error(f"--sets takes names from {','.join(SETS)} and --repeats at least 1")

    entries = read_entries(args.out)
    times = {}
    with tempfile.TemporaryDirectory() as folder:
        for name in sets:
            files, lotteries, documents, programs, steps = read_set(name)
            ops = write_ops(name, files, lotteries, folder)
            calls = stage_calls(files, lotteries, documents, programs, steps, ops)
            counts = {kind: lp_counts(lps) for kind, lps in programs.items()}
            times[name] = {
                stage: {**pass_stats(calls[stage], args.repeats), **counts.get(stage, {})} for stage in STAGES
            }
    status = _git("status", "--porcelain", "--", "src")
    entry = {
        "commit": _git("rev-parse", "--short", "HEAD"),
        "src_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "sets": sets,
        "repeats": args.repeats,
        "stages": times,
    }
    entries.append(entry)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(entries, fh, indent=1)
        fh.write("\n")
    print(json.dumps(entry))
    return 0


if __name__ == "__main__":
    sys.exit(main())
