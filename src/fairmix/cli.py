"""Command-line surface: solve, verify, envy-graph, gen-hard, verify-dichotomy, closure.

Exit codes are a stable contract:
  0  success (certified result / checks passed)
  1  input error (bad flags, unreadable input or unwritable output file,
     schema violation)
  2  retired: once "search failed"; the search is complete, so it is never
     returned, and it is not reused
  3  verification failure (certificate or dichotomy check did not hold)
  4  internal check failed (an engine invariant broke: a bug, not bad input)
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from .engine import find_fixed_point
from .envy import build_envy_graph, certify
from .errors import EngineInvariantError, FairmixError
from .hard import DisjointnessInput, build_hard_instance, verify_welfare_dichotomy
from .model import SHOWN_CHARS, _clipped, _shown, as_fraction
from .serialize import (
    dump_certificate,
    dump_dichotomy_report,
    dump_instance,
    dump_solve_result,
    dump_trace_record,
    dumps,
    envy_graph_to_dot,
    load_instance,
    load_mixed_allocation,
    mask_to_items,
)


# argparse's own words and real file paths run longer than the values
# ``_shown`` echoes, so a message or path is clipped at four times as much
_ECHO_CHARS = 4 * SHOWN_CHARS


class CliError(Exception):
    """Flag or file problem surfaced before any computation ran."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags by default; flag errors are
    # input errors (exit 1) under the exit-code contract, and 2 stays retired.
    # Its message echoes what was typed: a value, a flag or every extra word.
    def error(self, message):
        raise CliError(_clipped(message, _ECHO_CHARS))


def _warn(message):
    print(f"warning: {message}", file=sys.stderr)


def _read_json(path):
    """The file's JSON, read as UTF-8; a decode error, a syntax error or an
    int over Python's digit limit (all ``ValueError``), or nesting past the
    parser's recursion limit (``RecursionError``), is not valid JSON."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read {_clipped(path, _ECHO_CHARS)}: {exc.strerror or exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise CliError(f"{_clipped(path, _ECHO_CHARS)} is not valid JSON: {exc}") from exc


def _open_for_writing(path):
    # the OS error's own text repeats the path, so only its reason is shown
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot write {_clipped(path, _ECHO_CHARS)}: {exc.strerror or exc}") from exc


def _bits(text):
    if not text or any(c not in "01" for c in text):
        raise CliError(f"expected a string of 0s and 1s, got {_shown(text)}")
    return tuple(int(c) for c in text)


class _TraceWriter:
    """Streams one JSON line per scanned welfare-envelope vertex.

    The file is opened on the first record, so a solve rejected before the
    scan (a bad ``--epsilon``, say) leaves any earlier trace untouched.
    """

    def __init__(self, path, inst):
        self.path = path
        self.inst = inst
        self.fh = None

    def append(self, rec):
        if self.fh is None:
            self.fh = _open_for_writing(self.path)
        self.fh.write(json.dumps(dump_trace_record(rec, self.inst)) + "\n")
        self.fh.flush()

    def close(self):
        if self.fh is not None:
            self.fh.close()


def cmd_solve(args):
    inst = load_instance(_read_json(args.instance), strict=args.strict, warn=_warn)
    epsilon = "auto" if args.epsilon == "auto" else as_fraction(args.epsilon)
    sink = _TraceWriter(args.trace, inst) if args.trace else None
    try:
        start = time.perf_counter()
        state, cert = find_fixed_point(inst, epsilon, trace_sink=sink)
        wall = time.perf_counter() - start
    finally:
        if sink:
            sink.close()
    sys.stdout.write(dumps(dump_solve_result(state, cert, inst, wall)))
    return 0


def cmd_verify(args):
    inst = load_instance(_read_json(args.instance), warn=_warn)
    p = load_mixed_allocation(_read_json(args.allocation), inst)
    cert = certify(p, inst)
    sys.stdout.write(dumps(dump_certificate(cert, inst)))
    return 0 if cert.ok else 3


def cmd_envy_graph(args):
    inst = load_instance(_read_json(args.instance), warn=_warn)
    p = load_mixed_allocation(_read_json(args.allocation), inst)
    sys.stdout.write(envy_graph_to_dot(build_envy_graph(p, inst)))
    return 0


def cmd_gen_hard(args):
    inp = DisjointnessInput(args.p, _bits(args.x1), _bits(args.x2))
    payload = dumps(dump_instance(build_hard_instance(inp)))
    if args.out:
        with _open_for_writing(args.out) as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return 0


def cmd_verify_dichotomy(args):
    inp = DisjointnessInput(args.p, _bits(args.x1), _bits(args.x2))
    report = verify_welfare_dichotomy(inp)
    sys.stdout.write(dumps(dump_dichotomy_report(report)))
    return 0 if report.dichotomy_holds else 3


def cmd_closure(args):
    inst = load_instance(_read_json(args.instance))
    closed = [[mask_to_items(b) for b in bs] for bs in inst.allocations.bundles]
    sys.stdout.write(dumps(closed))
    return 0


def build_parser():
    parser = _Parser(prog="fairmix", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="find a certified efficient envy-free lottery")
    solve.add_argument("--instance", required=True, metavar="F")
    solve.add_argument("--epsilon", default="auto", metavar="Q", help="weight floor, a rational or 'auto'")
    solve.add_argument("--trace", metavar="F", help="write one JSON line per scanned vertex here")
    solve.add_argument("--strict", action="store_true", help="reject allocation lists that need closing")
    solve.set_defaults(func=cmd_solve)

    verify = sub.add_parser("verify", help="certify a given lottery")
    verify.add_argument("--instance", required=True, metavar="F")
    verify.add_argument("--allocation", required=True, metavar="F")
    verify.set_defaults(func=cmd_verify)

    graph = sub.add_parser("envy-graph", help="emit the envy graph in DOT form")
    graph.add_argument("--instance", required=True, metavar="F")
    graph.add_argument("--allocation", required=True, metavar="F")
    graph.set_defaults(func=cmd_envy_graph)

    gen = sub.add_parser("gen-hard", help="generate a two-player intersection-hard instance")
    gen.add_argument("--p", type=int, required=True, metavar="N", help="half-count; m = 2p items")
    gen.add_argument("--x1", required=True, metavar="BITS")
    gen.add_argument("--x2", required=True, metavar="BITS")
    gen.add_argument("--out", metavar="F")
    gen.set_defaults(func=cmd_gen_hard)

    dich = sub.add_parser("verify-dichotomy", help="certify the welfare gap between string cases")
    dich.add_argument("--p", type=int, required=True, metavar="N")
    dich.add_argument("--x1", required=True, metavar="BITS")
    dich.add_argument("--x2", required=True, metavar="BITS")
    dich.set_defaults(func=cmd_verify_dichotomy)

    closure = sub.add_parser("closure", help="emit the swap-closed allocation set")
    closure.add_argument("--instance", required=True, metavar="F")
    closure.set_defaults(func=cmd_closure)

    return parser


@functools.cache
def _parser():
    # built on the first call rather than at import, then reused: parsing
    # leaves the parser unchanged
    return build_parser()


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except EngineInvariantError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 4
    except FairmixError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
