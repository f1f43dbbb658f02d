"""Command-line surface: solve, verify, envy-graph, gen-hard, verify-dichotomy, closure.

Exit codes are a stable contract:
  0  success (certified result / checks passed)
  1  input error (bad flags, an unreadable input file, an output file
     that cannot be written, at open or at write, schema violation)
  2  retired: once "search failed"; the search is complete, so it is never
     returned, and it is not reused
  3  verification failure (certificate or dichotomy check did not hold)
  4  internal check failed (an engine invariant broke: a bug, not bad input)

Each command's flags are declared once, in ``_COMMANDS``.  A plain command
line (exact flag spellings, each at most once, the required ones present,
no value starting with ``-``, an int value in ASCII digits) is read from
that table directly; anything else, help and every error included, goes
to the argparse parser built from the same table.  argparse is imported
only then, so a process that runs a plain command never loads it.
"""

import functools
import json
import sys
import time
from types import SimpleNamespace

from .engine import find_fixed_point
from .envy import build_envy_graph, certify
from .errors import EngineInvariantError, FairmixError
from .hard import DisjointnessInput, build_hard_instance, verify_welfare_dichotomy
from .model import SHOWN_CHARS, _clipped, _shown
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
    return open(path, "w", encoding="utf-8")


def _cannot_write(path, exc):
    # the OS error's own text repeats the path, so only its reason is shown
    return CliError(f"cannot write {_clipped(path, _ECHO_CHARS)}: {exc.strerror or exc}")


def _bits(text):
    if not text or any(c not in "01" for c in text):
        raise CliError(f"expected a string of 0s and 1s, got {_shown(text)}")
    return tuple(int(c) for c in text)


class _TraceWriter:
    """Streams one JSON line per scanned welfare-envelope vertex.

    The file is opened on the first record, so a solve that fails before
    its first record leaves any earlier trace untouched.
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
    inst = load_instance(_read_json(args.instance), warn=_warn)
    sink = _TraceWriter(args.trace, inst) if args.trace else None
    # the trace is the only file a solve writes; a failed record fails its close too
    try:
        try:
            start = time.perf_counter()
            state, cert = find_fixed_point(inst, trace_sink=sink)
            wall = time.perf_counter() - start
        finally:
            if sink:
                sink.close()
    except OSError as exc:
        raise _cannot_write(args.trace, exc) from exc
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
        try:
            with _open_for_writing(args.out) as fh:
                fh.write(payload)
        except OSError as exc:
            raise _cannot_write(args.out, exc) from exc
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


def _flag(spelling, metavar=None, *, required=False, default=None, kind=str, help=None):
    """One flag's row: (spelling, dest, default, required, kind, metavar,
    help); ``kind`` is ``str`` or ``int``, the type of the flag's value."""
    return spelling, spelling[2:].replace("-", "_"), default, required, kind, metavar, help


# Every command and its flags, declared once: ``build_parser`` builds the
# argparse parser from this table, and ``_read_argv`` reads a plain argv
# by it directly.
_COMMANDS = {
    "solve": (cmd_solve, "find a certified efficient envy-free lottery", (
        _flag("--instance", "F", required=True),
        _flag("--trace", "F", help="write one JSON line per scanned vertex here"),
    )),
    "verify": (cmd_verify, "certify a given lottery", (
        _flag("--instance", "F", required=True),
        _flag("--allocation", "F", required=True),
    )),
    "envy-graph": (cmd_envy_graph, "emit the envy graph in DOT form", (
        _flag("--instance", "F", required=True),
        _flag("--allocation", "F", required=True),
    )),
    "gen-hard": (cmd_gen_hard, "generate a two-player intersection-hard instance", (
        _flag("--p", "N", required=True, kind=int, help="half-count; m = 2p items"),
        _flag("--x1", "BITS", required=True),
        _flag("--x2", "BITS", required=True),
        _flag("--out", "F"),
    )),
    "verify-dichotomy": (cmd_verify_dichotomy, "certify the welfare gap between string cases", (
        _flag("--p", "N", required=True, kind=int),
        _flag("--x1", "BITS", required=True),
        _flag("--x2", "BITS", required=True),
    )),
    "closure": (cmd_closure, "emit the swap-closed allocation set", (
        _flag("--instance", "F", required=True),
    )),
}

# per command: each flag's spelling mapped to its (dest, kind), the
# namespace's starting values (the command, its function and every
# default), and the spellings that must be given
_PLAIN = {
    name: (
        {spelling: (dest, kind) for spelling, dest, _, _, kind, _, _ in flags},
        {"command": name, "func": func, **{dest: default for _, dest, default, _, _, _, _ in flags}},
        frozenset(spelling for spelling, _, _, required, _, _, _ in flags if required),
    )
    for name, (func, _, flags) in _COMMANDS.items()
}


def build_parser():
    # argparse (with the gettext it imports) loads only when a parser is
    # built: for help, an error or any argv _read_argv leaves to it
    import argparse

    class _Parser(argparse.ArgumentParser):
        # argparse exits with code 2 on bad flags by default; flag errors are
        # input errors (exit 1) under the exit-code contract, and 2 stays retired.
        # Its message echoes what was typed: a value, a flag or every extra word.
        def error(self, message):
            raise CliError(_clipped(message, _ECHO_CHARS))

    parser = _Parser(prog="fairmix", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, summary, flags) in _COMMANDS.items():
        command = sub.add_parser(name, help=summary)
        for spelling, dest, default, required, kind, metavar, text in flags:
            command.add_argument(
                spelling, dest=dest, type=kind, default=default, required=required, metavar=metavar, help=text
            )
        command.set_defaults(func=func)
    return parser


@functools.cache
def _parser():
    # built on the first call rather than at import, then reused: parsing
    # leaves the parser unchanged
    return build_parser()


def _read_argv(argv):
    """The namespace argparse builds for ``argv``, read directly, or None.

    Only a plain argv is read: a command, then flags of that command in
    their exact spellings, each at most once and every required one
    present, each followed by its value.  No value may start with ``-``
    and an int value is ASCII digits.  Anything else (``-h``, an
    abbreviation, ``--flag=value``, a repeat, ``--``, an extra word, every
    error) gives None, and argparse reads it: its help text and its error
    messages are the only ones.
    """
    words = iter(argv)
    plain = _PLAIN.get(next(words, None))
    if plain is None:
        return None
    flags, values, required = plain
    values = values.copy()
    seen = set()
    for word in words:
        flag = flags.get(word)
        if flag is None or word in seen:
            return None
        seen.add(word)
        dest, kind = flag
        # a missing value reads as "-", which no value may start with
        value = next(words, "-")
        if value.startswith("-"):
            return None
        if kind is int:
            if not (value.isascii() and value.isdigit()):
                return None
            try:
                value = int(value)
            except ValueError:  # past int's digit limit: argparse reports it
                return None
        values[dest] = value
    if not required <= seen:
        return None
    return SimpleNamespace(**values)


def _args(argv):
    """The namespace ``main`` runs for ``argv``: read directly when it is
    plain, else parsed by argparse."""
    return _read_argv(argv) or _parser().parse_args(argv)


def main(argv=None):
    try:
        args = _args(sys.argv[1:] if argv is None else argv)
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
