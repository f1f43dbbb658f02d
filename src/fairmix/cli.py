"""Command-line surface: solve, verify, envy-graph, gen-hard, verify-dichotomy, closure.

Exit codes are a stable contract:
  0  success (certified result / checks passed)
  1  input error (bad flags, an unreadable input file, an output file or
     standard output that cannot be written or is closed, schema violation)
  2  retired: once "search failed"; the search is complete, so it is never
     returned, and it is not reused
  3  verification failure (certificate or dichotomy check did not hold)
  4  internal check failed (an engine invariant broke: a bug, not bad input)

Every command is declared once, in ``_COMMANDS``.  ``_read_argv`` reads
each command line by that table, and ``-h`` or ``--help`` prints the usage
built from it.  Each command returns its text and exit code, and ``_write``
writes that text, to ``--out`` when it is given, else to standard output.
A closed standard error loses the warning and error lines; no exit code changes.
"""

import contextlib
import errno
import json
import os
import sys
import time
from types import SimpleNamespace

from .engine import find_fixed_point
from .envy import build_envy_graph, certify
from .errors import EngineInvariantError, FairmixError
from .hard import DisjointnessInput, build_hard_instance, verify_welfare_dichotomy
from .model import SHOWN_CHARS, _clipped, _shown
from .serialize import (
    dump_allocation_set,
    dump_certificate,
    dump_dichotomy_report,
    dump_instance,
    dump_solve_result,
    dump_trace_record,
    dumps,
    envy_graph_to_dot,
    load_instance,
    load_mixed_allocation,
)


# real file paths and a run of unknown words run longer than the values
# ``_shown`` echoes, so a path or those words are clipped at four times as much
_ECHO_CHARS = 4 * SHOWN_CHARS


class CliError(Exception):
    """Flag or file problem surfaced before any computation ran."""


class _Help(Exception):
    """Raised by ``_read_argv`` for ``-h`` or ``--help``, or no word at all."""


def _say(text):
    """Writes ``text`` to standard error; it is lost when that is closed (None) or fails."""
    if sys.stderr is not None:
        with contextlib.suppress(OSError):
            sys.stderr.write(text)


def _warn(message):
    _say(f"warning: {message}\n")


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


def _write(path, text):
    """Writes ``text`` to the file at ``path``, or to standard output when
    there is none; a failed write, flush or close, or a closed stdout, is one input error."""
    try:
        if path:
            with _open_for_writing(path) as fh:
                fh.write(text)
        elif sys.stdout is None:
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:
        if not path and sys.stdout is not None:
            # what stays in stdout's buffer would be written again, and fail
            # again, as the interpreter exits; it goes to the null device
            # instead.  A stream with no file behind it (a StringIO) keeps it.
            with contextlib.suppress(OSError):
                fd = sys.stdout.fileno()
                null = os.open(os.devnull, os.O_WRONLY)
                os.dup2(null, fd)
                os.close(null)
        raise _cannot_write(path or "standard output", exc) from exc


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


# Each command returns the text to write and its exit code.


def cmd_solve(args):
    inst = load_instance(_read_json(args.instance), warn=_warn)
    sink = _TraceWriter(args.trace, inst) if args.trace else None
    # the trace is the only file a solve writes itself; a failed record fails its close too
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
    return dumps(dump_solve_result(state, cert, inst, wall)), 0


def cmd_verify(args):
    inst = load_instance(_read_json(args.instance), warn=_warn)
    p = load_mixed_allocation(_read_json(args.allocation), inst)
    cert = certify(p, inst)
    return dumps(dump_certificate(cert, inst)), 0 if cert.ok else 3


def cmd_envy_graph(args):
    inst = load_instance(_read_json(args.instance), warn=_warn)
    p = load_mixed_allocation(_read_json(args.allocation), inst)
    return envy_graph_to_dot(build_envy_graph(p, inst)), 0


def cmd_gen_hard(args):
    inp = DisjointnessInput(args.p, _bits(args.x1), _bits(args.x2))
    return dumps(dump_instance(build_hard_instance(inp))), 0


def cmd_verify_dichotomy(args):
    inp = DisjointnessInput(args.p, _bits(args.x1), _bits(args.x2))
    report = verify_welfare_dichotomy(inp)
    return dumps(dump_dichotomy_report(report)), 0 if report.dichotomy_holds else 3


def cmd_closure(args):
    inst = load_instance(_read_json(args.instance))
    return dumps(dump_allocation_set(inst.allocations)), 0


# Every command, declared once: its function, synopsis and summary.  A
# synopsis lists each flag with the name of its value; a flag in brackets
# may be left out, and an ``N`` value is an int.
_COMMANDS = {
    "solve": (cmd_solve, "--instance F [--trace F]", "find a certified efficient envy-free lottery"),
    "verify": (cmd_verify, "--instance F --allocation F", "certify a given lottery"),
    "envy-graph": (cmd_envy_graph, "--instance F --allocation F", "emit the envy graph in DOT form"),
    "gen-hard": (cmd_gen_hard, "--p N --x1 BITS --x2 BITS [--out F]", "generate an intersection-hard instance"),
    "verify-dichotomy": (cmd_verify_dichotomy, "--p N --x1 BITS --x2 BITS", "certify the welfare dichotomy"),
    "closure": (cmd_closure, "--instance F", "emit the swap-closed allocation set"),
}

_FLAG_HELP = {
    "--instance": "an instance, as JSON",
    "--allocation": "a lottery, as JSON, or a whole solve result",
    "--trace": "write one JSON line per scanned vertex here",
    "--p": "half-count; m = 2p items",
    "--x1": "player 1's flags, one bit per split",
    "--x2": "player 2's flags, one bit per split",
    "--out": "write the instance here, not to standard output",
}


def _lookup(name, func, synopsis):
    """A command's lookup, built once: each flag's spelling mapped to its
    (dest, kind), the namespace's starting values (the command, its
    function and None for each flag), and each required (spelling, dest)."""
    flags, values, required = {}, {"command": name, "func": func}, []
    words = synopsis.split()
    for word, value in zip(words[::2], words[1::2]):
        spelling = word.lstrip("[")
        dest = spelling[2:].replace("-", "_")
        flags[spelling] = dest, int if value.rstrip("]") == "N" else str
        values[dest] = None
        if spelling == word:
            required.append((spelling, dest))
    return flags, values, required


_LOOKUP = {name: _lookup(name, func, synopsis) for name, (func, synopsis, _) in _COMMANDS.items()}
_HELP = ("-h", "--help")


def _usage():
    """Each command's synopsis and summary, then each flag's help."""
    lines = [f"fairmix {name} {synopsis}\n    {summary}" for name, (_, synopsis, summary) in _COMMANDS.items()]
    lines += ["", *(f"  {flag:<12}  {text}" for flag, text in _FLAG_HELP.items())]
    return "\n".join(lines) + "\n"


def _int(flag, value):
    try:
        if value.isascii() and value.isdigit():
            return int(value)
    except ValueError:  # past int's digit limit
        pass
    raise CliError(f"argument {flag}: invalid int value: {_shown(value)}")


def _read_argv(argv):
    """The namespace ``main`` runs for ``argv``: a command, then flags of
    that command in their exact spellings, each at most once and every
    required one present, each followed by a value that does not start with
    ``-`` (an int in ASCII digits).  No word at all, or ``-h`` or ``--help``
    first or right after the command, raises ``_Help``; anything else (an
    abbreviation, ``--flag=value``, a repeat, ``--``, an extra word) raises
    ``CliError`` with one line."""
    words = iter(argv)
    name = next(words, "-h")
    if name in _HELP:
        raise _Help
    lookup = _LOOKUP.get(name)
    if lookup is None:
        raise CliError(f"argument command: invalid choice: {_shown(name)} (choose from {', '.join(_COMMANDS)})")
    flags, values, required = lookup
    values = values.copy()
    unknown = []
    for word in words:
        flag = flags.get(word)
        if flag is None:
            if word in _HELP and word == argv[1]:  # right after the command
                raise _Help
            unknown.append(word)
            continue
        dest, kind = flag
        if values[dest] is not None:
            raise CliError(f"argument {word}: may be given only once")
        # a missing value reads as "-", which no value may start with
        value = next(words, "-")
        if value.startswith("-"):
            raise CliError(f"argument {word}: expected one argument")
        values[dest] = _int(word, value) if kind is int else value
    if unknown:
        raise CliError(f"unrecognized arguments: {_clipped(' '.join(unknown), _ECHO_CHARS)}")
    for _, dest in required:
        if values[dest] is None:
            missing = ", ".join(spelling for spelling, key in required if values[key] is None)
            raise CliError(f"the following arguments are required: {missing}")
    return SimpleNamespace(**values)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    try:
        try:
            args = _read_argv(argv)
        except _Help:
            if not argv:  # no command: the usage is the error
                _say(_usage())
                return 1
            _write(None, _usage())
            return 0
        text, code = args.func(args)
        _write(getattr(args, "out", None), text)
        return code
    except EngineInvariantError as exc:
        _say(f"internal check failed: {exc}\n")
        return 4
    except (CliError, FairmixError) as exc:
        _say(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
