"""Exit-code contract and end-to-end command behaviour."""

import errno
import io
import json
import os
import re
import subprocess
import sys
import time

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import fairmix
from fairmix import cli, errors
from fairmix.cli import main
from fairmix.errors import EngineInvariantError, FairmixError
from fairmix.hard import split_count
from oracles import reference_parser


# Rationals are read only as ASCII '[-]num[/den]' strings (or JSON ints):
# a decimal, an exponent, surrounding space, a '+', an underscore and a
# non-ASCII digit are each refused with the one message below
OUTSIDE_THE_GRAMMAR = ["0.5", "1e3", "1e20000000", " 1/2", "+1/2", "1_0/3", "\u0663/4"]
EXPECTED = "expected an integer or 'num/den' in ASCII digits"


def write_json(path, data):
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def symmetric_instance(tmp_path, name="instance.json"):
    return write_json(
        tmp_path / name,
        {
            "n": 2,
            "m": 2,
            "utilities": {"type": "additive", "items": [["1/1", "1/1"], ["1/1", "1/1"]]},
            "allocations": "all_partitions",
        },
    )


def allocation_file(tmp_path, support, name="allocation.json"):
    return write_json(tmp_path / name, {"support": support})


def additive_instance_with(tmp_path, value):
    """An instance file whose first player values the one item at ``value``."""
    data = {"n": 2, "m": 1, "utilities": {"type": "additive", "items": [[value], ["1"]]}}
    return write_json(tmp_path / "value.json", {**data, "allocations": "all_partitions"})


def verify_with_probability(tmp_path, probability):
    """A verify argv whose lottery's one allocation has this probability."""
    allocation = allocation_file(tmp_path, [{"bundles": [[1], [2]], "probability": probability}])
    return ["verify", "--instance", symmetric_instance(tmp_path), "--allocation", allocation]


class TestSolve:
    def test_symmetric_instance_certifies(self, tmp_path, capsys):
        code = main(["solve", "--instance", symmetric_instance(tmp_path)])
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        assert result["certificate"]["ok"] is True
        assert result["certificate"]["ef"]["ok"] is True
        assert result["certificate"]["pe"]["ok"] is True
        assert isinstance(result["iterations"], int)
        assert isinstance(result["wall_time"], float)
        probs = [entry["probability"] for entry in result["p"]["support"]]
        assert probs, "support may not be empty"

    def test_solve_then_verify_round_trip(self, tmp_path, capsys):
        instance = symmetric_instance(tmp_path)
        assert main(["solve", "--instance", instance]) == 0
        result = json.loads(capsys.readouterr().out)
        allocation = write_json(tmp_path / "solved.json", result["p"])
        assert main(["verify", "--instance", instance, "--allocation", allocation]) == 0
        cert = json.loads(capsys.readouterr().out)
        assert cert["ok"] is True

    def test_single_player_point_mass(self, tmp_path, capsys):
        instance = write_json(
            tmp_path / "solo.json",
            {
                "n": 1,
                "m": 2,
                "utilities": {"type": "additive", "items": [["1/1", "2/1"]]},
                "allocations": "all_partitions",
            },
        )
        assert main(["solve", "--instance", instance]) == 0
        result = json.loads(capsys.readouterr().out)
        assert len(result["p"]["support"]) == 1
        assert result["p"]["support"][0]["probability"] == "1/1"

    def test_malformed_rational_is_input_error(self, tmp_path, capsys):
        instance = write_json(
            tmp_path / "bad.json",
            {
                "n": 1,
                "m": 1,
                "utilities": {"type": "table", "values": [[[0, "0/1"], [1, "1/0"]]]},
                "allocations": "all_partitions",
            },
        )
        assert main(["solve", "--instance", instance]) == 1
        assert "error" in capsys.readouterr().err

    def test_unreadable_file(self, tmp_path, capsys):
        assert main(["solve", "--instance", str(tmp_path / "missing.json")]) == 1

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["solve", "--instance", str(path)]) == 1

    def test_integer_over_the_digit_limit_is_invalid_json(self, tmp_path, capsys):
        # json parses ints through int(), which refuses strings over its digit limit
        path = tmp_path / "long.json"
        path.write_text('{"n": 1, "m": ' + "1" * 5000 + "}", encoding="utf-8")
        assert main(["solve", "--instance", str(path)]) == 1
        assert f"error: {path} is not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--instance", "--allocation"])
    def test_nesting_past_the_recursion_limit_is_invalid_json(self, flag, tmp_path, capsys):
        # the parser recurses once per open bracket, so deep nesting raises RecursionError
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
        if flag == "--instance":
            argv = ["solve", "--instance", str(path)]
        else:
            argv = ["verify", "--instance", symmetric_instance(tmp_path), "--allocation", str(path)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path} is not valid JSON") and "Traceback" not in err

    def test_bytes_that_are_not_utf8_are_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe" + "{}".encode("utf-16-le"))
        assert main(["solve", "--instance", str(path)]) == 1
        assert f"error: {path} is not valid JSON" in capsys.readouterr().err

    def test_trace_file_written(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        code = main(
            ["solve", "--instance", symmetric_instance(tmp_path), "--trace", str(trace)]
        )
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        records = [json.loads(line) for line in trace.read_text(encoding="utf-8").splitlines()]
        for rec in records:
            assert set(rec) == {"iteration", "w", "support", "residual", "nu"}
        assert [rec["iteration"] for rec in records] == list(range(1, result["iterations"] + 1))
        assert records[-1]["w"] == result["w"]
        assert records[-1]["support"] == [entry["bundles"] for entry in result["p"]["support"]]

    def test_unwritable_trace_is_input_error(self, tmp_path, capsys):
        trace = tmp_path / "missing" / "trace.jsonl"
        code = main(
            ["solve", "--instance", symmetric_instance(tmp_path), "--trace", str(trace)]
        )
        assert code == 1
        assert "error: cannot write" in capsys.readouterr().err

    def test_rejected_solve_keeps_earlier_trace(self, tmp_path, capsys, monkeypatch):
        # a solve that fails before its first record never opens the file
        def boom(inst, *, trace_sink=None):
            raise EngineInvariantError("residual zero but envy present")

        monkeypatch.setattr("fairmix.cli.find_fixed_point", boom)
        trace = tmp_path / "trace.jsonl"
        trace.write_text('{"earlier": true}\n', encoding="utf-8")
        code = main(["solve", "--instance", symmetric_instance(tmp_path), "--trace", str(trace)])
        assert code == 4
        assert "internal check failed" in capsys.readouterr().err
        assert trace.read_text(encoding="utf-8") == '{"earlier": true}\n'

    # An exponent is no part of the rational grammar, so it is refused as
    # read, never expanded; '1e20000000' once built a 66-million-bit int.
    @pytest.mark.parametrize("value", ["1e20000000", "1e5000", "1.5E+4300"])
    def test_utility_with_a_huge_exponent_is_refused(self, tmp_path, capsys, value):
        start = time.perf_counter()
        assert main(["solve", "--instance", additive_instance_with(tmp_path, value)]) == 1
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert f"field 'utilities.items[0]': bad rational {value!r}: {EXPECTED}" in err

    @pytest.mark.parametrize("value", OUTSIDE_THE_GRAMMAR)
    def test_utility_outside_the_grammar_is_refused(self, tmp_path, capsys, value):
        assert main(["solve", "--instance", additive_instance_with(tmp_path, value)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: field 'utilities.items[0]': bad rational {value!r}: {EXPECTED}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            lambda tmp_path: ["gen-hard", "--p", "1" * 5000, "--x1", "1", "--x2", "1"],
            lambda tmp_path: ["solve", "--instance", "a" * 5000],
            lambda tmp_path: ["solve", "--instance", symmetric_instance(tmp_path), "--" + "a" * 5000],
            lambda tmp_path: verify_with_probability(tmp_path, "1/" + "9" * 5000),
            lambda tmp_path: verify_with_probability(tmp_path, "x" * 5000),
        ],
        ids=["long-int-flag", "long-instance-name", "long-unknown-flag", "long-rational", "long-word"],
    )
    def test_over_long_arguments_are_clipped_in_the_error(self, tmp_path, capsys, argv):
        # argparse's message, the path or a value read from a file is
        # clipped, and the OS error's own text, which repeats the path, is
        # not shown
        assert main(argv(tmp_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert len(err.encode()) < 400 and "... (50" in err

    def test_retired_epsilon_flag_is_refused(self, tmp_path, capsys):
        # the weight floor is derived from the instance and cannot be set
        assert main(["solve", "--instance", symmetric_instance(tmp_path), "--epsilon", "1/100"]) == 1
        assert "unrecognized arguments: --epsilon 1/100" in capsys.readouterr().err

    def test_unclosed_list_warns_then_solves(self, tmp_path, capsys):
        instance = write_json(
            tmp_path / "open.json",
            {
                "n": 2,
                "m": 2,
                "utilities": {"type": "additive", "items": [["1/1", "1/1"], ["1/1", "2/1"]]},
                "allocations": [[[1], [2]]],
            },
        )
        assert main(["solve", "--instance", instance]) == 0
        assert "warning" in capsys.readouterr().err

    def test_internal_invariant_failure_maps_to_four(self, tmp_path, capsys, monkeypatch):
        def boom(inst, *, trace_sink=None):
            raise EngineInvariantError("residual zero but envy present")

        monkeypatch.setattr("fairmix.cli.find_fixed_point", boom)
        assert main(["solve", "--instance", symmetric_instance(tmp_path)]) == 4
        assert "internal check failed" in capsys.readouterr().err


class FullDisk(io.StringIO):
    """An output file that opened on a full disk: ``write`` or ``flush``,
    whichever is ``fails``, raises ENOSPC.  As with a buffered file, a
    failed write is retried by every later flush, and closing flushes, then
    closes even when that fails."""

    def __init__(self, fails):
        super().__init__()
        self.fails = fails

    def write(self, text):
        if self.fails == "write":
            self.fails = "flush"
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return super().write(text)

    def flush(self):
        if self.fails == "flush" and not self.closed:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def close(self):
        try:
            self.flush()
        finally:
            super().close()


def output_argv(command, tmp_path, path):
    if command == "gen-hard":
        return ["gen-hard", "--p", "1", "--x1", "1", "--x2", "1", "--out", path]
    return ["solve", "--instance", symmetric_instance(tmp_path), "--trace", path]


class TestFailedWrite:
    # an output file that opens but cannot be written is reported as one
    # that cannot be opened: one clipped line naming it and the OS's
    # reason, exit 1, and the file closed; the failed write is retried as
    # the file closes, and fails again, with no second message
    @pytest.mark.parametrize("fails", ["write", "flush"])
    @pytest.mark.parametrize("command", ["gen-hard", "solve"])
    def test_a_failed_write_is_one_input_error(self, tmp_path, capsys, monkeypatch, command, fails):
        opened = []

        def full_disk(path):
            opened.append(FullDisk(fails))
            return opened[-1]

        monkeypatch.setattr(cli, "_open_for_writing", full_disk)
        path = "F" * 5000
        assert main(output_argv(command, tmp_path, path)) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: cannot write {cli._clipped(path, cli._ECHO_CHARS)}: {os.strerror(errno.ENOSPC)}\n"
        assert len(err) < 400
        assert len(opened) == 1 and opened[0].closed

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    @pytest.mark.parametrize("command", ["gen-hard", "solve"])
    def test_a_full_device_is_one_input_error(self, tmp_path, capsys, command):
        assert main(output_argv(command, tmp_path, "/dev/full")) == 1
        assert capsys.readouterr().err == f"error: cannot write /dev/full: {os.strerror(errno.ENOSPC)}\n"


def fresh_fairmix(argv, buffered=True, **kwargs):
    """``python -m fairmix`` in a fresh process, on the fairmix this process
    imports, with its standard output buffered as usual or unbuffered."""
    src = os.path.dirname(os.path.dirname(fairmix.__file__))
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, "-m", "fairmix", *argv], env=env, timeout=60, **kwargs)


def stdout_argv(command, tmp_path):
    if command == "gen-hard":
        return ["gen-hard", "--p", "2", "--x1", "100", "--x2", "100"]
    if command == "solve":
        return ["solve", "--instance", symmetric_instance(tmp_path)]
    return ["-h"]


class TestFailedStdout:
    # every result that goes to standard output is written, then flushed, by
    # the one writer: a write that fails there is the same one input error
    # line as a file that cannot be written, exit 1.  A buffered stdout
    # fails at the flush, and the bytes left in its buffer are not retried,
    # with a second message and exit 120, as the process exits; an
    # unbuffered one fails at the write
    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("command", ["gen-hard", "solve", "help"])
    def test_a_full_stdout_is_one_input_error(self, tmp_path, command, buffered):
        argv = stdout_argv(command, tmp_path)
        with open("/dev/full", "w", encoding="utf-8") as full:
            proc = fresh_fairmix(argv, buffered, stdout=full, stderr=subprocess.PIPE, encoding="utf-8")
        assert proc.returncode == 1
        assert proc.stderr == "error: cannot write standard output: No space left on device\n"

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("command", ["gen-hard", "solve"])
    def test_a_closed_pipe_is_one_input_error(self, tmp_path, command, buffered):
        # the pipe's reading end is closed before the process starts
        argv = stdout_argv(command, tmp_path)
        read, write = os.pipe()
        os.close(read)
        try:
            proc = fresh_fairmix(argv, buffered, stdout=write, stderr=subprocess.PIPE, encoding="utf-8")
        finally:
            os.close(write)
        assert proc.returncode == 1
        assert proc.stderr == f"error: cannot write standard output: {os.strerror(errno.EPIPE)}\n"

    @pytest.mark.parametrize("fails", ["write", "flush"])
    @pytest.mark.parametrize("command", ["gen-hard", "solve", "help"])
    def test_a_failed_write_in_process_is_one_input_error(self, tmp_path, capsys, monkeypatch, command, fails):
        # a stream with no file behind it: its fileno raises, so no
        # descriptor of this process is touched
        argv = stdout_argv(command, tmp_path)
        stdout = FullDisk(fails)
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(argv) == 1
        stdout.fails = None  # what it keeps can be flushed as it is collected
        assert capsys.readouterr().err == f"error: cannot write standard output: {os.strerror(errno.ENOSPC)}\n"


FAIRMIX_ERRORS = sorted(
    (c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, FairmixError)),
    key=lambda c: c.__name__,
)


@pytest.mark.parametrize("error", FAIRMIX_ERRORS, ids=lambda c: c.__name__)
def test_every_library_error_has_an_exit_code(error, tmp_path, capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise error("raised on purpose")

    monkeypatch.setattr("fairmix.cli.load_instance", boom)
    code = main(["closure", "--instance", symmetric_instance(tmp_path)])
    err = capsys.readouterr().err
    if error is EngineInvariantError:
        assert code == 4 and err == "internal check failed: raised on purpose\n"
    else:
        assert code == 1 and err == "error: raised on purpose\n"


class TestVerify:
    def test_all_to_one_fails_with_witness(self, tmp_path, capsys):
        instance = symmetric_instance(tmp_path)
        allocation = allocation_file(
            tmp_path, [{"bundles": [[1, 2], []], "probability": "1/1"}]
        )
        code = main(["verify", "--instance", instance, "--allocation", allocation])
        assert code == 3
        cert = json.loads(capsys.readouterr().out)
        assert cert["ef"]["witness"] == {"envious": 2, "envied": 1, "margin": "1/1"}

    def test_split_lottery_passes(self, tmp_path, capsys):
        instance = symmetric_instance(tmp_path)
        allocation = allocation_file(
            tmp_path,
            [
                {"bundles": [[1], [2]], "probability": "1/2"},
                {"bundles": [[2], [1]], "probability": "1/2"},
            ],
        )
        assert main(["verify", "--instance", instance, "--allocation", allocation]) == 0

    def test_empty_point_mass_fails_efficiency(self, tmp_path, capsys):
        instance = symmetric_instance(tmp_path)
        allocation = allocation_file(tmp_path, [{"bundles": [[], []], "probability": "1/1"}])
        code = main(["verify", "--instance", instance, "--allocation", allocation])
        assert code == 3
        cert = json.loads(capsys.readouterr().out)
        assert cert["pe"]["ok"] is False
        assert cert["pe"]["dominator"] is not None

    def test_probabilities_not_summing_to_one(self, tmp_path, capsys):
        instance = symmetric_instance(tmp_path)
        allocation = allocation_file(tmp_path, [{"bundles": [[1], [2]], "probability": "1/2"}])
        assert main(["verify", "--instance", instance, "--allocation", allocation]) == 1

    def test_allocation_outside_the_set_is_refused(self, tmp_path, capsys):
        # a listed set holds only its closure: one bundle of both items is not in it
        instance = write_json(
            tmp_path / "listed.json",
            {
                "n": 2,
                "m": 2,
                "utilities": {"type": "additive", "items": [["1", "3"], ["1", "2"]]},
                "allocations": [[[1], [2]], [[2], [1]]],
            },
        )
        allocation = allocation_file(tmp_path, [{"bundles": [[1, 2], []], "probability": "1/1"}])
        assert main(["verify", "--instance", instance, "--allocation", allocation]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: field 'support[0]': allocation [[1, 2], []] is not in the instance's set\n"

    @pytest.mark.parametrize("probability", ["1e-20000000", "0.5e-4300", "1e5000"])
    def test_probability_with_a_huge_exponent_is_refused(self, tmp_path, capsys, probability):
        start = time.perf_counter()
        assert main(verify_with_probability(tmp_path, probability)) == 1
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert f"field 'support[0]': bad rational {probability!r}: {EXPECTED}" in err

    @pytest.mark.parametrize("probability", OUTSIDE_THE_GRAMMAR)
    def test_probability_outside_the_grammar_is_refused(self, tmp_path, capsys, probability):
        assert main(verify_with_probability(tmp_path, probability)) == 1
        err = capsys.readouterr().err
        assert err == f"error: field 'support[0]': bad rational {probability!r}: {EXPECTED}\n"


class TestEnvyGraph:
    def test_envious_allocation_edge(self, tmp_path, capsys):
        instance = symmetric_instance(tmp_path)
        allocation = allocation_file(
            tmp_path, [{"bundles": [[1, 2], []], "probability": "1/1"}]
        )
        assert main(["envy-graph", "--instance", instance, "--allocation", allocation]) == 0
        out = capsys.readouterr().out
        assert '2 -> 1 [label="1/1"];' in out
        assert "// acyclic: true" in out

    def test_envy_free_allocation_has_no_edges(self, tmp_path, capsys):
        instance = symmetric_instance(tmp_path)
        allocation = allocation_file(
            tmp_path,
            [
                {"bundles": [[1], [2]], "probability": "1/2"},
                {"bundles": [[2], [1]], "probability": "1/2"},
            ],
        )
        assert main(["envy-graph", "--instance", instance, "--allocation", allocation]) == 0
        assert "->" not in capsys.readouterr().out


class TestGenHard:
    def test_emits_expected_tables(self, capsys):
        assert main(["gen-hard", "--p", "1", "--x1", "1", "--x2", "1"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["n"] == 2 and data["m"] == 2
        assert data["allocations"] == "all_partitions"
        assert data["utilities"]["values"][0] == [
            [0, "0/1"],
            [1, "3/1"],
            [2, "2/1"],
            [3, "3/1"],
        ]
        assert data["utilities"]["values"][1] == [
            [0, "0/1"],
            [1, "2/1"],
            [2, "3/1"],
            [3, "3/1"],
        ]

    def test_p3_output_is_pinned(self, capsys):
        # dump_instance writes the raw values from their int form, as Fractions
        # built on demand; tests/data/gen_hard_p3.json pins every byte
        assert main(["gen-hard", "--p", "3", "--x1", "1010101010", "--x2", "0110011001"]) == 0
        with open(os.path.join(os.path.dirname(__file__), "data", "gen_hard_p3.json"), encoding="utf-8") as fh:
            assert capsys.readouterr().out == fh.read()

    def test_out_file_then_solve(self, tmp_path, capsys):
        out = tmp_path / "hard.json"
        assert main(["gen-hard", "--p", "1", "--x1", "1", "--x2", "1", "--out", str(out)]) == 0
        assert main(["solve", "--instance", str(out)]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["certificate"]["ok"] is True

    def test_unwritable_out_file_is_input_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "hard.json"
        assert main(["gen-hard", "--p", "1", "--x1", "1", "--x2", "1", "--out", str(out)]) == 1
        assert "error: cannot write" in capsys.readouterr().err

    def test_wrong_bit_length(self, capsys):
        assert main(["gen-hard", "--p", "2", "--x1", "1", "--x2", "101"]) == 1

    def test_non_binary_bits(self, capsys):
        assert main(["gen-hard", "--p", "1", "--x1", "2", "--x2", "0"]) == 1

    @pytest.mark.parametrize("command", ["gen-hard", "verify-dichotomy"])
    @pytest.mark.parametrize("p", [100_000, 1_000_000])
    def test_short_bits_with_a_huge_half_count(self, command, p, capsys):
        # 2p items pass the 24-item cap: one range check refuses p before
        # the strings are read, and C(2p, p) is never built
        start = time.perf_counter()
        assert main([command, "--p", str(p), "--x1", "1", "--x2", "1"]) == 1
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: half-count must be an integer in 1..12, got {p}")
        assert "Traceback" not in err

    def test_wrong_bit_length_names_r(self, capsys):
        assert main(["gen-hard", "--p", "3", "--x1", "1", "--x2", "1"]) == 1
        assert capsys.readouterr().err == "error: x1 has 1 bits, expected r = 10 for p = 3\n"


class TestVerifyDichotomy:
    # p = 4 (r = 35) and p = 5 (r = 126) are under the allocation budget,
    # at 3^8 and 3^10 allocations; each string flags every third index
    # from ``start``, so strings of different starts are disjoint
    @staticmethod
    def strings(p, start):
        return "".join("1" if j % 3 == start else "0" for j in range(split_count(p)))

    def test_intersecting_pair(self, capsys):
        pairs = [("1", "1", "1")] + [(str(p), self.strings(p, 0), self.strings(p, 0)) for p in (4, 5)]
        for p, x1, x2 in pairs:
            assert main(["verify-dichotomy", "--p", p, "--x1", x1, "--x2", x2]) == 0
            report = json.loads(capsys.readouterr().out)
            assert report["intersecting"] is True
            assert report["dichotomy_holds"] is True

    def test_disjoint_pair(self, capsys):
        pairs = [("2", "100", "010")] + [(str(p), self.strings(p, 0), self.strings(p, 1)) for p in (4, 5)]
        for p, x1, x2 in pairs:
            assert main(["verify-dichotomy", "--p", p, "--x1", x1, "--x2", x2]) == 0
            report = json.loads(capsys.readouterr().out)
            assert report["intersecting"] is False
            assert report["dichotomy_holds"] is True


class TestClosure:
    def test_emits_closed_set(self, tmp_path, capsys):
        instance = write_json(
            tmp_path / "open.json",
            {
                "n": 2,
                "m": 2,
                "utilities": {"type": "additive", "items": [["1/1", "1/1"], ["1/1", "1/1"]]},
                "allocations": [[[1], [2]]],
            },
        )
        assert main(["closure", "--instance", instance]) == 0
        closed = json.loads(capsys.readouterr().out)
        assert [[1], [2]] in closed and [[2], [1]] in closed


class TestFlagContract:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_unknown_flag(self, tmp_path, capsys):
        assert main(["solve", "--instance", symmetric_instance(tmp_path), "--bogus"]) == 1

    def test_removed_grid_flag_is_unknown(self, tmp_path, capsys):
        assert main(["solve", "--instance", symmetric_instance(tmp_path), "--grid", "4"]) == 1

    def test_removed_max_iters_flag_is_unknown(self, tmp_path, capsys):
        instance = symmetric_instance(tmp_path)
        assert main(["solve", "--instance", instance, "--max-iters", "16"]) == 1

    def test_removed_strict_flag_is_unknown(self, tmp_path, capsys):
        # explicit allocation lists are always closed, with a warning
        assert main(["solve", "--instance", symmetric_instance(tmp_path), "--strict"]) == 1
        assert "unrecognized arguments: --strict" in capsys.readouterr().err

    def test_missing_required_flag(self, capsys):
        assert main(["solve"]) == 1

    def test_no_command(self, capsys):
        assert main([]) == 1

    def test_module_entry_point(self, tmp_path):
        # the child imports the same fairmix as this process, however the
        # test run put it on the path
        src = os.path.dirname(os.path.dirname(fairmix.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "fairmix", "gen-hard", "--p", "1", "--x1", "1", "--x2", "0"],
            capture_output=True,
            encoding="utf-8",
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["n"] == 2

    def test_import_loads_no_code_generation_modules(self):
        # a fresh process pays for every module the CLI imports; these pull
        # in source parsing and disassembly that no operation needs, and
        # neither graphlib, which only envy-graph's cycle check imports, nor
        # __future__, which no module's annotations need, may load either
        src = os.path.dirname(os.path.dirname(fairmix.__file__))
        code = (
            "import sys; sys.path.insert(0, sys.argv[1]); import fairmix.cli; "
            "print(sorted({'dataclasses', 'inspect', 'ast', 'dis', 'tokenize', 'graphlib', '__future__'}"
            " & set(sys.modules)))"
        )
        proc = subprocess.run([sys.executable, "-I", "-c", code, src], capture_output=True, encoding="utf-8")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"


    def test_a_plain_verify_loads_no_argparse(self, tmp_path):
        # every command line is read without argparse, and neither it nor
        # the gettext it imports loads for an error or for help either
        src = os.path.dirname(os.path.dirname(fairmix.__file__))
        instance = symmetric_instance(tmp_path)
        lottery = allocation_file(tmp_path, [{"bundles": [[1], [2]], "probability": "1/1"}])
        code = (
            "import sys; sys.path.insert(0, sys.argv[1]); from fairmix.cli import main; "
            "code = main(sys.argv[2:]); print(code, sorted({'argparse', 'gettext'} & set(sys.modules)))"
        )
        argv = [sys.executable, "-I", "-c", code, src, "verify", "--instance", instance, "--allocation", lottery]
        proc = subprocess.run(argv, capture_output=True, encoding="utf-8")
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.splitlines()[-1] == "0 []"
        proc = subprocess.run([*argv, "--bogus"], capture_output=True, encoding="utf-8")
        assert proc.stdout == "1 []\n"
        assert proc.stderr == "error: unrecognized arguments: --bogus\n"
        proc = subprocess.run([*argv[:5], "-h"], capture_output=True, encoding="utf-8")
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.startswith("fairmix solve ") and proc.stdout.splitlines()[-1] == "0 []"


REFERENCE = reference_parser()
# words a command line is drawn from: every flag spelling, abbreviations,
# "=" forms, help and the end-of-flags marker, and values that are plain,
# empty, start with "-", or are int-like without being ASCII digits
FLAGS = sorted({spelling for flags, _, _ in cli._LOOKUP.values() for spelling in flags})
WORDS = [
    *FLAGS,
    *cli._COMMANDS,
    "--inst", "--alloc", "--eps", "--tr", "--x", "--o", "--instance=F", "--p=3", "--strict",
    "-h", "--help", "--", "-", "-x", "-1", "--bogus",
    "F", "a b", "", "0", "3", "007", "1" * 5000, "x", " 3", "+3", "3_0", "\u0663", "\u00b3",
]


@st.composite
def plain_argvs(draw):
    """A command, then its required flags and some of its others in any
    order, each with a plain value or one drawn from ``WORDS``."""
    name = draw(st.sampled_from(sorted(cli._COMMANDS)))
    flags, _, required = cli._LOOKUP[name]
    needed = {spelling for spelling, _ in required}
    argv = [name]
    for spelling in draw(st.permutations(sorted(flags))):
        if spelling in needed or draw(st.booleans()):
            argv.extend([spelling, draw(st.one_of(st.sampled_from(["F", "2", "10"]), st.sampled_from(WORDS)))])
    return argv


class TestReadArgv:
    """The one reader gives the namespace argparse builds, or refuses."""

    @given(
        st.one_of(
            plain_argvs(),
            st.lists(st.sampled_from(WORDS), max_size=8),
            st.builds(
                lambda name, rest: [name, *rest],
                st.sampled_from(sorted(cli._COMMANDS)),
                st.lists(st.sampled_from(WORDS), max_size=7),
            ),
        )
    )
    @example(["solve", "--instance", "F"])
    @example(["solve", "--trace", "T", "--instance", "F"])
    @example(["gen-hard", "--p", "007", "--x1", "1", "--x2", "0", "--out", ""])
    @example(["gen-hard", "--p", "1" * 5000, "--x1", "1", "--x2", "0"])
    @example(["verify-dichotomy", "--p", "\u0663", "--x1", "1", "--x2", "0"])
    @example(["verify", "--instance", "F", "--allocation"])
    def test_reader_agrees_with_argparse(self, argv):
        # whatever is not refused, and is not a request for help, reads as
        # argparse reads it
        try:
            got = cli._read_argv(argv)
        except (cli.CliError, cli._Help):
            return
        assert vars(got) == vars(REFERENCE.parse_args(argv))

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--instance", "F"],
            ["solve", "--instance", "F", "--trace", "T"],
            ["verify", "--allocation", "L", "--instance", "F"],
            ["envy-graph", "--instance", "F", "--allocation", "L"],
            ["gen-hard", "--p", "3", "--x1", "10", "--x2", "01", "--out", "H"],
            ["verify-dichotomy", "--p", "2", "--x1", "1", "--x2", "0"],
            ["closure", "--instance", "F"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_every_command_is_read_directly(self, argv):
        assert vars(cli._read_argv(argv)) == vars(REFERENCE.parse_args(argv))

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["frobnicate"], "argument command: invalid choice: 'frobnicate' (choose from solve, verify, "),
            (["solve", "--inst", "F"], "unrecognized arguments: --inst F"),
            (["solve", "--instance=F"], "unrecognized arguments: --instance=F"),
            (["solve", "--instance", "F", "--instance", "G"], "argument --instance: may be given only once"),
            (["solve", "--instance", "F", "--trace", "T", "--trace", "U"], "argument --trace: may be given only once"),
            (["solve", "--", "--instance", "F"], "unrecognized arguments: --"),
            (["solve", "--instance", "F", "extra"], "unrecognized arguments: extra"),
            (["solve", "--instance", "F", "-h"], "unrecognized arguments: -h"),
            (["solve", "--instance", "-F"], "argument --instance: expected one argument"),
            (["solve", "--instance"], "argument --instance: expected one argument"),
            (["solve", "--trace", "T"], "the following arguments are required: --instance"),
            (["gen-hard", "--p", "1"], "the following arguments are required: --x1, --x2"),
            (["gen-hard", "--p", " 3", "--x1", "1", "--x2", "0"], "argument --p: invalid int value: ' 3'"),
            (["gen-hard", "--p", "+3", "--x1", "1", "--x2", "0"], "argument --p: invalid int value: '+3'"),
            (["gen-hard", "--p", "3_0", "--x1", "1", "--x2", "0"], "argument --p: invalid int value: '3_0'"),
            (["gen-hard", "--p", "\u0663", "--x1", "1", "--x2", "0"], "argument --p: invalid int value: '\u0663'"),
            (["gen-hard", "--p", "1" * 5000, "--x1", "1", "--x2", "0"], "argument --p: invalid int value: '111"),
        ],
        ids=[
            "unknown-command", "abbreviation", "equals", "repeat", "repeat-optional", "end-of-flags", "extra-word",
            "late-help", "dash-value", "missing-value", "missing-required", "missing-two", "spaced-int", "plus-int",
            "underscore-int", "non-ascii-int", "long-int",
        ],
    )
    def test_anything_else_is_refused(self, argv, message, capsys):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {message}") and err.count("\n") == 1
        assert "Traceback" not in err and len(err) < 400

    @pytest.mark.parametrize(
        "argv",
        [["-h"], ["--help"], ["solve", "-h"], ["closure", "--help", "--bogus"]],
        ids=["h", "help", "solve-h", "closure-help"],
    )
    def test_help_prints_the_usage(self, argv, capsys):
        # the usage names every command with its synopsis and summary, and
        # every flag with its help
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert err == "" and out == cli._usage()
        for name, (_, synopsis, summary) in cli._COMMANDS.items():
            assert f"fairmix {name} {synopsis}\n    {summary}\n" in out
        for flag in FLAGS:
            assert re.search(f"^  {flag} +[a-z]", out, re.MULTILINE), flag

    def test_no_word_prints_the_usage_as_the_error(self, capsys):
        assert main([]) == 1
        assert capsys.readouterr() == ("", cli._usage())

    def test_the_readme_shows_the_usage(self):
        with open(os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md"), encoding="utf-8") as fh:
            assert f"```\n{cli._usage()}```\n" in fh.read()


def test_session_without_default_encodings(tmp_path):
    # every file the CLI reads or writes names its encoding, so a session
    # run with default-encoding warnings raised as errors still succeeds
    src = os.path.dirname(os.path.dirname(fairmix.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    strict = [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning", "-m", "fairmix"]

    def run(*argv):
        proc = subprocess.run([*strict, *argv], capture_output=True, encoding="utf-8", env=env, cwd=tmp_path)
        assert (proc.returncode, proc.stderr) == (0, ""), argv
        return proc.stdout

    run("gen-hard", "--p", "2", "--x1", "100", "--x2", "100", "--out", "hard.json")
    result = json.loads(run("solve", "--instance", "hard.json", "--trace", "trace.jsonl"))
    assert (tmp_path / "trace.jsonl").read_text(encoding="utf-8").count("\n") == result["iterations"]
    write_json(tmp_path / "lottery.json", result["p"])
    assert json.loads(run("verify", "--instance", "hard.json", "--allocation", "lottery.json"))["ok"]


class TestRepeatedMain:
    def test_in_process_calls_match_fresh_processes(self, tmp_path, capsys):
        # every in-process call must print what a fresh process prints,
        # wall time aside, whatever ran before it in the same process
        instance = symmetric_instance(tmp_path)
        lottery = allocation_file(
            tmp_path,
            [
                {"bundles": [[1], [2]], "probability": "1/2"},
                {"bundles": [[2], [1]], "probability": "1/2"},
            ],
        )
        runs = [
            ["solve", "--instance", instance],
            ["solve", "--instance", instance, "--bogus"],
            ["verify", "--instance", instance, "--allocation", lottery],
            ["-h"],
            ["solve", "--instance", instance],
        ]

        def scrub(text):
            return re.sub(r'"wall_time": [^,}\n]+', '"wall_time": 0', text)

        codes = []
        for argv in runs:
            codes.append(main(argv))
            out, err = capsys.readouterr()
            fresh = fresh_fairmix(argv, capture_output=True, encoding="utf-8")
            assert (codes[-1], scrub(out), err) == (fresh.returncode, scrub(fresh.stdout), fresh.stderr)
        assert codes == [0, 1, 0, 0, 0]
