"""The benchmark's tracer still binds every layer of the program.

``bench/tracing.py`` rebinds module attributes of ``fairmix`` from outside
and reads span details through info extractors.  A refactor that renames
a bound attribute or changes the arguments an extractor reads would drop a
layer from the benchmark's trace; this runs the tracer, unedited, around
one desk solve and one certify verify and requires every binding to
install, every extractor to read its span, and the outputs to match the
untraced ones.
"""

import importlib.util
import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout

from fairmix.cli import main
from fairmix.hard import DisjointnessInput, build_hard_instance
from fairmix.serialize import dump_instance

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", os.path.join(ROOT, "bench", "tracing.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_json(path, data):
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def call(argv):
    """One CLI call as (exit code, stdout without the wall time, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    text = out.getvalue()
    if code == 0 and argv[0] == "solve":
        data = json.loads(text)
        data.pop("wall_time")
        text = json.dumps(data, sort_keys=True)
    return code, text, err.getvalue()


def test_tracer_binds_every_layer_and_changes_no_output(tmp_path):
    with open(os.path.join(ROOT, "tests", "data", "desk.json"), encoding="utf-8") as fh:
        desk = write_json(tmp_path / "desk.json", json.load(fh)[0])
    bits = (1, 0) * 5
    hard = write_json(tmp_path / "hard.json", dump_instance(build_hard_instance(DisjointnessInput(3, bits, bits))))
    # the empty point mass is dominated, so the verify solves its domination LP
    empty = write_json(tmp_path / "empty.json", {"support": [{"bundles": [[], []], "probability": "1/1"}]})
    runs = [["solve", "--instance", desk], ["verify", "--instance", hard, "--allocation", empty]]

    plain = [call(argv) for argv in runs]
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = [tracer.operation(op, call, argv) for op, argv in enumerate(runs)]
    finally:
        tracer.restore()

    assert tracer.missing == []
    assert tracer.info_errors == set()
    assert traced == plain
    assert [code for code, _, _ in plain] == [0, 3]
    infos = {span[0] for span in tracer.spans if span[5] is not None}
    assert {"engine.argmax", "engine.fallback", "engine.certify", "envy.pe", "lp.solve"} <= infos
