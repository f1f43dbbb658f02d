"""Every demo prints what it printed when its output was pinned.

Each ``demos/*.py`` runs in a fresh interpreter with ``src`` on the path,
and its stdout must equal ``tests/data/demos/<name>.txt`` byte for byte.
After a deliberate change to a demo's output, regenerate its file with
``PYTHONPATH=src python demos/<name>.py > tests/data/demos/<name>.txt``.
"""

import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))
PINNED = os.path.join(ROOT, "tests", "data", "demos")


def test_every_demo_is_pinned():
    names = [os.path.splitext(os.path.basename(d))[0] for d in DEMOS]
    assert names and sorted(os.listdir(PINNED)) == [f"{name}.txt" for name in names]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: os.path.splitext(os.path.basename(d))[0])
def test_demo_output_is_unchanged(demo):
    name = os.path.splitext(os.path.basename(demo))[0]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, demo], capture_output=True, encoding="utf-8", env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    with open(os.path.join(PINNED, f"{name}.txt"), encoding="utf-8") as fh:
        assert proc.stdout == fh.read()
