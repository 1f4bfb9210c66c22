"""The quick demos run to completion (the bracket evolution is left out:
it takes about two minutes).  The command-line tour exits non-zero at the
first failing command, so it is the end-to-end test of every subcommand,
`ccsolid optimize` on a subdivided mesh included."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("demo", ["subdivision_basics", "spline_from_subdivision",
                                  "cantilever_analysis", "files_and_commands"])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", demo + ".py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
