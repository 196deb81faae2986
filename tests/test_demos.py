"""Every demo script runs to completion against the installed API, with
any warning an error, as in the test suite."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import weingarten

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_runs(tmp_path, demo):
    env = dict(os.environ)
    src = str(Path(weingarten.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-W", "error", str(demo)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
