"""Every demo script runs to completion against the current package."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_demos_exit_zero():
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert demos
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for demo in demos:
        proc = subprocess.run(
            [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, f"{demo.name} exited {proc.returncode}:\n{proc.stderr}"
