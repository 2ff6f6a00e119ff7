"""Run a snippet under `python -O`, where asserts are stripped, to show
that a check still fires there."""

import os
import subprocess
import sys


def run_optimized(code):
    """stdout of code run by python -O with this checkout's latkit."""
    # an assert would be stripped by -O itself
    code = "import sys\nif not sys.flags.optimize:\n    raise SystemExit('not under -O')\n" + code
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()
