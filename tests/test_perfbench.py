"""perfbench/selftest.py passes against this checkout, so the names its
tracer wraps and calls (PrimeSieve.__init__ as the sieve build,
configure_default_sieve, every public function binding) stay as it expects."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_selftest_passes():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run(
        [sys.executable, "perfbench/selftest.py"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )
    assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-2000:]
    assert out.stdout.splitlines()[-1] == "0 failure(s)"
