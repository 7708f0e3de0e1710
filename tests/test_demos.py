"""The demos run and keep their bytes.

`golden_demos.json` maps each demo's file name to the SHA-256 of its stdout.
A change that means to alter a demo's output regenerates the file and says so:

    PYTHONPATH=src python tests/test_demos.py
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).resolve().with_name("golden_demos.json")


def _run(demo: Path) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=300)


def _digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode()).hexdigest()


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    out = _run(demo)
    assert out.returncode == 0, out.stderr
    assert _digest(out.stdout) == json.loads(GOLDEN.read_text())[demo.name]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({d.name: _digest(_run(d).stdout) for d in DEMOS}, indent=1) + "\n")
