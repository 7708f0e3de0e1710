"""The exhaustive CLI reports keep their bytes.

`golden_cli.json` maps each command line to the SHA-256 of its stdout
followed by its exit code.  A change that means to alter one of these
outputs regenerates the file and says so:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

from deltamatroids.cli import main
from deltamatroids.search import PROPERTY_IDS

GOLDEN = Path(__file__).resolve().with_name("golden_cli.json")

COMMANDS = [
    *(f"enumerate {kind} --n {n}" for kind in ("matroid", "delta") for n in range(5)),
    *(f"verify {pid} --n {n}" for pid in PROPERTY_IDS for n in range(5)),
    *(f"search unpairable --n {n}" for n in range(1, 6)),
    "cone-check --corpus",
]
LINES = [f"--format {fmt} {c}" for c in COMMANDS for fmt in ("json", "text")]


def _digest(command: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(command.split())
    return hashlib.sha256(f"{out.getvalue()}exit {code}\n".encode()).hexdigest()


def test_cli_reports_match_golden_hashes():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(LINES)
    assert [c for c in LINES if _digest(c) != golden[c]] == []


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({c: _digest(c) for c in LINES}, indent=1) + "\n")
