"""The README's examples run as written."""

import json
import re
import shlex
from pathlib import Path

import pytest

from deltamatroids import DeltaMatroid, SetFamily, default_ground, uniform
from deltamatroids.cli import main
from deltamatroids.rigidity import CORPUS
from deltamatroids.serialize import delta_to_json, graph_to_json, matroid_to_json

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(heading, lang):
    """The first fenced `lang` block under the README's `## heading`."""
    section = README.split(f"## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


COMMANDS = [
    shlex.split(line, comments=True)[1:]
    for line in _block("Command line", "sh").splitlines()
    if line.startswith("deltamatroids ")
]


@pytest.fixture
def readme_files(tmp_path, monkeypatch):
    """The input files the README's commands name, in the working directory."""
    g = default_ground(4)
    d = DeltaMatroid.certify(SetFamily(g, tuple(m for m in g.all_masks() if m.bit_count() in (1, 3))))
    fixtures = {
        "family.json": delta_to_json(d),
        "bases.json": matroid_to_json(uniform(2, g)),
        "upper.json": matroid_to_json(d.upper),
        "lower.json": matroid_to_json(d.lower),
        "graph.json": graph_to_json(CORPUS["triangle"]),
    }
    for name, obj in fixtures.items():
        (tmp_path / name).write_text(json.dumps(obj))
    monkeypatch.chdir(tmp_path)


def test_command_block_is_found():
    assert len(COMMANDS) >= 8


@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(a) for a in COMMANDS])
def test_command_line_example_exits_zero(argv, readme_files, capsys):
    assert main(argv) == 0, capsys.readouterr()


def test_library_quick_start_runs():
    exec(compile(_block("Library quick start", "python"), "README.md", "exec"), {})
