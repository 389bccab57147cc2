"""Every demo script, and every example in the README, runs to completion
against the package in this tree."""

import os
import pathlib
import shlex
import subprocess
import sys

import pytest

import sievelab
from sievelab import cli

DEMOS = pathlib.Path(__file__).resolve().parents[1] / "demos"
README = DEMOS.parent / "README.md"
SRC = pathlib.Path(sievelab.__file__).resolve().parents[1]


def readme_block(heading, lang):
    """The first ```lang block in the README section headed `## heading`."""
    section = README.read_text().split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return section.split(f"```{lang}\n", 1)[1].split("\n```", 1)[0]


@pytest.mark.parametrize("script", sorted(DEMOS.glob("*.py")), ids=lambda p: p.name)
def test_demo_runs(script):
    done = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert done.returncode == 0, done.stderr[-2000:]


def test_readme_quick_taste_runs(capsys):
    exec(compile(readme_block("Quick taste", "python"), "README.md", "exec"), {})
    assert capsys.readouterr().out


@pytest.mark.parametrize(
    "line", readme_block("Command line", "sh").splitlines(), ids=lambda s: s.split()[1]
)
def test_readme_command_line_runs(line, capsys):
    prog, *argv = shlex.split(line)
    assert prog == "sievelab"
    assert cli.main(argv) == 0
    assert capsys.readouterr().out


def test_readme_config_file_runs(tmp_path, capsys):
    block = readme_block("Command line", "ini")
    path = tmp_path / "readme.ini"
    path.write_text(block + "\n")
    command = block.splitlines()[0].strip("[]")
    assert cli.main(["--config", str(path), command]) == 0
    assert capsys.readouterr().out
