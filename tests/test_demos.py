"""Every demo script, and every example in the README, runs to completion
against the package in this tree; each demo prints its pinned bytes."""

import hashlib
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

# sha256 of each demo's stdout; a change that moves one must say why
DEMO_STDOUT = {
    "admissible_tuples.py": "064dfb3bd2b1268bf91dd675f9026710cb5882f4bec9e4791c505e8a811ddaab",
    "difference_graphs.py": "d6b1f6170d9bf07456b7f008c53b44322e8736397f98bfab67ff375b73d4f97c",
    "gap_cells.py": "5182cb2798be6b92ed3597e95b3515e9c8b16ec6a1e100f69396fad67ddd568e",
    "kernel_closed_forms.py": "07868653786b8f178aa8084245c68f6d7a31fc548337c612cde8a52d3ef74a0a",
    "prime_tables.py": "71460f55edbe0976f2593177071a7a40992237a158113a1683b88e817cbb8319",
    "sieve_weights.py": "04f1231c0859ab95ecdd3104e19862b14c40e570832da56d7693cf763b3d3e5f",
    "workbench_cli.py": "26179934a533ac5fc2d4658639d8071835b827827ebc4623c423e7d10021f679",
}


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
    assert hashlib.sha256(done.stdout.encode()).hexdigest() == DEMO_STDOUT[script.name]


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
