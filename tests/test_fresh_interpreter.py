"""Checks that need a fresh interpreter: the scripts that pin the library's
output, the README's quick starts, and what importing `gsl.cli` loads.

Each child runs on this checkout's `src` with this interpreter's `-O`
level and environment (`GSL_SEED` among it), so the checks bind in every
tier-1 variant."""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def python(*args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, *["-O"] * sys.flags.optimize, *args],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)


def readme_block(heading: str, language: str) -> str:
    readme = (ROOT / "README.md").read_text()
    return re.search(rf"## {heading}\s*```{language}\n(.*?)```", readme, re.S).group(1)


def test_grid_digest_is_the_pinned_one():
    run = python("scripts/grid_digest.py")
    assert run.returncode == 0, run.stdout + run.stderr


def test_frozen_values_stay_derivable():
    # every DeprecationWarning shown, not only those raised in __main__: a
    # sympy call deprecated today is one that a later sympy breaks
    run = python("-W", "default::DeprecationWarning", "scripts/derive_frozen_values.py")
    assert run.returncode == 0, run.stderr
    assert "DeprecationWarning" not in run.stderr, run.stderr


def test_readme_cli_commands_exit_0_with_one_json_document():
    commands = [shlex.split(line)[1:] for line in readme_block("Quick start: CLI", "sh").splitlines()
                if line.startswith("gsl ")]
    assert commands
    for argv in commands:
        run = python("-m", "gsl.cli", *argv)
        assert run.returncode == 0, f"gsl {shlex.join(argv)}: exit {run.returncode}\n{run.stderr}"
        json.loads(run.stdout)


def test_readme_library_quick_start_prints_what_its_comments_say():
    block = readme_block("Quick start: library", "python")
    want = [line.split()[1:3] for line in block.splitlines() if re.match(r"# \d+ [A-Z_]+", line)]
    run = python("-c", block)
    assert run.returncode == 0, run.stderr
    assert want and [line.split() for line in run.stdout.splitlines()] == want


def test_importing_the_cli_leaves_multiprocessing_unloaded():
    # only verify --jobs > 1 needs it
    run = python("-c", "import gsl.cli, sys; print('multiprocessing' in sys.modules)")
    assert run.stdout == "False\n", run.stderr
