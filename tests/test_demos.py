"""Every demo script, and every python block of README.md, runs to
completion against the checkout's sources."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)


def run_python(args, cwd):
    env = dict(os.environ, MPLBACKEND="Agg", PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(tmp_path, demo):
    # demo 04 saves its figure into the working directory
    done = run_python([str(demo)], tmp_path)
    assert done.returncode == 0, done.stderr


def test_readme_python_blocks_run_as_written(tmp_path):
    """The quick start is the first code a reader runs; a signature change
    that leaves it stale fails here."""
    assert README_BLOCKS, "README.md has no ```python block"
    for block in README_BLOCKS:
        done = run_python(["-c", block], tmp_path)
        assert done.returncode == 0, done.stderr
