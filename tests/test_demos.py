"""Every demo script runs to completion and prints its pinned output, and
the README's quick start runs.

The expected stdout of each demo is stored under ``"demos"`` in
``golden.json``; ``tests/test_golden.py`` rewrites it with the rest.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).with_name("golden.json")


def run_python(*args):
    """Run the interpreter on ``args`` with the package on the path."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def demo_outputs():
    """Stdout of every demo, by file name; a failing demo raises."""
    out = {}
    for script in DEMOS:
        proc = run_python(str(script))
        if proc.returncode != 0:
            raise RuntimeError(f"{script.name} failed:\n{proc.stderr}")
        out[script.name] = proc.stdout
    return out


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    proc = run_python(str(script))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == json.loads(GOLDEN.read_text())["demos"][script.name]


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    proc = run_python("-c", block)
    assert proc.returncode == 0, proc.stderr
