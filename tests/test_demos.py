"""Every demo, and every fenced ``python`` block of README.md, runs to
completion against the package in this checkout.

Each script runs in a temporary directory, so files a demo writes next
to itself land there and not in the checkout.
"""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import discrimpower

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$",
                           (ROOT / "README.md").read_text(encoding="utf-8"),
                           re.MULTILINE | re.DOTALL)


def _run(script, cwd):
    src = str(Path(discrimpower.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, script], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_demos_exist():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(demo, tmp_path):
    _run(shutil.copy(demo, tmp_path), tmp_path)


def test_readme_has_a_python_example():
    assert README_BLOCKS


@pytest.mark.parametrize("block", README_BLOCKS,
                         ids=[f"block{i}" for i in range(len(README_BLOCKS))])
def test_readme_python_block_runs(block, tmp_path):
    script = tmp_path / "readme_block.py"
    script.write_text(block, encoding="utf-8")
    _run(script, tmp_path)
