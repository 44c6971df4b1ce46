"""Every demo runs to completion against the package in this checkout.

Each script is copied into a temporary directory first, so files a demo
writes next to itself land there and not in the checkout.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import discrimpower

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_exist():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(demo, tmp_path):
    script = shutil.copy(demo, tmp_path)
    src = str(Path(discrimpower.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
