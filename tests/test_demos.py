"""Every narrative demo prints exactly its recorded output."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDENS = Path(__file__).resolve().parent / "demo_goldens"


@pytest.mark.parametrize("name", sorted(p.stem for p in (ROOT / "demos").glob("*.py")))
def test_demo_output_matches_golden(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / (name + ".py"))],
        capture_output=True,
        env=env,
        check=True,
    )
    assert proc.stdout == (GOLDENS / (name + ".txt")).read_bytes()
