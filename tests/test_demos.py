"""Each demo script and the README's API quickstart run to completion, warnings as errors,
against the package in this tree."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run(args, cwd):
    """Run python -W error with args against src/, in cwd."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-W", "error", *args], cwd=cwd, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=300,
    )


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_exits_0(demo, tmp_path):
    result = _run([str(demo)], tmp_path)
    assert result.returncode == 0, result.stderr


def test_readme_api_quickstart_runs(tmp_path):
    readme = (ROOT / "README.md").read_text("utf-8")
    section = readme.split("\n## Quickstart (API)\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, re.DOTALL | re.MULTILINE)
    assert len(blocks) == 2
    result = _run(["-c", "\n".join(blocks)], tmp_path)
    assert result.returncode == 0, result.stderr
