"""scripts/bench_snapshot.py refuses arguments before it runs anything.

Each test runs a copy of the script in a directory without a git
repository, so a script that ignored its arguments would fail at its
first git call instead of starting the tier-1 suite and the benchmark.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SNAPSHOT = Path(__file__).resolve().parent.parent / "scripts" / "bench_snapshot.py"


def _run_copy(tmp_path, *args):
    (tmp_path / "scripts").mkdir()
    script = shutil.copy(SNAPSHOT, tmp_path / "scripts")
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(tmp_path.parent)}
    return subprocess.run(
        [sys.executable, script, *args], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=60,
    )


def test_bench_snapshot_help_prints_its_docstring(tmp_path):
    proc = _run_copy(tmp_path, "--help")
    assert proc.returncode == 0, proc.stderr
    assert "written to BENCH_<short sha>.json" in proc.stdout
    assert "python3 scripts/bench_snapshot.py" in proc.stdout


@pytest.mark.parametrize("arg", ["--seed", "-x", "grid-deep"])
def test_bench_snapshot_refuses_any_other_argument(tmp_path, arg):
    proc = _run_copy(tmp_path, arg)
    assert proc.returncode == 2, proc.stderr
    assert "unrecognized arguments" in proc.stderr
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["bench_snapshot.py", "scripts"]
