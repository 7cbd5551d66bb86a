"""The benchmark's self-check: every CLI output of the tiny workloads must stay
byte-identical with bench/reference.json."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_self_check():
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--self-check"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    for workload in ("analyze", "enumerate", "ybe-large", "rational"):
        assert f"self-check {workload}: ok" in out.stdout.splitlines(), out.stdout
