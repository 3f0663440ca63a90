"""Each benchmark workload runs one round and passes its own output checks.

The benchmark's oracles (bench/oracles.py) recompute rankings, scores and
metrics without glint.scoring or glint.metrics, so a short run of every
workload catches a ranking that differs from the exact one.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["train", "search", "ablate"])
def test_one_round_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "5", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True, proc.stdout[-2000:]
    assert last["failed"] == 0
