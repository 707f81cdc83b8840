"""The benchmark's correctness gates on the library as it stands.

One seed-7 sample of each `perfbench` workload runs in a fresh
interpreter with PYTHONHASHSEED=0, as `perfbench/run.py` starts it, and
the workload's gate must find no problem against `perfbench/reference/`:
the `run --all` text, the Hilbert tables with the sha256 of every
serialized reduced basis, and the flat-limit digests and member counts
of the degeneration sweep.  `perfbench` is imported, never changed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402

SEED = 7


@pytest.fixture(scope="module")
def samples():
    """The last stdout line of each workload's child, started together."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    procs = {
        workload: subprocess.Popen(
            [sys.executable, str(PERFBENCH / "child.py"), workload, "--seed", str(SEED)],
            cwd=PERFBENCH.parent, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )
        for workload in run.WORKLOADS
    }
    out = {}
    for workload, proc in procs.items():
        stdout, stderr = proc.communicate(timeout=300)
        assert proc.returncode == 0, (workload, stderr[-2000:])
        out[workload] = json.loads(stdout.splitlines()[-1])
    return out


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_passes_its_gate(samples, workload):
    check, _ = run.GATES[workload]
    attempted, failed, problems = check(samples[workload], run.load_reference(workload))
    assert attempted > 0
    assert (failed, problems) == (0, [])
