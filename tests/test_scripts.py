import os
import subprocess
import sys
from pathlib import Path

from classinv.catalog import case_names

ROOT = Path(__file__).resolve().parents[1]


def test_run_verification_script_summarises_each_case():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_verification.py"), "--pmax", "3"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 1, proc.stderr  # the o2 check fails by design
    lines = proc.stdout.splitlines()
    assert lines[-1].startswith("total ")
    summaries = lines[:-1]
    assert [line.split()[1] for line in summaries] == case_names()
    failing = [line for line in summaries if line.startswith("FAIL")]
    assert [line.split()[1] for line in failing] == ["o2"]
    assert failing[0].endswith("failing: component-intersection")
    assert all(line.startswith("ok  ") for line in summaries if line not in failing)
