import importlib.util
import os
import subprocess
import sys
from pathlib import Path

from classinv.catalog import case_names

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )


def test_run_verification_script_summarises_each_case():
    proc = run_script("run_verification.py", "--pmax", "3")
    assert proc.returncode == 1, proc.stderr  # the o2 check fails by design
    lines = proc.stdout.splitlines()
    assert lines[-1].startswith("total ")
    summaries = lines[:-1]
    assert [line.split()[1] for line in summaries] == case_names()
    failing = [line for line in summaries if line.startswith("FAIL")]
    assert [line.split()[1] for line in failing] == ["o2"]
    assert failing[0].endswith("failing: component-intersection")
    assert all(line.startswith("ok  ") for line in summaries if line not in failing)


def test_run_verification_script_rejects_negative_pmax():
    proc = run_script("run_verification.py", "--pmax", "-1")
    assert proc.returncode != 0
    assert "ValueError: pmax must be nonnegative" in proc.stderr
    assert proc.stdout == ""


def test_degeneration_demo_matches_golden():
    # recorded while the limit still ran Buchberger on its initial forms
    proc = run_script("degeneration_demo.py")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (ROOT / "tests" / "golden" / "degeneration_demo.txt").read_text()


def test_bench_pairs_summarises_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    runs = {
        side: [{"metrics": {"cpu_ref": {"value": v}}} for v in values]
        for side, values in (("parent", [10, 12, 11, 13]), ("change", [9, 12, 8, 14]))
    }
    metric = {"name": "cpu_ref", "unit": "ref-loops", "better": "lower", "bound": 0.2}
    out = bench.compare(runs, metric)
    assert out["parent"]["samples"] == [10, 12, 11, 13]
    assert out["parent"]["median"] == 11.5
    assert out["change"]["median"] == 10.5
    assert out["parent"]["q1"] <= out["parent"]["median"] <= out["parent"]["q3"]
    assert out["pairs_better"] == 2  # 9 < 10 and 8 < 11; 12 = 12 is a tie
    assert out["median_change"] == 10.5 / 11.5 - 1
