"""Smoke test of the benchmark harness: every workload at a reduced size,
the correctness gates against perturbed references, the traced sample,
and the refusal to run without the library sources.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import child  # noqa: E402
import run  # noqa: E402

REDUCED = {
    "verify-all": ["--case", "o2"],
    "hilbert-deep": ["--pmax", "3"],
    "degenerate-sweep": ["--per-family", "2"],
}


def case_block(text: str, case: str) -> str:
    """The lines `classinv run --case CASE` prints, cut from the full run's text."""
    out, inside = [], False
    for line in text.splitlines(keepends=True):
        if line.startswith("case "):
            inside = line == f"case {case}\n"
        if inside:
            out.append(line)
    return "".join(out)


def reduced_reference(workload: str):
    ref = run.load_reference(workload)
    return case_block(ref, "o2") if workload == "verify-all" else ref


@pytest.fixture(scope="module")
def samples():
    out = {}
    for workload, extra in REDUCED.items():
        out[workload] = run.spawn([workload, "--seed", "3", *extra], timeout=120)
    return out


@pytest.mark.parametrize("workload", sorted(REDUCED))
def test_reduced_workload_passes_gate(samples, workload):
    sample = samples[workload]
    assert sample.error is None
    run.gate(workload, sample, reduced_reference(workload))
    assert sample.problems == []
    assert sample.attempted > 0 and sample.failed == 0
    assert sample.wall_s > 0 and sample.cpu_s > 0 and sample.rss_mb > 0
    assert sample.cpu_ref > 0 and sample.result["ref_n"] > 0
    assert 0 < sample.setup_s < sample.wall_s


def perturb(workload: str, ref):
    if workload == "verify-all":
        return ref.replace("[       pass] rank:", "[       fail] rank:", 1)
    ref = copy.deepcopy(ref)
    if workload == "hilbert-deep":
        ref["table"]["gl3"][3] += 1
        return ref
    for entry in ref.values():
        entry["basis"] = "0" * 16
    return ref


@pytest.mark.parametrize("workload", sorted(REDUCED))
def test_gate_rejects_perturbed_reference(samples, workload):
    sample = copy.deepcopy(samples[workload])
    bad = perturb(workload, reduced_reference(workload))
    assert bad != reduced_reference(workload)
    run.gate(workload, sample, bad)
    assert sample.problems
    assert sample.failed > 0


def test_gate_rejects_wrong_fiber_counts(samples):
    sample = copy.deepcopy(samples["degenerate-sweep"])
    sample.result["ops"][0]["counts"][2] += 1
    run.gate("degenerate-sweep", sample, run.load_reference("degenerate-sweep"))
    assert sample.failed == 1


def test_degenerate_inputs_are_seeded_distinct_and_negative():
    a = child.degenerate_inputs(7)
    assert a == child.degenerate_inputs(7) != child.degenerate_inputs(8)
    assert len(a) == 120 and len({tuple(w) for _, w, _ in a}) == 120
    assert all(max(w) < 0 and 2 <= t <= 5 for _, w, t in a)
    assert [f for f, _, _ in a] == [f for f in child.DEGENERATE_FAMILIES for _ in range(40)]


def test_gl2_closed_form_matches_reference_table():
    table = run.load_reference("hilbert-deep")["table"]
    assert [run.gl2_closed_form(p) for p in range(10)] == table["gl2"]


def test_traced_sample_reports_every_layer_metric():
    run.OUT_DIR.mkdir(exist_ok=True)
    spans_file = run.OUT_DIR / "spans-smoke.json"
    sample = run.spawn(
        ["degenerate-sweep", "--per-family", "1", "--trace-out", str(spans_file)], timeout=120
    )
    assert sample.error is None
    layers = sample.result["layers"]
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer"]
    from_untraced = {
        "trace.overhead_s", "degeneration.vector_p50_s", "degeneration.vector_p90_s",
        "sample.wall_s", "sample.cpu_s", "sample.ref_loop_s",
    }
    assert {m["name"] for m in spec} - set(layers) == from_untraced
    assert layers["degeneration.flat_limit.s"] > 0 and layers["groebner.basis.computed"] > 0
    spans = json.loads(spans_file.read_text())["spans"]
    spans_file.unlink()
    assert spans[0][0] == "workload"
    # self time is duration minus direct children, so the self times add up to the root
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    total_self = sum(e - s - c for (_, s, e, _, _), c in zip(spans, child_time))
    assert total_self == pytest.approx(spans[0][2] - spans[0][1], abs=1e-6)


def test_refuses_to_run_without_sources():
    bare = run.OUT_DIR / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "hilbert-deep",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
