#!/usr/bin/env python3
"""Benchmark of classinv: three workloads, each sample a fresh single-threaded process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is verify-all, hilbert-deep, degenerate-sweep, or `all` to run each
in turn.  Samples are started back to back (closed loop, one caller)
until the next one would end after S seconds; every run takes at least
one.  Before the loop, set-up-only processes give extra set-up samples.

With `--trace 0` the result holds the end-to-end metrics of BENCHMARK.json,
measured without tracing.  With `--trace 1`, untraced and traced samples
alternate; the result holds the per-layer metrics of the traced samples
(medians) and `trace.overhead_s`, the traced minus the untraced median
wall time.  The spans of the last traced sample are written to
`.perfbench/spans-NAME.json`.

Every sample's output is checked against `perfbench/reference/`; any
mismatch makes the run fail (`correct` false, exit code 1).  The last
stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import child
from child import monotonic  # the clock the child reads for t_setup

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
REFERENCE = HERE / "reference"
OUT_DIR = ROOT / ".perfbench"

WORKLOADS = tuple(child.WORKLOAD_CASES)
SETUP_PROBES = 8
RUN_LIMIT_S = 165.0  # a run must end within 180 s

# the one by-design failure of `classinv run --all`
KNOWN_FAILURE = ("o2", "component-intersection")
# filtered counts (degree <= d, d = 0..4) of every nonzero fiber: those of the source
FAMILY_COUNTS = {
    "o3-I2": [1, 10, 44, 119, 249],
    "so3-I1": [1, 10, 35, 84, 165],
    "so3-I2": [1, 10, 35, 84, 165],
}


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    rss_mb: float
    setup_s: Optional[float]
    result: Optional[dict]
    cpu_ref: Optional[float] = None  # CPU time less the probe's, in reference-loop times
    error: Optional[str] = None
    problems: List[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


def spawn(child_args: Sequence[str], timeout: float) -> Sample:
    """Run one child; wall from spawn to exit, CPU and peak RSS from its own rusage."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), *child_args], cwd=ROOT, env=env,
        stdout=subprocess.PIPE,
    )
    killer = threading.Timer(max(timeout, 1.0), proc.kill)
    killer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        killer.cancel()
        proc.stdout.close()
    wall = monotonic() - t0
    sample = Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, None, None)
    lines = out.decode().splitlines()
    if proc.returncode != 0 or not lines:
        sample.error = f"child exited with code {proc.returncode}"
        return sample
    sample.result = json.loads(lines[-1])
    sample.setup_s = sample.result["t_setup"] - t0
    if sample.result.get("ref_n"):
        ref_s, ref_n = sample.result["ref_s"], sample.result["ref_n"]
        sample.cpu_ref = (sample.cpu_s - ref_s) / (ref_s / ref_n)
    return sample


# ---- correctness gates --------------------------------------------------

_CASE_RE = re.compile(r"^case (\S+)$")
_CHECK_RE = re.compile(r"^  \[\s*(\w+)\] ([^:]+): ")


def check_verdicts(text: str) -> Dict[Tuple[str, str], str]:
    verdicts, case = {}, None
    for line in text.splitlines():
        m = _CASE_RE.match(line)
        if m:
            case = m.group(1)
            continue
        m = _CHECK_RE.match(line)
        if m:
            verdicts[(case, m.group(2))] = m.group(1)
    return verdicts


def gate_verify_all(result: dict, reference: str) -> Tuple[int, int, List[str]]:
    want = check_verdicts(reference)
    got = check_verdicts(result["stdout"])
    failed = sum(1 for key, v in want.items() if got.get(key) != v)
    problems = []
    if result["stdout"] != reference:
        problems.append("stdout differs from the reference")
    failing = {key for key, v in got.items() if v != "pass"}
    expected_failing = {KNOWN_FAILURE} if KNOWN_FAILURE[0] in {c for c, _ in want} else set()
    if failing != expected_failing:
        problems.append(f"failing checks {sorted(failing)}, expected {sorted(expected_failing)}")
    expected_rc = 1 if expected_failing else 0
    if result["rc"] != expected_rc:
        problems.append(f"exit code {result['rc']}, expected {expected_rc}")
    return len(want), failed, problems


def gl2_closed_form(p: int) -> int:
    """Squared-dimension sum over GL2 weights (r1 >= r2, |r1| + |r2| = p).

    Weights with r2 >= 0 and with r1 <= 0 each give sum_b (p - 2b + 1)^2;
    weights with r1 >= 0 >= r2 have r1 - r2 = p and dimension p + 1, and
    two of them, (p, 0) and (0, -p), were already counted.
    """
    if p == 0:
        return 1
    return 2 * sum((p - 2 * b + 1) ** 2 for b in range(p // 2 + 1)) + (p + 1) ** 3 - 2 * (p + 1) ** 2


def gate_hilbert_deep(result: dict, reference: dict) -> Tuple[int, int, List[str]]:
    table = result["table"]
    bad = set()
    problems = []
    for name in ("gl2", "gl3", "sp4"):
        degrees = range(len(table[name]))
        closed = (
            [gl2_closed_form(p) for p in degrees] if name == "gl2"
            else [int(v) if v.isdigit() else v for v in result["closed"][name]]
        )
        for p in degrees:
            if not table[name][p] == table[f"{name}.weights"][p] == closed[p]:
                bad.add((name, p))
                problems.append(f"{name} degree {p}: engine, weight sum and closed form disagree")
    for label, column in table.items():
        want = reference["table"][label][: len(column)]
        for p, (a, b) in enumerate(zip(column, want)):
            if a != b:
                bad.add((label, p))
                problems.append(f"{label} degree {p}: {a}, reference {b}")
    for key, digest in result["bases"].items():
        if reference["bases"][key] != digest:
            problems.append(f"reduced basis {key} differs from the reference")
    return sum(len(column) for column in table.values()), len(bad), problems


def gate_degenerate_sweep(result: dict, reference: dict) -> Tuple[int, int, List[str]]:
    problems = []
    for op in result["ops"]:
        where = f"{op['family']} weights {op['weights']}"
        if "error" in op:
            problems.append(f"{where}: {op['error']}")
            continue
        if op["counts"] != FAMILY_COUNTS[op["family"]]:
            problems.append(f"{where}: fiber counts {op['counts']} at t={op['t']}")
            continue
        want = reference[f"{op['family']} {','.join(map(str, op['weights']))}"]
        if op["basis"] != want["basis"] or op["equal"] != want["equal"]:
            problems.append(f"{where}: limit basis or target verdicts differ from the reference")
    return len(result["ops"]), len(problems), problems


GATES = {
    "verify-all": (gate_verify_all, "verify_all.txt"),
    "hilbert-deep": (gate_hilbert_deep, "hilbert_deep.json"),
    "degenerate-sweep": (gate_degenerate_sweep, "degenerate.json"),
}


def load_reference(workload: str):
    path = REFERENCE / GATES[workload][1]
    text = path.read_text()
    return json.loads(text) if path.suffix == ".json" else text


def gate(workload: str, sample: Sample, reference) -> None:
    if sample.error is not None:
        sample.problems.append(sample.error)
        sample.failed = sample.attempted = 1
        return
    check, _ = GATES[workload]
    sample.attempted, sample.failed, sample.problems = check(sample.result, reference)


# ---- runs ---------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run: set-up probes, then samples until `seconds` would be exceeded."""
    reference = load_reference(workload)
    start = monotonic()
    base = [workload, "--seed", str(seed)]

    def remaining() -> float:
        return RUN_LIMIT_S - (monotonic() - start)

    probes = [spawn(base + ["--setup-only"], remaining()) for _ in range(SETUP_PROBES + 1)]
    setups = [p.setup_s for p in probes[1:]]  # the first one also compiles bytecode
    plain: List[Sample] = []
    traced: List[Sample] = []
    errors = [p.error for p in probes if p.error]
    trace_out = OUT_DIR / f"spans-{workload}.json"
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
    deadline = monotonic() + seconds
    while not errors:
        use_trace = trace and len(traced) < len(plain)
        args = base + (["--trace-out", str(trace_out)] if use_trace else [])
        sample = spawn(args, remaining())
        gate(workload, sample, reference)
        (traced if use_trace else plain).append(sample)
        if sample.problems:
            break
        if trace and not traced:
            continue
        upcoming = traced if trace and len(traced) < len(plain) else plain
        estimate = statistics.median(s.wall_s for s in upcoming)
        if monotonic() + estimate > min(deadline, start + RUN_LIMIT_S):
            break
    samples = plain + traced
    problems = errors + [p for s in samples for p in s.problems]
    setups += [s.setup_s for s in samples if s.setup_s is not None]
    out = {
        "correct": not problems,
        "attempted": max(1, sum(s.attempted for s in samples)),
        "failed": sum(s.failed for s in samples) + len(errors),
        "problems": problems,
        "samples": len(plain),
        "traced_samples": len(traced),
        "setup_samples": len(setups),
    }
    if problems:
        out["metrics"] = {}
        return out
    if not trace:
        out["metrics"] = {
            "cpu_ref": (statistics.median(s.cpu_ref for s in plain), "ref-loops"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (statistics.median(s.rss_mb for s in plain), "MB"),
        }
        return out
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    metrics = {
        m["name"]: (statistics.median(s.result["layers"][m["name"]] for s in traced), m["unit"])
        for m in spec
        if m["name"] in traced[0].result["layers"]
    }
    metrics["trace.overhead_s"] = (
        statistics.median(s.wall_s for s in traced) - statistics.median(s.wall_s for s in plain),
        "s",
    )
    metrics["sample.wall_s"] = (statistics.median(s.wall_s for s in plain), "s")
    metrics["sample.cpu_s"] = (statistics.median(s.cpu_s for s in plain), "s")
    metrics["sample.ref_loop_s"] = (
        statistics.median(s.result["ref_s"] / s.result["ref_n"] for s in plain), "s"
    )
    # per-vector latency of degenerate-sweep, from the untraced samples (0 elsewhere)
    vectors = [op["s"] for s in plain for op in s.result.get("ops", ())]
    metrics["degeneration.vector_p50_s"] = (statistics.median(vectors) if vectors else 0.0, "s")
    metrics["degeneration.vector_p90_s"] = (
        statistics.quantiles(vectors, n=10)[-1] if vectors else 0.0, "s"
    )
    out["metrics"] = metrics
    return out


def report(workload: str, seed: int, out: dict) -> dict:
    """Print the human-readable lines; return the result object for the last line."""
    print(
        f"{workload} seed={seed}: {out['samples']} samples, {out['traced_samples']} traced, "
        f"{out['setup_samples']} set-up samples, {out['failed']} of {out['attempted']} operations failed"
    )
    for problem in out["problems"][:20]:
        print(f"  MISMATCH {problem}")
    for name, (value, unit) in out["metrics"].items():
        print(f"  {name:34s} {value:14.6f} {unit}")
    return {
        "correct": out["correct"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in out["metrics"].items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "classinv" / "__init__.py").is_file():
        print(f"error: no classinv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    for name in names:
        result = report(name, args.seed, measure(name, args.seed, args.seconds, bool(args.trace)))
        ok = ok and result["correct"]
        print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
