#!/usr/bin/env python3
"""Record a before/after benchmark as alternating parent/change run pairs.

    python scripts/bench_pairs.py --parent DIR --change DIR --out BENCH_N.json
        [--workload NAME ...] [--seed 301]

DIR is a checkout of the repository (a `git worktree add` or a
`git clone`); the change checkout may hold uncommitted edits.  Each
workload gets 10 pairs.  Pair k runs `perfbench/run.py --workload NAME
--seed SEED+k --seconds S --trace 0` once in each checkout, S being the
`run_seconds` of the change checkout's BENCHMARK.json, the parent first
in even pairs and the change first in odd ones, so a drift in machine
speed falls on both sides alike.  Runs are sequential and each is one
process at a time.

The output holds, per workload and end-to-end metric of BENCHMARK.json,
the per-run samples of each side with their median and quartiles, the
relative change of the medians, and the number of pairs in which the
change was better; and the seeds, both commits (with a digest of
uncommitted edits) and the machine.  A run whose correctness gate fails,
or whose last stdout line is not a JSON result, is recorded as such
with the tail of its stderr; the other runs go on, and the script then
exits 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
PAIRS = 10


def checkout(path: Path) -> dict:
    """Commit of a checkout, and a digest of its uncommitted edits if any:
    the diff against HEAD and the names and contents of untracked files."""

    def git(*args: str) -> bytes:
        return subprocess.run(
            ["git", "-C", str(path), *args], capture_output=True, check=True
        ).stdout

    info = {"commit": git("rev-parse", "HEAD").decode().strip()}
    diff = git("diff", "HEAD", "--binary")
    untracked = [n for n in git("ls-files", "-z", "--others", "--exclude-standard").split(b"\0") if n]
    if diff or untracked:
        edits = hashlib.sha256(diff)
        for name in untracked:
            edits.update(b"\0" + name + b"\0" + (path / name.decode()).read_bytes())
        info["uncommitted_sha256"] = edits.hexdigest()
    return info


def run_once(path: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=path, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict):  # a crash: no JSON result line
        return {"correct": False, "error": proc.stderr.strip()[-500:]}
    return result


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"samples": values, "median": median, "q1": q1, "q3": q3}


def compare(runs: dict, spec: dict) -> dict:
    """Per-metric samples and summaries of both sides, and the pairwise count."""
    sides = {s: [r["metrics"][spec["name"]]["value"] for r in runs[s]] for s in SIDES}
    parent, change = summary(sides["parent"]), summary(sides["change"])
    sign = 1 if spec["better"] == "lower" else -1
    better = sum(sign * (c - p) < 0 for p, c in zip(sides["parent"], sides["change"]))
    return {
        "unit": spec["unit"],
        "better": spec["better"],
        "bound": spec["bound"],
        "parent": parent,
        "change": change,
        "median_change": change["median"] / parent["median"] - 1,
        "pairs_better": better,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--workload", action="append", default=None)
    ap.add_argument("--seed", type=int, default=301)
    args = ap.parse_args(argv)

    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    seeds = [args.seed + k for k in range(PAIRS)]
    dirs = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    record = {
        "parent": checkout(dirs["parent"]),
        "change": checkout(dirs["change"]),
        "command": "python3 perfbench/run.py --workload W --seed SEED --seconds S --trace 0",
        "seconds": seconds,
        "seeds": seeds,
        "order": "parent first in even pairs (0-based), change first in odd pairs",
        "machine": {"arch": platform.machine(), "cpus": os.cpu_count(),
                    "python": platform.python_version()},
        "workloads": {},
    }
    ok = True
    for workload in workloads:
        runs = {s: [] for s in SIDES}
        for k, seed in enumerate(seeds):
            for side in SIDES if k % 2 == 0 else SIDES[::-1]:
                result = run_once(dirs[side], workload, seed, seconds)
                runs[side].append(result)
                print(f"{workload} pair {k} {side}: correct={result.get('correct')} "
                      + " ".join(f"{n}={m['value']:.4g}" for n, m in result.get("metrics", {}).items()),
                      flush=True)
        entry = {
            "correct": {s: [r.get("correct", False) for r in runs[s]] for s in SIDES},
            "failed_operations": {s: [r.get("failed") for r in runs[s]] for s in SIDES},
        }
        if all(all(entry["correct"][s]) for s in SIDES):
            entry["metrics"] = {m["name"]: compare(runs, m) for m in bench["end_to_end"]}
        else:
            ok = False
            entry["errors"] = [r for s in SIDES for r in runs[s] if not r.get("correct")]
        record["workloads"][workload] = entry
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
