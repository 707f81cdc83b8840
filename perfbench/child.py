#!/usr/bin/env python3
"""One sample of a benchmark workload, run in a fresh interpreter.

    python3 perfbench/child.py WORKLOAD [--seed N] [--setup-only]
        [--trace-out PATH] [--case NAME] [--pmax N] [--per-family N]

`perfbench/run.py` starts one of these per sample, because the library
keeps caches (`catalog._CACHE`, the per-`Ideal` basis cache, per-order
key caches) that make an in-process repeat a different, warm program.
`--case`, `--pmax` and `--per-family` shrink a workload for the smoke test.

The last line on stdout is one JSON object.  `t_setup` is the
CLOCK_MONOTONIC reading when `import classinv` and `catalog.get_case`
for the workload's cases were done; the parent subtracts its spawn time
from it, so set-up time includes interpreter start.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import random
import signal
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WORKLOAD_CASES = {
    "verify-all": None,  # every catalogued case
    "hilbert-deep": ("gl2", "gl3", "sp4", "o3-I2"),
    "degenerate-sweep": ("o3-I2", "so3-I1", "so3-I2"),
}

HILBERT_PMAX = 9
HILBERT_GROUPS = (("gl2", "GL", 2), ("gl3", "GL", 3), ("sp4", "Sp", 4))

DEGENERATE_FAMILIES = ("o3-I2", "so3-I1", "so3-I2")
DEGENERATE_PER_FAMILY = 40
# Strictly negative column weights only.  With a nonnegative entry the
# weighted order is not a well-order on these inhomogeneous fiber ideals
# and the basis computation need not end (`classinv degenerate --case
# so3-I1 --weights=1,-1,-1` ran past 30 s); that hang is a known defect,
# kept out of the timed workload.
WEIGHT_RANGE = range(-6, 0)
T_RANGE = (2, 5)
FILTER_DEGREE = 4

# Every REF_PERIOD_S of process CPU time, a workload sample times a fixed
# loop.  This machine's CPU throughput drifts by up to 2x within a minute,
# and the loop slows with it, so CPU time divided by the loop's mean time
# (`cpu_ref` in run.py) is a steadier measure of the work done than seconds.
REF_PERIOD_S = 0.1
REF_ITERATIONS = 5000


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def basis_digest(basis) -> str:
    from classinv.poly import serialize

    text = "\n".join(serialize(g) for g in basis)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def degenerate_inputs(seed: int, per_family: int = DEGENERATE_PER_FAMILY):
    """(family, column weights, t) triples; the weight vectors are distinct."""
    rng = random.Random(seed)
    pool = list(itertools.product(WEIGHT_RANGE, repeat=3))
    picked = rng.sample(pool, per_family * len(DEGENERATE_FAMILIES))
    return [
        (DEGENERATE_FAMILIES[k // per_family], list(w), rng.randint(*T_RANGE))
        for k, w in enumerate(picked)
    ]


def reference_loop() -> dict:
    """Sparse updates of big-integer coefficients, like the engine's reductions.

    Of the loops tried, this one tracked the machine's drift best: a pure
    integer loop and a large random-access table both left more spread.
    """
    p: dict = {}
    for k in range(REF_ITERATIONS):
        m = (k * 2654435761) & 0xFFFF
        v = p.get(m, 0) + k * 1234567891011
        if v & 7:
            p[m] = v
        else:
            p.pop(m, None)
    return p


def start_speed_probe(durations: list) -> None:
    """Time `reference_loop` in CPU seconds on every SIGPROF tick.

    The thread clock, because an armed ITIMER_PROF makes the process CPU
    clock tick-grained on Linux.
    """

    def on_tick(signum, frame):
        t0 = time.thread_time()
        reference_loop()
        durations.append(time.thread_time() - t0)

    signal.signal(signal.SIGPROF, on_tick)
    signal.setitimer(signal.ITIMER_PROF, REF_PERIOD_S, REF_PERIOD_S)


def setup(workload: str, tracer=None) -> None:
    import classinv.cli  # noqa: F401  (imports every library module)
    from classinv import catalog

    if tracer is not None:
        import tracer as tracing

        tracing.install(tracer)
        tracer.start_root()
    names = WORKLOAD_CASES[workload] or catalog.case_names()
    for name in names:
        catalog.get_case(name)


def verify_all(case: str | None) -> dict:
    """`classinv run --all` (or `run --case NAME`), text output captured."""
    from classinv import cli

    argv = ["run", "--all"] if case is None else ["run", "--case", case]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return {"rc": rc, "stdout": out.getvalue()}


def hilbert_deep(pmax: int) -> dict:
    """What `scripts/hilbert_tables.py --pmax 9` computes, query by query."""
    from classinv.catalog import get_case
    from classinv.groebner import Ideal, hilbert_function
    from classinv.poly import GREVLEX
    from classinv.reptheory import GroupType, classical_hilbert

    table: dict = {}
    ideals = {}
    for name, family, n in HILBERT_GROUPS:
        ideal = ideals[name] = get_case(name).ideal("I")
        group = GroupType(family, n)
        table[name], table[f"{name}.weights"] = [], []
        for p in range(pmax + 1):
            table[name].append(hilbert_function(ideal, p))
            table[f"{name}.weights"].append(classical_hilbert(group, p=p))
    o3 = get_case("o3-I2")
    ideals["o3-I2.J"], ideals["o3-I2.I2"] = o3.ideal("J"), o3.ideal("I2")
    table["o3-I2.J"], table["o3-I2.I2"] = [], []
    for p in range(pmax + 1):
        table["o3-I2.J"].append(hilbert_function(ideals["o3-I2.J"], p))
        table["o3-I2.I2"].append(hilbert_function(ideals["o3-I2.I2"], p))

    # after the queries: closed forms and the bases each degree bound used
    closed = {}
    for name in ("gl3", "sp4"):
        coeffs = get_case(name).expected["hilbert-coeffs"].value
        closed[name] = [
            str(sum((Fraction(c) * p**i for i, c in enumerate(coeffs)), Fraction(0)))
            for p in range(pmax + 1)
        ]
    # the untraced method, so these cache lookups add no spans to the trace
    basis_of = getattr(Ideal.groebner_basis, "__wrapped__", Ideal.groebner_basis)
    bases = {
        f"{label}@{p}": basis_digest(basis_of(ideal, GREVLEX, degree_bound=p))
        for label, ideal in ideals.items()
        for p in range(pmax + 1)
    }
    return {"table": table, "closed": closed, "bases": bases}


def degenerate_sweep(inputs) -> dict:
    """Per weight vector, what `classinv degenerate` and the flat-family check do."""
    from classinv import degeneration
    from classinv.catalog import get_case
    from classinv.groebner import affine_hilbert_function, ideal_equal

    ops = []
    for family, weights, t in inputs:
        case = get_case(family)
        t0 = time.perf_counter()
        try:
            cols = degeneration._column_letters(case.ring)
            w = degeneration.expand_column_weights(case.ring, weights, cols)
            source = case.ideal("L")
            limit = degeneration.flat_limit(source, w)
            digest = basis_digest(limit.groebner_basis())
            equal = {
                name: ideal_equal(limit, ideal)
                for name, ideal in case.ideals.items()
                if name.startswith("I") and ideal.is_homogeneous()
            }
            member = degeneration.family_member(source, w, Fraction(t))
            counts = [affine_hilbert_function(member, d) for d in range(FILTER_DEGREE + 1)]
            op = {"basis": digest, "equal": equal, "counts": counts}
        except Exception as exc:  # one failed vector must not end the sample
            op = {"error": repr(exc)}
        op.update(family=family, weights=weights, t=t, s=time.perf_counter() - t0)
        ops.append(op)
    return {"ops": ops}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload", choices=sorted(WORKLOAD_CASES))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out", default=None)
    ap.add_argument("--case", default=None)
    ap.add_argument("--pmax", type=int, default=HILBERT_PMAX)
    ap.add_argument("--per-family", type=int, default=DEGENERATE_PER_FAMILY)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    # untraced workload samples only: the probe's time would land in open spans
    probe = [] if not (args.setup_only or args.trace_out) else None
    if probe is not None:
        start_speed_probe(probe)
    tracer = None
    if args.trace_out:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import tracer as tracing

        tracer = tracing.Tracer()
    setup(args.workload, tracer)
    result = {"t_setup": monotonic()}
    if not args.setup_only:
        if args.workload == "verify-all":
            result.update(verify_all(args.case))
        elif args.workload == "hilbert-deep":
            result.update(hilbert_deep(args.pmax))
        else:
            result.update(degenerate_sweep(degenerate_inputs(args.seed, args.per_family)))
    if probe is not None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        result.update(ref_n=len(probe), ref_s=sum(probe))
    if tracer is not None:
        tracer.end_root()
        result["layers"] = tracing.summarize(tracer.spans)
        with open(args.trace_out, "w") as fh:
            json.dump({"workload": args.workload, "spans": tracer.spans}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
