#!/usr/bin/env python3
"""Record the outputs the benchmark's correctness gates compare against.

    python3 perfbench/record_reference.py

Writes perfbench/reference/: the text of `classinv run --all`, the
hilbert-deep table with a digest of every reduced basis it used, and,
for every strictly negative weight vector in the generator's range (all
of them, so every seed is checked), the flat limit's grevlex basis
digest and its equality verdicts against the catalogued targets.  The
references describe the outputs of the code as it was when recorded;
re-record only for a documented correction.
"""

import itertools
import json
import subprocess
import sys
from pathlib import Path

import child

OUT = Path(__file__).resolve().parent / "reference"


def verify_all() -> None:
    (OUT / "verify_all.txt").write_text(child.verify_all(None)["stdout"])


def hilbert_deep() -> None:
    deep = child.hilbert_deep(child.HILBERT_PMAX)
    with open(OUT / "hilbert_deep.json", "w") as fh:
        json.dump({"table": deep["table"], "bases": deep["bases"]}, fh, indent=1, sort_keys=True)


def degenerate_sweep() -> None:
    vectors = list(itertools.product(child.WEIGHT_RANGE, repeat=3))
    lines = []  # one vector per line: "family w1,w2,w3": {"basis": ..., "equal": ...}
    for family in child.DEGENERATE_FAMILIES:
        for op in child.degenerate_sweep([(family, list(w), 2) for w in vectors])["ops"]:
            key = json.dumps(f"{family} {','.join(map(str, op['weights']))}")
            entry = json.dumps({"basis": op["basis"], "equal": op["equal"]}, sort_keys=True)
            lines.append(f"  {key}: {entry}")
    (OUT / "degenerate.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")


PARTS = {"verify-all": verify_all, "hilbert-deep": hilbert_deep, "degenerate-sweep": degenerate_sweep}


def main() -> None:
    if len(sys.argv) > 1:
        sys.path.insert(0, str(child.ROOT / "src"))
        PARTS[sys.argv[1]]()
        return
    OUT.mkdir(exist_ok=True)
    # each part in a fresh interpreter, as the benchmark runs it: warm library
    # caches would change which bases get computed
    for part in PARTS:
        subprocess.run([sys.executable, __file__, part], check=True)


if __name__ == "__main__":
    main()
