"""Regenerate the frozen statistics hashes of the reference seed.

    python3 perfbench/freeze.py

Runs every workload untraced at the reference seed for FREEZE_FACTOR times
BENCHMARK.json's run_seconds and writes the hash of every op to
reference_hashes.json.  The margin lets a program that became that much
faster still meet only checked ops; a run that goes past the frozen ops
fails loudly.  Run it only when a change to the statistics is intended and
announced; otherwise a hash that differs is a failure of the program, not
of the reference.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ.pop("LOCSIM_SEED", None)
sys.path.insert(0, os.path.join(ROOT, "src"))

import measure  # noqa: E402
from worker import REFERENCE_SEED  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

FREEZE_FACTOR = 10


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        seconds = FREEZE_FACTOR * json.load(fh)["run_seconds"]
    with open(measure.REFERENCE_FILE) as fh:
        old = json.load(fh)
    refs = {}
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    for name, cls in WORKLOADS.items():
        workload = cls()
        with tempfile.TemporaryDirectory(dir=out_dir, prefix="freeze-") as workdir:
            workload.setup(REFERENCE_SEED, workdir)
            records = measure.loop(workload, seconds=seconds)
        if any(r["error"] for r in records):
            print(f"{name}: an op failed; nothing frozen", file=sys.stderr)
            return 1
        refs[name] = [r["hash"] for r in records]
        changed = sum(a != b for a, b in zip(old.get(name, []), refs[name]))
        print(f"{name}: froze {len(records)} op hashes in {seconds} s; "
              f"{changed} of the previously frozen hashes changed")
    with open(measure.REFERENCE_FILE, "w") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
