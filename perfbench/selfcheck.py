"""Self-check of the benchmark's tracing and metric lists.

    python3 perfbench/selfcheck.py

Runs one pinned-study cycle of every workload with tracing on and asserts
that each wrapped function records calls on the workloads that use it and
exactly none where measure.CALL_PATTERN says 0.  Without this check a
binding the wrappers missed (``from .x import f`` copies a name) would read
as "0 calls" instead of an error.  It also checks that BENCHMARK.json lists
exactly the metrics the benchmark reports.  Takes about 15 s.
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
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _bindings():
    """Every function bound on a locsim module or class, with its binding."""
    found = set()
    for mod in tracing.locsim_modules():
        for attr, value in vars(mod).items():
            if callable(value) and getattr(value, "__module__", "").startswith("locsim"):
                found.add((mod.__name__, attr, value))
            if isinstance(value, type):
                found.update((value.__qualname__, k, v) for k, v in vars(value).items()
                             if callable(v))
    return found


def check(errors) -> None:
    missing = set(measure.CALL_PATTERN) - set(tracing.Tracer().names)
    errors.extend(f"{name} is not traced" for name in sorted(missing))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if not [w["name"] for w in spec["workloads"]] == list(WORKLOADS) == list(run.WORKLOADS):
        errors.append("BENCHMARK.json, workloads.py and run.py name different workloads")
    before = _bindings()
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    for name, cls in WORKLOADS.items():
        workload = cls()
        with tempfile.TemporaryDirectory(dir=out_dir, prefix="selfcheck-") as workdir:
            workload.setup(1, workdir)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                records = measure.loop(workload, indices=list(range(len(workload.cycle))))
            finally:
                tracer.uninstall()
            failures = []
            layers, table = measure.per_layer(workload, tracer, records, records, failures)
        errors.extend(f"{name}: op {r['index']} failed" for r in records if r["error"])
        errors.extend(f"{name}: {f}" for f in failures)
        for fn, predicted, calls, holds in measure.call_pattern(name, table, True):
            if not holds:
                errors.append(f"{fn} recorded {calls} calls on {name}; predicted {predicted}")
        # BENCHMARK.json must list exactly the metrics the run reports.
        reported = {
            "end_to_end": set(measure.end_to_end(workload, records)) - {"counts"}
            | {run.SETUP_METRIC[0]},
            "per_layer": set(layers) | {run.SETUP_METRIC[1]},
        }
        for key, names in reported.items():
            listed = {m["name"] for m in spec[key]}
            if listed != names:
                errors.append(f"{name}: BENCHMARK.json {key} lacks {sorted(names - listed)} "
                              f"and lists unreported {sorted(listed - names)}")
        print(f"{name}: {sum(1 for r in table.values() if r['calls'])} traced functions called")
    if _bindings() != before:
        errors.append("uninstalling the tracer did not restore every binding")


def main() -> int:
    errors = []
    check(errors)
    for e in errors:
        print(f"FAIL {e}")
    print("selfcheck " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
