"""Benchmark of locsim, measured from outside the package.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: lib-calls, sim-grid, np-study, lasso-study (see workloads.py for
why each was chosen).  The seed makes the workload's inputs; locsim only
sees the generated inputs.  Run from the root of a checkout: locsim is
imported from ./src, and a checkout without it is an error.

Each run starts fresh processes: two that only set up (import locsim and
build the inputs) and one that sets up and then measures.  ``setup_s`` is
the median set-up time of the three.  The measuring process runs one closed
loop with one caller and BLAS pinned to one thread.

--trace 0 prints the end-to-end metrics; --trace 1 measures an untraced pass,
replays it with every public function wrapped, and prints the per-layer
metrics and the tracing overhead; a traced function called where
measure.CALL_PATTERN predicts 0 calls, or not called where it predicts
calls, is a failed check.  At seed 0 every op's statistics hash is compared
with the frozen reference_hashes.json (a mismatch is a failed op, and so is
a run that outruns the reference); at any other seed the hashes are
printed, so two commits can be compared.
Human-readable lines come first; the last line of standard output is the
JSON result.  Per-op records, hashes and
spans go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("lib-calls", "sim-grid", "np-study", "lasso-study")
SETUP_PROCESSES = 3
# The set-up metric of each --trace mode: the median over the processes.
SETUP_METRIC = ("setup_s", "setup.import_s")
# A worker that runs this long past its measuring window is stuck.
GRACE_S = 120


def _worker(mode: str, args, env) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--t0", repr(time.monotonic())]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=args.seconds + GRACE_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {mode} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _env() -> dict:
    env = dict(os.environ)
    env.pop("LOCSIM_SEED", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _units(trace: int) -> dict:
    """Name -> unit of the metrics BENCHMARK.json lists for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _report(args, res, setups, units) -> None:
    print(f"locsim benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("machine: " + json.dumps(res["machine"], sort_keys=True))
    c = res["counts"]
    print(f"ops: {c['ops']} completed, {c['trials']} trials")
    for name, value in res["metrics"].items():
        print(f"  {name:<48} {value:>16.6g} {units.get(name, '')}")
    print(f"  setup_s per process: {', '.join(f'{s:.4f}' for s in setups)} s")
    if not args.trace:
        print(f"  trial_ms_p50 / trial_ms_p90: {c['kinds_measured']} op kinds, each its "
              f"median over >= {c['ops_per_kind_min']} ops, weighted by trials per op; "
              f"trial_ms_p90 is the median latency of the kind that holds the 90th "
              f"percentile trial")
        print(f"  p90 over all {c['ops']} ops' own latency per trial: "
              f"{c['op_trial_ms_p90']:.4f} ms")
    attempted, failed = res["attempted"], res["failed"]
    print(f"  fail_frac {failed / attempted if attempted else 1.0:.4f} "
          f"({failed} of {attempted} ops)")
    if res["reference_checked"]:
        print(f"statistics hashes: {res['reference_checked']} ops compared with the "
              f"frozen reference")
    else:
        print(f"statistics hashes (seed {args.seed} has no frozen reference):")
        for index, label, digest in res["hashes"]:
            print(f"  hash {args.workload} op {index} {label}: {digest}")
    if args.trace:
        print(f"{'layer':<44} {'calls':>8} {'busy_s':>10} {'self_s':>10}")
        for name, row in res["layers"].items():
            if row["calls"]:
                print(f"  {name:<42} {row['calls']:>8} {row['busy_s']:>10.4f} "
                      f"{row['self_s']:>10.4f}")
        m = res["metrics"]
        print(f"tracing overhead: {m['trace.overhead_s']:+.4f} s over {m['trace.ops']} ops")
        for fn, predicted, calls, holds in res["call_pattern"]:
            print(f"call pattern {fn}.calls {predicted} on {args.workload}: "
                  f"{'holds' if holds else 'VIOLATED'} ({calls} calls)")
    print(f"results: {res['results_file']}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2**63 or args.seconds < 1:
        p.error("need 0 <= seed < 2**63 and seconds >= 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "locsim", "__init__.py")):
        print(f"error: no locsim sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    env = _env()
    try:
        probes = [_worker("setup", args, env) for _ in range(SETUP_PROCESSES - 1)]
        res = _worker("run", args, env)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups = [r["setup_s"] for r in probes] + [res["setup_s"]]
    imports = [r["import_s"] for r in probes] + [res["import_s"]]
    res["metrics"][SETUP_METRIC[args.trace]] = statistics.median(
        imports if args.trace else setups)
    units = _units(args.trace)
    missing = sorted(set(units) - set(res["metrics"]))
    if missing:
        print(f"error: the worker did not report {missing}", file=sys.stderr)
        return 1
    _report(args, res, setups, units)
    for failure in res["failures"]:
        print(f"FAILED CHECK: {failure}")
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": res["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
