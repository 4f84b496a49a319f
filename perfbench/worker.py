"""One workload process of the locsim benchmark (started by run.py).

Modes:
  setup  import locsim and build the workload's inputs, report the time
  run    the same set-up, then the timed closed loop (--trace 0), or an
         untraced pass followed by a traced replay of the same ops (--trace 1)

The last line of standard output is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
REFERENCE_SEED = 0  # the seed whose op hashes are frozen


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("mode", choices=("setup", "run"))
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t0", type=float, required=True,
                   help="time.monotonic() when the parent started this process")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    # LOCSIM_SEED silently overrides every configured seed.
    os.environ.pop("LOCSIM_SEED", None)
    sys.path.insert(0, SRC)
    t_import = time.monotonic()
    import locsim
    import_s = time.monotonic() - t_import
    if not os.path.abspath(locsim.__file__).startswith(SRC + os.sep):
        print(f"locsim was imported from {locsim.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    import tempfile

    import measure
    from workloads import WORKLOADS

    os.makedirs(OUT_DIR, exist_ok=True)
    workload = WORKLOADS[args.workload]()
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="work-") as workdir:
        workload.setup(args.seed, workdir)
        setup_s = time.monotonic() - args.t0
        if args.mode == "setup":
            print(json.dumps({"setup_s": setup_s, "import_s": import_s}))
            return 0
        result = measure.run(workload, args.seed, args.seconds, args.trace,
                             reference_seed=REFERENCE_SEED)
    failed = sum(1 for r in result["records"] if r["error"]) + len(result["failures"])
    result.update(setup_s=setup_s, import_s=import_s, machine=measure.machine_record(),
                  attempted=len(result["records"]), failed=failed,
                  correct=failed == 0 and result["counts"]["ops"] > 0)
    summary = {k: v for k, v in result.items() if k not in ("spans", "records")}
    summary["hashes"] = [(r["index"], r["label"], r["hash"]) for r in result["records"]]
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(result, fh)
    summary["results_file"] = os.path.relpath(path, ROOT)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
