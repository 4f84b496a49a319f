"""The first cycle of each benchmark workload, replayed at the reference seed,
must reproduce the statistics hashes frozen in
``perfbench/reference_hashes.json``.  A change to any CSV column but
``runtime_ms``, or to any interval a library call returns, fails here.

The hashes were frozen with BLAS pinned to one thread, and the m=1000 RBF
library calls depend on it, so each replay runs in a child process started
like the benchmark's own.  Reads ``perfbench/`` and writes only to a
temporary directory.

    python tests/test_frozen_hashes.py <workload> <workdir>

prints one JSON list: each op's hash, or its error.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
WORKLOADS = ("lib-calls", "sim-grid", "np-study", "lasso-study")


def _replay(name: str, workdir: str) -> list:
    import measure
    from worker import REFERENCE_SEED
    from workloads import WORKLOADS as CLASSES

    workload = CLASSES[name]()
    workload.setup(REFERENCE_SEED, workdir)
    records = measure.loop(workload, indices=range(len(workload.cycle)))
    return [r["error"] or r["hash"] for r in records]


@pytest.mark.parametrize("name", WORKLOADS)
def test_first_cycle_matches_frozen_hashes(name, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), PERFBENCH]))
    env.pop("LOCSIM_SEED", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), name, str(tmp_path)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    with open(os.path.join(PERFBENCH, "reference_hashes.json")) as fh:
        frozen = json.load(fh)[name]
    assert got == frozen[:len(got)]


if __name__ == "__main__":
    print(json.dumps(_replay(*sys.argv[1:])))
