"""Closed-loop measurement, the statistics-hash gate, and the traced replay.

The load comes from one caller in one process: each op starts when the
previous one returns, and the benchmark starts no threads of its own.
End-to-end metrics come from untraced runs only.  A traced run measures an
untraced pass, then replays the same ops with every public function wrapped;
the per-layer metrics come from the replay, and the difference between the
two passes is the tracing overhead.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict

import numpy as np
import scipy

from tracing import Tracer
from workloads import OpFailure

REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference_hashes.json")

# Per-layer metrics of the traced run: calls and busy seconds of the traced
# functions, and self seconds of the layers whose private loops have no
# traced function of their own.
_CALLS_AND_BUSY = (
    "stats_core.max_stat_quantile_mc", "stats_core.GaussianNoise.sample",
    "stats_core.betting_capital_peaks", "stats_core.betting_ci",
    "stats_core.bentkus_width", "stats_core.contrast_quantile_mc",
    "stats_core.max_abs_quantile_iid", "winner.conditional_winner_interval",
    "winner.winner_interval", "winner.filedrawer_region",
    "winner.np_winner_interval", "winner.np_filedrawer_region",
    "lp.lp_maximize", "lp.constraint_nonredundant",
    "lasso.enumerate_plausible_models", "lasso.lasso_solve",
    "lasso.safe_screening", "lasso.posi_intervals",
)
_BUSY_ONLY = (
    "lasso.column_max_quantile", "sphere.sphere_interval",
    "sphere.mu_norm_lower_bound", "sphere.s_tau", "sphere.cap_quantile",
    "erm.erm_risk_bound", "erm.rademacher_mc", "experiments.run_experiment",
    "experiments.write_csv",
)
_CALLS_ONLY = ("stats_core.GaussianNoise.restrict", "cli.main", "theory_core.compose")
_SELF = ("experiments.run_experiment", "cli.main")

_ALL = ("lib-calls", "sim-grid", "np-study", "lasso-study")
_STUDIES = ("sim-grid", "np-study", "lasso-study")
_NOT_SIM = ("lib-calls", "np-study", "lasso-study")

# The call pattern each workload was chosen for, as traced function:
# (workloads that must call it, workloads that must not).  The traced run
# and selfcheck.py both check it, so a binding the wrappers missed cannot
# read as "0 calls" and a workload that stops isolating its layers fails.
CALL_PATTERN = {
    "stats_core.max_stat_quantile_mc": (("lib-calls",), _STUDIES),
    "stats_core.GaussianNoise.restrict": (("lib-calls",), ()),
    "stats_core.GaussianNoise.sample": (("lib-calls", "sim-grid"), ()),
    "stats_core.betting_capital_peaks": (("np-study",), ("lib-calls", "sim-grid", "lasso-study")),
    "stats_core.betting_ci": (("np-study",), ("lib-calls", "sim-grid", "lasso-study")),
    "stats_core.bentkus_width": (("np-study",), ("lib-calls", "lasso-study")),
    "stats_core.contrast_quantile_mc": (("lasso-study",), ("lib-calls", "np-study")),
    "stats_core.max_abs_quantile_iid": (("sim-grid",), ("lasso-study",)),
    "winner.conditional_winner_interval": (("sim-grid", "np-study"), ("lib-calls",)),
    "winner.winner_interval": (("lib-calls",), ("sim-grid",)),
    "winner.filedrawer_region": (("lib-calls",), ("sim-grid",)),
    "winner.plausible_winner_set": (("lib-calls",), ("sim-grid",)),
    "winner.plausible_filedrawer_set": (("lib-calls",), ("sim-grid",)),
    "winner.np_winner_interval": (("np-study",), ("sim-grid",)),
    "winner.np_filedrawer_region": (("np-study",), ("sim-grid",)),
    "lp.lp_maximize": (("lasso-study",), ("lib-calls", "sim-grid", "np-study")),
    "lp.constraint_nonredundant": (("lasso-study",), ("lib-calls", "sim-grid", "np-study")),
    "lasso.enumerate_plausible_models": (("lasso-study",), ()),
    "lasso.lasso_solve": (("lasso-study",), ()),
    "lasso.safe_screening": (("lasso-study",), ()),
    "lasso.column_max_quantile": (("lasso-study",), ()),
    "lasso.posi_intervals": (("lasso-study",), ()),
    "sphere.sphere_interval": (("sim-grid",), _NOT_SIM),
    "sphere.mu_norm_lower_bound": (("sim-grid",), _NOT_SIM),
    "sphere.s_tau": (("sim-grid",), _NOT_SIM),
    "sphere.cap_quantile": (("sim-grid",), _NOT_SIM),
    "erm.erm_risk_bound": (("sim-grid",), _NOT_SIM),
    "erm.rademacher_mc": (("sim-grid",), _NOT_SIM),
    "erm.plausible_hypotheses": (("sim-grid",), _NOT_SIM),
    "experiments.run_experiment": (_STUDIES, ("lib-calls",)),
    "experiments.write_csv": (_STUDIES, ("lib-calls",)),
    "cli.main": (_STUDIES, ("lib-calls",)),
    "theory_core.compose": ((), _ALL),
}


def call_pattern(name: str, table, full_cycle: bool) -> list:
    """(function, predicted, calls, holds) for each CALL_PATTERN row that
    names workload ``name``.  "Must call" is judged only when the traced
    ops cover a whole cycle."""
    rows = []
    for fn, (used, bypassed) in CALL_PATTERN.items():
        calls = table[fn]["calls"]
        if name in bypassed:
            rows.append((fn, "0", calls, calls == 0))
        elif name in used and full_cycle:
            rows.append((fn, ">0", calls, calls > 0))
    return rows


def loop(workload, seconds=None, indices=None):
    """Run ops back to back: for ``seconds`` from op 0 on, or exactly the
    ops in ``indices``.  An op is not started when its kind's last duration
    says it would end past the deadline."""
    records = []
    last = {}
    start = time.perf_counter()
    k = 0
    while indices is None or k < len(indices):
        index = k if indices is None else indices[k]
        op = workload.op(index)
        if indices is None and time.perf_counter() - start + last.get(op.position, 0.0) > seconds:
            break
        k += 1
        error = digest = None
        t0 = time.perf_counter()
        try:
            result = op.call()
        except Exception:  # any failure of the program is a failed op
            t1 = time.perf_counter()
            error = traceback.format_exc()
        else:
            t1 = time.perf_counter()
            try:
                digest = op.digest(result)
            except OpFailure as exc:
                error = f"invalid output: {exc}"
        last[op.position] = t1 - t0
        records.append({"index": index, "position": op.position, "label": op.label,
                        "trials": op.trials, "seconds": t1 - t0, "hash": digest,
                        "error": error})
        if error:
            _loud(f"op {index} ({op.label}) FAILED: {error}")
    return records


def _loud(message: str) -> None:
    print(f"!!! {message}", file=sys.stderr, flush=True)


def gate(name: str, records, seed: int, reference_seed: int, failures) -> int:
    """At the reference seed, mark each op whose hash differs from the frozen
    reference as failed; returns the number of ops compared.  Ops past the
    end of the reference are a failed check: the program got fast enough to
    outrun it, and freeze.py must be run again."""
    if seed != reference_seed:
        return 0
    with open(REFERENCE_FILE) as fh:
        refs = json.load(fh).get(name, [])
    checked = unchecked = 0
    for r in records:
        if r["hash"] is None:
            continue
        if r["index"] >= len(refs):
            unchecked += 1
            continue
        checked += 1
        if r["hash"] != refs[r["index"]]:
            r["error"] = f"statistics hash {r['hash']} != reference {refs[r['index']]}"
            _loud(f"op {r['index']} ({r['label']}) HASH MISMATCH: {r['error']}")
    if unchecked:
        failures.append(f"{unchecked} ops ran past the {len(refs)} frozen reference "
                        f"hashes of {name}; run perfbench/freeze.py again")
        _loud(failures[-1])
    return checked


def weighted_percentile(pairs, q: float) -> float:
    """Nearest-rank percentile of (value, weight) pairs."""
    pairs = sorted(pairs)
    target = q * sum(w for _, w in pairs)
    cum = 0.0
    for value, weight in pairs:
        cum += weight
        if cum >= target:
            return value
    return pairs[-1][0]


def end_to_end(workload, records) -> dict:
    ok = [r for r in records if r["error"] is None]
    by_kind = defaultdict(list)
    for r in ok:
        by_kind[workload.kinds[r["position"]]].append(r["seconds"])
    # Each kind of op is summarised by its median duration, which a stretch
    # of slow ops cannot move.  The pinned study (one cycle) takes the sum of
    # these medians over its ops.  A trial of a kind takes the kind's median
    # over its trials per op; the percentiles are taken over the pinned
    # study's trials, so each kind weighs the trials it has in one cycle.
    per_cycle = Counter(workload.kinds)
    trials = dict(zip(workload.kinds, workload.trials))
    medians = {k: statistics.median(v) for k, v in by_kind.items()}
    study_s = sum(per_cycle[k] * s for k, s in medians.items())
    study_trials = sum(per_cycle[k] * trials[k] for k in medians)
    per_trial = [(1000.0 * s / trials[k], per_cycle[k] * trials[k])
                 for k, s in medians.items()]
    return {
        "trials_per_s": study_trials / study_s if study_s else 0.0,
        "trial_ms_p50": weighted_percentile(per_trial, 0.5) if ok else 0.0,
        "trial_ms_p90": weighted_percentile(per_trial, 0.9) if ok else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "counts": {
            # Nearest-rank p90 over every op's own latency per trial, so a
            # tail that grows inside a kind shows next to trial_ms_p90.
            "op_trial_ms_p90": weighted_percentile(
                [(1000.0 * r["seconds"] / r["trials"], r["trials"]) for r in ok], 0.9)
                if ok else 0.0,
            "ops": len(ok),
            "trials": sum(r["trials"] for r in ok),
            "kinds_measured": len(by_kind),
            "kinds": len(per_cycle),
            "ops_per_kind_min": min((len(v) for v in by_kind.values()), default=0),
        },
    }


def _plain_recount(captured):
    """LP counts of the plain rule (use_safe=False) on flood fills the traced
    run made with the safe rules, outside any timed window.  The model sets
    must agree, since the safe rules only skip LPs whose answer they know."""
    import locsim.lasso as lasso_mod

    safe = plain = 0
    for args, frontier in captured:
        kwargs = dict(args, use_safe=False)
        _, plain_frontier = lasso_mod.enumerate_plausible_models(**kwargs)
        if {p.M for p in plain_frontier.visited} != {p.M for p in frontier.visited}:
            raise OpFailure("safe and plain flood fills visited different models")
        safe += frontier.lp_count
        plain += plain_frontier.lp_count
    return safe, plain


def per_layer(workload, tracer: Tracer, traced, untraced, failures) -> tuple:
    table = tracer.aggregate()
    counts = tracer.counts
    # The first cycle of the untraced pass also pays for warming up, so the
    # overhead compares the two passes from the second cycle on.
    skip = len(workload.cycle) if len(traced) >= 2 * len(workload.cycle) else 0
    out = {
        "trace.overhead_s": sum(r["seconds"] for r in traced[skip:])
                            - sum(r["seconds"] for r in untraced[skip:]),
        "trace.ops": len(traced),
        "trace.trials": sum(r["trials"] for r in traced),
    }
    for f in _CALLS_AND_BUSY + _CALLS_ONLY:
        out[f"{f}.calls"] = table[f]["calls"]
    for f in _CALLS_AND_BUSY + _BUSY_ONLY:
        out[f"{f}.busy_s"] = table[f]["busy_s"]
    for f in _SELF:
        out[f"{f}.self_s"] = table[f]["self_s"]
    for key in ("stats_core.max_stat_quantile_mc.normals",
                "stats_core.betting_capital_peaks.cells",
                "stats_core.contrast_quantile_mc.madds",
                "lasso.lp_count", "lasso.safe_skips", "lasso.models_visited",
                "cli.exit_nonzero"):
        out[key] = int(counts[key])
    lp_tests = table["lp.constraint_nonredundant"]["calls"]
    out["lp.constraint_nonredundant.active_frac"] = (
        counts["lp.constraint_nonredundant.active"] / lp_tests if lp_tests else 0.0)
    for key in ("winner.plausible_frac", "erm.plausible_frac"):
        n = counts[f"{key}.n"]
        out[key] = counts[f"{key}.sum"] / n if n else 0.0
    fills = table["lasso.enumerate_plausible_models"]["calls"]
    out["lasso.capped_frac"] = counts["lasso.capped"] / fills if fills else 0.0
    try:
        safe, plain = _plain_recount(tracer.captured)
    except OpFailure as exc:
        _loud(f"plain-rule recount FAILED: {exc}")
        failures.append(str(exc))
        safe = plain = 0
    out["lasso.lp_count_safe_sample"] = safe
    out["lasso.lp_count_plain_sample"] = plain
    out["lasso.safe_skip_frac"] = 1.0 - safe / plain if plain else 0.0
    return out, table


def run(workload, seed: int, seconds: float, trace: int, reference_seed: int) -> dict:
    """Measure one workload; ``failures`` lists failed checks that belong to
    no single op."""
    failures = []
    if not trace:
        records = loop(workload, seconds=seconds)
        checked = gate(workload.name, records, seed, reference_seed, failures)
        metrics = end_to_end(workload, records)
        counts = metrics.pop("counts")
        if counts["kinds_measured"] < counts["kinds"]:
            failures.append("the window was too short to run every command of the study")
        return {"records": records, "metrics": metrics, "counts": counts,
                "reference_checked": checked, "failures": failures}

    untraced = loop(workload, seconds=seconds / 2.0)
    checked = gate(workload.name, untraced, seed, reference_seed, failures)
    tracer = Tracer()
    tracer.install()
    try:
        traced = loop(workload, indices=[r["index"] for r in untraced])
    finally:
        tracer.uninstall()
    for u, t in zip(untraced, traced):
        if t["error"] is None and t["hash"] != u["hash"]:
            t["error"] = f"traced hash {t['hash']} != untraced hash {u['hash']}"
            _loud(f"op {t['index']} ({t['label']}) {t['error']}")
    metrics, table = per_layer(workload, tracer, traced, untraced, failures)
    pattern = call_pattern(workload.name, table, len(traced) >= len(workload.cycle))
    for fn, predicted, calls, holds in pattern:
        if not holds:
            failures.append(f"{fn} recorded {calls} calls on {workload.name}; "
                            f"the call pattern predicts {predicted}")
            _loud(failures[-1])
    return {"records": untraced + traced, "metrics": metrics, "layers": table,
            "call_pattern": pattern,
            "counts": {"ops": len(traced), "trials": metrics["trace.trials"]},
            "reference_checked": checked, "failures": failures,
            "spans": tracer.span_records()}


def machine_record() -> dict:
    """Machine and library facts printed with every result."""
    rec = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
    }
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        rec["blas"] = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        rec["blas"] = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            rec["cpu_model"] = next(line.split(":", 1)[1].strip() for line in fh
                                    if line.startswith("model name"))
    except (OSError, StopIteration):
        rec["cpu_model"] = platform.processor() or "unknown"
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    for level in ("2", "3"):
        rec[f"l{level}"] = "unknown"
        try:
            for entry in sorted(os.listdir(cache_dir)):
                base = os.path.join(cache_dir, entry)
                with open(os.path.join(base, "level")) as fh:
                    if fh.read().strip() != level:
                        continue
                with open(os.path.join(base, "size")) as fh:
                    rec[f"l{level}"] = fh.read().strip()
        except OSError:
            pass
    return rec
