"""Span tracing of locsim's public functions, installed from outside the package.

Every traced function is replaced by a wrapper on every locsim module that
binds it: ``from .x import f`` makes a second binding (for example
``lasso.constraint_nonredundant`` or ``winner.max_stat_quantile_mc``), and a
module-level dict may hold a reference too (``winner._WIDTH_FNS``).  A missed
binding would read as "0 calls", which is why ``selfcheck.py`` asserts the
expected call pattern of every workload.

Each wrapper records one span (name, parent span, start, end, self time) in
memory; self time is the span's duration minus the time its direct child
spans cover.  Spans are written out only when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

# (module, qualified name) of every traced public function.  Tiny hot helpers
# (conservative_rank, normal_quantile) stay unwrapped: their wrapper would
# cost more than their body.
TRACED = (
    ("stats_core", "GaussianNoise.restrict"),
    ("stats_core", "GaussianNoise.sample"),
    ("stats_core", "max_abs_quantile_iid"),
    ("stats_core", "max_stat_quantile_mc"),
    ("stats_core", "contrast_quantile_mc"),
    ("stats_core", "hoeffding_width"),
    ("stats_core", "bentkus_width"),
    ("stats_core", "betting_ci"),
    ("stats_core", "betting_capital_peaks"),
    ("stats_core", "betting_interval_from_peaks"),
    ("theory_core", "compose"),
    ("winner", "plausible_winner_set"),
    ("winner", "plausible_filedrawer_set"),
    ("winner", "winner_interval"),
    ("winner", "filedrawer_region"),
    ("winner", "np_winner_interval"),
    ("winner", "np_filedrawer_region"),
    ("winner", "two_candidate_interval"),
    ("winner", "conditional_winner_interval"),
    ("lp", "lp_maximize"),
    ("lp", "constraint_nonredundant"),
    ("lasso", "lasso_solve"),
    ("lasso", "selection_polyhedron"),
    ("lasso", "safe_screening"),
    ("lasso", "exact_screening"),
    ("lasso", "enumerate_plausible_models"),
    ("lasso", "posi_intervals"),
    ("lasso", "projection_truth"),
    ("lasso", "column_max_quantile"),
    ("lasso", "marginal_screening_plausible"),
    ("erm", "load_loss_matrix"),
    ("erm", "rademacher_mc"),
    ("erm", "plausible_hypotheses"),
    ("erm", "erm_risk_bound"),
    ("sphere", "mu_norm_lower_bound"),
    ("sphere", "s_tau"),
    ("sphere", "cap_quantile"),
    ("sphere", "cap_angle"),
    ("sphere", "sphere_interval"),
    ("experiments", "run_experiment"),
    ("experiments", "run_coverage"),
    ("experiments", "write_csv"),
    ("experiments", "load_config"),
    ("cli", "main"),
)

# Uncapped enumerate_plausible_models calls kept for the plain-rule LP recount.
CAPTURE_LIMIT = 10


def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _count_max_stat(counts, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    subset = {int(i) for i in np.asarray(a["subset"]).ravel()}
    counts["stats_core.max_stat_quantile_mc.normals"] += a["n_draws"] * len(subset)


def _count_contrast(counts, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    k, d = np.atleast_2d(np.asarray(a["contrasts"])).shape
    counts["stats_core.contrast_quantile_mc.madds"] += a["n_draws"] * k * d


def _count_betting(counts, fn, args, kwargs, result):
    grid, _ = result
    n = np.asarray(args[0] if args else kwargs["samples"]).size
    counts["stats_core.betting_capital_peaks.cells"] += n * grid.size


def _count_plausible(counts, fn, args, kwargs, result):
    y = np.asarray(args[0] if args else kwargs["y"]).ravel()
    counts["winner.plausible_frac.sum"] += result.size / y.size
    counts["winner.plausible_frac.n"] += 1


def _count_erm_plausible(counts, fn, args, kwargs, result):
    losses = args[0] if args else kwargs["losses"]
    counts["erm.plausible_frac.sum"] += len(result) / losses.n_hypotheses
    counts["erm.plausible_frac.n"] += 1


def _count_redundancy(counts, fn, args, kwargs, result):
    counts["lp.constraint_nonredundant.active"] += bool(result.nonredundant)


def _count_frontier(counts, fn, args, kwargs, result):
    _, frontier = result
    counts["lasso.lp_count"] += frontier.lp_count
    counts["lasso.safe_skips"] += frontier.safe_skips
    counts["lasso.models_visited"] += len(frontier.visited)
    counts["lasso.capped"] += bool(frontier.capped)


def _count_exit(counts, fn, args, kwargs, result):
    counts["cli.exit_nonzero"] += result != 0


COUNTERS = {
    "stats_core.max_stat_quantile_mc": _count_max_stat,
    "stats_core.contrast_quantile_mc": _count_contrast,
    "stats_core.betting_capital_peaks": _count_betting,
    "winner.plausible_winner_set": _count_plausible,
    "winner.plausible_filedrawer_set": _count_plausible,
    "erm.plausible_hypotheses": _count_erm_plausible,
    "lp.constraint_nonredundant": _count_redundancy,
    "lasso.enumerate_plausible_models": _count_frontier,
    "cli.main": _count_exit,
}


def locsim_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "locsim" or name.startswith("locsim."))]


def _rebind(old, new) -> int:
    """Point every binding of ``old`` in locsim's modules (attributes and
    module-level dicts) at ``new``; returns the number of bindings moved."""
    moved = 0
    for mod in locsim_modules():
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)
                moved += 1
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if item is old:
                        value[key] = new
                        moved += 1
    return moved


class Tracer:
    """In-memory span recorder for one traced pass."""

    def __init__(self):
        self.names = [f"{mod}.{qual}" for mod, qual in TRACED]
        self.spans = []          # (span id, name index, parent id, start, end, self)
        self.counts = defaultdict(float)
        self.captured = []       # bound arguments of enumerate_plausible_models
        self._stack = []         # [span id, child time] of the open spans
        self._next_id = 0
        self._installed = []     # (owner, attribute, original, wrapper)

    def _wrap(self, index, fn):
        name = self.names[index]
        counter = COUNTERS.get(name)
        capture = name == "lasso.enumerate_plausible_models"
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                spans.append((sid, index, parent, start, end, duration - frame[1]))
            if counter is not None:
                counter(self.counts, fn, args, kwargs, result)
            if capture and not result[1].capped and len(self.captured) < CAPTURE_LIMIT:
                self.captured.append((_bound(fn, args, kwargs), result[1]))
            return result

        return wrapper

    def install(self) -> None:
        import locsim  # noqa: F401  (all submodules load with the package)

        for index, (mod_name, qual) in enumerate(TRACED):
            module = sys.modules[f"locsim.{mod_name}"]
            if "." in qual:
                cls_name, meth = qual.split(".")
                owner = getattr(module, cls_name)
                original = vars(owner)[meth]
                wrapper = self._wrap(index, original)
                setattr(owner, meth, wrapper)
                self._installed.append((owner, meth, original, wrapper))
            else:
                original = getattr(module, qual)
                wrapper = self._wrap(index, original)
                if _rebind(original, wrapper) == 0:
                    raise RuntimeError(f"no binding found for {mod_name}.{qual}")
                self._installed.append((None, qual, original, wrapper))

    def uninstall(self) -> None:
        for owner, attr, original, wrapper in reversed(self._installed):
            if owner is not None:
                setattr(owner, attr, original)
            else:
                _rebind(wrapper, original)
        self._installed.clear()

    def aggregate(self) -> dict:
        """Per traced function: calls, busy seconds and self seconds."""
        table = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for name in self.names}
        links = {sid: (index, parent) for sid, index, parent, *_ in self.spans}
        for sid, index, parent, start, end, self_s in self.spans:
            row = table[self.names[index]]
            row["calls"] += 1
            row["self_s"] += self_s
            # Busy time counts only the outermost span of a name, so a
            # function reached recursively is not counted twice.
            while parent != -1 and links[parent][0] != index:
                parent = links[parent][1]
            if parent == -1:
                row["busy_s"] += end - start
        return table

    def span_records(self) -> list:
        return [{"id": sid, "name": self.names[index], "parent": parent,
                 "start": start, "end": end, "self_s": self_s}
                for sid, index, parent, start, end, self_s in self.spans]
