"""The four workloads of the locsim benchmark.

A workload builds its inputs from the seed in ``setup`` and then hands out
ops by index.  Ops come in a fixed cycle, and one cycle is the pinned study.
Op ``i`` depends only on (seed, i), so its statistics hash repeats across
runs and commits.  An op is one call into locsim's public entry points: a
library interval call (lib-calls), or one ``locsim`` command run in-process
through ``locsim.cli.main`` (the three study workloads).  A trial is one
simulated outcome processed by every method of its cell, one ``--data``
analysis, or one library call.

Why these workloads:

* lib-calls: the single-call path of the quick start.  Nearly all of its
  time is ``stats_core.max_stat_quantile_mc``, which draws twice per call
  and factors the covariance of every plausible subset again.  No other
  workload calls it.
* sim-grid: the parametric coverage studies.  Their time goes to the scalar
  bisection in ``winner.conditional_winner_interval``, to the runners'
  per-trial loops and shared draw table, and to the sphere and ERM
  Monte-Carlo.  It never calls ``max_stat_quantile_mc``, ``lp`` or betting,
  so it is the no-change side for those layers.
* np-study: bounded-sample studies.  ``stats_core.betting_capital_peaks``
  takes most of a trial at n=1000; the ``--data`` arm reaches the same
  kernel through ``betting_ci``, once per realized column.
* lasso-study: the post-LASSO flood fill at d=8.  The default arm is bound
  by its LPs.  The p_max=1 arm is always capped, falls back to all 2^8
  supports and spends its time in ``posi_intervals`` and
  ``contrast_quantile_mc``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import locsim.cli as cli_mod
import locsim.winner as winner_mod
from locsim.experiments import generate_mu_reference_scaled, rbf_covariance
from locsim.stats_core import GaussianNoise, RngSpec
from locsim.theory_core import BudgetSplit

N_DRAWS = 10_000
PHI = 20.0
FILEDRAWER_THRESHOLD = -1.0
THETAS = (0.5, 2.0, 4.0)
CS = (10.0, 30.0)

# The CSV schema the README documents; checked here, not imported, so that a
# change to the program's header fails the benchmark.
CSV_HEADER = ("scenario,method,param_theta,param_C,param_m,param_phi,"
              "median_width,q05_width,q95_width,coverage,runtime_ms")


class OpFailure(Exception):
    """An op whose output breaks an invariant the benchmark checks."""


@dataclass
class Op:
    index: int
    position: int            # position in the cycle, i.e. the op's kind
    label: str
    trials: int
    call: Callable[[], object]
    digest: Callable[[object], str]


def _sha(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def _g10(values) -> str:
    return " ".join(f"{float(v):.10g}" for v in values)


def derived_seed(seed: int, index: int) -> int:
    """Seed of op ``index``'s command, a 63-bit function of (seed, index)."""
    state = np.random.SeedSequence([seed, index]).generate_state(1, np.uint64)
    return int(state[0]) >> 1


# ---------------------------------------------------------------------------
# lib-calls
# ---------------------------------------------------------------------------

def _lib_cycle():
    """20 calls: sizes 10, 100, 10, 100, 1000 repeated (2:2:1), winner and
    file-drawer calls alternating.  m=10 and m=100 alternate iid and RBF
    noise.  Three of the four m=1000 calls use iid noise: p90 lies in the
    middle of the m=1000 class, and with a 3:1 split it falls inside the iid
    calls instead of on the gap between them and the slower RBF calls."""
    sizes = (10, 100, 10, 100, 1000)
    big_kinds = ("iid", "iid", "rbf", "iid")
    seen = {10: 0, 100: 0}
    cycle = []
    for pos in range(20):
        m = sizes[pos % 5]
        if m == 1000:
            kind = big_kinds[pos // 5]
        else:
            kind = ("iid", "rbf")[seen[m] % 2]
            seen[m] += 1
        cycle.append((m, "winner" if pos % 2 == 0 else "filedrawer", kind))
    return tuple(cycle)


class LibCalls:
    name = "lib-calls"
    cycle = _lib_cycle()
    # Winner and file-drawer calls of one size and noise do the same
    # screening draw, so they form one kind of op.
    kinds = tuple(f"m={m} {kind}" for m, _, kind in cycle)
    trials = (1,) * len(cycle)

    def setup(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.budget = BudgetSplit.default(0.1)
        self.noise = {}
        for m in (10, 100, 1000):
            self.noise[m, "iid"] = GaussianNoise.iid(m)
            self.noise[m, "rbf"] = GaussianNoise(rbf_covariance(m, PHI))
        self.mu = {(m, t, c): generate_mu_reference_scaled(m, t, c)
                   for m in (10, 100, 1000) for t in THETAS for c in CS}

    def op(self, index: int) -> Op:
        pos = index % len(self.cycle)
        m, fn, kind = self.cycle[pos]
        gen = np.random.default_rng([self.seed, index])
        theta = THETAS[gen.integers(len(THETAS))]
        c = CS[gen.integers(len(CS))]
        noise = self.noise[m, kind]
        # Outcomes are drawn here, not through GaussianNoise.sample, so that
        # building inputs never shows up in the traced layers.
        y = self.mu[m, theta, c] + noise.factor @ gen.standard_normal(m)
        rng = RngSpec(self.seed, index)
        budget = self.budget
        if fn == "winner":
            expected = np.array([int(np.argmax(y))])

            def call():
                problem = winner_mod.WinnerProblem(y, noise, budget)
                return winner_mod.winner_interval(problem, rng, N_DRAWS)
        else:
            expected = np.flatnonzero(y >= FILEDRAWER_THRESHOLD)

            def call():
                problem = winner_mod.FileDrawerProblem(y, FILEDRAWER_THRESHOLD, noise, budget)
                return winner_mod.filedrawer_region(problem, rng, N_DRAWS)

        def digest(iv) -> str:
            if not np.array_equal(iv.indices, expected):
                raise OpFailure(f"selected {iv.indices.tolist()}, expected {expected.tolist()}")
            if not np.array_equal(iv.centers, y[expected]):
                raise OpFailure("interval centers are not the selected outcomes")
            hw = iv.half_widths
            if not (np.all(np.isfinite(hw)) and np.all(hw > 0)):
                raise OpFailure(f"half widths not finite and positive: {hw.tolist()}")
            if abs(iv.level - (1.0 - budget.alpha)) > 1e-12:
                raise OpFailure(f"level {iv.level} != {1.0 - budget.alpha}")
            return _sha([" ".join(str(int(i)) for i in iv.indices),
                         _g10(iv.centers), _g10(iv.half_widths)])

        return Op(index, pos, f"{fn} m={m} {kind}", 1, call, digest)


# ---------------------------------------------------------------------------
# Study workloads: pinned studies of `locsim` commands
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Command:
    label: str
    argv: tuple              # may name {dir}, the run's work directory
    trials: int
    rows: int                # CSV rows the command writes


def _check_csv(path: str, rows: int) -> str:
    """Validate a result CSV and hash every column except runtime_ms."""
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise OpFailure(f"no readable CSV: {exc}") from None
    if not lines or lines[0] != CSV_HEADER:
        raise OpFailure(f"unexpected CSV header in {os.path.basename(path)}")
    body = lines[1:]
    if len(body) != rows:
        raise OpFailure(f"{len(body)} CSV rows, expected {rows}")
    kept = [lines[0].rsplit(",", 1)[0]]
    for line in body:
        cells = line.split(",")
        if len(cells) != 11:
            raise OpFailure(f"malformed CSV row {line!r}")
        try:
            num = [float(v) if v else None for v in cells[2:10]]
        except ValueError:
            raise OpFailure(f"non-numeric CSV cell in {line!r}") from None
        q05, med, q95 = num[5], num[4], num[6]
        cov = num[7]
        if any(v is not None and math.isnan(v) for v in num):
            raise OpFailure(f"NaN in CSV row {line!r}")
        if None not in (q05, med, q95) and not (0 <= q05 <= med <= q95):
            raise OpFailure(f"width quantiles out of order in {line!r}")
        if cov is not None and not 0.0 <= cov <= 1.0:
            raise OpFailure(f"coverage outside [0, 1] in {line!r}")
        kept.append(",".join(cells[:10]))
    return _sha(kept)


class Study:
    """A pinned study: a cycle of ``locsim`` commands run through cli.main."""

    name: str
    commands: tuple

    @property
    def cycle(self):
        return self.commands

    @property
    def kinds(self):
        return tuple(c.label for c in self.commands)

    @property
    def trials(self):
        return tuple(c.trials for c in self.commands)

    def setup(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.out = os.path.join(workdir, "op.csv")
        self.write_inputs(np.random.default_rng([seed, 0x1D]))

    def write_inputs(self, gen) -> None:
        """Write the study's input files into the work directory."""
        raise NotImplementedError

    def op(self, index: int) -> Op:
        pos = index % len(self.commands)
        cmd = self.commands[pos]
        argv = [a.format(dir=self.workdir) for a in cmd.argv]
        argv += ["--seed", str(derived_seed(self.seed, index)), "--out", self.out]
        if os.path.exists(self.out):
            os.remove(self.out)

        def call():
            with contextlib.redirect_stdout(io.StringIO()):
                return cli_mod.main(argv)

        def digest(code) -> str:
            if code != 0:
                raise OpFailure(f"`locsim {' '.join(argv)}` exited with code {code}")
            return _check_csv(self.out, cmd.rows)

        return Op(index, pos, cmd.label, cmd.trials, call, digest)


class SimGrid(Study):
    # Ranked by time per trial the commands run filedrawer < figure1 < winner
    # < coverage-erm < sphere < erm-data, and the trial counts put 64% of the
    # trials in filedrawer and the 85-97% band in coverage-erm.  So the
    # trial-weighted p50 is filedrawer's latency and p90 coverage-erm's, both
    # well inside their bands; the conditional bisection of figure1 and
    # winner, whose latency swings most with the host's load, sets neither.
    # Filedrawer runs as three small commands so that its median pools many.
    name = "sim-grid"
    commands = (
        Command("figure1", ("figure1", "--trials", "40"), 40 * 11, 44),
        Command("filedrawer", ("filedrawer", "--trials", "30"), 30 * 24, 48),
        Command("winner", ("winner", "--trials", "10"), 10 * 24, 84),
        Command("filedrawer", ("filedrawer", "--trials", "30"), 30 * 24, 48),
        Command("coverage-erm", ("coverage", "--problem", "erm", "--trials", "400"), 400, 1),
        Command("filedrawer", ("filedrawer", "--trials", "30"), 30 * 24, 48),
        Command("sphere", ("sphere", "--trials", "50"), 50 * 2, 6),
        Command("erm-data", ("erm", "--data", "{dir}/losses.csv"), 1, 1),
    )

    def write_inputs(self, gen) -> None:
        means = np.linspace(0.1, 0.9, 50)
        losses = (gen.random((200, means.size)) < means).astype(float)
        with open(os.path.join(self.workdir, "losses.csv"), "w") as fh:
            fh.write(",".join(f"h{j}" for j in range(means.size)) + "\n")
            np.savetxt(fh, losses, delimiter=",", fmt="%.0f")


class NpStudy(Study):
    # Trial-weighted, p50 is winner-np's latency and p90 winner-np --data's.
    name = "np-study"
    commands = (
        Command("winner-np", ("winner-np", "--trials", "2"), 2 * 6, 24),
        Command("winner-np-data", ("winner-np", "--data", "{dir}/samples.csv"), 1, 1),
        Command("filedrawer-np-data", ("filedrawer-np", "--data", "{dir}/samples.csv",
                                       "--threshold", "0.3"), 1, 1),
    )

    def write_inputs(self, gen) -> None:
        # Column means step by 0.006 with the threshold 0.3 halfway between
        # columns 43 and 44: six columns are selected, and the threshold sits
        # six standard errors of a column mean away from every column.
        noise_mean = 0.1 * 2.0 / 7.0
        means = 0.3 + (np.arange(50) - 43.5) * 0.006
        data = means - noise_mean + 0.1 * gen.beta(2.0, 5.0, size=(1000, 50))
        np.savetxt(os.path.join(self.workdir, "samples.csv"), data,
                   delimiter=",", fmt="%.6f")


class LassoStudy(Study):
    # Trial-weighted, p50 is the default arm's latency and p90 the capped
    # arm's.  Each command draws its own design, so small commands give the
    # per-arm medians many designs.
    name = "lasso-study"
    commands = (
        Command("lasso", ("lasso", "--trials", "5"), 5, 1),
        Command("lasso-capped", ("lasso", "--trials", "2", "--config", "{dir}/capped.cfg"), 2, 1),
    )

    def write_inputs(self, gen) -> None:
        with open(os.path.join(self.workdir, "capped.cfg"), "w") as fh:
            fh.write("p_max = 1\n")


WORKLOADS = {w.name: w for w in (LibCalls, SimGrid, NpStudy, LassoStudy)}
