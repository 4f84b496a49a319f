import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import locsim.experiments as experiments_mod
import locsim.lasso as lasso_mod
from locsim import cli
from locsim.experiments import (
    CSV_HEADER,
    ConfigError,
    ExperimentConfig,
    ResultRow,
    apply_env_seed,
    generate_mu,
    generate_mu_reference_scaled,
    load_config,
    rbf_covariance,
    read_csv,
    run_coverage,
    run_experiment,
    write_csv,
)
from locsim.stats_core import GaussianNoise, RngSpec, conservative_quantile


class TestGenerateMu:
    def test_symmetric_triangle(self):
        mu = generate_mu(3, 1.0, 2.0)
        assert np.allclose(mu - mu.max(), [-2.0, 0.0, -2.0])

    def test_range_exact(self):
        for m, theta, C in [(10, 0.5, 10.0), (57, 4.0, 30.0), (2, 1.0, 5.0)]:
            if m == 2:
                with pytest.raises(ConfigError):
                    generate_mu(m, theta, C)
                continue
            mu = generate_mu(m, theta, C)
            assert mu.max() - mu.min() == pytest.approx(C, abs=1e-12)

    def test_profile_formula(self):
        m, theta, C = 10, 2.0, 10.0
        mu = generate_mu(m, theta, C)
        i = np.arange(1, m + 1)
        raw = -np.abs(i - 0.5 * (m + 1)) ** theta
        expect = raw * (C / (raw.max() - raw.min()))
        expect -= expect.max()
        assert np.allclose(mu, expect)

    def test_nonpositive_or_infinite_shape_rejected(self):
        for theta, C in ((0.0, 10.0), (-1.0, 10.0), (2.0, 0.0), (2.0, -5.0),
                         (math.inf, 10.0), (2.0, math.nan)):
            with pytest.raises(ConfigError):
                generate_mu_reference_scaled(10, theta, C)
            with pytest.raises(ConfigError):
                generate_mu(10, theta, C)

    def test_overflowing_profile_rejected(self):
        # 49.5**300 exceeds the float range at m = 100 although the m = 10
        # reference range 4.5**300 does not: no profile, and no warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError):
                generate_mu_reference_scaled(100, 300.0, 10.0)

    def test_reference_scaling_appends_far_below(self):
        small = generate_mu_reference_scaled(10, 2.0, 10.0)
        big = generate_mu_reference_scaled(100, 2.0, 10.0)
        assert small.max() - small.min() == pytest.approx(10.0)
        assert big.max() - big.min() > 10.0

    def test_rbf_huge_length_scale_is_all_ones_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cov = rbf_covariance(5, 1e300)
        assert np.array_equal(cov, np.ones((5, 5)))

    @pytest.mark.parametrize("phi", [20.0, 5.0, 0.3, 1e-3, 1e-160, 1e200, np.inf])
    def test_rbf_matches_kernel_formula(self, phi):
        diff = np.subtract.outer(np.arange(7.0), np.arange(7.0))
        with np.errstate(over="ignore"):
            formula = np.exp(-(diff**2) / (2.0 * np.square(phi)))
        assert np.array_equal(rbf_covariance(7, phi), formula)

    def test_rbf_tiny_length_scale_is_identity_without_warning(self):
        # 2 phi^2 underflows to 0, so the diagonal is 0/0 until it is set.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cov = rbf_covariance(5, 1e-200)
        assert np.array_equal(cov, np.eye(5))

    def test_rbf_unit_diagonal(self):
        cov = rbf_covariance(30, 5.0)
        assert np.allclose(np.diag(cov), 1.0)
        assert cov[0, 1] > cov[0, 10]


class TestResultRow:
    def test_quantile_order_enforced(self):
        with pytest.raises(ValueError):
            ResultRow("s", "m", median_width=1.0, q05_width=2.0, q95_width=3.0)

    def test_coverage_range(self):
        with pytest.raises(ValueError):
            ResultRow("s", "m", coverage=1.4)


class TestCellRows:
    """``_cell_rows`` builds every simulated row from a cell's arms."""

    @staticmethod
    def _csv_cells(rows, tmp_path):
        path = tmp_path / "rows.csv"
        write_csv(rows, path)
        return [dict(zip(CSV_HEADER.split(","), line.split(",")))
                for line in path.read_text().splitlines()[1:]]

    def test_arm_order_and_one_runtime(self, monkeypatch):
        monkeypatch.setattr(experiments_mod.time, "perf_counter", lambda: 10.0)
        arms = {method: ([1.0], [True]) for method in ("simultaneous", "local", "nominal")}
        rows = experiments_mod._cell_rows("s", arms, 7.5, param_m=3)
        assert [r.method for r in rows] == ["simultaneous", "local", "nominal"]
        assert {(r.scenario, r.param_m, r.runtime_ms) for r in rows} == {("s", 3, 2500)}

    def test_nan_widths_skip_quantiles_but_count_in_coverage(self):
        arms = {"local": ([3.0, np.nan, 1.0, 2.0], [True, True, False, True])}
        (row,) = experiments_mod._cell_rows("s", arms, 0.0)
        assert (row.q05_width, row.median_width, row.q95_width) == (1.0, 2.0, 2.0)
        assert row.coverage == 0.75

    def test_infinite_width_is_kept(self, tmp_path):
        arms = {"conditional": ([1.0, 2.0, np.inf, np.inf], [True] * 4)}
        rows = experiments_mod._cell_rows("s", arms, 0.0)
        assert (rows[0].median_width, rows[0].q95_width) == (2.0, math.inf)
        assert self._csv_cells(rows, tmp_path)[0]["q95_width"] == "inf"
        assert read_csv(tmp_path / "rows.csv")[0].q95_width == math.inf

    def test_all_nan_arm_and_no_coverage_write_empty_cells(self, tmp_path):
        arms = {"local": ([np.nan, np.nan], [True, False]), "nominal": ([1.0], None)}
        local, nominal = self._csv_cells(experiments_mod._cell_rows("s", arms, 0.0),
                                         tmp_path)
        assert local["median_width"] == local["q05_width"] == local["q95_width"] == ""
        assert local["coverage"] == "0.5"
        assert nominal["median_width"] == "1" and nominal["coverage"] == ""


class TestCsv:
    def test_header_and_round_trip(self, tmp_path):
        cfg = ExperimentConfig(kind="figure1", trials=3, seed=5,
                               delta_grid=(0.0, 5.0),
                               out=str(tmp_path / "f.csv"))
        rows = run_experiment(cfg)
        text = (tmp_path / "f.csv").read_text().splitlines()
        assert text[0] == CSV_HEADER
        back = read_csv(tmp_path / "f.csv")
        assert len(back) == len(rows)
        assert back[0].scenario == rows[0].scenario
        assert back[0].median_width == pytest.approx(rows[0].median_width, rel=1e-9)

    def test_statistical_content_deterministic(self, tmp_path):
        def lines(path):
            cfg = ExperimentConfig(kind="figure1", trials=4, seed=9,
                                   delta_grid=(0.0, 3.0), out=str(path))
            run_experiment(cfg)
            out = []
            for ln in path.read_text().splitlines():
                cells = ln.split(",")
                out.append(",".join(cells[:-1]))  # runtime_ms is wall clock
            return out

        a = lines(tmp_path / "a.csv")
        b = lines(tmp_path / "b.csv")
        assert a == b


class TestConfigFile:
    def test_parse_and_types(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text(
            "# comment\n"
            "alpha = 0.2\n"
            "nu = 0.02\n"
            "trials = 7\n"
            "theta_grid = 0.5, 2\n"
            "cov_kinds = iid\n"
            "out = results.csv\n"
        )
        cfg = load_config(path)
        assert cfg.alpha == 0.2 and cfg.nu == 0.02 and cfg.trials == 7
        assert cfg.theta_grid == (0.5, 2)
        assert cfg.cov_kinds == ("iid",)
        assert cfg.out == "results.csv"

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg"
        # An unknown key, and values that do not parse as the key's type.
        for text in ("bogus = 1\n", "alpha = abc\n", "trials = 1.5\n"):
            path.write_text(text)
            with pytest.raises(ConfigError):
                load_config(path)

    def test_env_seed_override(self, tmp_path, monkeypatch):
        path = tmp_path / "cfg"
        path.write_text("seed = 3\n")
        monkeypatch.setenv("LOCSIM_SEED", "99")
        cfg = load_config(path)
        assert cfg.seed == 99
        monkeypatch.setenv("LOCSIM_SEED", "zzz")
        with pytest.raises(ConfigError):
            apply_env_seed(ExperimentConfig())

    def test_budget_validation(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(kind="winner", alpha=0.1, nu=0.5).validate()
        with pytest.raises(ConfigError):
            ExperimentConfig(kind="bogus").validate()
        for bad in ({"kind": "winner", "cov_kinds": ("iid", "foo")},
                    {"kind": "filedrawer", "cov_kinds": ("foo",)},
                    {"kind": "winner-np", "ci_kind": "foo"},
                    {"kind": "winner-np", "bound_kind": "foo"},
                    {"kind": "winner", "m_grid": (10.5,)},
                    {"kind": "winner-np", "n_grid": (100, 50.5)},
                    {"kind": "sphere", "d_grid": (3.7,)},
                    {"kind": "sphere", "d_grid": (0,)},
                    {"kind": "winner", "n_draws": 0},
                    {"kind": "filedrawer", "n_draws": 5},
                    {"kind": "winner", "phi": 0.0},
                    {"kind": "filedrawer", "phi": -3.0},
                    {"kind": "winner", "theta_grid": (0.5, 0)},
                    {"kind": "filedrawer", "c_grid": (10, -5)},
                    {"kind": "winner", "theta_grid": (300,), "m_grid": (100,)},
                    {"kind": "coverage", "problem": "filedrawer", "c_grid": (10, -5)},
                    {"kind": "winner-np", "theta_grid": (2.0, -1.0)},
                    {"kind": "lasso", "d": 0},
                    {"kind": "lasso", "sparsity": 2.0},
                    {"kind": "lasso", "sparsity": -1.0},
                    {"kind": "coverage", "problem": "lasso", "sparsity": 2.0},
                    {"kind": "filedrawer-np", "data": "obs.csv"},
                    {"kind": "filedrawer-np", "data": "obs.csv", "threshold": 1.5}):
            with pytest.raises(ConfigError):
                ExperimentConfig(**bad).validate()
        for edge in ({"kind": "lasso", "d": 1, "sparsity": 0.0},
                     {"kind": "lasso", "sparsity": 1.0},
                     {"kind": "filedrawer-np", "data": "obs.csv", "threshold": 0.0},
                     {"kind": "filedrawer-np", "data": "obs.csv", "threshold": 1.0}):
            ExperimentConfig(**edge).validate()
        with pytest.raises(ConfigError):
            run_coverage(ExperimentConfig(kind="coverage", problem="winner", trials=0))


class TestRbfQuantileCache:
    """The RBF cell computes each (level, mask) order statistic once, and
    every one equals the uncached quantile of the cell's draw table."""

    @pytest.mark.parametrize("trials_fn, stream", [
        (experiments_mod._winner_trials, 1000),
        (experiments_mod._filedrawer_trials, 2000),
    ], ids=["winner", "filedrawer"])
    def test_cached_quantiles_match_uncached(self, trials_fn, stream, monkeypatch):
        cfg = ExperimentConfig(trials=200, seed=0)
        theta, C, m = 0.5, 10.0, 10
        computed = []

        def counted(stats, level):
            computed.append(level)
            return conservative_quantile(stats, level)

        monkeypatch.setattr(experiments_mod, "conservative_quantile", counted)
        mu, ys, q = experiments_mod._cell_outcomes(cfg, theta, C, m, "rbf", stream)
        asked = []

        def recorded(level, mask=None):
            asked.append((level, mask))
            return q(level, mask)

        trials_fn(cfg, cfg.budget(), mu, ys, recorded, "rbf")
        noise = GaussianNoise(rbf_covariance(m, cfg.phi))
        table = np.abs(noise.sample(RngSpec(cfg.seed, stream).child(1).generator(),
                                    cfg.n_draws)) / noise.marginal_scales
        for level, mask in asked:
            stats = (table if mask is None else table[:, mask]).max(axis=1)
            assert q(level, mask) == conservative_quantile(stats, level)
        keys = {(level, None if mask is None else mask.tobytes()) for level, mask in asked}
        assert len(asked) > len(keys) > 2
        assert len(computed) == len(keys)


class TestRunners:
    def test_winner_smoke(self):
        cfg = ExperimentConfig(kind="winner", trials=30, seed=1,
                               theta_grid=(2.0,), c_grid=(10.0,), m_grid=(10,),
                               cov_kinds=("iid", "rbf"), n_draws=2000)
        rows = run_experiment(cfg)
        methods = {r.method for r in rows}
        assert {"local", "simultaneous", "nominal"} <= methods
        assert "conditional" in methods  # iid cell defines it
        for r in rows:
            assert r.q05_width <= r.median_width <= r.q95_width

    def test_filedrawer_smoke(self):
        cfg = ExperimentConfig(kind="filedrawer", trials=20, seed=2,
                               theta_grid=(2.0,), c_grid=(10.0,), m_grid=(10,),
                               cov_kinds=("rbf",), n_draws=2000)
        rows = run_experiment(cfg)
        assert all(r.param_phi == 20.0 for r in rows)

    def test_np_smoke(self):
        cfg = ExperimentConfig(kind="winner-np", trials=5, seed=3, m=10,
                               theta_grid=(0.5,), n_grid=(50,))
        rows = run_experiment(cfg)
        assert {r.method for r in rows} == {"local", "simultaneous",
                                            "conditional", "nominal"}

    def test_lasso_smoke(self):
        cfg = ExperimentConfig(kind="lasso", trials=3, seed=4, d=4, n=60,
                               lambda0=3.0, n_draws=2000)
        rows = run_experiment(cfg)
        assert rows[0].coverage is not None

    def test_lasso_fits_once_per_trial(self, monkeypatch):
        # The selected pair comes from the flood fill's own solve.
        calls = []
        solve = lasso_mod.lasso_solve

        def counted(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(lasso_mod, "lasso_solve", counted)
        monkeypatch.setattr(experiments_mod, "lasso_solve", counted, raising=False)
        run_experiment(ExperimentConfig(kind="lasso", trials=3, seed=4, d=4, n=60,
                                        lambda0=3.0, n_draws=2000))
        assert len(calls) == 3

    def test_erm_smoke(self):
        cfg = ExperimentConfig(kind="erm", trials=5, seed=5, n=100, n_hypotheses=8)
        rows = run_experiment(cfg)
        assert rows[0].coverage == 1.0

    def test_sphere_smoke(self):
        cfg = ExperimentConfig(kind="sphere", trials=5, seed=6, d_grid=(3,),
                               n_draws=2000)
        rows = run_experiment(cfg)
        assert {r.method for r in rows} == {"local", "simultaneous", "nominal"}

    def test_coverage_dispatch(self):
        cfg = ExperimentConfig(kind="coverage", problem="figure1", trials=4,
                               seed=7, delta_grid=(0.0,))
        rows = run_coverage(cfg)
        assert all(r.coverage is not None for r in rows)
        with pytest.raises(ConfigError):
            run_coverage(ExperimentConfig(kind="coverage", problem="bogus"))

    def test_nominal_undercovers_on_flat_profile(self):
        # Uncorrected intervals on the winner with a flat mean profile:
        # selection bias drives coverage well below the 0.9 target.
        cfg = ExperimentConfig(kind="coverage", problem="winner", trials=500,
                               seed=31, theta_grid=(4.0,), c_grid=(10.0,),
                               m_grid=(100,), cov_kinds=("iid",), n_draws=2000)
        rows = run_coverage(cfg)
        nominal = [r for r in rows if r.method == "nominal"][0]
        local = [r for r in rows if r.method == "local"][0]
        assert nominal.coverage < 0.85
        assert local.coverage >= 0.88

    def test_conditional_heuristic_covers_less_than_valid_methods(self):
        # Beta noise, flat profile: the normal-approximation conditional arm
        # sits below the nonparametric methods (which overcover).
        cfg = ExperimentConfig(kind="winner-np", trials=300, seed=32, m=50,
                               theta_grid=(4.0,), n_grid=(100,))
        rows = run_experiment(cfg)
        by = {r.method: r.coverage for r in rows}
        assert by["conditional"] < min(by["local"], by["simultaneous"]) - 0.05

    def test_np_data_mode(self, tmp_path):
        gen = np.random.default_rng(0)
        data = gen.beta(2, 5, size=(40, 3))
        path = tmp_path / "obs.csv"
        np.savetxt(path, data, delimiter=",")
        cfg = ExperimentConfig(kind="winner-np", data=str(path))
        rows = run_experiment(cfg)
        assert rows[0].scenario == "winner-np:data"
        assert rows[0].median_width > 0

        cfg2 = ExperimentConfig(kind="filedrawer-np", data=str(path), threshold=0.2)
        rows2 = run_experiment(cfg2)
        assert rows2[0].scenario == "filedrawer-np:data"

    def test_missing_data_is_config_error(self):
        with pytest.raises(ConfigError):
            run_experiment(ExperimentConfig(kind="filedrawer-np"))


@pytest.fixture
def no_runner(monkeypatch):
    # Every runner reads the clock when it starts its first cell.
    class Clock:
        @staticmethod
        def perf_counter():
            raise AssertionError("a runner started")

    monkeypatch.setattr(experiments_mod, "time", Clock)


class TestEarlyRejection:
    """Config values that would fail late or give garbage rows exit 2
    before any cell runs."""

    def test_out_missing_directory_or_a_directory(self, tmp_path, no_runner):
        for out in (tmp_path / "missing" / "x.csv", tmp_path):
            assert cli.main(["sphere", "--trials", "1000", "--out", str(out)]) == 2

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
    def test_filedrawer_threshold_not_finite(self, tmp_path, no_runner, threshold):
        assert cli.main(["filedrawer", f"--threshold={threshold}"]) == 2
        cfg = tmp_path / "cfg"
        cfg.write_text(f"problem = filedrawer\nthreshold = {threshold}\n")
        assert cli.main(["coverage", "--config", str(cfg)]) == 2

    def test_delta_grid_not_finite(self, tmp_path, no_runner):
        cfg = tmp_path / "cfg"
        cfg.write_text("delta_grid = 0, nan\n")
        assert cli.main(["figure1", "--config", str(cfg)]) == 2

    def test_sphere_d_grid_below_two(self, tmp_path, no_runner):
        cfg = tmp_path / "cfg"
        cfg.write_text("d_grid = 3, 1\n")
        assert cli.main(["sphere", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("line", ["lambda0 = nan", "lambda0 = inf", "lambda0 = -1",
                                      "lambda0 = 0", "sigma = nan", "sigma = inf",
                                      "sigma = 0", "sigma = -1"])
    def test_lasso_lambda0_or_sigma_bad(self, tmp_path, no_runner, line):
        cfg = tmp_path / "cfg"
        cfg.write_text(f"{line}\n")
        assert cli.main(["lasso", "--config", str(cfg)]) == 2
        cfg.write_text(f"problem = lasso\n{line}\n")
        assert cli.main(["coverage", "--config", str(cfg)]) == 2


class TestDataRouting:
    """A ``data`` file reaches only the user-data runners of winner-np,
    filedrawer-np and erm.  Every other combination is a configuration error
    (exit 2) raised before any runner starts."""

    @staticmethod
    def _main(tmp_path, text, *argv):
        # Only a config file sets ``data`` for these kinds.
        cfg = tmp_path / "cfg"
        cfg.write_text(text)
        return cli.main([*argv, "--config", str(cfg), "--trials", "100"])

    @pytest.fixture
    def data_line(self, tmp_path):
        path = tmp_path / "obs.csv"
        np.savetxt(path, np.random.default_rng(0).beta(2, 5, size=(40, 3)), delimiter=",")
        return f"data = {path}\n"

    def test_coverage_erm_rejects_data(self, tmp_path, data_line, no_runner):
        assert self._main(tmp_path, data_line, "coverage", "--problem", "erm") == 2

    def test_coverage_winner_np_rejects_data(self, tmp_path, data_line, no_runner):
        assert self._main(tmp_path, data_line, "coverage", "--problem", "winner-np") == 2

    def test_coverage_with_data_checks_profiles_first(self, tmp_path, data_line,
                                                      no_runner, monkeypatch):
        def cell(*args):
            raise AssertionError("a winner-np cell ran")

        monkeypatch.setattr(experiments_mod, "_np_winner_cell", cell)
        text = data_line + "theta_grid = 2, 4, 0\n"
        assert self._main(tmp_path, text, "coverage", "--problem", "winner-np") == 2

    @pytest.mark.parametrize("kind", ["figure1", "winner", "filedrawer", "lasso", "sphere"])
    def test_simulation_only_kinds_reject_data(self, tmp_path, data_line, no_runner, kind):
        assert self._main(tmp_path, data_line, kind) == 2
        with pytest.raises(ConfigError):
            ExperimentConfig(kind=kind, data="obs.csv").validate()

    def test_kept_routes(self):
        for bad in ({"kind": "filedrawer-np"},
                    {"kind": "coverage", "problem": "filedrawer-np"},
                    {"kind": "coverage", "problem": "filedrawer-np", "data": "obs.csv"},
                    {"kind": "coverage", "problem": "erm", "data": "losses.csv"}):
            with pytest.raises(ConfigError):
                ExperimentConfig(**bad).validate()
        routes = {("winner-np", None): experiments_mod.run_winner_np,
                  ("winner-np", "x.csv"): experiments_mod._run_np_on_data,
                  ("filedrawer-np", "x.csv"): experiments_mod._run_np_on_data,
                  ("erm", None): experiments_mod.run_erm,
                  ("erm", "x.csv"): experiments_mod._run_erm_on_data}
        for (kind, data), runner in routes.items():
            assert experiments_mod._resolve(ExperimentConfig(kind=kind, data=data)) is runner
        assert experiments_mod._resolve(
            ExperimentConfig(kind="coverage", problem="erm")) is experiments_mod.run_erm

    def test_coverage_erm_without_data_simulates(self):
        rows = run_experiment(ExperimentConfig(kind="coverage", problem="erm", trials=3,
                                               n=50, n_hypotheses=5))
        assert [r.scenario for r in rows] == ["erm"] and rows[0].coverage is not None


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _cli(*args, env_extra=None):
    # The child imports locsim from this checkout, installed or not.
    env = dict(os.environ, PYTHONPATH=SRC)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "locsim.cli", *args],
                          capture_output=True, text=True, env=env)


class TestCli:
    def test_smoke_run_emits_parseable_csv(self, tmp_path):
        out = tmp_path / "run.csv"
        res = _cli("figure1", "--trials", "1", "--seed", "2", "--out", str(out))
        assert res.returncode == 0, res.stderr
        rows = read_csv(out)
        assert len(rows) == 44  # 11 deltas x 4 methods

    def test_config_error_exit_code(self, tmp_path):
        res = _cli("winner", "--alpha", "0.1", "--nu", "0.5")
        assert res.returncode == 2
        assert "configuration error" in res.stderr
        cfg = tmp_path / "cfg"
        for kind, text in (("winner", "alpha = abc\n"),
                           ("filedrawer", "cov_kinds = foo\n"),
                           ("winner-np", "ci_kind = foo\n"),
                           ("winner-np", "bound_kind = foo\n"),
                           ("winner", "m_grid = 10.5\n"),
                           ("winner-np", "n_grid = 50.5\n"),
                           ("sphere", "d_grid = 3.7\n"),
                           ("sphere", "d_grid = 0\n"),
                           ("winner", "n_draws = 0\n"),
                           ("winner", "n_draws = 5\n"),
                           ("filedrawer", "phi = 0\n"),
                           ("winner", "phi = -3\n"),
                           ("filedrawer", "theta_grid = 0\n"),
                           ("winner", "theta_grid = -1\n"),
                           ("winner", "c_grid = 0\n"),
                           ("filedrawer", "c_grid = -5\n"),
                           ("winner", "theta_grid = 300\nm_grid = 100\ncov_kinds = iid\n"
                                      "c_grid = 10\n")):
            cfg.write_text(text)
            res = _cli(kind, "--config", str(cfg), "--trials", "1")
            assert res.returncode == 2, (kind, text, res.stderr)
            assert "configuration error" in res.stderr
            assert "Warning" not in res.stderr

    def test_missing_config_file_exit_code(self):
        res = _cli("winner", "--config", "/nonexistent/cfg")
        assert res.returncode == 2

    def test_numerical_error_exit_code(self, tmp_path):
        # n < d with a vanishing penalty: the solver cannot converge on the
        # singular program and the failure surfaces as exit code 3.
        cfg = tmp_path / "cfg"
        cfg.write_text("d = 8\nn = 2\nlambda0 = 0.0001\nn_draws = 2000\n")
        res = _cli("lasso", "--config", str(cfg), "--trials", "1")
        assert res.returncode == 3
        assert "numerical error" in res.stderr

    def test_bad_data_is_config_error_exit_code(self, tmp_path):
        path = tmp_path / "obs.csv"
        np.savetxt(path, np.array([[0.5, 1.7], [0.2, 0.1]]), delimiter=",")
        res = _cli("winner-np", "--data", str(path))
        assert res.returncode == 2

    def test_env_seed_override(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        r1 = _cli("figure1", "--trials", "2", "--seed", "1", "--out", str(out1),
                  env_extra={"LOCSIM_SEED": "7"})
        r2 = _cli("figure1", "--trials", "2", "--seed", "99", "--out", str(out2),
                  env_extra={"LOCSIM_SEED": "7"})
        assert r1.returncode == 0 and r2.returncode == 0
        strip = lambda p: [",".join(l.split(",")[:-1]) for l in p.read_text().splitlines()]
        assert strip(out1) == strip(out2)
