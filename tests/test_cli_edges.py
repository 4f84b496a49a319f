"""Degenerate inputs through the command line end in exit code 0, 2
(configuration error) or 3 (numerical failure), never in a traceback."""

import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from locsim import cli

EDGE = dict(deadline=None, max_examples=10)
NP_KINDS = st.sampled_from(["winner-np", "filedrawer-np"])


def _exit_code(kind, *args, data=None, config=None):
    """cli.main's exit code for ``kind``, with ``data`` (an array, or the
    text of a CSV) and ``config`` written to temporary files.  filedrawer-np
    gets ``--threshold 0`` unless ``args`` set one: every [0, 1]-bounded
    mean is >= 0, so every column is selected."""
    if kind == "filedrawer-np" and "--threshold" not in args:
        args = (*args, "--threshold", "0")
    with tempfile.TemporaryDirectory() as tmp:
        argv = [kind, *args, "--out", os.path.join(tmp, "out.csv")]
        if data is not None:
            path = os.path.join(tmp, "data.csv")
            if isinstance(data, str):
                with open(path, "w") as fh:
                    fh.write(data)
            else:
                np.savetxt(path, data, delimiter=",")
            argv += ["--data", path]
        if config is not None:
            path = os.path.join(tmp, "run.cfg")
            with open(path, "w") as fh:
                fh.write(config)
            argv += ["--config", path]
        return cli.main(argv)


@settings(**EDGE)
@given(NP_KINDS, st.floats(0.0, 1.0), st.integers(2, 30), st.integers(1, 6))
def test_every_column_tied(kind, value, n, m):
    assert _exit_code(kind, data=np.full((n, m), value)) in (0, 2)


@settings(**EDGE)
@given(NP_KINDS, st.one_of(st.tuples(st.just(2), st.integers(1, 5)),
                           st.tuples(st.integers(2, 30), st.just(1)))
       .flatmap(lambda shape: arrays(np.float64, shape, elements=st.floats(0.0, 1.0))))
def test_single_column_or_two_rows(kind, data):
    assert _exit_code(kind, data=data) in (0, 2)


@settings(**EDGE)
@given(st.floats(1.0, 1e12, exclude_min=True), st.integers(0, 1000))
def test_threshold_above_every_column(threshold, seed):
    data = np.random.default_rng(seed).beta(2, 5, size=(20, 4))
    assert _exit_code("filedrawer-np", "--threshold", repr(threshold), data=data) in (0, 2)


@settings(**EDGE)
@given(st.floats(50.0, 1e6))
def test_lambda_above_every_correlation_gives_empty_model(lambda0):
    # No signal (sparsity 0), so lambda above max |X^T y| selects nothing.
    config = (f"lambda0 = {lambda0!r}\nsparsity = 0\nd = 3\nn = 30\n"
              "n_draws = 1000\n")
    assert _exit_code("lasso", "--trials", "2", config=config) in (0, 2)


@settings(**EDGE)
@given(st.sampled_from(["winner", "filedrawer"]), st.floats(1e-3, 1e308))
@example("winner", 1e300)  # phi**2 overflows a Python float
def test_any_positive_rbf_length_scale(kind, phi):
    # Large phi makes the RBF covariance nearly (or exactly) rank one.
    config = (f"phi = {phi!r}\ncov_kinds = rbf\nm_grid = 10\ntheta_grid = 2\n"
              "c_grid = 10\nn_draws = 1000\n")
    assert _exit_code(kind, "--trials", "2", config=config) in (0, 2, 3)


@pytest.mark.parametrize("kind", ["winner", "filedrawer"])
def test_tiny_rbf_length_scale_runs(kind):
    # 2 phi^2 underflows to 0; the kernel is still the identity.
    config = ("phi = 1e-200\ncov_kinds = rbf\nm_grid = 10\ntheta_grid = 2\n"
              "c_grid = 10\nn_draws = 1000\n")
    assert _exit_code(kind, "--trials", "5", config=config) == 0


BAD_ENTRIES = st.one_of(st.sampled_from([np.nan, np.inf, -np.inf]),
                        st.floats(1.0, 1e300, exclude_min=True),
                        st.floats(-1e300, 0.0, exclude_max=True))


@settings(**EDGE)
@given(NP_KINDS, BAD_ENTRIES, st.integers(0, 9), st.integers(0, 2))
def test_nonfinite_or_out_of_range_samples(kind, bad, row, col):
    data = np.full((10, 3), 0.5)
    data[row, col] = bad
    assert _exit_code(kind, data=data) in (0, 2)


@settings(**EDGE)
@given(st.one_of(st.sampled_from([np.nan, np.inf, -np.inf]),
                 st.floats(1.0, 1e300, exclude_min=True),
                 st.floats(-1e300, -1.0, exclude_max=True)), st.integers(0, 4))
def test_nonfinite_or_out_of_range_losses(bad, row):
    losses = np.full((5, 3), 0.5)
    losses[row, 1] = bad
    text = "h0,h1,h2\n" + "\n".join(",".join(repr(float(v)) for v in r) for r in losses)
    assert _exit_code("erm", data=text + "\n") in (0, 2)


@pytest.mark.parametrize("key, axis", [("n", "samples"), ("n_hypotheses", "hypotheses")])
def test_empty_loss_matrix(key, axis, capsys):
    assert _exit_code("erm", "--trials", "2", config=f"{key} = 0\n") == 2
    assert f"loss matrix has no {axis}" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", ["winner-np", "filedrawer-np", "erm"])
def test_empty_csv(kind):
    assert _exit_code(kind, data="") == 2


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("kind, key, value", [
    ("lasso", "n", "0"),
    ("winner-np", "n_grid", "1"),
    ("winner-np", "n_grid", "100, 1"),
    ("winner-np", "beta_a", "0"),
    ("winner-np", "beta_b", "inf"),
    ("winner-np", "beta_b", "nan"),
    ("winner-np", "signal_frac", "1.5"),
    ("winner-np", "signal_frac", "-0.1"),
])
def test_bad_setting_rejected_before_any_cell(kind, key, value, tmp_path, capsys):
    # A setting that would fail inside a cell is refused before the first one.
    path, out = tmp_path / "c.cfg", tmp_path / "out.csv"
    path.write_text(f"{key} = {value}\n")
    argv = [kind, "--trials", "2", "--config", str(path), "--out", str(out)]
    assert cli.main(argv) == 2
    assert re.search(rf"\b{key}\b", capsys.readouterr().err)
    assert not out.exists()
