"""Monte-Carlo plumbing: scaling fits, verdicts, seeded ensembles, ECF."""

import os
import subprocess
import sys

import numpy as np
import pytest

import ambitlab
from ambitlab import ambit, besov, levy
from ambitlab.montecarlo import (
    ScalingFit,
    _t_quantile_975,
    decide,
    fit_scaling,
    path_rng,
    run_ensemble_blocks,
)

from oracles import empirical_cf


class TestFitScaling:
    def test_pure_power_law_recovered_exactly(self):
        x = np.geomspace(0.01, 1.0, 8)
        fit = fit_scaling(x, 3.0 * x**2.5)
        assert fit.flag == "ok"
        assert abs(fit.slope - 2.5) < 1e-12
        assert abs(fit.intercept - np.log(3.0)) < 1e-12
        assert fit.r2 > 1.0 - 1e-12
        assert fit.points_used == 8

    def test_descending_abscissae_allowed(self):
        x = np.geomspace(1.0, 0.01, 6)
        assert abs(fit_scaling(x, x**0.5).slope - 0.5) < 1e-12

    def test_stderr_weights_suppress_flagged_outlier(self):
        x = np.geomspace(0.01, 1.0, 8)
        y = x**2.0
        y_bad = y.copy()
        y_bad[0] *= 20.0  # corrupt one point...
        err = 1e-6 * y
        err[0] = 50.0 * y_bad[0]  # ...and mark it as pure noise
        assert abs(fit_scaling(x, y_bad, err).slope - 2.0) < 1e-3
        assert abs(fit_scaling(x, y_bad).slope - 2.0) > 0.1

    def test_all_tiny_ordinates_are_degenerate(self):
        x = np.geomspace(0.01, 1.0, 5)
        fit = fit_scaling(x, np.full(5, 1e-16))
        assert fit.flag == "degenerate"
        assert fit.slope == 0.0 and fit.points_used == 0

    @pytest.mark.parametrize("x", [
        np.array([1.0, 2.0, 3.0]),          # too few points
        np.array([1.0, 3.0, 2.0, 4.0]),     # not monotone
        np.array([-1.0, 1.0, 2.0, 3.0]),    # nonpositive abscissa
    ])
    def test_bad_abscissae_raise(self, x):
        with pytest.raises(ValueError):
            fit_scaling(x, np.ones_like(x))

    def test_negative_ordinate_raises(self):
        x = np.geomspace(0.01, 1.0, 5)
        y = x.copy()
        y[2] = -1.0
        with pytest.raises(ValueError, match="positive"):
            fit_scaling(x, y)

    def test_stderr_shape_mismatch_raises(self):
        x = np.geomspace(0.01, 1.0, 5)
        with pytest.raises(ValueError, match="stderr"):
            fit_scaling(x, x, np.ones(4))

    def test_ci_reflects_scatter(self):
        rng = np.random.default_rng(0)
        x = np.geomspace(0.01, 1.0, 12)
        noisy = x * np.exp(0.2 * rng.standard_normal(12))
        clean = x * np.exp(0.001 * rng.standard_normal(12))
        assert fit_scaling(x, clean).ci_halfwidth \
            < fit_scaling(x, noisy).ci_halfwidth
        assert np.isfinite(fit_scaling(x, noisy).ci_halfwidth)


def test_t_quantile_matches_scipy():
    # the own Student-t quantile against the scipy.special one it replaced
    from scipy.special import stdtrit

    dof = np.arange(2, 2001)
    got = np.array([_t_quantile_975(int(k)) for k in dof])
    np.testing.assert_allclose(got, stdtrit(dof, 0.975), rtol=1e-12, atol=0)


_HEAVY_SCIPY = ("scipy.stats", "scipy.special", "scipy.integrate")


def _python(code):
    """Run `code` in a fresh interpreter on this checkout; its stdout."""
    src = os.path.dirname(os.path.dirname(ambitlab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_import_leaves_out_scipy_stats():
    # the fit's Student-t quantile, g(eps) and the (H4) exponents are
    # closed forms, so importing the package loads no heavy scipy module
    code = ("import sys, ambitlab; "
            f"print([m for m in {_HEAVY_SCIPY!r} if m in sys.modules])")
    assert _python(code).strip() == "[]"


# small copies of the three benchmark workloads' configs
_WORKLOAD_RUNS = {
    "spde-exponents": [
        "noise.kind=white", "noise.d=1", "noise.L=8", "noise.m=64",
        "spde.operator=wave", "spde.coefficients=constant", "spde.sigma0=1",
        "spde.b0=0", "spde.t=1.0", "spde.eps_points=4", "run.n_paths=64"],
    "ambit-decay": [
        "levy.alpha=1.2", "levy.c_plus=0.5", "levy.c_minus=0.5",
        "ambit.kernel_g=power", "ambit.theta_g=0.5",
        "ambit.sigma_field=weierstrass", "ambit.beta=0.8", "ambit.gamma=2.0",
        "ambit.eps_min=0.02", "ambit.eps_max=0.4", "ambit.eps_points=4",
        "ambit.nt=12", "ambit.nx=12", "run.n_paths=512"],
    "ambit-density": [
        "ambit.c=1", "ambit.zeta=0", "ambit.kernel_g=constant",
        "ambit.sigma_field=constant", "levy.alpha=1.2",
        f"levy.c_plus={1 / 60!r}", f"levy.c_minus={1 / 60!r}", "ambit.n=1",
        "ambit.holder=0.5", "ambit.nt=16", "ambit.nx=16",
        "run.n_paths=5000"],
}

# a bump-kernel decay run: its exponents are closed forms too (a 64-path
# run: it completes, inconclusive, so it exits 2)
_BUMP_RUN = ("ambit-decay", ["ambit.kernel_g=bump",
                             "ambit.sigma_field=weierstrass", "ambit.nt=8",
                             "ambit.nx=8", "ambit.eps_points=4",
                             "run.n_paths=64"])

# the one user of scipy left on a run's path: the exponential covariance's
# quadrature
_SCIPY_RUNS = {
    "spde-exponents": ["noise.kind=exponential", "noise.ell=0.5",
                       "noise.m=64", "spde.operator=wave", "spde.t=1.0",
                       "run.n_paths=64"],
}


def test_workload_runs_leave_out_scipy(tmp_path):
    code = f"""
import contextlib, io, sys
from ambitlab import cli

def run(experiment, overrides, outdir):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.run(None, overrides, experiment=experiment, seed=0,
                       workers=2, outdir=outdir)

outdir = {str(tmp_path)!r}
light = [*{_WORKLOAD_RUNS!r}.items(), {_BUMP_RUN!r}]
codes = [run(e, o, outdir) for e, o in light]
loaded = [m for m in {_HEAVY_SCIPY!r} if m in sys.modules]
codes += [run(e, o, outdir) for e, o in {_SCIPY_RUNS!r}.items()]
print(codes, loaded)
"""
    assert _python(code).strip() == "[0, 0, 0, 2, 0] []"


def _slope(slope, ci):
    return ScalingFit(slope, 0.0, 1.0, ci, 6, "ok")


class TestDecide:
    """decide(fit, c) judges the one-sided claim "slope > c" on the CI."""

    @pytest.mark.parametrize("fit,threshold,expected", [
        (_slope(1.2, 0.1), 1.0, (True, "ok")),            # lower end clears
        (_slope(0.8, 0.1), 1.0, (False, "ok")),           # upper end below
        (_slope(1.05, 0.1), 1.0, (None, "inconclusive")),
        (_slope(0.95, 0.1), 1.0, (None, "inconclusive")),
        (_slope(1.25, 0.25), 1.0, (None, "inconclusive")),  # lower end on c
        (_slope(0.75, 0.25), 1.0, (None, "inconclusive")),  # upper end on c
        (_slope(1.0, 0.0), 1.0, (None, "inconclusive")),  # exact, on c
        (_slope(1.0, 0.0), 0.5, (True, "ok")),            # exact slopes
        (_slope(0.0, 0.0), 0.5, (False, "ok")),
        (_slope(-2.0, 0.5), 0.0, (False, "ok")),
        (_slope(5.0, np.inf), 0.0, (None, "inconclusive")),
        # fits without a usable slope pass their flag through
        (ScalingFit(0.0, 0.0, 0.0, np.inf, 0, "degenerate"), -1.0,
         (None, "degenerate")),
        (ScalingFit(np.nan, np.nan, 0.0, np.inf, 2, "inconclusive"), 0.5,
         (None, "inconclusive")),
    ])
    def test_table(self, fit, threshold, expected):
        assert decide(fit, threshold) == expected

    def test_dirac_control_is_decided_false(self):
        """The n = 0 statistic of a point mass (test_11's control) is flat
        in h: slope 0 with a zero-width CI, decided False against the
        Hölder order, not left undecided."""
        model = levy.make_levy_model(1.2, 0.5, 0.5, T=1.0,
                                     domain=(-1.0, 1.0))
        dirac = ambit.make_ambit_spec(ambit_set=ambit.make_cone(1.0, 0.0),
                                      kernel_g=ambit.constant_kernel(0.0),
                                      sigma=ambit.constant_field(1.0),
                                      b=ambit.constant_field(0.0))
        sample = ambit.density_sample(dirac, model, 1.0, 0.0, 0, 2000,
                                      master_seed=7)
        rep = besov.criterion_report(sample.values, sample.weights, 0, 0.5)
        assert [decide(s.fitted, 0.5) for s in rep.statistics] \
            == [(False, "ok")] * 5
        assert rep.verdict is False and rep.flag == "ok"


class TestPathRng:
    def test_same_coordinates_same_stream(self):
        a = path_rng(7, "foo", 3).standard_normal(5)
        b = path_rng(7, "foo", 3).standard_normal(5)
        assert np.array_equal(a, b)

    def test_coordinates_separate_streams(self):
        base = path_rng(7, "foo", 3).standard_normal(5)
        for seed, stream, idx in ((8, "foo", 3), (7, "bar", 3), (7, "foo", 4)):
            other = path_rng(seed, stream, idx).standard_normal(5)
            assert not np.array_equal(base, other)


class TestEnsembles:
    def test_run_ensemble_preserves_path_order(self):
        out = run_ensemble_blocks(10, lambda idx, rngs: idx.astype(float),
                                  master_seed=0, stream="order", block_size=3)
        assert np.array_equal(out, np.arange(10.0))

    def test_worker_count_does_not_change_bytes(self):
        def block(idx, rngs):
            return np.stack([r.standard_normal(4) for r in rngs])

        ref = run_ensemble_blocks(1000, block, master_seed=5, stream="w",
                                  workers=1)
        for workers in (3, 8):
            out = run_ensemble_blocks(1000, block, master_seed=5, stream="w",
                                      workers=workers)
            assert out.tobytes() == ref.tobytes()

    def test_vector_valued_paths_stack(self):
        out = run_ensemble_blocks(
            7, lambda idx, rngs: np.stack([idx, 2.0 * idx], axis=1),
            master_seed=0, stream="vec", block_size=3)
        assert out.shape == (7, 2)
        assert np.array_equal(out[:, 1], 2.0 * np.arange(7.0))

    def test_block_fn_wrong_leading_dim_raises(self):
        with pytest.raises(ValueError, match="leading"):
            run_ensemble_blocks(10, lambda idx, rngs: np.zeros((1, 2)),
                                master_seed=0, stream="bad")

    @pytest.mark.parametrize("kw", [{"n_paths": 0}, {"workers": 0}])
    def test_nonpositive_counts_raise(self, kw):
        args = {"n_paths": 4, "workers": 1}
        args.update(kw)
        with pytest.raises(ValueError):
            run_ensemble_blocks(args["n_paths"],
                                lambda idx, rngs: np.zeros((len(idx), 1)),
                                master_seed=0, stream="n",
                                workers=args["workers"])


class TestEmpiricalCF:
    def test_point_mass_phase(self):
        vals = np.full(100, 0.7)
        phi, err = empirical_cf(vals, [1.0, 2.0])
        assert np.allclose(phi, np.exp(1j * np.array([1.0, 2.0]) * 0.7))
        assert np.allclose(err, 0.1)

    def test_standard_normal_modulus(self):
        # |phi(xi)| = exp(-xi^2/2) for N(0,1)
        vals = path_rng(0, "cf", 0).standard_normal(40_000)
        xi = np.array([0.5, 1.0, 2.0])
        phi, err = empirical_cf(vals, xi)
        assert np.all(np.abs(np.abs(phi) - np.exp(-xi**2 / 2.0)) < 5 * err)

    def test_empty_sample_raises(self):
        with pytest.raises(ValueError):
            empirical_cf(np.array([]), [1.0])
