"""Monte-Carlo plumbing: scaling fits, seeded ensembles, ECF, KDE."""

import numpy as np
import pytest

from ambitlab.montecarlo import (
    empirical_cf,
    fit_scaling,
    kernel_density,
    path_rng,
    run_ensemble_blocks,
    silverman_bandwidth,
)


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


class TestKernelDensity:
    def test_density_integrates_to_one(self):
        vals = path_rng(1, "kde", 0).standard_normal(5000)
        grid, dens, flag = kernel_density(vals)
        assert flag == "ok"
        assert np.trapezoid(dens, grid) == pytest.approx(1.0, abs=1e-4)

    def test_matches_normal_peak(self):
        vals = path_rng(2, "kde", 0).standard_normal(20_000)
        grid, dens, _ = kernel_density(vals, grid=np.array([0.0]))
        assert dens[0] == pytest.approx(1.0 / np.sqrt(2 * np.pi), rel=0.05)

    def test_zero_variance_degenerates(self):
        vals = np.full(50, 3.0)
        assert silverman_bandwidth(vals) == 0.0
        _, dens, flag = kernel_density(vals)
        assert flag == "degenerate"
        assert np.all(np.isnan(dens))
