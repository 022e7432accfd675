"""Acceptance suite: one test per headline capability, sized to be decisive.

Each test times itself against a budget and asserts the quantitative
targets with their pinned tolerances.  The terminal summary (see
conftest.py) prints one PASS/FAIL line per test.
"""

import json
import math
import time

import numpy as np
import pytest

import ambitlab.ambit as am
from ambitlab import besov, cli, levy, noise, spde
from ambitlab.montecarlo import fit_scaling, path_rng, run_ensemble_blocks

import oracles
from oracles import compose, empirical_cf, finite_difference, make_stencil


class _Clock:
    def __init__(self, budget_s):
        self.budget = budget_s
        self.start = time.perf_counter()

    def check(self):
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.budget, \
            f"exceeded {self.budget}s budget: {elapsed:.1f}s"
        return elapsed


def test_01_stencil_moments_and_composition():
    clock = _Clock(1.0)
    for n in range(1, 9):
        st = make_stencil(n)
        # exact integer arithmetic: vanishing moments below n, n! at n
        for p in range(n):
            assert sum(c * j**p for j, c in enumerate(st.coefficients)) == 0
        assert sum(c * j**n for j, c in enumerate(st.coefficients)) \
            == int(np.prod(range(1, n + 1)))
    for a in (1, 2, 3):
        for b in (1, 2, 4):
            left = compose(make_stencil(a), make_stencil(b))
            direct = make_stencil(a + b)
            assert left.coefficients == direct.coefficients
            x = np.linspace(-1.0, 1.0, 64)
            f = lambda t: np.exp(0.3 * t)
            via = finite_difference(f, x, 0.01, a + b)
            seq = finite_difference(
                lambda t: finite_difference(f, t, 0.01, a), x, 0.01, b)
            assert np.allclose(via, seq, rtol=1e-12, atol=1e-12)
    clock.check()


def test_02_gaussian_statistic_matches_cf_oracle():
    clock = _Clock(10.0)
    n_samples = 100_000
    x = path_rng(202, "accept-gauss", 0).standard_normal(n_samples)
    stats = besov.criterion_statistic(x, np.ones(n_samples), 1,
                                      normalize=False)
    worst = 0.0
    for st in stats:
        k = st.frequency
        oracle = np.exp(-0.5 * k * k) \
            * np.abs(2.0 * np.sin(k * st.h_values / 2.0))
        dev = np.abs(st.stat_values - oracle) / st.stderr_values
        worst = max(worst, float(dev.max()))
        assert dev.max() <= 5.0, (k, dev.max())
    print(f"max |stat - oracle| = {worst:.2f} stderr")
    clock.check()


def test_03_heat_white_noise_exponents(tmp_path):
    clock = _Clock(300.0)
    code = cli.run(None, ["noise.m=128", "run.n_paths=10000"],
                   experiment="spde-exponents", seed=0,
                   outdir=str(tmp_path))
    assert code == 0
    s = json.loads((tmp_path / "summary.json").read_text())
    assert s["gamma"] == pytest.approx(0.5, abs=0.02)
    assert s["gamma1"] == pytest.approx(0.5, abs=0.02)
    assert s["gamma2"] == pytest.approx(1.0, abs=0.02)
    assert s["delta"] == pytest.approx(0.5, abs=0.1)
    assert s["gammabar"] == pytest.approx(2.0, abs=0.25)
    assert s["gammabar"] > 1.0 and s["verdict"] is True
    print(f"heat: gamma={s['gamma']:.4f} gamma2={s['gamma2']:.4f} "
          f"delta={s['delta']:.4f} gammabar={s['gammabar']:.4f} "
          f"({clock.check():.0f}s)")


def test_04_wave_white_noise_exponents():
    clock = _Clock(300.0)
    model = noise.make_noise_model("white", d=1, Lbox=8.0, m=512)
    ge = noise.exponent_gamma(model, "wave", np.geomspace(1e-4, 0.1, 12))
    assert ge.gamma1 == pytest.approx(2.0, abs=0.05)
    assert ge.gamma2 == pytest.approx(3.0, abs=0.05)
    # the quadrature rows agree with the closed forms
    assert fit_scaling(ge.eps_grid, ge.g_values).slope \
        == pytest.approx(2.0, abs=0.05)
    assert fit_scaling(ge.eps_grid, ge.zero_mode_values).slope \
        == pytest.approx(3.0, abs=0.05)

    # time regularity needs lags well inside [1/cutoff, t0]
    dt = 0.5 * model.dx
    t_end = 448 * dt                      # 3.5
    t0 = 384 * dt                         # 3.0
    lags = dt * np.array([8, 16, 32, 48, 64])

    def block(_idx, rngs):
        sol = spde.solve_batch(model, "wave",
                               spde.constant_coefficients(1.0, 0.0),
                               0.0, t_end, dt, rngs)
        return sol.point_series

    # per-block streams: two workers give the one-worker series
    series = run_ensemble_blocks(10_000, block, master_seed=2,
                                 stream="accept-wave", workers=2)
    times = np.arange(series.shape[1]) * dt
    fit, _, _ = spde.time_holder_delta(series, times, t0, lags)
    report = spde.gammabar(ge, fit)
    assert fit.slope == pytest.approx(1.0, abs=0.1)
    assert report.gammabar == pytest.approx(1.5, abs=0.15)
    assert report.gammabar > 1.0
    print(f"wave: gamma={ge.gamma1:.4f} gamma2={ge.gamma2:.4f} "
          f"delta={fit.slope:.4f}+-{fit.ci_halfwidth:.4f} "
          f"gammabar={report.gammabar:.4f} ({clock.check():.0f}s)")


def test_05_multiplicative_noise_approximation_rate():
    clock = _Clock(600.0)
    model = noise.make_noise_model("white", d=1, Lbox=8.0, m=128)
    dt = 0.25 / 256
    eps_grid = dt * np.array([8, 16, 32, 64, 80])

    def block(_idx, rngs):
        sol = spde.solve_batch(model, "heat", spde.anderson_coefficients(0.5),
                               1.0, 0.25, dt, rngs, eps_grid=eps_grid)
        u = sol.final_point_values()
        return np.stack([(spde.approximate_u_eps(sol, e) - u) ** 2
                         for e in eps_grid], axis=1)

    gaps = run_ensemble_blocks(4000, block, master_seed=1,
                               stream="accept-anderson", workers=1)
    means = gaps.mean(axis=0)
    stderr = gaps.std(axis=0, ddof=1) / np.sqrt(gaps.shape[0])
    fit = fit_scaling(eps_grid, means, stderr=stderr)
    threshold = 0.85 * (0.5 + 0.5)      # 0.85 * (delta + min(gamma1, gamma2))
    assert fit.flag == "ok"
    assert fit.slope >= threshold
    print(f"anderson gap slope {fit.slope:.4f}+-{fit.ci_halfwidth:.4f} "
          f">= {threshold} over a decade of eps ({clock.check():.0f}s)")


def test_06_stable_moment_bounds():
    clock = _Clock(5.0)
    assert oracles.moment_lemma_constant(2.0, 1.0) == pytest.approx(2.0,
                                                                    abs=1e-12)
    for alpha in (0.5, 1.0, 1.5):
        m = levy.make_levy_model(alpha, 1.0, 1.0)
        for gamma in (alpha + 0.2, 2.0):
            rep = oracles.moment_lemma_check(m, gamma)
            assert rep.passed
            assert len(rep.a_grid) == 20
            assert rep.max_violation <= 0.0 or rep.max_violation < 1e-9
    clock.check()


def test_07_characteristic_exponent_power_law():
    clock = _Clock(5.0)
    xi = np.geomspace(1.0, 100.0, 12)
    for alpha in (0.7, 1.0, 1.5):
        m = levy.make_levy_model(alpha, 1.0, 1.0, T=1.0,
                                 domain=(0.0, 1.0))
        ce = levy.characteristic_exponent(m, lambda s, y: np.ones_like(s),
                                          xi)
        if alpha == 1.0:
            assert ce.values[0] == pytest.approx(np.pi, abs=1e-6)
            continue
        # unit box: A = c_sum K_alpha, K_alpha = Gamma(1-a) cos(pi a/2) / a
        want = m.c_sum * math.gamma(1.0 - alpha) \
            * math.cos(math.pi * alpha / 2.0) / alpha
        assert ce.alpha_coefficient == pytest.approx(want, rel=1e-8)
        assert np.allclose(ce.values, want * xi**alpha, rtol=1e-8, atol=0)
    clock.check()


def test_08_sampler_matches_quadrature_cf():
    clock = _Clock(120.0)
    m = levy.make_levy_model(1.0, 1.0, 1.0, T=0.5, tau=0.01)
    one = lambda s, y: np.ones_like(s)
    xi = np.array([0.25, 0.5, 1.0, 2.0])
    ce = levy.characteristic_exponent(m, one, xi)
    vals = levy.sample_integral(m, one, path_rng(42, "accept-cf", 0),
                                n_draws=100_000)
    phi, err = empirical_cf(vals, xi)
    devs = np.abs(np.abs(phi) - np.exp(-ce.values)) / err
    assert devs[:3].max() <= 5.0
    print("ECF deviations:", " ".join(f"{d:.2f}" for d in devs[:3]),
          "stderr")
    clock.check()


def test_09_ambit_exponent_quadratures():
    clock = _Clock(30.0)
    model = levy.make_levy_model(1.2, 0.5, 0.5, T=1.0, domain=(-1.0, 1.0))
    eps = np.geomspace(1e-3, 0.5, 10)
    cone = am.make_ambit_spec(ambit_set=am.make_cone(1.0, 1.0),
                              kernel_g=am.constant_kernel(1.0),
                              sigma=am.constant_field(1.0),
                              b=am.constant_field(0.0))

    def integrals(spec, bundle):
        # the slab integrals of the bundle's conditions, by quadrature
        conds = am._conditions(spec, model.alpha, bundle.gamma)
        return {name: np.array([oracles._slab_condition_integral(e, *cond)
                                for e in eps])
                for name, cond in conds.items()}

    b0 = am.exponent_conditions(cone, model)
    assert b0.gamma0 == pytest.approx(2.0, abs=0.01)
    assert fit_scaling(eps, integrals(cone, b0)["gamma0"]).slope \
        == pytest.approx(2.0, abs=0.01)

    ref = am.make_ambit_spec(ambit_set=am.make_cone(1.0, 1.0),
                             kernel_g=am.power_kernel(0.5),
                             sigma=am.weierstrass_field(delta1=0.5,
                                                        delta2=0.5),
                             b=am.constant_field(0.0))
    b2 = am.exponent_conditions(ref, model, beta=0.8, gamma=2.0)
    gb1 = (1.0 + 1.0 - 0.5 * 2.0) / 2.0      # (1 + zeta - theta gamma)/gamma
    assert b2.gamma1 == pytest.approx(gb1 + 0.5, abs=0.02)
    assert b2.gamma2 == pytest.approx(gb1 + 0.5 * 1.0, abs=0.02)
    # the quadrature rows agree with the closed forms (times gamma = 2)
    for name, want in (("gamma1", gb1 + 0.5), ("gamma2", gb1 + 0.5 * 1.0)):
        assert fit_scaling(eps, integrals(ref, b2)[name]).slope / 2.0 \
            == pytest.approx(want, abs=0.02)
    print(f"gamma0={b0.gamma0:.5f} gamma1={b2.gamma1:.5f} "
          f"gamma2={b2.gamma2:.5f}")
    clock.check()


def test_10_coupling_error_decay_rate():
    clock = _Clock(900.0)
    model = levy.make_levy_model(1.2, 0.5, 0.5, T=1.0, domain=(-1.0, 1.0))
    ref = am.make_ambit_spec(ambit_set=am.make_cone(1.0, 1.0),
                             kernel_g=am.power_kernel(0.5),
                             sigma=am.weierstrass_field(delta1=0.5,
                                                        delta2=0.5),
                             b=am.constant_field(0.0))
    dec = am.error_decay(ref, model, 1.0, 0.0, 0.8,
                         np.geomspace(0.02, 0.4, 6), 10_000,
                         master_seed=11, gamma=2.0)
    target = 0.8 * (1.0 / 1.2 + 1.0) - 1.0
    assert dec.exponents.gammabar == pytest.approx(1.0, abs=1e-9)
    assert dec.target_rate == pytest.approx(target, abs=1e-9)
    assert dec.flag == "ok"
    assert dec.fit.slope >= target - 0.15
    assert dec.passed
    print(f"decay slope {dec.fit.slope:.4f}+-{dec.fit.ci_halfwidth:.4f} "
          f"vs target {target:.4f} ({clock.check():.0f}s)")


def test_11_density_criterion_and_dirac_control():
    clock = _Clock(300.0)
    lite = levy.make_levy_model(1.2, 1.0 / 60, 1.0 / 60, T=1.0,
                                domain=(-1.0, 1.0))
    slab = am.make_ambit_spec(ambit_set=am.make_cone(1.0, 0.0),
                              kernel_g=am.constant_kernel(1.0),
                              sigma=am.constant_field(1.0),
                              b=am.constant_field(0.0))
    sample = am.density_sample(slab, lite, 1.0, 0.0, 1, 100_000,
                               master_seed=7)
    rep = besov.criterion_report(sample.values, sample.weights, 1, 0.5)
    assert rep.verdict
    assert len(rep.slopes) == 5
    assert all(s > 0.5 for s in rep.slopes.values())

    model = levy.make_levy_model(1.2, 0.5, 0.5, T=1.0, domain=(-1.0, 1.0))
    dirac = am.make_ambit_spec(ambit_set=am.make_cone(1.0, 0.0),
                               kernel_g=am.constant_kernel(0.0),
                               sigma=am.constant_field(1.0),
                               b=am.constant_field(0.0))
    sample = am.density_sample(dirac, model, 1.0, 0.0, 0, 2000,
                               master_seed=7)
    control = besov.criterion_report(sample.values, sample.weights, 0, 0.5)
    assert not control.verdict
    print("criterion slopes:",
          " ".join(f"{k}:{v:.2f}" for k, v in rep.slopes.items()),
          f"({clock.check():.0f}s)")


def test_12_worker_count_never_changes_results(tmp_path):
    clock = _Clock(120.0)
    cfg = tmp_path / "decay.cfg"
    cfg.write_text(
        "[run]\n"
        "experiment = ambit-decay\n"
        "seed = 9\n"
        "n_paths = 600\n"
        "[levy]\n"
        "alpha = 1.2\n"
        "c_plus = 0.5\n"
        "c_minus = 0.5\n"
        "[ambit]\n"
        "kernel_g = power\n"
        "theta_g = 0.5\n"
        "sigma_field = weierstrass\n"
        "beta = 0.8\n"
        "gamma = 2.0\n"
        "eps_min = 0.02\n"
        "eps_max = 0.4\n"
        "eps_points = 6\n"
        "nt = 48\n"
        "nx = 48\n")
    blobs = {}
    for w in (1, 4, 16):
        out = tmp_path / f"w{w}"
        out.mkdir()
        assert cli.run(str(cfg), [], workers=w, outdir=str(out)) == 0
        blobs[w] = ((out / "results.csv").read_bytes(),
                    (out / "summary.json").read_bytes())
    assert blobs[1] == blobs[4] == blobs[16]
    print(f"results byte-identical for 1/4/16 workers "
          f"({clock.check():.0f}s)")
