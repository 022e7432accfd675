"""Mild-solution solver: exactness properties, variance targets, exponents.

The two sharp oracles:

  * constant coefficients make the one-step freezing exact, so the recorded
    decomposition must reproduce u(t, 0) to float roundoff for every eps;
  * with sigma == 1 the per-mode forcing carries the exact step variance,
    so Var u(t, 0) equals the grid-spectral functional g (MC check).
"""

import dataclasses

import numpy as np
import pytest
from scipy import integrate

from ambitlab import noise, operators, spde
from ambitlab.montecarlo import fit_scaling, path_rng


HEAT = operators.heat_operator(1)
WAVE = operators.wave_operator(1)


def white(m=64, L=8.0):
    return noise.make_noise_model("white", d=1, Lbox=L, m=m)


# ---------------------------------------------------------------------------
# deterministic limits
# ---------------------------------------------------------------------------


def test_heat_pure_drift_is_exact():
    model = white()
    dt = 4.0 * model.dx**2
    sol = spde.solve(model, HEAT, spde.constant_coefficients(0.0, 0.7),
                     u0=0.25, t_end=40 * dt, dt=dt, rng=path_rng(0, "d", 0))
    # zero-mode drift integrates exactly: u = u0 + b t
    assert sol.final_point_values()[0] == pytest.approx(0.25 + 0.7 * 40 * dt,
                                                        rel=1e-12)


def test_wave_pure_drift_is_exact():
    model = white()
    dt = 0.5 * model.dx
    n = 32
    sol = spde.solve(model, WAVE, spde.constant_coefficients(0.0, 0.7),
                     u0=0.25, t_end=n * dt, dt=dt, rng=path_rng(0, "d", 1),
                     v0=1.5)
    t = n * dt
    # discrete constant-acceleration integration is exact:
    # u = u0 + v0 t + b t^2/2
    assert sol.final_point_values()[0] \
        == pytest.approx(0.25 + 1.5 * t + 0.7 * t**2 / 2.0, rel=1e-10)


# ---------------------------------------------------------------------------
# the frozen decomposition
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["heat", "wave"])
def test_constant_coefficients_freeze_exactly(kind):
    model = white()
    lam = HEAT if kind == "heat" else WAVE
    dt = 4 * model.dx**2 if kind == "heat" else 0.5 * model.dx
    eps_grid = [4 * dt, 8 * dt, 16 * dt]
    sol = spde.solve_batch(model, lam,
                           spde.constant_coefficients(1.3, 0.7),
                           u0=0.5, t_end=40 * dt, dt=dt,
                           rngs=[path_rng(123, "freeze", i) for i in range(8)],
                           eps_grid=eps_grid)
    u = sol.final_point_values()
    for eps in eps_grid:
        dec = spde.approximate_u_eps(sol, eps)
        assert np.max(np.abs(dec.u_eps - u)) < 1e-9
        assert np.all(dec.sigma_frozen == 1.3)


def test_decomposition_bookkeeping():
    model = white()
    dt = 4 * model.dx**2
    eps = 8 * dt
    sol = spde.solve_batch(model, HEAT, spde.anderson_coefficients(0.5),
                           u0=1.0, t_end=32 * dt, dt=dt,
                           rngs=[path_rng(5, "book", i) for i in range(4)],
                           eps_grid=[eps])
    dec = spde.approximate_u_eps(sol, eps)
    cut_col = int(round((32 * dt - eps) / dt))
    assert np.allclose(dec.u_at_cut, sol.point_series[:, cut_col], rtol=1e-12)
    assert np.allclose(dec.sigma_frozen, 0.5 * dec.u_at_cut, rtol=1e-12)
    assert dec.g_eps == pytest.approx(noise.grid_variance_g(model, HEAT, eps))
    assert np.allclose(dec.u_eps, dec.U_eps + dec.sigma_frozen * dec.G)


def test_unrecorded_eps_raises():
    model = white()
    dt = 4 * model.dx**2
    sol = spde.solve(model, HEAT, spde.constant_coefficients(), 0.0,
                     16 * dt, dt, path_rng(0, "e", 0), eps_grid=[4 * dt])
    with pytest.raises(ValueError, match="not recorded"):
        spde.approximate_u_eps(sol, 2 * dt)
    plain = spde.solve(model, HEAT, spde.constant_coefficients(), 0.0,
                       16 * dt, dt, path_rng(0, "e", 1))
    with pytest.raises(ValueError, match="approximation"):
        spde.approximate_u_eps(plain, 4 * dt)


# ---------------------------------------------------------------------------
# half-spectrum bookkeeping against a full-spectrum reference
# ---------------------------------------------------------------------------


def _full_spectrum_reference(model, lam, coeffs, u0, v0, n, dt, rngs,
                             store_k, eps_k, k_target):
    """The solver's recurrence on the full np.fft.fftn spectrum.

    Noise is drawn in the solver's order (w1, then w2, per step and path).
    Values at x = 0 are read off the inverse transform, not a spectral sum.
    Returns point series, stored fields, G and u_eps for each eps (in steps).
    """
    d, m, B = model.d, model.m, len(rngs)
    shape = (m,) * d
    axes = tuple(range(1, d + 1))
    origin = (slice(None),) + (0,) * d
    r = noise._radius_grid(model).reshape(shape)
    base = np.sqrt(noise._grid_density(model)).reshape(shape) \
        * (2.0 * np.pi / model.dx) ** (d / 2.0)
    rs = np.where(r < 1e-12, 1.0, r)
    sinc = lambda t: np.where(r < 1e-12, t, np.sin(t * r) / rs)
    phys = lambda spec: np.fft.ifftn(spec, axes=axes).real
    wave = lam.kind == "wave"
    if wave:
        l11, l21, l22 = spde._wave_step_covariance(dt, r)
    else:
        q1 = np.sqrt(noise.squared_time_integral(lam, dt, r))

    uhat = np.fft.fftn(np.full((B,) + shape, u0), axes=axes)
    vhat = np.fft.fftn(np.full((B,) + shape, v0), axes=axes)
    series, fields, snaps = [np.full(B, u0)], {}, {}
    G = np.zeros((B, len(eps_k)))
    if 0 in store_k:
        fields[0] = phys(uhat)
    for k in range(n):
        u = phys(uhat)
        w1 = np.stack([rng.standard_normal(shape) for rng in rngs])
        w2 = np.stack([rng.standard_normal(shape) for rng in rngs]) \
            if wave else None
        sig = coeffs.sigma_values(u)
        bhat = np.fft.fftn(coeffs.b_values(u) * np.ones_like(u), axes=axes)
        S1 = np.fft.fftn(sig * w1, axes=axes)
        W1 = np.fft.fftn(w1, axes=axes)
        if wave:
            S2 = np.fft.fftn(sig * w2, axes=axes)
            W2 = np.fft.fftn(w2, axes=axes)
            drift_u = np.where(r < 1e-12, 0.5 * dt * dt,
                               (1.0 - np.cos(dt * r)) / rs**2)
            uhat, vhat = (
                np.cos(dt * r) * uhat + sinc(dt) * vhat + base * l11 * S1
                + drift_u * bhat,
                -r * np.sin(dt * r) * uhat + np.cos(dt * r) * vhat
                + base * (l21 * S1 + l22 * S2) + sinc(dt) * bhat)
        else:
            drift_u = np.where(r < 1e-12, dt, -np.expm1(-dt * r**2) / rs**2)
            uhat = np.exp(-dt * r**2) * uhat + base * q1 * S1 \
                + drift_u * bhat
        if k_target - max(eps_k) <= k < k_target:
            tau = (k_target - k - 1) * dt
            if wave:
                ck = np.cos(tau * r) * base * l11 * W1 \
                    + sinc(tau) * base * (l21 * W1 + l22 * W2)
            else:
                ck = np.exp(-tau * r**2) * base * q1 * W1
            for j, e in enumerate(eps_k):
                if k >= k_target - e:
                    G[:, j] += phys(ck)[origin]
        series.append(phys(uhat)[origin])
        if k + 1 in store_k:
            fields[k + 1] = phys(uhat)
        snaps[k + 1] = (uhat, vhat)

    u_eps = []
    for j, e in enumerate(eps_k):
        uh, vh = snaps[k_target - e]
        eps = e * dt
        if wave:
            hist = np.cos(eps * r) * uh + sinc(eps) * vh
            drift = 0.5 * eps * eps
        else:
            hist = np.exp(-eps * r**2) * uh
            drift = eps
        cut = phys(uh)[origin]
        u_eps.append(phys(hist)[origin] + coeffs.b_values(cut) * drift
                     + coeffs.sigma_values(cut) * G[:, j])
    return (np.stack(series, axis=1),
            np.stack([fields[k].reshape(B, -1) for k in sorted(store_k)]),
            G, np.stack(u_eps, axis=1))


def _rel_err(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


_COEFFS = {
    "const": spde.constant_coefficients(1.3, 0.7),
    "anderson": spde.anderson_coefficients(0.5, 0.3),
    # a field-valued drift exercises the transformed-drift branch
    "callable-b": spde.CoefficientPair(sigma=lambda u: 0.5 * u,
                                       b=lambda u: 0.4 - 0.3 * u),
}


@pytest.mark.parametrize("coeff", sorted(_COEFFS))
@pytest.mark.parametrize("kind", ["heat", "wave"])
@pytest.mark.parametrize("d,m", [(1, 16), (1, 15), (2, 8), (2, 7)])
def test_half_spectrum_matches_full_spectrum_reference(d, m, kind, coeff):
    # make_noise_model asks for a power of two; the solver itself does not,
    # and odd m has no self-conjugate Nyquist plane on the last axis
    model = dataclasses.replace(
        noise.make_noise_model("white", d=1, Lbox=8.0, m=16) if d == 1
        else noise.make_noise_model("riesz", d=2, Lbox=8.0, m=8, beta=1.0),
        m=m)
    lam = operators.heat_operator(d) if kind == "heat" \
        else operators.wave_operator(d)
    dt = 0.9 * model.dx**2 if kind == "heat" else 0.5 * model.dx
    coeffs = _COEFFS[coeff]
    n, k_target, eps_k, store_k = 12, 10, [2, 3, 5], [0, 4, 12]
    stream = f"half-{kind}-{coeff}-{d}-{m}"
    kw = dict(v0=0.2, store_times=[k * dt for k in store_k],
              eps_grid=[e * dt for e in eps_k], target_time=k_target * dt)
    sol = spde.solve_batch(model, lam, coeffs, 0.6, n * dt, dt,
                           [path_rng(3, stream, i) for i in range(3)], **kw)
    series, fields, G, u_eps = _full_spectrum_reference(
        model, lam, coeffs, 0.6, 0.2, n, dt,
        [path_rng(3, stream, i) for i in range(3)], store_k, eps_k, k_target)
    assert _rel_err(sol.point_series, series) < 1e-10
    assert _rel_err(sol.fields, fields) < 1e-10
    assert _rel_err(sol.G, G) < 1e-10
    for j, e in enumerate(eps_k):
        got = spde.approximate_u_eps(sol, e * dt).u_eps
        assert _rel_err(got, u_eps[:, j]) < 1e-10

    # each path keeps its own draw order: a batch row is the lone solve
    for i in range(3):
        alone = spde.solve(model, lam, coeffs, 0.6, n * dt, dt,
                           path_rng(3, stream, i), **kw)
        assert np.array_equal(alone.point_series[0], sol.point_series[i])
        assert np.array_equal(alone.fields[:, 0], sol.fields[:, i])
        assert np.array_equal(alone.G[0], sol.G[i])


@pytest.mark.parametrize("coeff", ["const", "anderson"])
@pytest.mark.parametrize("kind", ["heat", "wave"])
@pytest.mark.parametrize("d", [1, 2])
def test_solver_draws_nw_fields_per_step_from_each_stream(d, kind, coeff):
    """After n steps a path's generator stands where n * nw * m**d standard
    normals leave a fresh one (nw = 2 noises per step for wave, 1 for
    heat), whatever the batch, the coefficients or the records asked."""
    model = noise.make_noise_model("white", d=1, Lbox=8.0, m=16) if d == 1 \
        else noise.make_noise_model("riesz", d=2, Lbox=8.0, m=8, beta=1.0)
    lam = operators.heat_operator(d) if kind == "heat" \
        else operators.wave_operator(d)
    dt = 0.9 * model.dx**2 if kind == "heat" else 0.5 * model.dx
    n, nw = 7, 2 if kind == "wave" else 1
    stream = f"contract-{kind}-{coeff}-{d}"
    rngs = [path_rng(4, stream, i) for i in range(3)]
    spde.solve_batch(model, lam, _COEFFS[coeff], 0.6, n * dt, dt, rngs,
                     eps_grid=[2 * dt], store_times=[3 * dt, n * dt])
    for i, rng in enumerate(rngs):
        ref = path_rng(4, stream, i)
        ref.standard_normal(n * nw * model.m ** d)
        assert rng.random() == ref.random()


# ---------------------------------------------------------------------------
# variance targets (MC)
# ---------------------------------------------------------------------------


def test_heat_variance_matches_grid_functional():
    model = white(m=128)
    dt = 0.05 / 32
    B = 512
    sol = spde.solve_batch(model, HEAT, spde.constant_coefficients(1.0, 0.0),
                           0.0, 0.05, dt,
                           [path_rng(7, "hvar", i) for i in range(B)],
                           eps_grid=[8 * dt, 16 * dt])
    v = sol.final_point_values().var(ddof=1)
    want = noise.grid_variance_g(model, HEAT, 0.05)
    assert abs(v - want) < 4.0 * want * np.sqrt(2.0 / (B - 1))
    for eps in (8 * dt, 16 * dt):
        dec = spde.approximate_u_eps(sol, eps)
        # slab noise G is sigma-free: variance g(eps), independent of history
        assert abs(dec.G.var(ddof=1) - dec.g_eps) \
            < 4.0 * dec.g_eps * np.sqrt(2.0 / (B - 1))


def test_wave_variance_matches_grid_functional():
    model = white(m=128)
    dt = 0.5 * model.dx
    B = 512
    t_end = 16 * dt
    sol = spde.solve_batch(model, WAVE, spde.constant_coefficients(1.0, 0.0),
                           0.0, t_end, dt,
                           [path_rng(9, "wvar", i) for i in range(B)],
                           eps_grid=[4 * dt])
    v = sol.final_point_values().var(ddof=1)
    want = noise.grid_variance_g(model, WAVE, t_end)
    assert abs(v - want) < 4.0 * want * np.sqrt(2.0 / (B - 1))
    dec = spde.approximate_u_eps(sol, 4 * dt)
    assert abs(dec.G.var(ddof=1) - dec.g_eps) \
        < 4.0 * dec.g_eps * np.sqrt(2.0 / (B - 1))


# ---------------------------------------------------------------------------
# solver validation
# ---------------------------------------------------------------------------


def test_cfl_guards():
    model = white()
    c = spde.constant_coefficients()
    with pytest.raises(ValueError, match="heat step"):
        spde.solve(model, HEAT, c, 0.0, 1.0, 5.0 * model.dx**2,
                   path_rng(0, "c", 0))
    with pytest.raises(ValueError, match="wave step"):
        spde.solve(model, WAVE, c, 0.0, 1.0, 2.0 * model.dx,
                   path_rng(0, "c", 1))


def test_time_grid_validation():
    model = white()
    dt = model.dx**2
    c = spde.constant_coefficients()
    with pytest.raises(ValueError, match="multiple"):
        spde.solve(model, HEAT, c, 0.0, 10.5 * dt, dt, path_rng(0, "t", 0))
    with pytest.raises(ValueError, match="eps"):
        spde.solve(model, HEAT, c, 0.0, 16 * dt, dt, path_rng(0, "t", 1),
                   eps_grid=[3.1 * dt])
    with pytest.raises(ValueError, match="eps"):
        spde.solve(model, HEAT, c, 0.0, 16 * dt, dt, path_rng(0, "t", 2),
                   eps_grid=[32 * dt])
    with pytest.raises(ValueError):
        spde.solve(model, HEAT, c, 0.0, 1.0, -0.1, path_rng(0, "t", 3))


def test_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        spde.solve(white(), operators.heat_operator(2),
                   spde.constant_coefficients(), 0.0, 0.1, 0.001,
                   path_rng(0, "d", 0))


def test_dalang_guard_in_solver():
    bad = noise.make_noise_model("riesz", d=3, Lbox=8.0, m=4, beta=2.5)
    with pytest.raises(noise.DalangConditionError):
        spde.solve(bad, operators.heat_operator(3),
                   spde.constant_coefficients(), 0.0, 0.5, 0.5,
                   path_rng(0, "dal", 0))


# ---------------------------------------------------------------------------
# exponents and reports
# ---------------------------------------------------------------------------


def test_time_holder_fit_on_brownian_paths():
    """Brownian point series have E|B(t0+tau) - B(t0)|^2 = tau: slope 1."""
    rng = path_rng(11, "bm", 0)
    dt = 1.0 / 128
    steps = rng.standard_normal((4000, 128)) * np.sqrt(dt)
    series = np.concatenate([np.zeros((4000, 1)), np.cumsum(steps, axis=1)],
                            axis=1)
    times = np.arange(129) * dt
    fit = spde.time_holder_delta(series, times, 64 * dt,
                                 dt * np.array([4, 8, 16, 32]))
    assert fit.flag == "ok"
    assert abs(fit.slope - 1.0) < 0.05


def test_time_holder_rejects_off_grid_times():
    series = np.zeros((2, 9))
    times = np.arange(9) * 0.125
    with pytest.raises(ValueError, match="stored"):
        spde.time_holder_delta(series, times, 0.3, [0.125, 0.25, 0.375, 0.5])


def _fit(slope):
    return fit_scaling(np.geomspace(0.01, 1, 5),
                       np.geomspace(0.01, 1, 5) ** slope)


def test_gammabar_combination():
    ex = noise.GammaExponents(_fit(0.5), _fit(1.0),
                              np.geomspace(0.01, 1, 5), None, None)
    rep = spde.gammabar(ex, 0.5)
    assert rep.gammabar == pytest.approx(2.0, abs=1e-10)
    assert rep.verdict
    assert rep.beta_interval == (0.0, pytest.approx(1.0))
    # ScalingFit delta is accepted too
    assert spde.gammabar(ex, _fit(0.5)).gammabar == pytest.approx(2.0)
    steep = noise.GammaExponents(_fit(2.0), _fit(0.5),
                                 np.geomspace(0.01, 1, 5), None, None)
    low = spde.gammabar(steep, 0.1)  # (0.5 + 0.1) / 2 = 0.3
    assert not low.verdict and low.beta_interval == (0.0, 0.0)


def test_gammabar_needs_positive_gamma():
    ex = noise.GammaExponents(_fit(0.5), _fit(1.0),
                              np.geomspace(0.01, 1, 5), None, None)
    ex.gamma.slope = 0.0
    with pytest.raises(ValueError):
        spde.gammabar(ex, 0.5)


def test_density_report_weights_and_verdict():
    vals = 0.25 * path_rng(13, "dens", 0).standard_normal(40_000)
    rep = spde.density_criterion_experiment(
        vals, spde.constant_coefficients(2.0), n=1)
    assert rep.verdict
    assert len(rep.slopes) == 5
    assert rep.min_slope > 0.5
    zero = spde.density_criterion_experiment(
        vals, spde.constant_coefficients(0.0), n=1)
    assert not zero.verdict
    assert all(s.fitted.flag == "degenerate" for s in zero.statistics)
    with pytest.raises(ValueError, match="finite"):
        spde.density_criterion_experiment(
            np.append(vals, np.nan), spde.constant_coefficients(2.0), n=1)


# ---------------------------------------------------------------------------
# Gaussian density derivatives
# ---------------------------------------------------------------------------


def test_gaussian_derivative_l1_closed_forms():
    for v in (1.0, 0.25, 3.7):
        assert spde.gaussian_derivative_l1(1, v) \
            == pytest.approx(np.sqrt(2.0 / (np.pi * v)), rel=1e-12)
    # ||p''||_1 = E|Z^2 - 1| = 4 phi(1); ||p'''||_1 = 8 phi(sqrt3) + 2 phi(0)
    phi = lambda z: np.exp(-z * z / 2.0) / np.sqrt(2.0 * np.pi)
    assert spde.gaussian_derivative_l1(2, 1.0) \
        == pytest.approx(4.0 * phi(1.0), rel=1e-12)
    assert spde.gaussian_derivative_l1(3, 1.0) \
        == pytest.approx(8.0 * phi(np.sqrt(3.0)) + 2.0 * phi(0.0), rel=1e-12)
    assert spde.gaussian_derivative_l1(0, 2.0) == 1.0


def test_gaussian_derivative_l1_quadrature_oracle():
    got = spde.gaussian_derivative_l1(3, 1.0)
    want, _ = integrate.quad(
        lambda z: abs(z**3 - 3.0 * z) * np.exp(-z * z / 2.0)
        / np.sqrt(2.0 * np.pi), -12.0, 12.0)
    assert got == pytest.approx(want, rel=1e-9)


def test_gaussian_derivative_l1_variance_scaling():
    for n in (1, 2, 4):
        assert spde.gaussian_derivative_l1(n, 0.3) \
            == pytest.approx(spde.gaussian_derivative_l1(n, 1.0)
                             * 0.3 ** (-n / 2.0), rel=1e-12)
    with pytest.raises(ValueError):
        spde.gaussian_derivative_l1(-1, 1.0)
    with pytest.raises(ValueError):
        spde.gaussian_derivative_l1(1, 0.0)
