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

from ambitlab import besov, noise, spde
from ambitlab.montecarlo import ScalingFit, fit_scaling, path_rng


HEAT = "heat"
WAVE = "wave"


def white(m=64, L=8.0):
    return noise.make_noise_model("white", d=1, Lbox=L, m=m)


# ---------------------------------------------------------------------------
# deterministic limits
# ---------------------------------------------------------------------------


def test_heat_pure_drift_is_exact():
    model = white()
    dt = 4.0 * model.dx**2
    sol = spde.solve_batch(model, HEAT, spde.constant_coefficients(0.0, 0.7),
                           u0=0.25, t_end=40 * dt, dt=dt,
                           rngs=[path_rng(0, "d", 0)])
    # zero-mode drift integrates exactly: u = u0 + b t
    assert sol.final_point_values()[0] == pytest.approx(0.25 + 0.7 * 40 * dt,
                                                        rel=1e-12)


def test_wave_pure_drift_is_exact():
    model = white()
    dt = 0.5 * model.dx
    n = 32
    sol = spde.solve_batch(model, WAVE, spde.constant_coefficients(0.0, 0.7),
                           u0=0.25, t_end=n * dt, dt=dt,
                           rngs=[path_rng(0, "d", 1)])
    t = n * dt
    # discrete constant-acceleration integration from rest is exact:
    # u = u0 + b t^2/2
    assert sol.final_point_values()[0] \
        == pytest.approx(0.25 + 0.7 * t**2 / 2.0, rel=1e-10)


# ---------------------------------------------------------------------------
# the frozen decomposition
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["heat", "wave"])
def test_constant_coefficients_freeze_exactly(kind):
    model = white()
    dt = 4 * model.dx**2 if kind == "heat" else 0.5 * model.dx
    eps_grid = [4 * dt, 8 * dt, 16 * dt]
    sol = spde.solve_batch(model, kind,
                           spde.constant_coefficients(1.3, 0.7),
                           u0=0.5, t_end=40 * dt, dt=dt,
                           rngs=[path_rng(123, "freeze", i) for i in range(8)],
                           eps_grid=eps_grid)
    u = sol.final_point_values()
    for eps in eps_grid:
        u_eps = spde.approximate_u_eps(sol, eps)
        assert np.max(np.abs(u_eps - u)) < 1e-9


def test_unrecorded_eps_raises():
    model = white()
    dt = 4 * model.dx**2
    sol = spde.solve_batch(model, HEAT, spde.constant_coefficients(), 0.0,
                           16 * dt, dt, [path_rng(0, "e", 0)],
                           eps_grid=[4 * dt])
    with pytest.raises(ValueError, match="not recorded"):
        spde.approximate_u_eps(sol, 2 * dt)
    plain = spde.solve_batch(model, HEAT, spde.constant_coefficients(), 0.0,
                             16 * dt, dt, [path_rng(0, "e", 1)])
    with pytest.raises(ValueError, match="approximation"):
        spde.approximate_u_eps(plain, 4 * dt)


# ---------------------------------------------------------------------------
# half-spectrum bookkeeping against a full-spectrum reference
# ---------------------------------------------------------------------------


def _full_spectrum_reference(model, operator, coeffs, u0, n, dt, rngs, eps_k):
    """The solver's recurrence on the full np.fft.fftn spectrum, started at
    rest and run for n steps.

    Noise is drawn in the solver's order (w1, then w2, per step and path).
    Values at x = 0 are read off the inverse transform, not a spectral sum.
    Returns the point series, G and u_eps for each eps (in steps).
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
    wave = operator == "wave"
    if wave:
        l11, l21, l22 = spde._wave_step_covariance(dt, r)
    else:
        q1 = np.sqrt(noise.squared_time_integral(operator, dt, r))

    uhat = np.fft.fftn(np.full((B,) + shape, u0), axes=axes)
    vhat = np.zeros_like(uhat)
    series, snaps = [np.full(B, u0)], {}
    G = np.zeros((B, len(eps_k)))
    for k in range(n):
        u = phys(uhat)
        w1 = np.stack([rng.standard_normal(shape) for rng in rngs])
        w2 = np.stack([rng.standard_normal(shape) for rng in rngs]) \
            if wave else None
        sig = coeffs.sigma_values(u)
        bhat = np.fft.fftn(coeffs.b_constant * np.ones_like(u), axes=axes)
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
        if k >= n - max(eps_k):
            tau = (n - k - 1) * dt
            if wave:
                ck = np.cos(tau * r) * base * l11 * W1 \
                    + sinc(tau) * base * (l21 * W1 + l22 * W2)
            else:
                ck = np.exp(-tau * r**2) * base * q1 * W1
            for j, e in enumerate(eps_k):
                if k >= n - e:
                    G[:, j] += phys(ck)[origin]
        series.append(phys(uhat)[origin])
        snaps[k + 1] = (uhat, vhat)

    u_eps = []
    for j, e in enumerate(eps_k):
        uh, vh = snaps[n - e]
        eps = e * dt
        if wave:
            hist = np.cos(eps * r) * uh + sinc(eps) * vh
            drift = 0.5 * eps * eps
        else:
            hist = np.exp(-eps * r**2) * uh
            drift = eps
        cut = phys(uh)[origin]
        u_eps.append(phys(hist)[origin] + coeffs.b_constant * drift
                     + coeffs.sigma_values(cut) * G[:, j])
    return np.stack(series, axis=1), G, np.stack(u_eps, axis=1)


def _rel_err(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


_COEFFS = {
    "const": spde.constant_coefficients(1.3, 0.7),
    "anderson": spde.anderson_coefficients(0.5, 0.3),
}


@pytest.mark.parametrize("kind", ["heat", "wave"])
def test_flow_is_a_semigroup_and_its_drift_composes(kind):
    """flow(s) flow(t) = flow(s + t) per mode, and the drift integral
    composes as drift(s + t) = flow(t) drift(s) + drift(t); at r = 0 the
    u drift is t (heat) or t^2/2 (wave)."""
    r = 2.0 * np.pi / 8.0 * np.arange(9.0)
    s, t = 0.3, 0.45
    (rows_s, drift_s), (rows_t, drift_t), (rows_st, drift_st) = (
        spde._flow(kind, h, r) for h in (s, t, s + t))
    n = len(rows_s)
    for i in range(n):
        for j in range(n):
            product = sum(rows_t[i][k] * rows_s[k][j] for k in range(n))
            assert _rel_err(product, rows_st[i][j]) < 1e-12
        composed = sum(rows_t[i][k] * drift_s[k] for k in range(n)) \
            + drift_t[i]
        assert _rel_err(composed, drift_st[i]) < 1e-12
    limit = t if kind == "heat" else t * t / 2.0
    assert drift_t[0][0] == pytest.approx(limit, rel=1e-12)


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
    dt = 0.9 * model.dx**2 if kind == "heat" else 0.5 * model.dx
    coeffs = _COEFFS[coeff]
    n, eps_k = 12, [2, 3, 5]
    stream = f"half-{kind}-{coeff}-{d}-{m}"
    kw = dict(eps_grid=[e * dt for e in eps_k])
    sol = spde.solve_batch(model, kind, coeffs, 0.6, n * dt, dt,
                           [path_rng(3, stream, i) for i in range(3)], **kw)
    series, G, u_eps = _full_spectrum_reference(
        model, kind, coeffs, 0.6, n, dt,
        [path_rng(3, stream, i) for i in range(3)], eps_k)
    assert _rel_err(sol.point_series, series) < 1e-10
    assert _rel_err(sol.G, G) < 1e-10
    for j, e in enumerate(eps_k):
        got = spde.approximate_u_eps(sol, e * dt)
        assert _rel_err(got, u_eps[:, j]) < 1e-10

    # each path keeps its own draw order: a batch row is the lone solve
    for i in range(3):
        alone = spde.solve_batch(model, kind, coeffs, 0.6, n * dt, dt,
                                 [path_rng(3, stream, i)], **kw)
        assert np.array_equal(alone.point_series[0], sol.point_series[i])
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
    dt = 0.9 * model.dx**2 if kind == "heat" else 0.5 * model.dx
    n, nw = 7, 2 if kind == "wave" else 1
    stream = f"contract-{kind}-{coeff}-{d}"
    rngs = [path_rng(4, stream, i) for i in range(3)]
    spde.solve_batch(model, kind, _COEFFS[coeff], 0.6, n * dt, dt, rngs,
                     eps_grid=[2 * dt])
    for i, rng in enumerate(rngs):
        ref = path_rng(4, stream, i)
        ref.standard_normal(n * nw * model.m ** d)
        assert rng.random() == ref.random()


@pytest.mark.parametrize("coeff", ["const", "anderson"])
@pytest.mark.parametrize("kind", ["heat", "wave"])
@pytest.mark.parametrize("d", [1, 2])
def test_blocks_cannot_move_a_number(d, kind, coeff):
    """Every solver operation acts on each path alone, so solving a batch
    at once or in uneven slices gives the same bytes: the point series,
    the slab noise G and the recorded u_eps.  An Anderson solve without eps
    records skips the noise's own transform, and its series stays too."""
    model = noise.make_noise_model("white", d=1, Lbox=8.0, m=16) if d == 1 \
        else noise.make_noise_model("riesz", d=2, Lbox=8.0, m=8, beta=1.0)
    dt = 0.9 * model.dx**2 if kind == "heat" else 0.5 * model.dx
    n, eps_grid = 12, [2 * dt, 5 * dt]
    stream = f"blocks-{kind}-{coeff}-{d}"

    def solve(lo, hi, **kw):
        rngs = [path_rng(8, stream, i) for i in range(lo, hi)]
        return spde.solve_batch(model, kind, _COEFFS[coeff], 0.6, n * dt, dt,
                                rngs, **kw)

    whole = solve(0, 7, eps_grid=eps_grid)
    parts = [solve(lo, hi, eps_grid=eps_grid)
             for lo, hi in ((0, 1), (1, 4), (4, 6), (6, 7))]

    def joined(get):
        return np.concatenate([get(p) for p in parts]).tobytes()

    assert joined(lambda p: p.point_series) == whole.point_series.tobytes()
    assert joined(lambda p: p.G) == whole.G.tobytes()
    assert joined(lambda p: p.u_eps) == whole.u_eps.tobytes()
    assert solve(0, 7).point_series.tobytes() == whole.point_series.tobytes()


def test_paths_per_block_fixes_the_grid_points():
    def model(d, m):
        return noise.make_noise_model("white", d=d, Lbox=8.0, m=m)

    # m**d <= 128 keeps the default 256 paths; larger grids hold about
    # 2**15 points, and a grid larger than that takes one path per block
    assert [spde.paths_per_block(model(1, m)) for m in (64, 128, 256, 512)] \
        == [256, 256, 128, 64]
    assert spde.paths_per_block(model(2, 64)) == 8
    assert spde.paths_per_block(model(3, 64)) == 1


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
    for j, eps in enumerate((8 * dt, 16 * dt)):
        # slab noise G is sigma-free: variance g(eps), independent of history
        g_eps = noise.grid_variance_g(model, HEAT, eps)
        assert abs(sol.G[:, j].var(ddof=1) - g_eps) \
            < 4.0 * g_eps * np.sqrt(2.0 / (B - 1))


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
    g_eps = noise.grid_variance_g(model, WAVE, 4 * dt)
    assert abs(sol.G[:, 0].var(ddof=1) - g_eps) \
        < 4.0 * g_eps * np.sqrt(2.0 / (B - 1))


# ---------------------------------------------------------------------------
# solver validation
# ---------------------------------------------------------------------------


def test_cfl_guards():
    model = white()
    c = spde.constant_coefficients()
    with pytest.raises(ValueError, match="heat step"):
        spde.solve_batch(model, HEAT, c, 0.0, 1.0, 5.0 * model.dx**2,
                         [path_rng(0, "c", 0)])
    with pytest.raises(ValueError, match="wave step"):
        spde.solve_batch(model, WAVE, c, 0.0, 1.0, 2.0 * model.dx,
                         [path_rng(0, "c", 1)])


def test_time_grid_validation():
    model = white()
    dt = model.dx**2
    c = spde.constant_coefficients()
    with pytest.raises(ValueError, match="multiple"):
        spde.solve_batch(model, HEAT, c, 0.0, 10.5 * dt, dt,
                         [path_rng(0, "t", 0)])
    with pytest.raises(ValueError, match="eps"):
        spde.solve_batch(model, HEAT, c, 0.0, 16 * dt, dt,
                         [path_rng(0, "t", 1)], eps_grid=[3.1 * dt])
    with pytest.raises(ValueError, match="eps"):
        spde.solve_batch(model, HEAT, c, 0.0, 16 * dt, dt,
                         [path_rng(0, "t", 2)], eps_grid=[32 * dt])
    with pytest.raises(ValueError):
        spde.solve_batch(model, HEAT, c, 0.0, 1.0, -0.1,
                         [path_rng(0, "t", 3)])
    # the eps record has one column per step: none, or two on one step,
    # is refused before any draw
    for bad in ([], [2 * dt, 2 * dt, 4 * dt]):
        rng = path_rng(0, "t", 4)
        with pytest.raises(ValueError, match="eps_grid"):
            spde.solve_batch(model, HEAT, c, 0.0, 16 * dt, dt, [rng],
                             eps_grid=bad)
        assert rng.random() == path_rng(0, "t", 4).random()


def test_unknown_operator_is_named():
    # checked before the CFL bound, whose branch would take it for wave:
    # dt = 1 exceeds both bounds
    with pytest.raises(ValueError, match="operator 'hat'"):
        spde.solve_batch(white(), "hat", spde.constant_coefficients(), 0.0,
                         1.0, 1.0, [path_rng(0, "op", 0)])


def test_dalang_guard_in_solver():
    bad = noise.make_noise_model("riesz", d=3, Lbox=8.0, m=4, beta=2.5)
    with pytest.raises(noise.DalangConditionError):
        spde.solve_batch(bad, HEAT,
                         spde.constant_coefficients(), 0.0, 0.5, 0.5,
                         [path_rng(0, "dal", 0)])


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
    lags = dt * np.array([4, 8, 16, 32])
    fit, means, errs = spde.time_holder_delta(series, times, 64 * dt, lags)
    assert fit.flag == "ok"
    assert abs(fit.slope - 1.0) < 0.05
    # the fitted points: each lag's mean within 4 standard errors of tau
    assert np.all(np.abs(means - lags) < 4.0 * errs)


def test_time_holder_rejects_off_grid_times():
    series = np.zeros((2, 9))
    times = np.arange(9) * 0.125
    with pytest.raises(ValueError, match="stored"):
        spde.time_holder_delta(series, times, 0.3, [0.125, 0.25, 0.375, 0.5])


def _fit(slope):
    return fit_scaling(np.geomspace(0.01, 1, 5),
                       np.geomspace(0.01, 1, 5) ** slope)


def test_gammabar_combination():
    ex = noise.GammaExponents(0.5, 1.0, np.geomspace(0.01, 1, 5), None, None)
    rep = spde.gammabar(ex, _fit(0.5))
    assert rep.gammabar == pytest.approx(2.0, abs=1e-10)
    assert rep.verdict is True and rep.flag == "ok"
    assert rep.beta_interval == (0.0, pytest.approx(1.0))
    steep = noise.GammaExponents(2.0, 0.5, np.geomspace(0.01, 1, 5), None,
                                 None)
    low = spde.gammabar(steep, _fit(0.1))  # (0.5 + 0.1) / 2 = 0.3
    assert low.verdict is False and low.flag == "ok"
    assert low.beta_interval == (0.0, 0.0)


def test_gammabar_verdict_is_decided_on_the_delta_ci():
    """gammabar > 1 iff delta > gamma1 - min(gamma1, gamma2): a delta CI
    holding that threshold leaves the verdict undecided, with the point
    values still reported."""
    ex = noise.GammaExponents(1.0, 2.0, np.geomspace(0.01, 1, 5), None, None)
    wide = ScalingFit(0.5, 0.0, 0.9, 0.6, 5, "ok")   # 0.5 +- 0.6 vs 0
    rep = spde.gammabar(ex, wide)
    assert (rep.gammabar, rep.delta, rep.verdict, rep.flag) \
        == (1.5, 0.5, None, "inconclusive")
    narrow = ScalingFit(0.5, 0.0, 0.9, 0.4, 5, "ok")
    assert spde.gammabar(ex, narrow).verdict is True
    # wave-like ordering gamma2 < gamma1: the threshold is gamma1 - gamma2
    wave = noise.GammaExponents(2.0, 1.5, np.geomspace(0.01, 1, 5), None,
                                None)
    assert spde.gammabar(wave, _fit(0.8)).verdict is True
    assert spde.gammabar(wave, _fit(0.4)).verdict is False
    assert spde.gammabar(wave, narrow).verdict is None       # 0.5 +- 0.4


def test_gammabar_of_a_degenerate_fit_has_no_verdict():
    """A degenerate delta fit (exactly zero increments) carries a
    placeholder slope: the report says nothing built on it, where the
    slope 0.0 would read as "no density"."""
    ex = noise.GammaExponents(1.0, 2.0, np.geomspace(0.01, 1, 5), None, None)
    flat = fit_scaling(np.geomspace(0.01, 1, 5), np.zeros(5))
    assert flat.flag == "degenerate"
    rep = spde.gammabar(ex, flat)
    assert (rep.gammabar, rep.delta, rep.verdict, rep.beta_interval) \
        == (None, None, None, None)
    assert (rep.gamma1, rep.gamma2, rep.flag) == (1.0, 2.0, "degenerate")
    # a fitted slope of exactly 0.0 is a measured delta, at the threshold
    zero = spde.gammabar(ex, _fit(0.0))
    assert (zero.gammabar, zero.verdict, zero.flag) \
        == (1.0, None, "inconclusive")


def test_gammabar_needs_positive_gamma():
    ex = noise.GammaExponents(0.0, 1.0, np.geomspace(0.01, 1, 5), None, None)
    with pytest.raises(ValueError):
        spde.gammabar(ex, _fit(0.5))


def test_density_report_weights_and_verdict():
    """spde-density's weights |sigma(u)|^n go to besov.criterion_report: a
    constant sigma is one number for every sample, sigma = 0 leaves a zero
    measure, and a non-finite sample is an error."""
    vals = 0.25 * path_rng(13, "dens", 0).standard_normal(40_000)

    def report(sigma0, values=vals):
        w = np.abs(spde.constant_coefficients(sigma0).sigma_values(values))
        return besov.criterion_report(values, w, 1, 0.5)

    rep = report(2.0)
    assert rep.verdict and rep.flag == "ok"
    assert len(rep.slopes) == 5
    assert rep.min_slope > 0.5
    full = besov.criterion_report(vals, np.full(vals.size, 2.0), 1, 0.5)
    assert [s.stat_values.tolist() for s in rep.statistics] \
        == [s.stat_values.tolist() for s in full.statistics]
    zero = report(0.0)
    assert zero.verdict is None and zero.flag == "degenerate"
    assert zero.min_slope is None
    assert all(s.fitted.flag == "degenerate" for s in zero.statistics)
    with pytest.raises(ValueError, match="finite"):
        report(2.0, np.append(vals, np.nan))