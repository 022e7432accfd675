"""Mild-solution solver: exactness properties, variance targets, exponents.

The sharp oracles:

  * the constant-sigma step loop on radius shells (oracles.shell_solve) is
    linear, so the covariance of point_law, from which solve_batch draws
    constant-sigma paths, must equal the sum of its unit-normal responses
    h h^T to roundoff, and its mean the loop's noiseless run;
  * constant coefficients make the one-step freezing exact, so the
    loop's recorded decomposition must reproduce u(t, 0) to float roundoff
    for every eps;
  * with sigma == 1 the per-mode forcing carries the exact step variance,
    so Var u(t, 0) equals the grid-spectral functional g (exactly on the
    law's diagonal, by Monte Carlo on the loop).
"""

import dataclasses

import numpy as np
import pytest

from ambitlab import besov, noise, spde
from ambitlab.montecarlo import ScalingFit, fit_scaling, path_rng

from oracles import shell_solve


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
    sol = shell_solve(model, kind, spde.constant_coefficients(1.3, 0.7),
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
    sol = shell_solve(model, HEAT, spde.constant_coefficients(), 0.0,
                      16 * dt, dt, [path_rng(0, "e", 0)], eps_grid=[4 * dt])
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


class _FoldedNoise:
    """A generator stand-in for a constant-sigma solve on shells.  Each
    standard_normal(out=) call fills the (steps, nw, S) out of a few steps:
    per step and noise, w1 then (wave) w2, it draws the white noise on the
    full grid from rng, as _full_spectrum_reference draws them, and writes
    its shell sums of Re fftn divided by sqrt(m**d n_s): the unit-variance
    shell forcings of that same noise."""

    def __init__(self, model, rng):
        self.rng = rng
        self.shape = (model.m,) * model.d
        self.shell = _shell_of_modes(model)
        self.scale = np.sqrt(model.m ** model.d * spde.radius_shells(model)[1])

    def standard_normal(self, out):
        for row in out.reshape(-1, out.shape[-1]):
            w = self.rng.standard_normal(self.shape)
            row[:] = np.bincount(self.shell, weights=np.fft.fftn(w).real.ravel(),
                                 minlength=row.size) / self.scale


def _shell_of_modes(model):
    """Each mode's shell in radius_shells(model), flat fft layout, found by
    its integer key sum_i j_i**2 from np.fft.fftfreq; the shells' keys must
    ascend strictly, and every mode's key must be its shell's."""
    j = np.rint(np.fft.fftfreq(model.m) * model.m).astype(np.int64)
    key = sum(a**2 for a in np.meshgrid(*[j] * model.d, indexing="ij"))
    key = key.ravel()
    first, counts = spde.radius_shells(model)
    shell_keys = key[first]
    assert np.all(np.diff(shell_keys) > 0)
    shell = np.searchsorted(shell_keys, key)
    assert np.array_equal(shell_keys[shell], key)
    assert np.array_equal(np.bincount(shell, minlength=counts.size), counts)
    return shell


def _solver(coeffs):
    """The step loop that records eps data for coeffs: solve_batch for an
    Anderson sigma, the shell loop of oracles for a constant one."""
    return spde.solve_batch if coeffs.sigma_constant is None else shell_solve


def _streams(model, coeffs, seed, stream, paths):
    """The solver's generators: plain path_rng streams for an Anderson
    sigma, folded onto shells for a constant one."""
    rngs = [path_rng(seed, stream, i) for i in paths]
    if coeffs.sigma_constant is None:
        return rngs
    return [_FoldedNoise(model, rng) for rng in rngs]


def _check_against_reference(model, kind, coeffs, u0, dt, stream, tol):
    """point_series, G and every u_eps column of a 3-path solve of the step
    loop against _full_spectrum_reference on the same white noise, and
    each path alone against its batch row."""
    n, eps_k = 12, [2, 3, 5]
    kw = dict(eps_grid=[e * dt for e in eps_k])
    solve = _solver(coeffs)
    sol = solve(model, kind, coeffs, u0, n * dt, dt,
                _streams(model, coeffs, 3, stream, range(3)), **kw)
    series, G, u_eps = _full_spectrum_reference(
        model, kind, coeffs, u0, n, dt,
        [path_rng(3, stream, i) for i in range(3)], eps_k)
    assert _rel_err(sol.point_series, series) < tol
    assert _rel_err(sol.G, G) < tol
    for j, e in enumerate(eps_k):
        got = spde.approximate_u_eps(sol, e * dt)
        assert _rel_err(got, u_eps[:, j]) < tol

    # each path keeps its own draw order: a batch row is the lone solve
    for i in range(3):
        alone = solve(model, kind, coeffs, u0, n * dt, dt,
                      _streams(model, coeffs, 3, stream, [i]), **kw)
        assert np.array_equal(alone.point_series[0], sol.point_series[i])
        assert np.array_equal(alone.G[0], sol.G[i])


@pytest.mark.parametrize("coeff", sorted(_COEFFS))
@pytest.mark.parametrize("kind", ["heat", "wave"])
@pytest.mark.parametrize("d,m", [(1, 16), (1, 15), (2, 8), (2, 7)])
def test_half_spectrum_matches_full_spectrum_reference(d, m, kind, coeff):
    """Anderson solves on the rfftn half spectrum; the constant-sigma shell
    loop takes the reference's noise folded onto shells (see
    test_shells_match_full_spectrum_reference_on_the_same_noise)."""
    # make_noise_model asks for a power of two; the solver itself does not,
    # and odd m has no self-conjugate Nyquist plane on the last axis
    model = dataclasses.replace(
        noise.make_noise_model("white", d=1, Lbox=8.0, m=16) if d == 1
        else noise.make_noise_model("riesz", d=2, Lbox=8.0, m=8, beta=1.0),
        m=m)
    dt = 0.9 * model.dx**2 if kind == "heat" else 0.5 * model.dx
    _check_against_reference(model, kind, _COEFFS[coeff], 0.6, dt,
                             f"half-{kind}-{coeff}-{d}-{m}", 1e-10)


_SHELL_MODELS = {
    "white-1-64": ("white", 1, 64, None),
    "white-1-512": ("white", 1, 512, None),
    "riesz-2-16": ("riesz", 2, 16, 1.0),
    "riesz-3-8": ("riesz", 3, 8, 1.5),
}


@pytest.mark.parametrize("b0", [0.0, 0.7])
@pytest.mark.parametrize("kind", ["heat", "wave"])
@pytest.mark.parametrize("grid", sorted(_SHELL_MODELS))
def test_shells_match_full_spectrum_reference_on_the_same_noise(grid, kind,
                                                                b0):
    """The constant-sigma step loop on radius shells, fed the shell sums of
    the reference's own white noise, gives the full-spectrum point series,
    slab noise G and u_eps to 1e-12, in d = 1, 2 and 3, with and without
    drift."""
    kind_, d, m, beta = _SHELL_MODELS[grid]
    model = noise.make_noise_model(kind_, d=d, Lbox=8.0, m=m, beta=beta)
    dt = 0.9 * model.dx**2 if kind == "heat" else 0.5 * model.dx
    _check_against_reference(model, kind, spde.constant_coefficients(0.7, b0),
                             0.3, dt, f"shells-{grid}-{kind}-{b0}", 1e-12)


@pytest.mark.parametrize("kind,d,m,shells", [
    ("white", 1, 512, 257), ("white", 1, 64, 33), ("riesz", 2, 16, 42),
    ("riesz", 2, 64, 457), ("riesz", 3, 16, 116), ("riesz", 3, 32, 464)])
def test_radius_shells_group_modes_by_their_integer_key(kind, d, m, shells):
    model = noise.make_noise_model(kind, d=d, Lbox=8.0, m=m,
                                   beta=None if kind == "white" else 1.0)
    first, counts = spde.radius_shells(model)
    assert counts.size == shells
    assert counts.sum() == m**d
    assert (first[0], counts[0]) == (0, 1)          # shell 0: the zero mode
    shell = _shell_of_modes(model)
    # the float radii within a shell agree to roundoff
    r = noise._radius_grid(model).ravel()
    assert np.allclose(r, r[first][shell], rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("d,m", [(1, 16), (1, 15), (2, 8), (2, 7), (3, 4)])
def test_shell_forcing_has_variance_m_d_n_s_and_is_independent(d, m):
    """Z_s, the shell sum of Re fftn of white noise w, is the linear map
    C w with C[s, x] = sum over shell s of cos(xi . x); its covariance
    C C^T must be diag(m**d n_s): variance m**d n_s, and (Gaussian)
    independent across shells."""
    model = dataclasses.replace(
        noise.make_noise_model("white", d=d, Lbox=8.0, m=4), m=m)
    npts = m**d
    shape = (m,) * d
    unit = np.eye(npts).reshape((npts,) + shape)
    cos = np.fft.fftn(unit, axes=tuple(range(1, d + 1))).real \
        .reshape(npts, npts)                          # [x, xi]
    shell = _shell_of_modes(model)
    counts = spde.radius_shells(model)[1]
    C = np.zeros((counts.size, npts))
    np.add.at(C, shell, cos.T)
    assert np.allclose(C @ C.T, np.diag(npts * counts.astype(float)),
                       rtol=0.0, atol=1e-9 * npts)


@pytest.mark.parametrize("coeff", ["const", "anderson"])
@pytest.mark.parametrize("kind", ["heat", "wave"])
@pytest.mark.parametrize("d", [1, 2])
def test_solver_draws_nw_fields_per_step_from_each_stream(d, kind, coeff):
    """After n steps of the step loop a path's generator stands where
    n * nw * S standard normals leave a fresh one (nw = 2 noises per step
    for wave, 1 for heat; S modes per noise, the radius shells of the
    constant-sigma loop and the m**d grid points for Anderson), whatever
    the batch or the records asked."""
    model = noise.make_noise_model("white", d=1, Lbox=8.0, m=16) if d == 1 \
        else noise.make_noise_model("riesz", d=2, Lbox=8.0, m=8, beta=1.0)
    dt = 0.9 * model.dx**2 if kind == "heat" else 0.5 * model.dx
    n, nw = 7, 2 if kind == "wave" else 1
    modes = spde.radius_shells(model)[1].size if coeff == "const" \
        else model.m ** d
    stream = f"contract-{kind}-{coeff}-{d}"
    rngs = [path_rng(4, stream, i) for i in range(3)]
    _solver(_COEFFS[coeff])(model, kind, _COEFFS[coeff], 0.6, n * dt, dt,
                            rngs, eps_grid=[2 * dt])
    for i, rng in enumerate(rngs):
        ref = path_rng(4, stream, i)
        ref.standard_normal(n * nw * modes)
        assert rng.random() == ref.random()


class _CallLog:
    """A generator that records the steps each standard_normal(out=) call
    fills, the leading axis of its (steps, nw, S) out."""

    def __init__(self, rng):
        self.rng = rng
        self.steps = []

    def standard_normal(self, out):
        self.steps.append(out.shape[0])
        self.rng.standard_normal(out=out)


@pytest.mark.parametrize("coeff", ["const", "anderson"])
@pytest.mark.parametrize("kind", ["heat", "wave"])
@pytest.mark.parametrize("d", [1, 2])
def test_chunked_draws_equal_one_call_per_step(d, kind, coeff, monkeypatch):
    """A step-loop path draws the noises of C steps per call and the steps
    left in the last one: 7 steps at C = 3 take calls of 3, 3 and 1 steps.  The
    point series, the slab noise G and u_eps are the bytes of C = 1, and
    each generator ends where n * nw * S normals leave a fresh one."""
    model = noise.make_noise_model("white", d=1, Lbox=8.0, m=16) if d == 1 \
        else noise.make_noise_model("riesz", d=2, Lbox=8.0, m=8, beta=1.0)
    dt = 0.9 * model.dx**2 if kind == "heat" else 0.5 * model.dx
    n, nw = 7, 2 if kind == "wave" else 1
    modes = spde.radius_shells(model)[1].size if coeff == "const" \
        else model.m ** d
    stream = f"chunks-{kind}-{coeff}-{d}"
    sols = {}
    for chunk, calls in ((1, [1] * 7), (3, [3, 3, 1])):
        monkeypatch.setattr(spde, "NORMALS_PER_CALL", chunk * nw * modes)
        assert spde.steps_per_call(kind, modes, n) == chunk
        rngs = [_CallLog(path_rng(5, stream, i)) for i in range(3)]
        sols[chunk] = _solver(_COEFFS[coeff])(model, kind, _COEFFS[coeff],
                                              0.6, n * dt, dt, rngs,
                                              eps_grid=[2 * dt, 5 * dt])
        for i, rng in enumerate(rngs):
            assert rng.steps == calls
            ref = path_rng(5, stream, i)
            ref.standard_normal(n * nw * modes)
            assert rng.rng.random() == ref.random()
    for field in ("point_series", "G", "u_eps"):
        assert getattr(sols[3], field).tobytes() \
            == getattr(sols[1], field).tobytes()


def test_steps_per_call_fills_the_normals_budget():
    # NORMALS_PER_CALL = 2048: wave on 257 shells (514 normals a step)
    # draws 3 steps a call, heat on them 7; a short run draws all its
    # steps at once, and a step larger than the budget is one call
    assert spde.NORMALS_PER_CALL == 2**11
    assert spde.steps_per_call("wave", 257, 128) == 3
    assert spde.steps_per_call("heat", 257, 103) == 7
    assert spde.steps_per_call("wave", 33, 16) == 16
    assert spde.steps_per_call("heat", 4096, 5) == 1


@pytest.mark.parametrize("coeff", ["const", "anderson"])
@pytest.mark.parametrize("kind", ["heat", "wave"])
@pytest.mark.parametrize("d", [1, 2])
def test_blocks_cannot_move_a_number(d, kind, coeff):
    """Every solver operation acts on each path alone, so solving a batch
    at once or in uneven slices gives the same bytes: the point series
    (at every step and at a few steps read), and for Anderson the slab
    noise G and the recorded u_eps.  An Anderson solve without eps records
    skips the noise's own transform, and its series stays too.  A
    constant-sigma path is mean + np.dot(L, z), one product per path."""
    model = noise.make_noise_model("white", d=1, Lbox=8.0, m=16) if d == 1 \
        else noise.make_noise_model("riesz", d=2, Lbox=8.0, m=8, beta=1.0)
    dt = 0.9 * model.dx**2 if kind == "heat" else 0.5 * model.dx
    n, eps_grid = 12, [2 * dt, 5 * dt]
    stream = f"blocks-{kind}-{coeff}-{d}"

    def solve(lo, hi, **kw):
        rngs = [path_rng(8, stream, i) for i in range(lo, hi)]
        return spde.solve_batch(model, kind, _COEFFS[coeff], 0.6, n * dt, dt,
                                rngs, **kw)

    slices = ((0, 1), (1, 4), (4, 6), (6, 7))

    def joined(parts, get):
        return np.concatenate([get(p) for p in parts]).tobytes()

    for kw in ({}, {"steps": [3, 5, 12]}):
        whole = solve(0, 7, **kw)
        parts = [solve(lo, hi, **kw) for lo, hi in slices]
        assert joined(parts, lambda p: p.point_series) \
            == whole.point_series.tobytes()
    if coeff == "const":
        return
    whole = solve(0, 7, eps_grid=eps_grid)
    parts = [solve(lo, hi, eps_grid=eps_grid) for lo, hi in slices]
    assert joined(parts, lambda p: p.point_series) \
        == whole.point_series.tobytes()
    assert joined(parts, lambda p: p.G) == whole.G.tobytes()
    assert joined(parts, lambda p: p.u_eps) == whole.u_eps.tobytes()
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
# the exact point law of a constant sigma
# ---------------------------------------------------------------------------


class _UnitNormal:
    """A generator stand-in whose draws are all zero but for normal number
    `index` of its stream, which is 1 (index -1: no noise at all)."""

    def __init__(self, index):
        self.index = index
        self.drawn = 0

    def standard_normal(self, out):
        flat = out.reshape(-1)
        flat[:] = 0.0
        if 0 <= self.index - self.drawn < flat.size:
            flat[self.index - self.drawn] = 1.0
        self.drawn += flat.size


@pytest.mark.parametrize("kind", ["heat", "wave"])
@pytest.mark.parametrize("grid", ["white-1-64", "riesz-2-16", "riesz-3-8"])
def test_point_law_is_the_step_loops_law(grid, kind):
    """The shell loop is linear in its normals, so the covariance of
    u(k dt, 0) is the sum of h h^T over its responses h to each unit
    normal, and its mean is the loop's noiseless run.  point_law must give
    both at every step and at a few steps read, to 1e-12 relative, in
    d = 1, 2 and 3, with a drift."""
    kind_, d, m, beta = _SHELL_MODELS[grid]
    model = noise.make_noise_model(kind_, d=d, Lbox=8.0, m=m, beta=beta)
    dt = 0.9 * model.dx**2 if kind == "heat" else 0.5 * model.dx
    coeffs, u0, n = spde.constant_coefficients(0.7, 0.4), 0.3, 12
    shells = spde.radius_shells(model)[1].size
    normals = n * spde.noises_per_step(kind) * shells

    def loop(indices):
        return shell_solve(model, kind, coeffs, u0, n * dt, dt,
                           [_UnitNormal(i) for i in indices]).point_series

    noiseless = loop([-1])[0]
    h = loop(range(normals)) - noiseless
    want = (h.T @ h)[1:, 1:]
    mean, cov = spde.point_law(model, kind, coeffs, u0, dt,
                               np.arange(1, n + 1))
    assert _rel_err(cov, want) < 1e-12
    assert _rel_err(mean, noiseless[1:]) < 1e-12
    read = np.array([2, 5, 6, 12])
    mean, cov = spde.point_law(model, kind, coeffs, u0, dt, read)
    assert _rel_err(cov, want[np.ix_(read - 1, read - 1)]) < 1e-12
    assert _rel_err(mean, noiseless[read]) < 1e-12


@pytest.mark.parametrize("kind", ["heat", "wave"])
def test_point_law_variance_is_grid_variance_g(kind):
    """With sigma = 1 the variance of u(k dt, 0) is the grid functional g
    at k dt."""
    model = white(m=512)
    dt = 2.0 * model.dx**2 if kind == "heat" else 0.5 * model.dx
    steps = np.array([1, 2, 3, 8, 64, 127, 128])
    _, cov = spde.point_law(model, kind, spde.constant_coefficients(), 0.0,
                            dt, steps)
    g = [noise.grid_variance_g(model, kind, k * dt) for k in steps]
    assert _rel_err(np.diag(cov) / g, np.ones(steps.size)) < 1e-12


def _delta_exact(model, kind, dt, k0, lag_steps):
    """The exact time-Holder slope: fit_scaling of the increment variance
    C(t0 + tau, t0 + tau) - 2 C(t0, t0 + tau) + C(t0, t0) over the lags."""
    steps = np.concatenate([[k0], k0 + np.asarray(lag_steps)])
    _, cov = spde.point_law(model, kind, spde.constant_coefficients(), 0.0,
                            dt, steps)
    msq = np.diag(cov)[1:] - 2.0 * cov[0, 1:] + cov[0, 0]
    return fit_scaling(dt * np.asarray(lag_steps, dtype=float), msq).slope


def test_delta_exact_on_the_wave_acceptance_grid():
    # test_04's grid: wave, white noise, m = 512, t0 at step 384 of 448
    model = white(m=512)
    delta = _delta_exact(model, WAVE, 0.5 * model.dx, 384, [8, 16, 32, 48, 64])
    assert delta == pytest.approx(1.0538, abs=5e-4)


def test_exact_paths_draw_one_normal_per_step_read():
    """A constant-sigma path draws len(steps) normals in one call, and its
    values are mean + np.dot(L, z), L the Cholesky factor of the law."""
    model = white()
    dt = 0.5 * model.dx
    coeffs = spde.constant_coefficients(1.3, 0.7)
    read = [3, 7, 8, 20]
    rngs = [_CallLog(path_rng(6, "exact", i)) for i in range(3)]
    sol = spde.solve_batch(model, WAVE, coeffs, 0.2, 20 * dt, dt, rngs,
                           steps=read)
    mean, cov = spde.point_law(model, WAVE, coeffs, 0.2, dt, read)
    factor = np.linalg.cholesky(cov)
    for i, rng in enumerate(rngs):
        assert rng.steps == [len(read)]
        ref = path_rng(6, "exact", i)
        z = ref.standard_normal(len(read))
        assert sol.point_series[i].tobytes() \
            == (mean + np.dot(factor, z)).tobytes()
        assert rng.rng.random() == ref.random()
    # every step: column 0 is u0 at time 0, and the law gives steps 1..20
    every = spde.solve_batch(model, WAVE, coeffs, 0.2, 20 * dt, dt,
                             [path_rng(6, "exact", 0)])
    assert every.point_series.shape == (1, 21)
    assert every.point_series[0, 0] == 0.2


def test_law_without_a_factor_is_refused_by_name(monkeypatch):
    """A covariance that has no Cholesky factor raises SingularLawError
    with its condition number; no jitter is added.  sigma = 0 gives the
    zero covariance, whose factor is zero: the paths are the mean."""
    model = white()
    dt = model.dx**2

    def singular(*_args):
        return np.zeros(2), np.ones((2, 2))

    with monkeypatch.context() as patch:
        patch.setattr(spde, "point_law", singular)
        with pytest.raises(spde.SingularLawError, match="condition number"):
            spde.solve_batch(model, HEAT, spde.constant_coefficients(), 0.0,
                             4 * dt, dt, [path_rng(0, "sing", 0)],
                             steps=[2, 4])
    still = spde.solve_batch(model, HEAT, spde.constant_coefficients(0.0, 0.5),
                             0.1, 4 * dt, dt, [path_rng(0, "sing", 1)],
                             steps=[2, 4])
    assert still.point_series.tolist() == [[0.1 + 0.5 * 2 * dt,
                                            0.1 + 0.5 * 4 * dt]]
    with pytest.raises(ValueError, match="constant sigma"):
        spde.point_law(model, HEAT, spde.anderson_coefficients(), 0.0, dt, [1])


# ---------------------------------------------------------------------------
# variance targets (MC)
# ---------------------------------------------------------------------------


def test_heat_variance_matches_grid_functional():
    model = white(m=128)
    dt = 0.05 / 32
    B = 512
    sol = shell_solve(model, HEAT, spde.constant_coefficients(1.0, 0.0),
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
    sol = shell_solve(model, WAVE, spde.constant_coefficients(1.0, 0.0),
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
    # NaN fails every comparison, so it is refused by name too
    for t_end, step in ((1.0, np.nan), (np.nan, dt)):
        with pytest.raises(ValueError, match="must be positive"):
            spde.solve_batch(model, HEAT, c, 0.0, t_end, step,
                             [path_rng(0, "t", 3)])
    # an infinite horizon has no step count
    with pytest.raises(ValueError, match="positive and finite"):
        spde.solve_batch(model, HEAT, c, 0.0, np.inf, dt,
                         [path_rng(0, "t", 3)])
    # the steps read: sorted, distinct integers in 1..n_steps, each refused
    # before any draw, for either sigma
    for coeffs in (c, spde.anderson_coefficients()):
        for bad, word in (([4, 2], "sorted"), ([2, 2, 4], "repeats"),
                          ([0, 4], "1..16"), ([4, 17], "1..16"),
                          ([], "non-empty"), ([2.0, 4.0], "integer")):
            rng = path_rng(0, "t", 5)
            with pytest.raises(ValueError, match=word):
                spde.solve_batch(model, HEAT, coeffs, 0.0, 16 * dt, dt, [rng],
                                 steps=bad)
            assert rng.random() == path_rng(0, "t", 5).random()
    # a constant sigma is drawn from its law, which records no eps data
    rng = path_rng(0, "t", 6)
    with pytest.raises(ValueError, match="constant sigma takes no eps_grid"):
        spde.solve_batch(model, HEAT, c, 0.0, 16 * dt, dt, [rng],
                         eps_grid=[4 * dt])
    assert rng.random() == path_rng(0, "t", 6).random()
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


def test_time_holder_reads_columns_by_their_times():
    """The stored columns need not be evenly spaced: a series kept at t0
    and t0 + each lag gives the fit of the full series, byte for byte."""
    rng = path_rng(11, "bm", 1)
    dt = 1.0 / 128
    series = np.concatenate(
        [np.zeros((50, 1)),
         np.cumsum(rng.standard_normal((50, 128)) * np.sqrt(dt), axis=1)],
        axis=1)
    lags = dt * np.array([1, 2, 4, 8, 16])
    read = np.array([64, 65, 66, 68, 72, 80])
    full = spde.time_holder_delta(series, np.arange(129) * dt, 64 * dt, lags)
    kept = spde.time_holder_delta(series[:, read], read * dt, 64 * dt, lags)
    assert kept[0] == full[0]
    assert kept[1].tobytes() == full[1].tobytes()
    with pytest.raises(ValueError, match="stored"):
        spde.time_holder_delta(series[:, read], read * dt, 64 * dt, 3 * lags)


def test_time_holder_needs_two_paths():
    # a standard error needs two paths; one would fit NaN errors
    series = np.zeros((1, 9))
    times = np.arange(9) * 0.125
    with pytest.raises(ValueError, match="2 paths"):
        spde.time_holder_delta(series, times, 0.0, [0.125, 0.25, 0.375, 0.5])


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