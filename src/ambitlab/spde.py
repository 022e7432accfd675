"""Mild-solution solver for heat/wave SPDEs with correlated Gaussian noise.

    Lu = b0 + sigma(u) dM/dtdx,   u(0,.) = const,

on a periodic box, discretised spectrally.  The linear propagation over a
step is exact (`_flow`), and the stochastic forcing of each step carries
the exact per-mode variance int_0^dt |F(Lambda(r))(xi)|^2 dr (coefficients
frozen at the step's left endpoint), so for sigma == 1 the solution
variance equals the grid-spectral variance functional g exactly, for every
dt.  For an eps grid the step loop also records the one-step approximation

    u_eps(t, 0) = U_eps(t, 0) + sigma(u(t-eps, 0)) * G(eps),

where G(eps) is the sigma-free noise functional of the last slab (a
centred Gaussian with variance g(eps) independent of the past) and U_eps
is the time-(t-eps) state flowed to t plus the slab's constant drift.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .montecarlo import DEFAULT_BLOCK, ScalingFit, decide, fit_scaling
from .noise import (GammaExponents, _check_dalang, _check_operator,
                    _grid_density, _radius_grid, squared_time_integral)

__all__ = [
    "CoefficientPair",
    "FieldSolution",
    "GammaBarReport",
    "constant_coefficients",
    "anderson_coefficients",
    "solve_batch",
    "noises_per_step",
    "paths_per_block",
    "approximate_u_eps",
    "time_holder_delta",
    "gammabar",
]

HEAT_CFL = 4.0  # dt <= HEAT_CFL * dx^2
WAVE_CFL = 1.0  # dt <= WAVE_CFL * dx

# Grid points of one ensemble block of solve_batch paths.  The per-step
# buffers (w, W, uhat, tmp_u and, for wave, vhat, tmp_v) hold about 64 bytes
# per path and grid point, so a block keeps about 2 MB live per worker.
# spde-wave benchmark (wave, m=512, 512 paths, 2 workers; 2-vCPU Xeon,
# NumPy 2.4.6), medians of five runs per block size:
#   paths per block   256     128     64      32
#   peak RSS (MB)     57.5    48.7    44.4    42.4
#   wall (s)          1.10    1.14    1.13    +10 to +30%
# Fixed 64-path blocks slow small grids at 2 workers (wave m=128: 0.61 ->
# 0.79 s for 2048 paths), so the budget is in grid points and grids of
# m**d <= 128 keep DEFAULT_BLOCK paths.  Heat, with less work per path and
# step, pays more at m=512: 1024 paths, 128 steps, 2 workers took 1.13 s in
# 256-path blocks, 1.12 s in 128 and 1.30 s in 64 (medians of eight).
POINTS_PER_BLOCK = 2**15


@dataclass(frozen=True)
class CoefficientPair:
    """A Lipschitz sigma acting pointwise on u (sigma_constant is set when
    sigma is constant: no physical field is formed), and a constant drift."""

    sigma: object
    sigma_constant: float = None
    b_constant: float = 0.0

    def sigma_values(self, u):
        if self.sigma_constant is not None:
            return self.sigma_constant
        return self.sigma(u)


def constant_coefficients(sigma0=1.0, b0=0.0) -> CoefficientPair:
    return CoefficientPair(sigma=None, sigma_constant=float(sigma0),
                           b_constant=float(b0))


def anderson_coefficients(lam=1.0, b0=0.0) -> CoefficientPair:
    """Multiplicative (Anderson) coefficients sigma(u) = lam * u."""
    return CoefficientPair(sigma=lambda u: lam * u, b_constant=float(b0))


@dataclass
class FieldSolution:
    """A solved batch: u(t, 0) on every step and, for an eps grid, the slab
    noise G and the one-step approximation u_eps, one column per eps."""

    dt: float
    point_series: np.ndarray          # (n_paths, n_steps+1): u(t, 0)
    eps_grid: np.ndarray = None       # sorted
    G: np.ndarray = None              # (n_paths, n_eps) slab noise at x=0
    u_eps: np.ndarray = None          # (n_paths, n_eps) U_eps + sigma G

    def final_point_values(self):
        return self.point_series[:, -1]


def _sin_over_r(t, r):
    """sin(t r) / r per mode, with its limit t at r = 0."""
    return np.where(r < 1e-12, t, np.sin(t * r) / np.where(r < 1e-12, 1.0, r))


def _flow(operator, t, r):
    """(rows, drift): the noiseless flow over time t per mode, and its
    integral of a unit constant drift.  heat: rows = [[u<-u]], drift = [u];
    wave, on (u, v = du/dt): rows = [[u<-u, u<-v], [v<-u, v<-v]], drift =
    [u, v].  At r = 0 the u drift is t (heat) or t^2/2 (wave)."""
    small = r < 1e-12
    r2 = np.where(small, 1.0, r**2)
    if operator == "heat":
        return ([[np.exp(-t * r**2)]],
                [np.where(small, t, -np.expm1(-t * r**2) / r2)])
    cos, sinc = np.cos(t * r), _sin_over_r(t, r)
    return ([[cos, sinc], [-r * np.sin(t * r), cos]],
            [np.where(small, 0.5 * t * t, (1.0 - cos) / r2), sinc])


def _half_spectrum(model, grid_values):
    """Restrict values on the fft frequency grid to the rfftn half spectrum,
    whose last axis keeps m//2 + 1 modes."""
    shape_d = (model.m,) * model.d
    return np.reshape(grid_values, shape_d)[..., :model.m // 2 + 1]


def _origin_value(spec, m):
    """Value at x = 0 of each field in a batch, from its rfftn half spectrum.

    u(0) is the mean of the full spectrum.  Hermitian symmetry folds that
    sum onto the half spectrum with weight 1 on the self-conjugate last-axis
    indices (0, and m/2 for even m) and 2 elsewhere.
    """
    w = np.full(m // 2 + 1, 2.0)
    w[0] = 1.0
    if m % 2 == 0:
        w[-1] = 1.0
    return (spec.real * w).reshape(spec.shape[0], -1).sum(axis=1) \
        / m ** (spec.ndim - 1)


def _add_product(acc, a, b, scratch):
    """acc += a * b, with the product written to scratch first."""
    np.multiply(a, b, out=scratch)
    acc += scratch


def _wave_step_covariance(dt, r):
    """Covariance of (int sin((dt-u)r)/r dM, int cos((dt-u)r) dM) per mode."""
    a = dt * r
    sinc = _sin_over_r(dt, r)
    c11 = squared_time_integral("wave", dt, r)
    c12 = 0.5 * sinc**2
    c22 = np.where(r < 1e-12, dt,
                   0.5 * (dt + np.sin(2.0 * a) / np.where(r < 1e-12, 1.0, 2.0 * r)))
    l11 = np.sqrt(c11)
    l21 = c12 / l11
    l22 = np.sqrt(np.maximum(c22 - l21**2, 0.0))
    return l11, l21, l22


def noises_per_step(operator):
    """White-noise fields each path draws per solver step: w1 and w2 for
    wave (position and velocity forcing), w1 for heat."""
    return 2 if operator == "wave" else 1


def paths_per_block(model):
    """Paths per ensemble block of solve_batch on model's grid: about
    POINTS_PER_BLOCK grid points, at most DEFAULT_BLOCK paths.  Every
    solver operation acts on each path alone, so the values do not depend
    on the block."""
    return min(DEFAULT_BLOCK, max(1, POINTS_PER_BLOCK // model.m ** model.d))


def _flowed_origin(row, states, m):
    """x = 0 values of a flow's u row applied to (u[, v]) half spectra."""
    terms = [a * s for a, s in zip(row, states)]
    return _origin_value(sum(terms[1:], terms[0]), m)


def solve_batch(model, operator, coeffs, u0, t_end, dt, rngs, *,
                eps_grid=None) -> FieldSolution:
    """Integrate a batch of independent paths (one RNG per path), started
    at rest (wave: zero initial velocity).

    Each step, path i's generator fills the step's white noise in one
    standard_normal call of nw * m**d normals (nw = 1 for heat; 2 for wave,
    the first m**d being w1 and the rest w2).  A path's stream therefore
    does not depend on the batch it is solved in, and after n steps its
    generator stands where standard_normal(n * nw * m**d) leaves it.

    For an eps_grid, the step ending at t_end - eps records U_eps (that
    state flowed to t_end, plus the drift's zero-mode integral) and the
    slab noise G accumulates from the largest eps on; the solution carries
    G and u_eps = U_eps + sigma(u(t_end - eps, 0)) G, a column per eps.

    Preconditions: operator is "heat" or "wave", dt resolves it (heat:
    dt <= 4 dx^2, wave: dt <= dx), the Dalang spectral condition holds,
    and a non-empty eps_grid holds distinct multiples of dt in (0, t_end).
    """
    _check_operator(operator)
    if dt <= 0 or t_end <= 0:
        raise ValueError("dt and t_end must be positive")
    dx = model.dx
    if operator == "heat":
        if dt > HEAT_CFL * dx * dx * (1 + 1e-9):
            raise ValueError(f"heat step too large: need dt <= {HEAT_CFL:g}*dx^2"
                             f" = {HEAT_CFL * dx * dx:.3e}, got {dt:.3e}")
    else:
        if dt > WAVE_CFL * dx * (1 + 1e-9):
            raise ValueError(f"wave step too large: need dt <= dx = {dx:.3e}")
    _check_dalang(model)

    n_steps = int(round(t_end / dt))
    if abs(n_steps * dt - t_end) > 1e-9 * t_end:
        raise ValueError("t_end must be a multiple of dt")

    # the state after step k + 1 = n_steps - eps/dt is the cut of eps
    cut_of = {}
    if eps_grid is not None:
        eps_grid = np.asarray(sorted(eps_grid), dtype=float)
        if eps_grid.size == 0:
            raise ValueError("eps_grid is empty")
        for i, e in enumerate(eps_grid):
            if not (0 < e < t_end):
                raise ValueError("eps values must lie in (0, t_end)")
            k = int(round(e / dt))
            if abs(k * dt - e) > 1e-9 * max(e, dt):
                raise ValueError(f"eps = {e!r} is not a step multiple of dt")
            if n_steps - k in cut_of:
                raise ValueError(f"eps_grid holds {e!r} twice on one step")
            cut_of[n_steps - k] = i
        slab_start = min(cut_of)

    B = len(rngs)
    m = model.m
    shape_d = (m,) * model.d
    npts = m**model.d
    axes = tuple(range(1, model.d + 1))
    origin = (0,) * model.d
    zero = (slice(None),) + origin

    # The noise and the fields are real and every multiplier depends on |xi|
    # only, so the state lives on the rfftn half spectrum.
    r = _half_spectrum(model, _radius_grid(model))
    base = _half_spectrum(model, np.sqrt(_grid_density(model))) \
        * (2.0 * np.pi / dx) ** (model.d / 2.0)
    wave = operator == "wave"
    rows, drift = _flow(operator, dt, r)
    if wave:
        (uu, uv), (vu, vv) = rows
        l11, l21, l22 = _wave_step_covariance(dt, r)
        # sigma-free forcing of (u, v) by the two noise draws
        K1u, K1v, K2v = base * l11, base * l21, base * l22
    else:
        (uu,), = rows
        K1u = base * np.sqrt(squared_time_integral(operator, dt, r))

    sigma_const = coeffs.sigma_constant
    b0 = coeffs.b_constant
    # a constant drift forces the zero mode only
    kick = [dr[origin] * (b0 * npts) for dr in drift]
    # a constant sigma is folded into the forcing factors once
    sig = 1.0 if sigma_const is None else sigma_const
    F1u = sig * K1u
    if wave:
        F1v, F2v = sig * K1v, sig * K2v

    uhat = np.zeros((B,) + r.shape, dtype=complex)
    uhat[zero] = u0 * npts
    if wave:
        vhat = np.zeros_like(uhat)
        tmp_v = np.empty_like(uhat)
    tmp_u = np.empty_like(uhat)
    state = (uhat, vhat) if wave else (uhat,)

    point_series = np.empty((B, n_steps + 1))
    point_series[:, 0] = u0
    if eps_grid is not None:
        G = np.zeros((B, len(eps_grid)))
        U = np.empty((B, len(eps_grid)))
    # per-step buffers, reused: fresh arrays of this size cost page faults.
    # Path i's nw noises lie back to back in w[i], so one call draws them.
    nw = noises_per_step(operator)
    w = np.empty((B, nw) + shape_d)
    w1, w2 = w[:, 0], (w[:, 1] if wave else None)
    # the noise's own transform W is read by a constant sigma's forcing and
    # by the slab noise G; an Anderson solve without eps_grid never reads it
    W = None
    if sigma_const is not None or eps_grid is not None:
        W = np.empty((B, nw) + r.shape, dtype=complex)
        W1, W2 = W[:, 0], (W[:, 1] if wave else None)
    noise_axes = tuple(a + 1 for a in axes)

    for k in range(n_steps):
        # white spatial noise, one stream per path and one call per step:
        # w1, then (wave) w2
        for w_path, rng in zip(w, rngs):
            rng.standard_normal(out=w_path)
        if W is not None:
            np.fft.rfftn(w, axes=noise_axes, out=W)

        if sigma_const is None:
            sig_u = coeffs.sigma(np.fft.irfftn(uhat, s=shape_d, axes=axes))
            S1 = np.fft.rfftn(sig_u * w1, axes=axes)
            S2 = np.fft.rfftn(sig_u * w2, axes=axes) if wave else None
        else:
            S1, S2 = W1, W2

        if wave:
            np.multiply(vu, uhat, out=tmp_v)         # needs the old uhat
            uhat *= uu
            _add_product(uhat, uv, vhat, tmp_u)
            _add_product(uhat, F1u, S1, tmp_u)
            vhat *= vv
            vhat += tmp_v
            _add_product(vhat, F1v, S1, tmp_v)
            _add_product(vhat, F2v, S2, tmp_v)
        else:
            uhat *= uu
            _add_product(uhat, F1u, S1, tmp_u)

        if b0 != 0.0:
            uhat[zero] += kick[0]
            if wave:
                vhat[zero] += kick[1]

        # sigma-free smoothed slab noise, flowed to t_end and evaluated at
        # x = 0
        if eps_grid is not None and k >= slab_start:
            (row, *_), _ = _flow(operator, t_end - (k + 1) * dt, r)
            forcing = (K1u * W1, K1v * W1 + K2v * W2) if wave \
                else (K1u * W1,)
            add_to = eps_grid >= (t_end - k * dt) - 1e-9 * dt
            G[:, add_to] += _flowed_origin(row, forcing, m)[:, None]

        point_series[:, k + 1] = _origin_value(uhat, m)
        i = cut_of.get(k + 1)
        if i is not None:
            (row, *_), drift_eps = _flow(operator, eps_grid[i], r)
            U[:, i] = _flowed_origin(row, state, m) \
                + b0 * drift_eps[0][origin]

    if eps_grid is None:
        return FieldSolution(dt, point_series)
    cuts = sorted(cut_of, reverse=True)    # eps ascending
    u_eps = U + coeffs.sigma_values(point_series[:, cuts]) * G
    return FieldSolution(dt, point_series, eps_grid, G, u_eps)


def approximate_u_eps(solution: FieldSolution, eps: float) -> np.ndarray:
    """(n_paths,) u_eps(t, 0) = U_eps + sigma(u(t-eps, 0)) G of a solved
    batch, as solve_batch recorded it for eps (a C-contiguous copy): U_eps
    is the time-(t-eps) state flowed to t plus the slab's constant drift,
    G the slab noise, independent of the history by construction."""
    if solution.eps_grid is None:
        raise ValueError("solve_batch recorded no approximation data")
    match = np.nonzero(np.abs(solution.eps_grid - eps)
                       < 1e-9 * max(eps, solution.dt))[0]
    if match.size != 1:
        raise ValueError(f"eps = {eps!r} was not recorded (grid: "
                         f"{solution.eps_grid!r})")
    return np.ascontiguousarray(solution.u_eps[:, int(match[0])])


# ---------------------------------------------------------------------------
# exponents
# ---------------------------------------------------------------------------


def time_holder_delta(point_series, series_times, t0, lags):
    """Fit E|u(t0 + tau, 0) - u(t0, 0)|^2 ~ tau^delta from stored paths.

    Returns the ScalingFit and, per lag in ascending order, the Monte-Carlo
    mean of the squared increment and its standard error.
    """
    times = np.asarray(series_times, dtype=float)
    lags = np.asarray(sorted(lags), dtype=float)
    dt = times[1] - times[0]

    def idx(t):
        k = int(round((t - times[0]) / dt))
        if not (0 <= k < times.size) or abs(times[k] - t) > 1e-9 * max(t, dt):
            raise ValueError(f"time {t!r} not in stored series")
        return k

    i0 = idx(t0)
    means = np.empty(lags.size)
    errs = np.empty(lags.size)
    for j, tau in enumerate(lags):
        d2 = (point_series[:, idx(t0 + tau)] - point_series[:, i0]) ** 2
        means[j] = d2.mean()
        errs[j] = d2.std(ddof=1) / np.sqrt(d2.shape[0])
    return fit_scaling(lags, means, errs), means, errs


@dataclass
class GammaBarReport:
    """None in delta, gammabar and beta_interval: the delta fit was
    degenerate and carries no slope."""

    gammabar: float
    gamma1: float            # also the lower exponent gamma of g
    gamma2: float
    delta: float
    verdict: bool            # gammabar > 1; None unless flag is "ok"
    beta_interval: tuple     # admissible Besov orders (0, gammabar - 1)
    flag: str                # montecarlo.decide's, the run's flag


def gammabar(gamma_exponents: GammaExponents,
             delta: ScalingFit) -> GammaBarReport:
    """gammabar = (min(gamma1, gamma2) + delta) / gamma, where gamma, the
    lower exponent of g, equals gamma1 for these noise models.  The verdict
    gammabar > 1, i.e. delta > gamma1 - min(gamma1, gamma2), is decided on
    the delta fit's CI; the numbers are its point values."""
    g1, g2 = gamma_exponents.gamma1, gamma_exponents.gamma2
    if g1 <= 0:
        raise ValueError("gamma must be positive")
    verdict, flag = decide(delta, g1 - min(g1, g2))
    if flag == "degenerate":
        return GammaBarReport(None, g1, g2, None, None, None, flag)
    gb = (min(g1, g2) + delta.slope) / g1
    return GammaBarReport(gb, g1, g2, delta.slope, verdict,
                          (0.0, max(gb - 1.0, 0.0)), flag)
