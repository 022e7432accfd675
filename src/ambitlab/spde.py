"""Mild-solution solver for heat/wave SPDEs with correlated Gaussian noise.

    Lu = b(u) + sigma(u) dM/dtdx,   u(0,.) = const,

on a periodic box, discretised spectrally.  The linear propagation over a
step is exact, and the stochastic forcing of each step carries the exact
per-mode variance int_0^dt |F(Lambda(r))(xi)|^2 dr (coefficients frozen at
the step's left endpoint), so for sigma == 1 the solution variance equals
the grid-spectral variance functional g exactly, for every dt.

The solver can additionally record everything needed for the one-step
approximation

    u_eps(t, 0) = U_eps(t, 0) + sigma(u(t-eps, 0)) * G(eps),

where G(eps) is the sigma-free noise functional of the last slab (a
centred Gaussian with variance g(eps) independent of the past) and U_eps
collects the propagated history plus the frozen drift of the slab.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import besov
from .montecarlo import ScalingFit, fit_scaling
from .noise import (GammaExponents, _check_dalang, _grid_density,
                    _radius_grid, grid_variance_g, squared_time_integral)
from .operators import FundamentalSolution

__all__ = [
    "CoefficientPair",
    "FieldSolution",
    "UEpsDecomposition",
    "GammaBarReport",
    "constant_coefficients",
    "anderson_coefficients",
    "solve",
    "solve_batch",
    "noises_per_step",
    "approximate_u_eps",
    "time_holder_delta",
    "gammabar",
    "density_criterion_experiment",
]

HEAT_CFL = 4.0  # dt <= HEAT_CFL * dx^2
WAVE_CFL = 1.0  # dt <= WAVE_CFL * dx


@dataclass(frozen=True)
class CoefficientPair:
    """Lipschitz coefficient fields sigma, b acting pointwise on u."""

    sigma: object
    b: object
    sigma_constant: float = None  # set when sigma is constant (fast path)
    b_constant: float = None

    def sigma_values(self, u):
        if self.sigma_constant is not None:
            return self.sigma_constant
        return self.sigma(u)

    def b_values(self, u):
        if self.b_constant is not None:
            return self.b_constant
        return self.b(u)


def constant_coefficients(sigma0=1.0, b0=0.0) -> CoefficientPair:
    return CoefficientPair(sigma=None, b=None, sigma_constant=float(sigma0),
                           b_constant=float(b0))


def anderson_coefficients(lam=1.0, b0=0.0) -> CoefficientPair:
    """Multiplicative (Anderson) coefficients sigma(u) = lam * u."""
    return CoefficientPair(sigma=lambda u: lam * u, b=None,
                           b_constant=float(b0))


@dataclass
class FieldSolution:
    """Batch of solution paths plus the records used by the experiments."""

    model: object
    lam: FundamentalSolution
    coeffs: CoefficientPair
    dt: float
    t_end: float
    n_paths: int
    point_series: np.ndarray          # (n_paths, n_steps+1): u(t, 0)
    store_times: np.ndarray
    fields: np.ndarray                # (n_store, n_paths, m**d) physical
    eps_grid: np.ndarray = None
    target_time: float = None
    G: np.ndarray = None              # (n_paths, n_eps) slab noise at x=0
    # per eps: (uhat, vhat) rfftn half spectra at target_time - eps
    _snapshots: list = field(default_factory=list, repr=False)

    def final_point_values(self):
        return self.point_series[:, -1]


def _zero_mode_time_integral(lam, eps):
    # int_0^eps F(Lambda(s))(0) ds
    return eps if lam.kind == "heat" else 0.5 * eps * eps


def _sin_over_r(t, r):
    """sin(t r) / r per mode, with its limit t at r = 0."""
    return np.where(r < 1e-12, t, np.sin(t * r) / np.where(r < 1e-12, 1.0, r))


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
    c11 = squared_time_integral(FundamentalSolution("wave", 1), dt, r)
    c12 = 0.5 * sinc**2
    c22 = np.where(r < 1e-12, dt,
                   0.5 * (dt + np.sin(2.0 * a) / np.where(r < 1e-12, 1.0, 2.0 * r)))
    l11 = np.sqrt(c11)
    l21 = c12 / l11
    l22 = np.sqrt(np.maximum(c22 - l21**2, 0.0))
    return l11, l21, l22


def noises_per_step(lam):
    """White-noise fields each path draws per solver step: w1 and w2 for
    wave (position and velocity forcing), w1 for heat."""
    return 2 if lam.kind == "wave" else 1


def solve_batch(model, lam, coeffs, u0, t_end, dt, rngs, *, v0=0.0,
                store_times=None, eps_grid=None,
                target_time=None) -> FieldSolution:
    """Integrate a batch of independent paths (one RNG per path).

    Each step, path i's generator fills the step's white noise in one
    standard_normal call of nw * m**d normals (nw = 1 for heat; 2 for wave,
    the first m**d being w1 and the rest w2).  A path's stream therefore
    does not depend on the batch it is solved in, and after n steps its
    generator stands where standard_normal(n * nw * m**d) leaves it.

    Preconditions: dt resolves the operator (heat: dt <= 4 dx^2, wave:
    dt <= dx), the Dalang spectral condition holds, and the requested
    store/approximation times are multiples of dt.
    """
    if dt <= 0 or t_end <= 0:
        raise ValueError("dt and t_end must be positive")
    dx = model.dx
    if lam.kind == "heat":
        if dt > HEAT_CFL * dx * dx * (1 + 1e-9):
            raise ValueError(f"heat step too large: need dt <= {HEAT_CFL:g}*dx^2"
                             f" = {HEAT_CFL * dx * dx:.3e}, got {dt:.3e}")
    else:
        if dt > WAVE_CFL * dx * (1 + 1e-9):
            raise ValueError(f"wave step too large: need dt <= dx = {dx:.3e}")
    if lam.d != model.d:
        raise ValueError("operator and noise dimension mismatch")
    _check_dalang(model)

    n_steps = int(round(t_end / dt))
    if abs(n_steps * dt - t_end) > 1e-9 * t_end:
        raise ValueError("t_end must be a multiple of dt")

    def step_index(t, what):
        k = int(round(t / dt))
        if not (0 <= k <= n_steps) or abs(k * dt - t) > 1e-9 * max(t, dt):
            raise ValueError(f"{what} = {t!r} is not a step multiple of dt")
        return k

    store_times = np.array([t_end] if store_times is None
                           else sorted(store_times), dtype=float)
    store_idx = {step_index(t, "store time"): i
                 for i, t in enumerate(store_times)}

    snap_idx = {}
    slab_start = k_target = None
    if eps_grid is not None:
        eps_grid = np.asarray(sorted(eps_grid), dtype=float)
        if target_time is None:
            target_time = t_end
        k_target = step_index(target_time, "target time")
        for i, e in enumerate(eps_grid):
            if not (0 < e < target_time):
                raise ValueError("eps values must lie in (0, target_time)")
            snap_idx[k_target - step_index(e, "eps")] = i
        slab_start = k_target - step_index(float(eps_grid.max()), "eps")

    B = len(rngs)
    m = model.m
    shape_d = (m,) * model.d
    npts = m**model.d
    axes = tuple(range(1, model.d + 1))
    zero = (slice(None),) + (0,) * model.d

    # The noise and the fields are real and every multiplier depends on |xi|
    # only, so the state lives on the rfftn half spectrum.
    r = _half_spectrum(model, _radius_grid(model))
    base = _half_spectrum(model, np.sqrt(_grid_density(model))) \
        * (2.0 * np.pi / dx) ** (model.d / 2.0)
    wave = lam.kind == "wave"
    if wave:
        cosP = np.cos(dt * r)
        sincP = _sin_over_r(dt, r)
        l11, l21, l22 = _wave_step_covariance(dt, r)
        drift_u = np.where(r < 1e-12, 0.5 * dt * dt,
                           (1.0 - np.cos(dt * r)) / np.where(r < 1e-12, 1.0, r**2))
        drift_v = sincP
        msin = -r * np.sin(dt * r)
        # sigma-free forcing of (u, v) by the two noise draws
        K1u, K1v, K2v = base * l11, base * l21, base * l22
    else:
        prop = np.exp(-dt * r**2)
        drift_u = np.where(r < 1e-12, dt,
                           -np.expm1(-dt * r**2) / np.where(r < 1e-12, 1.0, r**2))
        K1u = base * np.sqrt(squared_time_integral(lam, dt, r))

    sigma_const = coeffs.sigma_constant
    b_const = coeffs.b_constant
    need_physical = sigma_const is None or b_const is None
    # a constant sigma is folded into the forcing factors once
    sig = 1.0 if sigma_const is None else sigma_const
    F1u = sig * K1u
    if wave:
        F1v, F2v = sig * K1v, sig * K2v

    uhat = np.zeros((B,) + r.shape, dtype=complex)
    uhat[zero] = u0 * npts
    if wave:
        vhat = np.zeros_like(uhat)
        vhat[zero] = v0 * npts
        tmp_v = np.empty_like(uhat)
    tmp_u = np.empty_like(uhat)

    point_series = np.empty((B, n_steps + 1))
    point_series[:, 0] = u0
    fields = np.empty((len(store_times), B, npts))
    if 0 in store_idx:
        fields[store_idx[0]] = u0
    G = np.zeros((B, len(eps_grid))) if eps_grid is not None else None
    snapshots = [None] * len(eps_grid) if eps_grid is not None else []
    # per-step buffers, reused: fresh arrays of this size cost page faults.
    # Path i's nw noises lie back to back in w[i], so one call draws them.
    nw = noises_per_step(lam)
    w = np.empty((B, nw) + shape_d)
    W = np.empty((B, nw) + r.shape, dtype=complex)
    w1, W1 = w[:, 0], W[:, 0]
    w2, W2 = (w[:, 1], W[:, 1]) if wave else (None, None)
    noise_axes = tuple(a + 1 for a in axes)

    for k in range(n_steps):
        u_phys = np.fft.irfftn(uhat, s=shape_d, axes=axes) \
            if need_physical else None
        # white spatial noise, one stream per path and one call per step:
        # w1, then (wave) w2
        for w_path, rng in zip(w, rngs):
            rng.standard_normal(out=w_path)
        np.fft.rfftn(w, axes=noise_axes, out=W)

        if sigma_const is None:
            sig_u = coeffs.sigma_values(u_phys)
            S1 = np.fft.rfftn(sig_u * w1, axes=axes)
            S2 = np.fft.rfftn(sig_u * w2, axes=axes) if wave else None
        else:
            S1, S2 = W1, W2

        if wave:
            np.multiply(msin, uhat, out=tmp_v)       # needs the old uhat
            uhat *= cosP
            _add_product(uhat, sincP, vhat, tmp_u)
            _add_product(uhat, F1u, S1, tmp_u)
            vhat *= cosP
            vhat += tmp_v
            _add_product(vhat, F1v, S1, tmp_v)
            _add_product(vhat, F2v, S2, tmp_v)
        else:
            uhat *= prop
            _add_product(uhat, F1u, S1, tmp_u)

        if b_const is None or b_const != 0.0:
            bval = coeffs.b_values(u_phys)
            if np.isscalar(bval):
                # a constant drift forces the zero mode only
                uhat[zero] += drift_u[(0,) * model.d] * (bval * npts)
                if wave:
                    vhat[zero] += drift_v[(0,) * model.d] * (bval * npts)
            else:
                bhat = np.fft.rfftn(bval, axes=axes)
                uhat += drift_u * bhat
                if wave:
                    vhat += drift_v * bhat

        # sigma-free smoothed slab noise, propagated to the target time and
        # evaluated at x = 0
        if eps_grid is not None and slab_start <= k < k_target:
            tau = target_time - (k + 1) * dt
            if wave:
                ck = (np.cos(tau * r) * (K1u * W1)
                      + _sin_over_r(tau, r) * (K1v * W1 + K2v * W2))
            else:
                ck = np.exp(-tau * r**2) * (K1u * W1)
            add_to = eps_grid >= (target_time - k * dt) - 1e-9 * dt
            G[:, add_to] += _origin_value(ck, m)[:, None]

        point_series[:, k + 1] = _origin_value(uhat, m)
        if (k + 1) in snap_idx:
            i = snap_idx[k + 1]
            snapshots[i] = (uhat.copy(), vhat.copy() if wave else None)
        if (k + 1) in store_idx:
            fields[store_idx[k + 1]] = np.fft.irfftn(
                uhat, s=shape_d, axes=axes).reshape(B, npts)

    return FieldSolution(
        model=model, lam=lam, coeffs=coeffs, dt=dt, t_end=t_end, n_paths=B,
        point_series=point_series, store_times=store_times, fields=fields,
        eps_grid=eps_grid, target_time=target_time, G=G,
        _snapshots=snapshots)


def solve(model, lam, coeffs, u0, t_end, dt, rng, **kw) -> FieldSolution:
    """Single-path convenience wrapper around solve_batch."""
    return solve_batch(model, lam, coeffs, u0, t_end, dt, [rng], **kw)


@dataclass
class UEpsDecomposition:
    eps: float
    u_eps: np.ndarray       # (n_paths,)
    U_eps: np.ndarray
    G: np.ndarray
    sigma_frozen: np.ndarray
    u_at_cut: np.ndarray
    g_eps: float            # grid-spectral variance of G


def approximate_u_eps(solution: FieldSolution, eps: float) -> UEpsDecomposition:
    """Decompose u(t,0) ~ U_eps + sigma(u(t-eps,0)) G on a solved batch.

    U_eps propagates the time-(t-eps) state to t with the noiseless flow and
    adds the slab drift frozen at u(t-eps, 0); G is the slab noise integral
    recorded during the solve (independent of the history by construction).
    """
    if solution.eps_grid is None:
        raise ValueError("solve() was not asked to record approximation data")
    match = np.nonzero(np.abs(solution.eps_grid - eps)
                       < 1e-9 * max(eps, solution.dt))[0]
    if match.size != 1:
        raise ValueError(f"eps = {eps!r} was not recorded (grid: "
                         f"{solution.eps_grid!r})")
    i = int(match[0])
    uhat, vhat = solution._snapshots[i]
    model, lam = solution.model, solution.lam
    B = solution.n_paths
    r = _half_spectrum(model, _radius_grid(model))

    u_at_cut = _origin_value(uhat, model.m)
    if lam.kind == "heat":
        hist = np.exp(-eps * r**2) * uhat
    else:
        hist = np.cos(eps * r) * uhat + _sin_over_r(eps, r) * vhat
    U_hist = _origin_value(hist, model.m)

    b_frozen = solution.coeffs.b_values(u_at_cut)
    U_eps = U_hist + np.asarray(b_frozen) * _zero_mode_time_integral(lam, eps)
    sigma_frozen = np.asarray(solution.coeffs.sigma_values(u_at_cut))
    if sigma_frozen.ndim == 0:
        sigma_frozen = np.full(B, float(sigma_frozen))
    G = solution.G[:, i]
    u_eps = U_eps + sigma_frozen * G
    g_eps = grid_variance_g(model, lam, eps)
    return UEpsDecomposition(float(eps), u_eps, U_eps, G, sigma_frozen,
                             u_at_cut, float(g_eps))


# ---------------------------------------------------------------------------
# exponents and density reports
# ---------------------------------------------------------------------------


def time_holder_delta(point_series, series_times, t0, lags) -> ScalingFit:
    """Fit E|u(t0 + tau, 0) - u(t0, 0)|^2 ~ tau^delta from stored paths."""
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
    return fit_scaling(lags, means, errs)


@dataclass
class GammaBarReport:
    gammabar: float
    gamma: float
    gamma1: float
    gamma2: float
    delta: float
    verdict: bool            # gammabar > 1: density criterion applies
    beta_interval: tuple     # admissible Besov orders (0, gammabar - 1)


def gammabar(gamma_exponents: GammaExponents, delta) -> GammaBarReport:
    """gammabar = (min(gamma1, gamma2) + delta) / gamma."""
    g = gamma_exponents.gamma.slope
    g1 = gamma_exponents.gamma1.slope
    g2 = gamma_exponents.gamma2.slope
    d = delta.slope if isinstance(delta, ScalingFit) else float(delta)
    if g <= 0:
        raise ValueError("gamma must be positive")
    gb = (min(g1, g2) + d) / g
    return GammaBarReport(gb, g, g1, g2, d, bool(gb > 1.0),
                          (0.0, max(gb - 1.0, 0.0)))


def density_criterion_experiment(point_values, coeffs, n,
                                 alpha=0.5) -> besov.CriterionReport:
    """Criterion statistic for the law of u(t, 0) weighted by |sigma(u)|^n.

    The target bound is |E[|sigma|^n D_h^n phi(u)]| <= C |h|^(zeta + alpha)
    for every zeta < gammabar - 1; the numerical verdict is that every
    fitted frequency slope exceeds the test-function Holder order alpha.
    """
    u = np.asarray(point_values, dtype=float)
    w = np.abs(np.asarray(coeffs.sigma_values(u))) ** n
    if np.isscalar(w) or w.ndim == 0:
        w = np.full(u.shape, float(w))
    stats = besov.criterion_statistic(u, w, n, alpha=alpha)
    return besov.criterion_report(stats, alpha)
