"""Mild-solution solver for heat/wave SPDEs with correlated Gaussian noise.

    Lu = b0 + sigma(u) dM/dtdx,   u(0,.) = const,

on a periodic box, discretised spectrally.  The linear propagation over a
step is exact (`_flow`), and the stochastic forcing of each step carries
the exact per-mode variance int_0^dt |F(Lambda(r))(xi)|^2 dr (coefficients
frozen at the step's left endpoint), so for sigma == 1 the solution
variance equals the grid-spectral variance functional g exactly, for every
dt.

With a constant sigma this scheme is linear and Gaussian, and u(t, 0) is
the mean of the full spectrum, so it reads each mode through Re u_hat(xi)
only: u(t, 0) = m^-d sum_s U_s, where U_s sums Re u_hat over the n_s modes
of shell s (one |xi|).  Every multiplier depends on |xi| only, so U_s
follows its radius's one-step map, driven by the shell sum Z_s of the
noise's Re W_hat; the cosine sums of distinct shells are orthogonal, so
Z_s ~ N(0, m^d n_s), independent across shells and steps.  `point_law`
gives the exact mean and covariance of u(k dt, 0) at the steps a caller
reads, and solve_batch draws each path from it as mean + L z, L the
Cholesky factor: one normal per step read, no step loop.

An Anderson sigma(u) needs the physical field: solve_batch steps it on the
rfftn half spectrum.  Each path draws the noises of steps_per_call
consecutive steps in one standard_normal call (about NORMALS_PER_CALL
normals), which draws the same doubles as one call per step and leaves the
generator in the same state, but runs the GIL-held per-call work a few
times less often.  For an eps grid the step loop also records the one-step
approximation

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
    "SingularLawError",
    "constant_coefficients",
    "anderson_coefficients",
    "solve_batch",
    "point_law",
    "law_condition",
    "noises_per_step",
    "steps_per_call",
    "radius_shells",
    "paths_per_block",
    "approximate_u_eps",
    "time_holder_delta",
    "gammabar",
]

HEAT_CFL = 4.0  # dt <= HEAT_CFL * dx^2
WAVE_CFL = 1.0  # dt <= WAVE_CFL * dx

# Grid points of one ensemble block of solve_batch paths.  The table below
# measured the full-spectrum branch, which only an Anderson sigma runs now:
# its per-step buffers (w, W, uhat, tmp_u and, for wave, vhat, tmp_v) hold
# about 64 bytes per path and grid point, so a block keeps about 2 MB live
# per worker.  spde-wave benchmark (wave, m=512, 512 paths, 2 workers;
# 2-vCPU Xeon, NumPy 2.4.6), medians of five runs per block size:
#   paths per block   256     128     64      32
#   peak RSS (MB)     57.5    48.7    44.4    42.4
#   wall (s)          1.10    1.14    1.13    +10 to +30%
# Fixed 64-path blocks slow small grids at 2 workers (wave m=128: 0.61 ->
# 0.79 s for 2048 paths), so the budget is in grid points and grids of
# m**d <= 128 keep DEFAULT_BLOCK paths.  A constant-sigma block builds and
# factors the point law once (n x n for the n steps read) and keeps n
# values per path.
POINTS_PER_BLOCK = 2**15

# Normals an Anderson path draws per generator call, about: solve_batch
# fills the noises of steps_per_call consecutive steps in one
# standard_normal call, so a block's draw buffer holds B * NORMALS_PER_CALL
# doubles at most (1 MB at 64 paths), or one step's noises if they are
# more.  A constant-sigma path draws its normals in one call.
NORMALS_PER_CALL = 2**11


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


class SingularLawError(ValueError):
    """The covariance of the point law at the requested steps has no
    Cholesky factor; no jitter is added to make one."""


@dataclass
class FieldSolution:
    """A solved batch: u(t, 0) at the steps read and, for an eps grid, the
    slab noise G and the one-step approximation u_eps, one column per eps."""

    dt: float
    # (n_paths, len(steps)): u(k dt, 0) at the steps solve_batch was asked
    # for, or (n_paths, n_steps + 1) at every step from 0
    point_series: np.ndarray
    eps_grid: np.ndarray = None       # sorted
    G: np.ndarray = None              # (n_paths, n_eps) slab noise at x=0
    u_eps: np.ndarray = None          # (n_paths, n_eps) U_eps + sigma G

    def final_point_values(self):
        """u(t, 0) at the last step read."""
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


def radius_shells(model):
    """(first, counts): the modes of model's grid grouped into shells of
    one radius, in ascending radius.  first[s] is the flat fft-layout index
    of shell s's first mode and counts[s] its mode count n_s.  Modes are
    grouped by the exact integer key sum_i j_i**2 of their fft indices j_i,
    never by a float radius, so shell 0 is the zero mode."""
    k = np.arange(model.m)
    j2 = np.minimum(k, model.m - k) ** 2
    key = sum(np.ix_(*[j2] * model.d))
    _, first, counts = np.unique(key.ravel(), return_index=True,
                                 return_counts=True)
    return first, counts


def _add_product(acc, a, b, scratch):
    """acc += a * b, with the product written to scratch first."""
    np.multiply(a, b, out=scratch)
    acc += scratch


def _wave_covariance(t, r):
    """(c11, c12, c22): the covariance of (int_0^t sin((t-u)r)/r dM,
    int_0^t cos((t-u)r) dM) per mode, the wave state (u, v) that unit
    white forcing builds from rest over time t."""
    a = t * r
    sinc = _sin_over_r(t, r)
    c11 = squared_time_integral("wave", t, r)
    c12 = 0.5 * sinc**2
    c22 = np.where(r < 1e-12, t,
                   0.5 * (t + np.sin(2.0 * a)
                          / np.where(r < 1e-12, 1.0, 2.0 * r)))
    return c11, c12, c22


def _wave_step_covariance(dt, r):
    """(l11, l21, l22): the lower Cholesky factor of _wave_covariance(dt, r)
    per mode, one step's forcing of (u, v)."""
    c11, c12, c22 = _wave_covariance(dt, r)
    l11 = np.sqrt(c11)
    l21 = c12 / l11
    l22 = np.sqrt(np.maximum(c22 - l21**2, 0.0))
    return l11, l21, l22


def noises_per_step(operator):
    """Noises each Anderson path draws per solver step: w1 and w2 for wave
    (position and velocity forcing), w1 for heat, each white noise on the
    m**d grid points; solve_batch draws the noises of steps_per_call steps
    in one call."""
    return 2 if operator == "wave" else 1


def steps_per_call(operator, modes, n_steps):
    """C, the solver steps whose noises a path draws in one standard_normal
    call: as many steps of nw = noises_per_step(operator) noises of `modes`
    normals (the m**d grid points of an Anderson solve) as NORMALS_PER_CALL
    holds, at least 1 and at most n_steps."""
    return max(1, min(n_steps,
                      NORMALS_PER_CALL // (noises_per_step(operator) * modes)))


def paths_per_block(model):
    """Paths per ensemble block of solve_batch on model's grid: about
    POINTS_PER_BLOCK grid points, at most DEFAULT_BLOCK paths.  Every
    solver operation acts on each path alone, so the values do not depend
    on the block."""
    return min(DEFAULT_BLOCK, max(1, POINTS_PER_BLOCK // model.m ** model.d))


def _flowed_origin(row, states, read):
    """x = 0 values of a flow's u row applied to (u[, v]) states."""
    terms = [a * s for a, s in zip(row, states)]
    return read(sum(terms[1:], terms[0]))


def _time_grid(model, operator, t_end, dt):
    """n_steps = t_end / dt, after the solver's preconditions: operator is
    "heat" or "wave", dt and t_end are positive and finite, dt resolves
    the operator (heat: dt <= 4 dx^2, wave: dt <= dx), the Dalang spectral
    condition holds and t_end is a multiple of dt."""
    _check_operator(operator)
    if not 0 < dt < np.inf or not 0 < t_end < np.inf:
        raise ValueError("dt and t_end must be positive and finite")
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
    return n_steps


def _eps_cuts(eps_grid, t_end, dt, n_steps):
    """(eps_grid sorted, {k: i}): the step k = n_steps - eps/dt whose state
    is the cut of column i; (None, {}) without an eps_grid.  A non-empty
    eps_grid must hold distinct multiples of dt in (0, t_end)."""
    cut_of = {}
    if eps_grid is None:
        return None, cut_of
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
    return eps_grid, cut_of


def _checked_steps(steps, n_steps=None):
    """steps as an integer array: non-empty, strictly increasing (sorted,
    no repeats), each in 1..n_steps (1.. when n_steps is None)."""
    steps = np.asarray(steps)
    if steps.ndim != 1 or steps.size == 0 \
            or not np.issubdtype(steps.dtype, np.integer):
        raise ValueError("steps must be a non-empty 1-d sequence of "
                         "integer step indices")
    if np.any(np.diff(steps) <= 0):
        raise ValueError("steps must be sorted without repeats")
    if steps[0] < 1 or (n_steps is not None and steps[-1] > n_steps):
        raise ValueError(f"steps must lie in 1..{n_steps or 'n_steps'}")
    return steps.astype(np.int64)


def point_law(model, operator, coeffs, u0, dt, steps):
    """(mean, cov): the exact law of u(k dt, 0) at the step indices k of
    `steps` (sorted, distinct, each >= 1) for a constant sigma, started at
    rest from u0.

    On the radius shells of radius_shells(model) the scheme is linear and
    Gaussian.  Shell s's state (U_s, and V_s for wave) takes the one-step
    flow Phi_s = _flow(dt) and the forcing F_s z, z standard normal, each
    step: sigma times the step's own forcing, whose covariance F_s F_s^T
    is v_s = m^d n_s times the grid density times squared_time_integral
    (heat) or _wave_covariance (wave) over dt.  The state covariance
    follows P_s(k+1) = Phi_s P_s(k) Phi_s^T + F_s F_s^T from P_s(0) = 0.
    The flow is exact and a semigroup, and each step's forcing covariance
    is the exact integral over that step, so the recursion sums to the
    same integral over [0, k dt]: P_s(k) = sigma^2 v_s times the closed form
    at t = k dt.  For i <= j,

        C(i, j) = m^-2d sum_s [_flow((j - i) dt) P_s(i)]_uu,

    one matrix product per flow entry over all pairs.  The mean is u0 plus
    b0 times the zero mode's drift integral: u0 + b0 t for heat and
    u0 + b0 t^2 / 2 for wave.
    """
    _check_operator(operator)
    sigma = coeffs.sigma_constant
    if sigma is None:
        raise ValueError("point_law needs a constant sigma")
    steps = _checked_steps(steps)
    first, counts = radius_shells(model)
    npts = model.m ** model.d
    r = _radius_grid(model).ravel()[first]
    # sigma^2 times the variance of shell s's forcing before its time
    # integral, in the solver's units (U_s sums n_s modes of m^d points)
    var = sigma**2 * _grid_density(model).ravel()[first] * (npts * counts) \
        * (2.0 * np.pi / model.dx) ** model.d

    # P_s at each step read, (steps, s): [P]_uu and, for wave, [P]_vu
    t = steps[:, None] * dt
    if operator == "heat":
        P = (var * squared_time_integral(operator, t, r),)
    else:
        c11, c12, _ = _wave_covariance(t, r)
        P = (var * c11, var * c12)

    i, j = np.triu_indices(steps.size)
    gaps, which = np.unique(steps[j] - steps[i], return_inverse=True)
    (flow_u, *_), _ = _flow(operator, gaps[:, None] * dt, r)
    # by_gap[g, i] = sum_s [_flow(gaps[g] dt) P_s(steps[i])]_uu
    by_gap = sum(np.dot(f, p.T) for f, p in zip(flow_u, P))
    cov = np.empty((steps.size, steps.size))
    cov[i, j] = by_gap[which, i] / npts**2
    cov[j, i] = cov[i, j]

    _, drift = _flow(operator, steps * dt, 0.0)
    mean = u0 + coeffs.b_constant * drift[0]
    return mean, cov


def law_condition(cov):
    """The 2-norm condition number of a covariance matrix: its largest
    eigenvalue over its smallest, inf when the smallest is not positive."""
    w = np.linalg.eigvalsh(cov)
    return float(w[-1] / w[0]) if w[0] > 0 else float("inf")


def _law_factor(cov):
    """L with L L^T = cov: the Cholesky factor, or the zero matrix of a
    zero covariance (sigma = 0).  A covariance with no factor raises
    SingularLawError with its condition number; no jitter is added."""
    if not cov.any():
        return cov
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise SingularLawError(
            f"the point law's {cov.shape[0]}-step covariance has no Cholesky"
            f" factor (condition number {law_condition(cov):.3g})") from None


def solve_batch(model, operator, coeffs, u0, t_end, dt, rngs, *,
                eps_grid=None, steps=None) -> FieldSolution:
    """u(k dt, 0) for a batch of independent paths (one RNG per path),
    started at rest (wave: zero initial velocity), at the step indices
    `steps` (sorted, distinct, in 1..n_steps with n_steps = t_end / dt); at
    every step 0..n_steps when steps is None.

    A constant sigma draws each path from point_law at those steps: path
    i's generator draws len(steps) normals z in one standard_normal call,
    and its values are mean + np.dot(L, z), L the Cholesky factor of the
    law's covariance (one product per path, so a path's values do not
    depend on the batch).  A covariance with no Cholesky factor raises
    SingularLawError.  A constant sigma takes no eps_grid.

    An Anderson sigma steps the physical field on the rfftn half spectrum.
    Each step draws nw = noises_per_step noises per path, w1 first and
    (wave) w2 after it, each white noise on the m**d grid points.  Path
    i's generator draws the noises of C = steps_per_call(operator, m**d,
    n_steps) consecutive steps in one standard_normal call, and of the
    steps left in the last one.  A path's stream therefore does not depend
    on the batch it is solved in, and after n steps its generator stands
    where standard_normal(n * nw * m**d) leaves it.  For an eps_grid, the
    step ending at t_end - eps records U_eps (that state flowed to t_end,
    plus the drift's zero-mode integral) and the slab noise G accumulates
    from the largest eps on; the solution carries G and u_eps = U_eps +
    sigma(u(t_end - eps, 0)) G, a column per eps.

    Preconditions (each refused by a ValueError before any draw): those of
    _time_grid, a non-empty eps_grid of distinct multiples of dt in (0,
    t_end), and steps as above.
    """
    n_steps = _time_grid(model, operator, t_end, dt)
    eps_grid, cut_of = _eps_cuts(eps_grid, t_end, dt, n_steps)
    if steps is not None:
        steps = _checked_steps(steps, n_steps)
    if coeffs.sigma_constant is not None:
        if eps_grid is not None:
            raise ValueError("a constant sigma takes no eps_grid: solve_batch"
                             " draws it from its exact law")
        return _exact_batch(model, operator, coeffs, u0, dt, n_steps, steps,
                            rngs)

    B = len(rngs)
    m, d = model.m, model.d
    npts = m**d
    wave = operator == "wave"
    nw = noises_per_step(operator)
    # the noise and the fields are real and every multiplier depends on
    # |xi| only, so the state lives on the rfftn half spectrum
    r = _half_spectrum(model, _radius_grid(model))
    base = _half_spectrum(model, np.sqrt(_grid_density(model))) \
        * (2.0 * np.pi / model.dx) ** (d / 2.0)
    origin = (0,) * d
    zero = (slice(None),) + origin

    rows, drift = _flow(operator, dt, r)
    if wave:
        (uu, uv), (vu, vv) = rows
        l11, l21, l22 = _wave_step_covariance(dt, r)
        # sigma-free forcing: u by K[0] w1, v by K[1] w1 + K[2] w2
        K = (base * l11, base * l21, base * l22)
    else:
        (uu,), = rows
        K = (base * np.sqrt(squared_time_integral(operator, dt, r)),)
    b0 = coeffs.b_constant
    # a constant drift forces the zero mode only
    kick = [dr[origin] * (b0 * npts) for dr in drift]

    noise_shape = (m,) * d
    # the noise's own transform is read by the slab noise G only
    W_hat = None if eps_grid is None \
        else np.empty((B, nw) + r.shape, dtype=complex)
    axes = tuple(range(1, d + 1))
    noise_axes = tuple(a + 1 for a in axes)

    def read(spec):
        return _origin_value(spec, m)
    # path i's noises of C steps, per step w1 then (wave) w2, lie back to
    # back in draws[i], so one call draws them; step k reads draws[:, k % C]
    C = steps_per_call(operator, npts, n_steps)
    draws = np.empty((B, C, nw) + noise_shape)

    # per-step buffers, reused: fresh arrays of this size cost page faults
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
        slab_start = min(cut_of)
        G = np.zeros((B, len(eps_grid)))
        U = np.empty((B, len(eps_grid)))

    for k in range(n_steps):
        # the last call draws only the steps left
        if k % C == 0:
            n = min(C, n_steps - k)
            for draw, rng in zip(draws, rngs):
                rng.standard_normal(out=draw[:n])
        noise = draws[:, k % C]
        if W_hat is not None:
            W = np.fft.rfftn(noise, axes=noise_axes, out=W_hat)
        sig_u = coeffs.sigma(np.fft.irfftn(uhat, s=noise_shape, axes=axes))
        S1 = np.fft.rfftn(sig_u * noise[:, 0], axes=axes)
        S2 = np.fft.rfftn(sig_u * noise[:, 1], axes=axes) if wave else None

        if wave:
            np.multiply(vu, uhat, out=tmp_v)         # needs the old uhat
            uhat *= uu
            _add_product(uhat, uv, vhat, tmp_u)
            _add_product(uhat, K[0], S1, tmp_u)
            vhat *= vv
            vhat += tmp_v
            _add_product(vhat, K[1], S1, tmp_v)
            _add_product(vhat, K[2], S2, tmp_v)
        else:
            uhat *= uu
            _add_product(uhat, K[0], S1, tmp_u)

        if b0 != 0.0:
            uhat[zero] += kick[0]
            if wave:
                vhat[zero] += kick[1]

        # sigma-free smoothed slab noise, flowed to t_end and evaluated at
        # x = 0
        if eps_grid is not None and k >= slab_start:
            (row, *_), _ = _flow(operator, t_end - (k + 1) * dt, r)
            W1 = W[:, 0]
            forcing = (K[0] * W1, K[1] * W1 + K[2] * W[:, 1]) if wave \
                else (K[0] * W1,)
            add_to = eps_grid >= (t_end - k * dt) - 1e-9 * dt
            G[:, add_to] += _flowed_origin(row, forcing, read)[:, None]

        point_series[:, k + 1] = read(uhat)
        i = cut_of.get(k + 1)
        if i is not None:
            (row, *_), drift_eps = _flow(operator, eps_grid[i], r)
            U[:, i] = _flowed_origin(row, state, read) \
                + b0 * drift_eps[0][origin]

    if eps_grid is not None:
        cuts = sorted(cut_of, reverse=True)    # eps ascending
        u_eps = U + coeffs.sigma(point_series[:, cuts]) * G
    if steps is not None:
        point_series = point_series[:, steps]
    if eps_grid is None:
        return FieldSolution(dt, point_series)
    return FieldSolution(dt, point_series, eps_grid, G, u_eps)


def _exact_batch(model, operator, coeffs, u0, dt, n_steps, steps, rngs):
    """solve_batch for a constant sigma: each path drawn from point_law."""
    every = steps is None
    if every:
        steps = np.arange(1, n_steps + 1)
    mean, cov = point_law(model, operator, coeffs, u0, dt, steps)
    factor = _law_factor(cov)
    # every step from 0: column 0 is u0 and the law fills the rest
    series = np.empty((len(rngs), steps.size + every))
    series[:, 0] = u0
    values = series[:, 1:] if every else series
    z = np.empty(steps.size)
    for rng, row in zip(rngs, values):
        rng.standard_normal(out=z)
        np.dot(factor, z, out=row)
    values += mean
    return FieldSolution(dt, series)


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

    series_times holds the time of each stored column, ascending; they
    need not be evenly spaced.  Returns the ScalingFit and, per lag in
    ascending order, the Monte-Carlo mean of the squared increment and its
    standard error, which needs at least 2 paths.
    """
    if point_series.shape[0] < 2:
        raise ValueError("time_holder_delta needs at least 2 paths for a "
                         "standard error")
    times = np.asarray(series_times, dtype=float)
    lags = np.asarray(sorted(lags), dtype=float)
    tol = 1e-9 * np.max(np.abs(times))

    def idx(t):
        k = int(np.argmin(np.abs(times - t)))
        if abs(times[k] - t) > tol:
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
