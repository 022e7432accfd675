"""Reference implementations that only the tests call.

No experiment runs these; the tests compare the package's closed forms and
fast paths against them:

* the exact integer difference stencils and the finite difference of a
  callable (the Besov machinery's definition, checked against the
  criterion statistic's closed form),
* the dyadic moment-lemma bound of the Lévy family with its explicit
  constant, against the closed-form truncated moments,
* the slab integrals of the (H4) exponent conditions, whose powers of eps
  `ambit.exponent_conditions` gives in closed form,
* the tail constant of the Lévy family, the erasure of a jump record after
  a cut time and the cell of a point of an ambit discretization,
* one path's volatility field evaluated pointwise from its draw, the
  reference of `FieldSpec.grid`'s separable evaluation,
* the empirical characteristic function of a sample, and
* the constant-sigma SPDE step loop on radius shells, the scheme whose
  exact Gaussian law `spde.point_law` gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ambitlab import spde
from ambitlab.besov import MAX_ORDER
from ambitlab.levy import JumpRecord
from ambitlab.noise import _grid_density, _radius_grid, squared_time_integral

# ---------------------------------------------------------------------------
# difference stencils
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Stencil:
    """Forward-difference coefficients (-1)^(n-j) C(n,j), j = 0..n."""

    n: int
    coefficients: tuple


def _coefficients(n: int) -> tuple:
    return tuple((-1) ** (n - j) * math.comb(n, j) for j in range(n + 1))


def make_stencil(n: int) -> Stencil:
    """Stencil of order n, 1 <= n <= 20 (binomial overflow guard above)."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise ValueError("stencil order must be an integer")
    if n < 1 or n > MAX_ORDER:
        raise ValueError(f"stencil order must satisfy 1 <= n <= {MAX_ORDER}")
    return Stencil(int(n), _coefficients(int(n)))


def compose(a: Stencil, b: Stencil) -> Stencil:
    """Coefficient convolution; equals make_stencil(a.n + b.n) exactly."""
    ca = np.array(a.coefficients, dtype=object)
    cb = np.array(b.coefficients, dtype=object)
    conv = [sum(ca[i] * cb[k - i]
                for i in range(max(0, k - b.n), min(a.n, k) + 1))
            for k in range(a.n + b.n + 1)]
    return Stencil(a.n + b.n, tuple(int(c) for c in conv))


def finite_difference(f, x, h, n):
    """n-th forward difference of the callable f at x with step h, f being
    evaluated at x + j*h."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x, dtype=complex)
    for j, c in enumerate(make_stencil(n).coefficients):
        out = out + c * np.asarray(f(x + j * h))
    if np.all(np.abs(out.imag) == 0.0):
        return out.real
    return out


# ---------------------------------------------------------------------------
# moment lemma
# ---------------------------------------------------------------------------


# truncation levels a of moment_lemma_check
_MOMENT_A_GRID = np.geomspace(1e-3, 1.0, 20)


def moment_lemma_constant(gamma, alpha) -> float:
    """C_{gamma,alpha} = 2^(2-gamma) * 2^(2-alpha) / (2^(gamma-alpha) - 1)."""
    if not (alpha < gamma <= 2.0):
        raise ValueError("need alpha < gamma <= 2")
    return 2.0 ** (2.0 - gamma) * 2.0 ** (2.0 - alpha) \
        / (2.0 ** (gamma - alpha) - 1.0)


@dataclass
class MomentLemmaReport:
    gamma: float
    alpha: float
    constant: float
    a_grid: np.ndarray
    integrals: np.ndarray
    bounds: np.ndarray
    max_violation: float     # max (integral - bound); must be <= 1e-9 scale
    passed: bool


def moment_lemma_check(model, gamma) -> MomentLemmaReport:
    """int_{|z|<=a} |z|^gamma rho = c_sum a^(gamma-alpha) / (gamma-alpha)
    against the dyadic bound C_{gamma,alpha} * C_bar * a^(gamma-alpha).

    Both sides are the one power of a, so the check compares two
    constants: bound/integral exceeds its infimum 4/3 (alpha -> 0,
    gamma = 2) over the whole range alpha < gamma <= 2, and the check
    passes for every valid (alpha, gamma).
    """
    a = model.alpha
    if not (a < gamma <= 2.0):
        raise ValueError("moment lemma needs alpha < gamma <= 2")
    const = moment_lemma_constant(gamma, a)
    c_bar = model.c_sum / (2.0 - a)
    powers = _MOMENT_A_GRID ** (gamma - a)
    integrals = model.c_sum * powers / (gamma - a)
    bounds = const * c_bar * powers
    viol = float(np.max(integrals - bounds))
    return MomentLemmaReport(float(gamma), a, const, _MOMENT_A_GRID.copy(),
                             integrals, bounds, viol,
                             bool(viol <= 1e-9 * float(np.max(bounds))))


# ---------------------------------------------------------------------------
# slab integrals of the (H4) exponent conditions
# ---------------------------------------------------------------------------


# Gauss-Jacobi nodes of the bump kernel's slab integral
_JACOBI_NODES = 48


def space_bump_scale(kernel, q):
    """c with profile^q = exp(-c r^2), or None for flat kernels."""
    if kernel.kind != "bump":
        return None
    return q / (2.0 * kernel.width ** 2)


def _slab_condition_integral(eps, kernel, aset, q, time_holder, space_holder,
                             nodes=_JACOBI_NODES):
    """int_0^eps v^time_holder * S(u) dv with v = s - (t - eps), u = eps - v,
    S(u) = int_{|y'| <= c u^zeta} |kernel|^q |y'|^space_holder dy': the
    slab integral whose power of eps ambit._condition_exponent gives in
    closed form, kept as the oracle of that exponent.

    For the flat profile (constant and power kernels) the integrand is
    const v^a u^b, so the integral is const eps^(a+b+1) B(a+1, b+1) in
    closed form.  The bump kernel's incomplete-Gamma profile is integrated
    by Gauss-Jacobi quadrature with the pure powers of u and v folded into
    the weight.  The integral must converge (see ambit._condition_exponent).
    """
    a_v = time_holder
    p = space_holder
    b_u = q * kernel.time_power
    scale = kernel.value ** q if kernel.kind != "power" \
        else abs(kernel.value) ** q
    bump_c = space_bump_scale(kernel, q)
    if bump_c is None:
        # flat profile: S(u) = 2 (c u^zeta)^(1+p) / (1+p)
        b_u += aset.zeta * (1.0 + p)
        const = scale * 2.0 * aset.c ** (1.0 + p) / (1.0 + p)
        log_beta = (math.lgamma(a_v + 1.0) + math.lgamma(b_u + 1.0)
                    - math.lgamma(a_v + b_u + 2.0))
        return const * eps ** (a_v + b_u + 1.0) * math.exp(log_beta)
    # imported here: only the bump kernel needs scipy.special
    from scipy import special

    const = scale * 2.0
    half_p = 0.5 * (p + 1.0)
    norm = special.gamma(half_p) / (2.0 * bump_c ** half_p)
    xj, wj = special.roots_jacobi(nodes, b_u, a_v)
    w = aset.half_width(eps * (1.0 - xj) / 2.0)
    vals = const * (norm * special.gammainc(half_p, bump_c * w * w))
    return (eps / 2.0) ** (a_v + b_u + 1.0) * float(np.sum(wj * vals))


# ---------------------------------------------------------------------------
# Lévy basis and ambit discretization
# ---------------------------------------------------------------------------


def C_beta(constants, beta) -> float:
    """Tail constant of levy.AssumptionConstants:
    int_{|z|>a} |z|^beta rho = C_beta a^(beta-alpha)."""
    if beta >= constants.alpha:
        raise ValueError("tail moment requires beta < alpha")
    return constants.c_sum / (constants.alpha - beta)


def erase_after(record, t_cut):
    """Record with all jumps in (t_cut, T] removed and slab cell
    normals zeroed — the sigma-algebra-up-to-t_cut surrogate."""
    keep = record.s <= t_cut + 1e-12
    normals = record.cell_normals.copy()
    normals[:, record.cells.s_mid > t_cut] = 0.0
    counts = np.zeros_like(record.counts)
    did = np.repeat(np.arange(counts.size), record.counts)
    np.add.at(counts, did[keep], 1)
    return JumpRecord(record.cells, counts, record.s[keep],
                      record.y[keep], record.z[keep], normals)


def cell_index(disc, s, y):
    """Time-major index of the cell of an ambit.AmbitDiscretization holding
    each point (s, y); points outside the box go to the nearest cell."""
    return disc._rows(s) * disc.cells.shape[1] + disc._cols(y)


# ---------------------------------------------------------------------------
# volatility fields
# ---------------------------------------------------------------------------


def field_at(spec, draw, s, y):
    """The field of one path, known by its draw (FieldSpec.draw), at the
    points (s, y): the sum over the Weierstrass levels, point by point."""
    if spec.is_constant:
        return np.full(np.broadcast(np.asarray(s), 0.0).shape, spec.value)
    gains_t, gains_x, phases_t, phases_x = draw
    freqs = spec.dyadic_scales[0]
    s = np.asarray(s, dtype=float)
    y = np.asarray(y, dtype=float)
    st = s[..., None] * freqs + phases_t
    sx = y[..., None] * freqs + phases_x
    out = spec.base \
        + spec.amplitude * np.cos(st) @ gains_t \
        + spec.amplitude * np.cos(sx) @ gains_x
    return out


# ---------------------------------------------------------------------------
# empirical characteristic function
# ---------------------------------------------------------------------------


def empirical_cf(values, xi):
    """Empirical characteristic function: mean of exp(i xi X).

    Returns (phi, stderr) where stderr is the universal 1/sqrt(n) bound on
    the complex-mean fluctuation (|e^{i xi X}| = 1).
    """
    values = np.asarray(values, dtype=float)
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if values.size == 0:
        raise ValueError("empty sample")
    phase = np.exp(1j * np.outer(xi, values))
    phi = phase.mean(axis=1)
    stderr = np.full(xi.shape, 1.0 / np.sqrt(values.size))
    return phi, stderr


# ---------------------------------------------------------------------------
# the constant-sigma SPDE step loop
# ---------------------------------------------------------------------------


def shell_solve(model, operator, coeffs, u0, t_end, dt, rngs, *,
                eps_grid=None) -> spde.FieldSolution:
    """spde.solve_batch's step loop for a constant sigma, on the S shells
    of spde.radius_shells(model): u(t, 0) at every step 0..n_steps and,
    for an eps_grid, the slab noise G and u_eps, as solve_batch records
    them for an Anderson sigma.

    Each step draws nw = spde.noises_per_step(operator) noises of S
    normals per path, w1 first and (wave) w2 after it: shell s's forcing
    Z_s divided by its standard deviation sqrt(m**d n_s), so a step draws
    nw * S normals and runs no FFT.  Path i's generator draws the noises of
    C = spde.steps_per_call(operator, S, n_steps) consecutive steps in one
    standard_normal call, and of the steps left in the last one.  The
    state is U_s, the sum of Re u_hat over shell s, and u(t, 0) =
    m^-d sum_s U_s.
    """
    n_steps = spde._time_grid(model, operator, t_end, dt)
    eps_grid, cut_of = spde._eps_cuts(eps_grid, t_end, dt, n_steps)
    if eps_grid is not None:
        slab_start = min(cut_of)

    B = len(rngs)
    npts = model.m ** model.d
    wave = operator == "wave"
    nw = spde.noises_per_step(operator)
    sigma_const = coeffs.sigma_constant
    first, counts = spde.radius_shells(model)
    r = _radius_grid(model).ravel()[first]
    # the standard deviation sqrt(npts n_s) of the shell forcing Z_s
    base = np.sqrt(_grid_density(model).ravel()[first] * (npts * counts))
    origin = (0,)
    base = base * (2.0 * np.pi / model.dx) ** (model.d / 2.0)
    zero = (slice(None),) + origin

    rows, drift = spde._flow(operator, dt, r)
    if wave:
        (uu, uv), (vu, vv) = rows
        l11, l21, l22 = spde._wave_step_covariance(dt, r)
        # sigma-free forcing: u by K[0] w1, v by K[1] w1 + K[2] w2
        K = (base * l11, base * l21, base * l22)
    else:
        (uu,), = rows
        K = (base * np.sqrt(squared_time_integral(operator, dt, r)),)
    b0 = coeffs.b_constant
    # a constant drift forces the zero mode only
    kick = [dr[origin] * (b0 * npts) for dr in drift]

    # the state is U_s, the sum of Re u_hat over shell s; a constant sigma
    # scales the forcing once
    F = tuple(sigma_const * f for f in K)

    def read(spec):
        return spec.sum(axis=1) / npts
    # path i's noises of C steps, per step w1 then (wave) w2, lie back to
    # back in draws[i], so one call draws them; step k reads draws[:, k % C]
    C = spde.steps_per_call(operator, r.size, n_steps)
    draws = np.empty((B, C, nw) + r.shape)

    uhat = np.zeros((B,) + r.shape)
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

    for k in range(n_steps):
        # the last call draws only the steps left
        if k % C == 0:
            n = min(C, n_steps - k)
            for draw, rng in zip(draws, rngs):
                rng.standard_normal(out=draw[:n])
        W = draws[:, k % C]        # the drawn normals force the shells
        S1, S2 = W[:, 0], (W[:, 1] if wave else None)

        if wave:
            np.multiply(vu, uhat, out=tmp_v)         # needs the old uhat
            uhat *= uu
            spde._add_product(uhat, uv, vhat, tmp_u)
            spde._add_product(uhat, F[0], S1, tmp_u)
            vhat *= vv
            vhat += tmp_v
            spde._add_product(vhat, F[1], S1, tmp_v)
            spde._add_product(vhat, F[2], S2, tmp_v)
        else:
            uhat *= uu
            spde._add_product(uhat, F[0], S1, tmp_u)

        if b0 != 0.0:
            uhat[zero] += kick[0]
            if wave:
                vhat[zero] += kick[1]

        # sigma-free smoothed slab noise, flowed to t_end and evaluated at
        # x = 0
        if eps_grid is not None and k >= slab_start:
            (row, *_), _ = spde._flow(operator, t_end - (k + 1) * dt, r)
            W1 = W[:, 0]
            forcing = (K[0] * W1, K[1] * W1 + K[2] * W[:, 1]) if wave \
                else (K[0] * W1,)
            add_to = eps_grid >= (t_end - k * dt) - 1e-9 * dt
            G[:, add_to] += spde._flowed_origin(row, forcing, read)[:, None]

        point_series[:, k + 1] = read(uhat)
        i = cut_of.get(k + 1)
        if i is not None:
            (row, *_), drift_eps = spde._flow(operator, eps_grid[i], r)
            U[:, i] = spde._flowed_origin(row, state, read) \
                + b0 * drift_eps[0][origin]

    if eps_grid is None:
        return spde.FieldSolution(dt, point_series)
    cuts = sorted(cut_of, reverse=True)    # eps ascending
    u_eps = U + coeffs.sigma_values(point_series[:, cuts]) * G
    return spde.FieldSolution(dt, point_series, eps_grid, G, u_eps)
