"""Ambit fields driven by stable Lévy bases over cone-type ambit sets.

    X(t, x) = x0 + int int_{A_t(x)} g(t, s; x, y) sigma(s, y) L(ds, dy)
                 + int int_{B_t(x)} h(t, s; x, y) b(s, y) dy ds,

with A_t(x), B_t(x) cones {0 <= s <= t, |x - y| <= c (t - s)^zeta}
(zeta = 0 gives a slab), kernels from small named families, and sigma, b
either constants or Weierstrass-type random fields with Hölder exponents
known by construction.  Everything is d = 1.

The stochastic integral freezes sigma at cell midpoints of the sampling
partition (a predictable simple-process approximation) and is driven by
levy.sample_integral; the jump record makes the coupled approximation

    X_eps(t, x) = U_eps(t, x) + sigma(t - eps, x) * int int_slab g dL

share every jump and every sub-truncation Gaussian with the exact field.
For time-singular kernels the sub-truncation Gaussian variance is the
cell-midpoint quadrature, converging only in the joint cell/tau
refinement (the slab terms of the paired gap cancel to the order of the
volatility modulus, which is what the decay experiments measure).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from . import besov, levy
from .montecarlo import (ScalingFit, fit_scaling, path_rng,
                         run_ensemble_blocks)

__all__ = [
    "AmbitSet",
    "make_cone",
    "make_slab",
    "Kernel",
    "constant_kernel",
    "power_kernel",
    "bump_kernel",
    "FieldSpec",
    "constant_field",
    "weierstrass_field",
    "field_holder_fit",
    "AmbitSpec",
    "make_ambit_spec",
    "ExponentBundle",
    "exponent_conditions",
    "default_beta_gamma",
    "AmbitDiscretization",
    "make_discretization",
    "AmbitPath",
    "make_path",
    "evaluate",
    "approx_parts",
    "DecayReport",
    "error_decay",
    "AmbitDensityReport",
    "density_criterion_experiment",
]


# ---------------------------------------------------------------------------
# geometry, kernels, volatility fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AmbitSet:
    """Cone {(s, y): 0 <= s <= t, |x - y| <= c (t - s)^zeta}."""

    c: float
    zeta: float

    def __post_init__(self):
        if self.c < 0:
            raise ValueError("cone aperture must be nonnegative")
        if self.zeta < 0:
            raise ValueError("zeta must be nonnegative")

    def half_width(self, lag):
        """Spatial half-width at time lag u = t - s >= 0."""
        lag = np.asarray(lag, dtype=float)
        return self.c * lag ** self.zeta if self.zeta else \
            np.full_like(lag, self.c)

    def indicator(self, t, x, s, y):
        s = np.asarray(s, dtype=float)
        r = np.abs(np.asarray(y, dtype=float) - x)
        return (s >= 0) & (s <= t) & (r <= self.half_width(t - s) + 1e-15)

    def max_half_width(self, t):
        return self.c * t ** self.zeta if self.zeta else self.c


def make_cone(c, zeta=1.0) -> AmbitSet:
    return AmbitSet(float(c), float(zeta))


def make_slab(half_width) -> AmbitSet:
    return AmbitSet(float(half_width), 0.0)


@dataclass(frozen=True)
class Kernel:
    """g(t, s; x, y) from a named family.

    constant: value; power: value * (t-s)^(-theta); bump:
    value * exp(-(y-x)^2 / (2 width^2)).  Only power has a time
    singularity; only bump has spatial structure.
    """

    kind: str
    value: float = 1.0
    theta: float = 0.0
    width: float = 1.0

    def __post_init__(self):
        if self.kind not in ("constant", "power", "bump"):
            raise ValueError(f"unknown kernel family {self.kind!r}")
        if self.kind == "power" and self.theta <= 0:
            raise ValueError("power kernel needs theta > 0")
        if self.kind == "bump" and self.width <= 0:
            raise ValueError("bump kernel needs width > 0")

    @property
    def time_power(self):
        return -self.theta if self.kind == "power" else 0.0

    def __call__(self, t, s, x, y):
        s = np.asarray(s, dtype=float)
        if self.kind == "constant":
            return np.full(s.shape, self.value)
        if self.kind == "power":
            lag = np.maximum(t - s, 1e-300)
            return self.value * lag ** (-self.theta)
        r = np.asarray(y, dtype=float) - x
        return self.value * np.exp(-r * r / (2.0 * self.width ** 2))

    def space_bump_scale(self, q):
        """c with profile^q = exp(-c r^2), or None for flat kernels."""
        if self.kind != "bump":
            return None
        return q / (2.0 * self.width ** 2)


def constant_kernel(value=1.0) -> Kernel:
    return Kernel("constant", value=float(value))


def power_kernel(theta, value=1.0) -> Kernel:
    return Kernel("power", value=float(value), theta=float(theta))


def bump_kernel(width, value=1.0) -> Kernel:
    return Kernel("bump", value=float(value), width=float(width))


class _ConstantPath:
    def __init__(self, value):
        self.value = float(value)

    def __call__(self, s, y):
        return np.full(np.broadcast(np.asarray(s), 0.0).shape, self.value)


class _WeierstrassPath:
    """One realisation: base + amp * sum_j 2^(-j d1) G_j cos(2^j w0 s + ph_j)
    + amp * sum_j 2^(-j d2) H_j cos(2^j w0 y + ps_j)."""

    def __init__(self, spec, rng):
        lv = spec.levels
        self.spec = spec
        self.gains_t = rng.standard_normal(lv) * 2.0 ** (
            -spec.delta1 * np.arange(lv))
        self.gains_x = rng.standard_normal(lv) * 2.0 ** (
            -spec.delta2 * np.arange(lv))
        self.phases_t = rng.uniform(0.0, 2.0 * np.pi, lv)
        self.phases_x = rng.uniform(0.0, 2.0 * np.pi, lv)
        self.freqs = spec.omega0 * 2.0 ** np.arange(lv)

    def __call__(self, s, y):
        s = np.asarray(s, dtype=float)
        y = np.asarray(y, dtype=float)
        if y.ndim == s.ndim + 1:       # (k, d) points
            y = y[..., 0]
        st = s[..., None] * self.freqs + self.phases_t
        sx = y[..., None] * self.freqs + self.phases_x
        out = self.spec.base \
            + self.spec.amplitude * np.cos(st) @ self.gains_t \
            + self.spec.amplitude * np.cos(sx) @ self.gains_x
        return out


@dataclass(frozen=True)
class FieldSpec:
    """Volatility/drift field family with Hölder exponents known by
    construction (H2): time exponent delta1, space exponent delta2."""

    kind: str
    value: float = 0.0
    base: float = 1.0
    amplitude: float = 0.25
    delta1: float = 0.5
    delta2: float = 0.5
    omega0: float = np.pi
    levels: int = 16

    def __post_init__(self):
        if self.kind not in ("constant", "weierstrass"):
            raise ValueError(f"unknown field family {self.kind!r}")
        if self.kind == "weierstrass":
            if not (0 < self.delta1 < 1 and 0 < self.delta2 < 1):
                raise ValueError("Hölder exponents must lie in (0, 1)")
            if self.levels < 2:
                raise ValueError("need at least 2 dyadic levels")

    @property
    def is_constant(self):
        return self.kind == "constant"

    def sample_path(self, rng):
        if self.is_constant:
            return _ConstantPath(self.value)
        return _WeierstrassPath(self, rng)


def constant_field(value) -> FieldSpec:
    return FieldSpec("constant", value=float(value))


def weierstrass_field(base=1.0, amplitude=0.25, delta1=0.5, delta2=0.5,
                      omega0=np.pi, levels=16) -> FieldSpec:
    return FieldSpec("weierstrass", base=float(base),
                     amplitude=float(amplitude), delta1=float(delta1),
                     delta2=float(delta2), omega0=float(omega0),
                     levels=int(levels))


def field_holder_fit(field_spec, lag_grid, n_paths, rng, *, p=2.0,
                     axis="time", base_point=(0.3, 0.2)) -> ScalingFit:
    """MC regression of E|field increment|^p against the lag: the fitted
    slope estimates p * delta for the chosen axis (the (H2) check)."""
    if field_spec.is_constant:
        raise ValueError("constant fields have no Hölder modulus")
    lag_grid = np.asarray(sorted(lag_grid), dtype=float)
    s0, y0 = base_point
    acc = np.zeros((n_paths, lag_grid.size))
    for i in range(n_paths):
        path = field_spec.sample_path(rng)
        v0 = path(np.array([s0]), np.array([y0]))[0]
        if axis == "time":
            vals = path(s0 + lag_grid, np.full(lag_grid.size, y0))
        else:
            vals = path(np.full(lag_grid.size, s0), y0 + lag_grid)
        acc[i] = np.abs(vals - v0) ** p
    means = acc.mean(axis=0)
    errs = acc.std(axis=0, ddof=1) / math.sqrt(n_paths)
    return fit_scaling(lag_grid, means, errs)


# ---------------------------------------------------------------------------
# spec assembly
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AmbitSpec:
    ambit_set: AmbitSet
    drift_set: AmbitSet
    kernel_g: Kernel
    kernel_h: Kernel
    sigma: FieldSpec
    b: FieldSpec
    x0: float = 0.0


def make_ambit_spec(ambit_set=None, drift_set=None, kernel_g=None,
                    kernel_h=None, sigma=None, b=None, x0=0.0) -> AmbitSpec:
    ambit_set = ambit_set or make_cone(1.0, 1.0)
    return AmbitSpec(
        ambit_set=ambit_set,
        drift_set=drift_set or ambit_set,
        kernel_g=kernel_g or constant_kernel(1.0),
        kernel_h=kernel_h or constant_kernel(1.0),
        sigma=sigma if sigma is not None else constant_field(1.0),
        b=b if b is not None else constant_field(0.0),
        x0=float(x0))


def default_beta_gamma(alpha):
    """Defaults keeping beta < alpha < gamma <= 2 well inside the lemmas."""
    beta = alpha / 2.0 + min(alpha, 1.0) / 2.0 * 0.9
    gamma = min(2.0, alpha + 0.5)
    return beta, gamma


# ---------------------------------------------------------------------------
# (H4) exponent quadratures
# ---------------------------------------------------------------------------


def _slab_condition_integral(eps, kernel, aset, q, time_holder, space_holder,
                             nodes):
    """int_0^eps v^time_holder * S(u) dv with v = s - (t - eps), u = eps - v,
    S(u) = int_{|y'| <= c u^zeta} |kernel|^q |y'|^space_holder dy'.

    All pure powers of u and v are folded into a Gauss-Jacobi weight; the
    remaining factor is smooth (constant, or an incomplete-Gamma bump
    profile).  Returns (value, jacobi exponent of u) and raises when the
    u-exponent is not integrable.
    """
    a_v = time_holder
    p = space_holder
    b_u = q * kernel.time_power
    scale = kernel.value ** q if kernel.kind != "power" \
        else abs(kernel.value) ** q
    bump_c = kernel.space_bump_scale(q)
    if bump_c is None:
        # flat profile: S(u) = 2 (c u^zeta)^(1+p) / (1+p)
        b_u += aset.zeta * (1.0 + p)
        const = scale * 2.0 * aset.c ** (1.0 + p) / (1.0 + p)
        smooth = None
    else:
        const = scale * 2.0
        half_p = 0.5 * (p + 1.0)
        norm = special.gamma(half_p) / (2.0 * bump_c ** half_p)

        def smooth(u):
            w = aset.half_width(u)
            return norm * special.gammainc(half_p, bump_c * w * w)

    if a_v <= -1.0 or b_u <= -1.0:
        raise ValueError("divergent")

    xj, wj = special.roots_jacobi(nodes, b_u, a_v)
    u_nodes = eps * (1.0 - xj) / 2.0
    vals = const if smooth is None else const * smooth(u_nodes)
    return (eps / 2.0) ** (a_v + b_u + 1.0) * float(np.sum(wj * vals))


@dataclass
class ExponentBundle:
    gamma0: ScalingFit
    gamma1: ScalingFit
    gamma2: ScalingFit
    gamma3: ScalingFit
    gamma4: ScalingFit
    gammabar: float          # min of the present gamma_1..gamma_4 slopes
    verdict: bool            # min(gamma_1..4) / gamma_0 > 1 / alpha
    eps_grid: np.ndarray
    integrals: dict
    beta: float
    gamma: float
    richardson_error: float


def exponent_conditions(spec, model, eps_grid, beta=None, gamma=None, *,
                        t=1.0, x=0.0, nodes=48) -> ExponentBundle:
    """Quadrature of the five slab exponent conditions and their log-log
    fits.

    gamma0: slab mass of |g|^alpha over the ambit cone; gamma1/gamma2: the
    same with the volatility time/space Hölder weights and exponent gamma
    (fitted slope divided by gamma); gamma3/gamma4: drift analogues with
    kernel h (linear, slopes reported directly).  Constant sigma (resp. b)
    makes the corresponding gaps vanish identically and the conditions are
    reported as degenerate and excluded from gammabar.
    """
    alpha = model.alpha
    if model.weight is not None:
        raise ValueError("exponent quadratures assume the constant-1 "
                         "control weight")
    db, dg = default_beta_gamma(alpha)
    beta = db if beta is None else float(beta)
    gamma = dg if gamma is None else float(gamma)
    if not (0 < beta < alpha < gamma <= 2.0):
        raise ValueError("need 0 < beta < alpha < gamma <= 2")
    eps_grid = np.asarray(sorted(eps_grid), dtype=float)
    if eps_grid.size < 4 or eps_grid[0] <= 0 or eps_grid[-1] > t:
        raise ValueError("eps_grid must hold >= 4 values in (0, t]")

    conds = {"gamma0": (spec.kernel_g, spec.ambit_set, alpha, 0.0, 0.0)}
    if not spec.sigma.is_constant:
        conds["gamma1"] = (spec.kernel_g, spec.ambit_set, gamma,
                           spec.sigma.delta1 * gamma, 0.0)
        conds["gamma2"] = (spec.kernel_g, spec.ambit_set, gamma, 0.0,
                           spec.sigma.delta2 * gamma)
    if not (spec.b.is_constant):
        conds["gamma3"] = (spec.kernel_h, spec.drift_set, 1.0,
                           spec.b.delta1, 0.0)
        conds["gamma4"] = (spec.kernel_h, spec.drift_set, 1.0, 0.0,
                           spec.b.delta2)

    integrals, fits = {}, {}
    richardson = 0.0
    for name, (kern, aset, q, th, sh) in conds.items():
        try:
            vals = np.array([_slab_condition_integral(e, kern, aset, q, th,
                                                      sh, nodes)
                             for e in eps_grid])
            fine = np.array([_slab_condition_integral(e, kern, aset, q, th,
                                                      sh, 2 * nodes)
                             for e in eps_grid])
        except ValueError as exc:
            raise ValueError(f"(H4) condition {name} diverges for this "
                             f"kernel/cone combination") from exc
        rel = float(np.max(np.abs(vals - fine)
                           / np.maximum(np.abs(fine), 1e-300)))
        richardson = max(richardson, rel)
        if rel > 0.01:
            raise ValueError(f"(H4) quadrature for {name} fails the "
                             f"node-doubling self-check ({rel:.2%})")
        integrals[name] = vals
        fit = fit_scaling(eps_grid, vals)
        if fit.flag == "ok" and fit.r2 < 0.99:
            fit.flag = "inconclusive"
        fits[name] = fit

    def scaled(name, divisor):
        f = fits.get(name)
        if f is None:
            return ScalingFit(float("nan"), 0.0, 0.0, float("inf"), 0,
                              "degenerate")
        return ScalingFit(f.slope / divisor, f.intercept, f.r2,
                          f.ci_halfwidth / divisor, f.points_used, f.flag)

    g0 = fits["gamma0"]
    g1 = scaled("gamma1", gamma)
    g2 = scaled("gamma2", gamma)
    g3 = scaled("gamma3", 1.0)
    g4 = scaled("gamma4", 1.0)
    present = [g.slope for g in (g1, g2, g3, g4) if g.flag != "degenerate"]
    gammabar = float(min(present)) if present else float("inf")
    verdict = bool(gammabar / g0.slope > 1.0 / alpha)
    return ExponentBundle(g0, g1, g2, g3, g4, gammabar, verdict, eps_grid,
                          integrals, beta, gamma, richardson)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


@dataclass
class AmbitDiscretization:
    box_model: levy.LevyBasisModel
    cells: levy.CellGrid
    t: float
    x: float
    tau: float

    def cell_index(self, s, y):
        te = self.cells.time_edges
        it = np.clip(np.searchsorted(te, s, side="right") - 1, 0,
                     te.size - 2)
        se = self.cells.space_edges[0]
        yv = np.asarray(y, dtype=float)
        if yv.ndim == np.asarray(s).ndim + 1:
            yv = yv[..., 0]
        ix = np.clip(np.searchsorted(se, yv, side="right") - 1, 0,
                     se.size - 2)
        return it * (se.size - 1) + ix


def make_discretization(spec, model, t, x, *, eps_grid=(), nt=64, nx=64,
                        tau=None, target_var_error=1e-2) -> AmbitDiscretization:
    """Sampling box and aligned cell partition for X(t, x).

    The spatial box covers the widest section of both the ambit and drift
    cones; time edges include every t - eps so approximation slabs never
    straddle a cell.
    """
    if model.d != 1:
        raise ValueError("ambit sampling is implemented for d = 1")
    if t <= 0:
        raise ValueError("t must be positive")
    W = max(spec.ambit_set.max_half_width(t),
            spec.drift_set.max_half_width(t))
    if W <= 0:
        W = 1.0   # degenerate sets: keep a nonempty box
    box = levy.LevyBasisModel(model.alpha, model.c_plus, model.c_minus,
                              T=t, domain=((x - W, x + W),),
                              weight=model.weight,
                              weight_bound=model.weight_bound,
                              tau=model.tau)
    edges = [t - e for e in np.asarray(eps_grid, dtype=float)
             if 0 < e <= t]
    cells = levy.build_cells(box, nt=nt, nx=nx, extra_time_edges=edges)
    tau = levy.default_tau(box, target_var_error) if tau is None else tau
    return AmbitDiscretization(box, cells, float(t), float(x), float(tau))


@dataclass
class AmbitPath:
    """Shared-noise handle of one exact evaluation."""

    spec: AmbitSpec
    disc: AmbitDiscretization
    sigma_path: object
    b_path: object
    sigma_mid: np.ndarray    # volatility frozen at cell midpoints
    b_mid: np.ndarray
    record: levy.JumpRecord
    drift_cell: np.ndarray   # 1_B * h * cellvol per cell (b excluded)
    value: float             # X(t, x)

    def integrand(self, s, y):
        """1_A * g * cell-frozen sigma — the integrand of the exact field."""
        disc, spec = self.disc, self.spec
        ind = spec.ambit_set.indicator(disc.t, disc.x, s, _space(y))
        gv = spec.kernel_g(disc.t, s, disc.x, _space(y))
        return ind * gv * self.sigma_mid[disc.cell_index(s, y)]


def _space(y):
    yv = np.asarray(y, dtype=float)
    return yv[..., 0] if yv.ndim == 2 else yv


def make_path(spec, model, t, x, rng, disc=None, *, eps_grid=(), nt=64,
              nx=64, tau=None) -> AmbitPath:
    if disc is None:
        disc = make_discretization(spec, model, t, x, eps_grid=eps_grid,
                                   nt=nt, nx=nx, tau=tau)
    sigma_path = spec.sigma.sample_path(rng)
    b_path = spec.b.sample_path(rng)
    cells = disc.cells
    sigma_mid = np.asarray(sigma_path(cells.s_mid, cells.y_mid), dtype=float)
    b_mid = np.asarray(b_path(cells.s_mid, cells.y_mid), dtype=float)
    ind_b = spec.drift_set.indicator(t, x, cells.s_mid, _space(cells.y_mid))
    h_mid = spec.kernel_h(t, cells.s_mid, x, _space(cells.y_mid))
    # drift is a plain Lebesgue integral; the control weight only scales L
    drift_cell = np.where(ind_b, h_mid, 0.0) * cells.cell_vol

    holder = AmbitPath(spec, disc, sigma_path, b_path, sigma_mid, b_mid,
                       record=None, drift_cell=drift_cell, value=0.0)
    stoch, record = levy.sample_integral(
        disc.box_model, holder.integrand, rng, n_draws=1, tau=disc.tau,
        cells=cells, return_record=True)
    holder.record = record
    holder.value = float(spec.x0 + stoch[0] + np.sum(drift_cell * b_mid))
    return holder


def evaluate(spec, model, t, x, rng, discretization=None) -> float:
    """One exact draw of X(t, x)."""
    return make_path(spec, model, t, x, rng, disc=discretization).value


@dataclass
class ApproxParts:
    eps: float
    value: float             # X_eps
    u_eps: float             # history + frozen drift (F_{t-eps} surrogate)
    slab_noise: float        # int int_slab 1_A g dL (sigma-free)
    sigma_frozen: float
    drift_history: float
    drift_frozen: float


def approx_parts(path: AmbitPath, eps) -> ApproxParts:
    """Decompose X_eps = U_eps + sigma(t - eps, x) * slab_noise."""
    disc, spec = path.disc, path.spec
    t, x = disc.t, disc.x
    if not (0.0 < eps <= t + 1e-12):
        raise ValueError("eps must lie in (0, t]")
    t_cut = t - eps
    te = path.record.cells.time_edges
    if np.min(np.abs(te - t_cut)) > 1e-9 * max(t, 1.0):
        raise ValueError(f"discretization has no cell edge at t - eps = "
                         f"{t_cut!r}; pass eps_grid when building it")

    sigma_frozen = float(np.asarray(path.sigma_path(
        np.array([t_cut]), np.array([x])))[0])
    b_frozen = float(np.asarray(path.b_path(
        np.array([t_cut]), np.array([x])))[0])

    def hist_integrand(s, y):
        return path.integrand(s, y) * (s <= t_cut + 1e-15)

    def slab_unit_integrand(s, y):
        ind = spec.ambit_set.indicator(t, x, s, _space(y))
        gv = spec.kernel_g(t, s, x, _space(y))
        return ind * gv * (s > t_cut + 1e-15)

    hist = float(levy.replay_integral(disc.box_model, path.record,
                                      hist_integrand)[0])
    slab = float(levy.replay_integral(disc.box_model, path.record,
                                      slab_unit_integrand)[0])
    s_mid = path.record.cells.s_mid
    in_hist = s_mid <= t_cut + 1e-15
    drift_hist = float(np.sum(path.drift_cell[in_hist]
                              * path.b_mid[in_hist]))
    drift_frozen = b_frozen * float(np.sum(path.drift_cell[~in_hist]))
    u_eps = spec.x0 + hist + drift_hist + drift_frozen
    return ApproxParts(float(eps), u_eps + sigma_frozen * slab, u_eps,
                       slab, sigma_frozen, drift_hist, drift_frozen)


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


@dataclass
class DecayReport:
    fit: ScalingFit
    eps_grid: np.ndarray
    means: np.ndarray
    stderrs: np.ndarray
    beta: float
    gammabar: float
    target_rate: float
    passed: bool
    flag: str


def error_decay(spec, model, t, x, beta, eps_grid, n_paths, *,
                master_seed=0, stream="ambit-decay", workers=1,
                gamma=None, gammabar_value=None, nt=64, nx=64,
                tau=None) -> DecayReport:
    """Paired-coupling MC of E|X - X_eps|^beta against the lemma's rate
    beta (1/alpha + gammabar) - 1.

    PASS when the fitted slope is >= rate - 0.15; flagged inconclusive
    when the slope CI halfwidth exceeds 0.3, degenerate when the gap
    vanishes (constant coefficients).
    """
    if not (0.0 < beta < model.alpha):
        raise ValueError("need 0 < beta < alpha")
    eps_grid = np.asarray(sorted(eps_grid), dtype=float)
    disc = make_discretization(spec, model, t, x, eps_grid=eps_grid,
                               nt=nt, nx=nx, tau=tau)

    def block(_idx, rngs):
        # last column carries 1 + |X| so degenerate gaps (pure float
        # rearrangement for constant coefficients) can be told apart
        out = np.empty((len(rngs), eps_grid.size + 1))
        for i, rng in enumerate(rngs):
            path = make_path(spec, model, t, x, rng, disc=disc)
            for j, e in enumerate(eps_grid):
                out[i, j] = abs(path.value - approx_parts(path, e).value)
            out[i, -1] = 1.0 + abs(path.value)
        return out

    raw = run_ensemble_blocks(n_paths, block, master_seed=master_seed,
                              stream=stream, workers=workers)
    gaps = raw[:, :-1] ** beta
    degenerate = bool(np.all(raw[:, :-1] < 1e-11 * raw[:, -1:]))
    means = gaps.mean(axis=0)
    stderrs = gaps.std(axis=0, ddof=1) / math.sqrt(n_paths)

    if gammabar_value is None:
        bundle = exponent_conditions(spec, model, eps_grid, beta=beta,
                                     gamma=gamma, t=t, x=x)
        gammabar_value = bundle.gammabar
    target = beta * (1.0 / model.alpha + gammabar_value) - 1.0

    if degenerate:
        fit = ScalingFit(0.0, 0.0, 0.0, float("inf"), 0, "degenerate")
        return DecayReport(fit, eps_grid, means, stderrs, beta,
                           gammabar_value, target, True, "degenerate")
    fit = fit_scaling(eps_grid, means, stderrs)
    flag = fit.flag
    if flag == "ok" and fit.ci_halfwidth > 0.3:
        flag = "inconclusive"
    passed = flag != "inconclusive" and fit.slope >= target - 0.15
    return DecayReport(fit, eps_grid, means, stderrs, beta, gammabar_value,
                       target, bool(passed), flag)


@dataclass
class AmbitDensityReport:
    statistics: list
    slopes: dict
    min_slope: float
    holder_order: float
    verdict: bool
    n: int
    n_paths: int


def density_criterion_experiment(spec, model, t, x, n, h_grid=None,
                                 n_paths=100_000, *, master_seed=0,
                                 stream="ambit-density", workers=1,
                                 holder_order=0.5,
                                 frequencies=besov.DEFAULT_FREQUENCIES,
                                 nt=64, nx=64, tau=None) -> AmbitDensityReport:
    """Criterion statistic for the law of X(t, x) with weights
    |sigma(t, x)|^n.

    Deterministic coefficient fields use the vectorised sampler (one
    integrand, n_paths draws); random volatility falls back to the
    path-parallel loop.
    """
    if spec.sigma.is_constant and spec.b.is_constant:
        disc = make_discretization(spec, model, t, x, nt=nt, nx=nx, tau=tau)
        sig0 = spec.sigma.value
        b0 = spec.b.value

        def f(s, y):
            ind = spec.ambit_set.indicator(t, x, s, _space(y))
            return ind * spec.kernel_g(t, s, x, _space(y)) * sig0

        rng = path_rng(master_seed, stream, 0)
        stoch = levy.sample_integral(disc.box_model, f, rng,
                                     n_draws=n_paths, tau=disc.tau,
                                     cells=disc.cells)
        cells = disc.cells
        ind_b = spec.drift_set.indicator(t, x, cells.s_mid,
                                         _space(cells.y_mid))
        h_mid = spec.kernel_h(t, cells.s_mid, x, _space(cells.y_mid))
        drift = float(np.sum(np.where(ind_b, h_mid, 0.0) * b0
                             * cells.cell_vol))
        values = spec.x0 + stoch + drift
        weights = np.full(n_paths, abs(sig0) ** n if n else 1.0)
    else:
        disc = make_discretization(spec, model, t, x, nt=nt, nx=nx, tau=tau)

        def block(_idx, rngs):
            out = np.empty((len(rngs), 2))
            for i, rng in enumerate(rngs):
                path = make_path(spec, model, t, x, rng, disc=disc)
                sig_tx = float(np.asarray(path.sigma_path(
                    np.array([t]), np.array([x])))[0])
                out[i] = (path.value, abs(sig_tx) ** n if n else 1.0)
            return out

        pairs = run_ensemble_blocks(n_paths, block, master_seed=master_seed,
                                    stream=stream, workers=workers)
        values, weights = pairs[:, 0], pairs[:, 1]

    if not np.all(np.isfinite(weights)) or not np.all(np.isfinite(values)):
        raise ValueError("criterion weights/samples must be finite")
    stats = besov.criterion_statistic(values, weights, n, h_grid=h_grid,
                                      alpha=holder_order,
                                      frequencies=frequencies)
    slopes = {s.test_function_id: s.fitted.slope for s in stats
              if s.fitted.flag == "ok"}
    min_slope = min(slopes.values()) if slopes else float("nan")
    verdict = bool(slopes) and all(v > holder_order for v in slopes.values())
    return AmbitDensityReport(stats, slopes, float(min_slope),
                              float(holder_order), verdict, int(n),
                              int(n_paths))
