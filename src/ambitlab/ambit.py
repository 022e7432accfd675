"""Ambit fields driven by stable Lévy bases over cone-type ambit sets.

    X(t, x) = x0 + int int_{A_t(x)} g(t, s; x, y) sigma(s, y) L(ds, dy)
                 + int int_{B_t(x)} h(t, s; x, y) b(s, y) dy ds,

with A_t(x), B_t(x) cones {0 <= s <= t, |x - y| <= c (t - s)^zeta}
(zeta = 0 gives a slab), kernels from small named families, and sigma, b
either constants or Weierstrass-type random fields with Hölder exponents
known by construction.  Everything is d = 1.

The stochastic integral freezes sigma at cell midpoints of the sampling
partition (a predictable simple-process approximation) and is driven by
one jump record draw per path; the record makes the coupled approximation

    X_eps(t, x) = U_eps(t, x) + sigma(t - eps, x) * int int_slab g dL

share every jump and every sub-truncation Gaussian with the exact field.
Cells are time-major and every t - eps is a time edge, so each path's
record is reduced once to per-row integrals and every eps reads a prefix
(history) and a suffix (slab) of them.  Paths are sampled and reduced in
stacks (sample_stack; make_path is a stack of one): each path's generator
makes the same calls in the same order whatever the stack, so results do
not depend on how paths are stacked.
For time-singular kernels the sub-truncation Gaussian variance is the
cell-midpoint quadrature, converging only in the joint cell/tau
refinement (the slab terms of the paired gap cancel to the order of the
volatility modulus, which is what the decay experiments measure).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields
from functools import cached_property

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
    "CouplingTable",
    "PATHS_PER_STACK",
    "PathStack",
    "sample_stack",
    "AmbitPath",
    "make_path",
    "approx_parts",
    "DecayReport",
    "DensityReport",
    "error_decay",
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
        r = np.asarray(np.subtract(y, x, dtype=float))
        np.abs(r, out=r)
        # a slab's half-width is the scalar c: no per-point array to build
        width = self.half_width(t - s) if self.zeta else self.c
        return (s >= 0) & (s <= t) & (r <= width + 1e-15)

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
        st = s[..., None] * self.freqs + self.phases_t
        sx = y[..., None] * self.freqs + self.phases_x
        out = self.spec.base \
            + self.spec.amplitude * np.cos(st) @ self.gains_t \
            + self.spec.amplitude * np.cos(sx) @ self.gains_x
        return out


def _grids(field_spec, paths, s, y):
    """Each path's field on the grid s x y, shape (len(paths), len(s),
    len(y)).  The time and space sums are separable, so each axis is
    evaluated once, as one batched matmul over the stack of paths."""
    if field_spec.is_constant:
        return np.full((len(paths), len(s), len(y)), field_spec.value)
    amp, freqs = field_spec.amplitude, paths[0].freqs

    def axis_sum(points, phases, gains):
        waves = amp * np.cos(np.multiply.outer(points, freqs)
                             + np.stack(phases)[:, None, :])
        return np.matmul(waves, np.stack(gains)[:, :, None])

    time = field_spec.base + axis_sum(s, [p.phases_t for p in paths],
                                      [p.gains_t for p in paths])
    space = axis_sum(y, [p.phases_x for p in paths],
                     [p.gains_x for p in paths])
    return time + space.transpose(0, 2, 1)


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


# Gauss-Jacobi nodes of the exponent quadratures (checked against twice as
# many)
_JACOBI_NODES = 48


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
                        t=1.0, x=0.0) -> ExponentBundle:
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
                                                      sh, _JACOBI_NODES)
                             for e in eps_grid])
            fine = np.array([_slab_condition_integral(e, kern, aset, q, th,
                                                      sh, 2 * _JACOBI_NODES)
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
    """Sampling box and time-major cell grid of X(t, x), with the
    sigma-free cell factors every path shares (flat, one per cell)."""

    box_model: levy.LevyBasisModel
    cells: levy.CellGrid
    t: float
    x: float
    tau: float
    s_axis: np.ndarray       # (rows,) time midpoints
    y_axis: np.ndarray       # (cols,) space midpoints
    g_mid: np.ndarray        # 1_A * g at the midpoints
    gauss_sd: np.ndarray     # sd of the sub-tau Gaussian
    comp_cell: np.ndarray    # (tau, 1] compensator (a multiple of vol)
    drift_cell: np.ndarray   # 1_B * h * cellvol (b excluded)

    @property
    def shape(self):
        return self.s_axis.size, self.y_axis.size

    def cell_index(self, s, y):
        te = self.cells.time_edges
        it = np.clip(np.searchsorted(te, s, side="right") - 1, 0,
                     te.size - 2)
        se = self.cells.space_edges
        ix = np.clip(np.searchsorted(se, y, side="right") - 1, 0,
                     se.size - 2)
        return it * (se.size - 1) + ix

    def cut_row(self, eps):
        """Index of the time edge at t - eps: rows below it are the
        history, the others the slab."""
        eps = float(eps)
        if not (0.0 < eps <= self.t + 1e-12):
            raise ValueError("eps must lie in (0, t]")
        t_cut = self.t - eps
        gap = np.abs(self.cells.time_edges - t_cut)
        k = int(np.argmin(gap))
        if gap[k] > 1e-9 * max(self.t, 1.0):
            raise ValueError(f"discretization has no cell edge at t - eps = "
                             f"{t_cut!r}; pass eps_grid when building it")
        return k


def make_discretization(spec, model, t, x, *, eps_grid=(), nt=64,
                        nx=64) -> AmbitDiscretization:
    """Sampling box and aligned cell partition for X(t, x).

    The spatial box covers the widest section of both the ambit and drift
    cones; time edges include every t - eps so approximation slabs never
    straddle a cell.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    W = max(spec.ambit_set.max_half_width(t),
            spec.drift_set.max_half_width(t))
    if W <= 0:
        W = 1.0   # degenerate sets: keep a nonempty box
    box = levy.LevyBasisModel(model.alpha, model.c_plus, model.c_minus,
                              T=t, domain=(x - W, x + W), tau=model.tau)
    edges = [t - e for e in eps_grid if 0 < e <= t]
    cells = levy.build_cells(box, nt=nt, nx=nx, extra_time_edges=edges)
    tau = levy.default_tau(box)
    te, se = cells.time_edges, cells.space_edges
    s_mid, y_mid = cells.s_mid, cells.y_mid
    g_mid = spec.ambit_set.indicator(t, x, s_mid, y_mid) \
        * spec.kernel_g(t, s_mid, x, y_mid)
    ind_b = spec.drift_set.indicator(t, x, s_mid, y_mid)
    h_mid = spec.kernel_h(t, s_mid, x, y_mid)
    drift_cell = np.where(ind_b, h_mid, 0.0) * cells.cell_vol
    gauss_sd, comp_cell = levy.cell_factors(box, tau, cells)
    return AmbitDiscretization(box, cells, float(t), float(x), float(tau),
                               0.5 * (te[:-1] + te[1:]),
                               0.5 * (se[:-1] + se[1:]), g_mid, gauss_sd,
                               comp_cell, drift_cell)


@dataclass
class CouplingTable:
    """Every term of X_eps for t - eps at time edge k of the cell grid, as
    entry k: sums over the rows below k (prefix) or from k on (suffix).
    Each field is (paths, rows + 1) for a stack of paths, (rows + 1,) for
    one path."""

    hist: np.ndarray         # prefix of int 1_A g sigma dL
    slab: np.ndarray         # suffix of int 1_A g dL (sigma-free)
    drift_hist: np.ndarray   # prefix of int 1_B h b
    drift_slab: np.ndarray   # suffix of int 1_B h (b-free)
    sigma_frozen: np.ndarray  # sigma(edge, x)
    b_frozen: np.ndarray     # b(edge, x)

    def path(self, i) -> CouplingTable:
        """Path i's table of a stack."""
        return CouplingTable(*(getattr(self, f.name)[i]
                               for f in fields(self)))


def _prefix(rows):
    out = np.zeros(rows.shape[:-1] + (rows.shape[-1] + 1,))
    np.cumsum(rows, axis=-1, out=out[..., 1:])
    return out


def _suffix(rows):
    return _prefix(rows[..., ::-1])[..., ::-1]


def _reduce(spec, disc, sigma_paths, b_paths, sigma_mid, b_mid, record):
    """A stack's jump record (one draw per path) reduced once to per-row
    integrals: cells are time-major and every t - eps is a row edge, so
    each eps reads a prefix and a suffix.  One bincount keyed by
    (path, row) sums the jumps of the whole stack."""
    n_paths, (n_rows, n_cols) = record.counts.size, disc.shape
    path = np.repeat(np.arange(n_paths), record.counts)
    cell = disc.cell_index(record.s, record.y)
    g_jump = spec.ambit_set.indicator(disc.t, disc.x, record.s, record.y) \
        * spec.kernel_g(disc.t, record.s, disc.x, record.y)
    key = path * n_rows + cell // n_cols
    # sub-tau Gaussian minus the (tau, 1] compensator, per unit integrand
    noise = record.cell_normals * disc.gauss_sd - disc.comp_cell

    def row_sums(cell_values):
        return cell_values.reshape(cell_values.shape[:-1]
                                   + (n_rows, n_cols)).sum(axis=-1)

    def per_row(jump_f, cell_f):
        jumps = np.bincount(key, weights=jump_f * record.z,
                            minlength=n_paths * n_rows)
        return jumps.reshape(n_paths, n_rows) + row_sums(cell_f * noise)

    edges, x = disc.cells.time_edges, np.array([disc.x])
    return CouplingTable(
        hist=_prefix(per_row(g_jump * sigma_mid[path, cell],
                             disc.g_mid * sigma_mid)),
        slab=_suffix(per_row(g_jump, disc.g_mid)),
        drift_hist=_prefix(row_sums(disc.drift_cell * b_mid)),
        drift_slab=np.broadcast_to(_suffix(row_sums(disc.drift_cell)),
                                   (n_paths, n_rows + 1)),
        sigma_frozen=_grids(spec.sigma, sigma_paths, edges, x)[:, :, 0],
        b_frozen=_grids(spec.b, b_paths, edges, x)[:, :, 0])


# Paths drawn and reduced together: enough to amortise NumPy's per-call
# cost (and the GIL hand-off of each call under threads), few enough that
# a stack's arrays stay small next to one block's.
PATHS_PER_STACK = 8


@dataclass
class PathStack:
    """Paths sampled and reduced together by sample_stack."""

    sigma_paths: list
    b_paths: list
    sigma_mid: np.ndarray    # (paths, cells) volatility at cell midpoints
    b_mid: np.ndarray
    record: levy.JumpRecord  # one draw per path
    table: CouplingTable     # (paths, rows + 1) fields
    values: np.ndarray       # (paths,) X(t, x)


def sample_stack(spec, disc, rngs) -> PathStack:
    """Exact draws of X(t, x), one per generator, with their coupling
    tables.  Each generator makes the calls of a lone path (its fields,
    then its jump record), so a path never depends on the paths stacked
    with it; the arithmetic runs once for the stack."""
    sigma_paths, b_paths = [], []
    for rng in rngs:
        sigma_paths.append(spec.sigma.sample_path(rng))
        b_paths.append(spec.b.sample_path(rng))
    n_paths = len(rngs)
    sigma_mid = _grids(spec.sigma, sigma_paths, disc.s_axis,
                       disc.y_axis).reshape(n_paths, -1)
    b_mid = _grids(spec.b, b_paths, disc.s_axis,
                   disc.y_axis).reshape(n_paths, -1)
    record = levy.sample_records(disc.box_model, disc.g_mid * sigma_mid,
                                 rngs, tau=disc.tau, cells=disc.cells)
    table = _reduce(spec, disc, sigma_paths, b_paths, sigma_mid, b_mid,
                    record)
    values = spec.x0 + table.hist[:, -1] + table.drift_hist[:, -1]
    return PathStack(sigma_paths, b_paths, sigma_mid, b_mid, record, table,
                     values)


def _stacks(spec, disc, rngs):
    """sample_stack over consecutive sub-stacks of PATHS_PER_STACK
    generators; yields (first path index, stack)."""
    for i in range(0, len(rngs), PATHS_PER_STACK):
        yield i, sample_stack(spec, disc, rngs[i:i + PATHS_PER_STACK])


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
    value: float             # X(t, x)

    @cached_property
    def coupling(self) -> CouplingTable:
        """The record reduced to per-row integrals, as one stack of one
        path.  make_path fills this in while sampling; a path rebuilt with
        another record by dataclasses.replace recomputes it."""
        return _reduce(self.spec, self.disc, [self.sigma_path],
                       [self.b_path], self.sigma_mid[None],
                       self.b_mid[None], self.record).path(0)


def make_path(spec, model, t, x, rng, disc=None, *, eps_grid=(), nt=64,
              nx=64) -> AmbitPath:
    """One exact draw of X(t, x): a stack of one path."""
    if disc is None:
        disc = make_discretization(spec, model, t, x, eps_grid=eps_grid,
                                   nt=nt, nx=nx)
    stack = sample_stack(spec, disc, [rng])
    path = AmbitPath(spec, disc, stack.sigma_paths[0], stack.b_paths[0],
                     stack.sigma_mid[0], stack.b_mid[0], stack.record,
                     float(stack.values[0]))
    vars(path)["coupling"] = stack.table.path(0)  # cached_property's slot
    return path


@dataclass
class ApproxParts:
    eps: float
    value: float             # X_eps
    u_eps: float             # history + frozen drift (F_{t-eps} surrogate)
    slab_noise: float        # int int_slab 1_A g dL (sigma-free)
    sigma_frozen: float
    drift_history: float
    drift_frozen: float


def _frozen_parts(table, k, x0):
    """(X_eps, U_eps, slab noise, sigma, drift history, frozen drift) read
    at time edge(s) k of a path's or a stack's coupling table (sigma and b
    are frozen at the edge): X_eps = U_eps + sigma(t - eps, x) * slab."""
    sigma_frozen, slab = table.sigma_frozen[..., k], table.slab[..., k]
    drift_hist = table.drift_hist[..., k]
    drift_frozen = table.b_frozen[..., k] * table.drift_slab[..., k]
    u_eps = x0 + table.hist[..., k] + drift_hist + drift_frozen
    return (u_eps + sigma_frozen * slab, u_eps, slab, sigma_frozen,
            drift_hist, drift_frozen)


def approx_parts(path: AmbitPath, eps) -> ApproxParts:
    """Decompose X_eps = U_eps + sigma(t - eps, x) * slab_noise: entry k
    of the path's coupling table, k the time edge at t - eps."""
    parts = _frozen_parts(path.coupling, path.disc.cut_row(eps),
                          path.spec.x0)
    return ApproxParts(float(eps), *map(float, parts))


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
    discretization: AmbitDiscretization
    jumps_per_path: float    # mean recorded jump count
    seconds: dict            # wall time of the ensemble and exponent stages


def error_decay(spec, model, t, x, beta, eps_grid, n_paths, *,
                master_seed=0, workers=1, gamma=None, gammabar_value=None,
                nt=64, nx=64) -> DecayReport:
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
                               nt=nt, nx=nx)
    cut = np.array([disc.cut_row(e) for e in eps_grid])

    def block(_idx, rngs):
        # after the gaps: 1 + |X|, so degenerate gaps (pure float
        # rearrangement for constant coefficients) can be told apart, and
        # the path's jump count
        out = np.empty((len(rngs), eps_grid.size + 2))
        for i, stack in _stacks(spec, disc, rngs):
            rows = out[i:i + stack.values.size]
            x_eps = _frozen_parts(stack.table, cut, spec.x0)[0]
            rows[:, :-2] = np.abs(stack.values[:, None] - x_eps)
            rows[:, -2] = 1.0 + np.abs(stack.values)
            rows[:, -1] = stack.record.counts
        return out

    clock = time.perf_counter()
    raw = run_ensemble_blocks(n_paths, block, master_seed=master_seed,
                              stream="ambit-decay", workers=workers)
    seconds = dict(ensemble=time.perf_counter() - clock,
                   exponent_conditions=0.0)
    abs_gaps, scale, jumps = raw[:, :-2], raw[:, -2:-1], raw[:, -1]
    counters = dict(discretization=disc, jumps_per_path=float(jumps.mean()),
                    seconds=seconds)
    gaps = abs_gaps ** beta
    degenerate = bool(np.all(abs_gaps < 1e-11 * scale))
    means = gaps.mean(axis=0)
    stderrs = gaps.std(axis=0, ddof=1) / math.sqrt(n_paths)

    if gammabar_value is None:
        clock = time.perf_counter()
        bundle = exponent_conditions(spec, model, eps_grid, beta=beta,
                                     gamma=gamma, t=t, x=x)
        seconds["exponent_conditions"] = time.perf_counter() - clock
        gammabar_value = bundle.gammabar
    target = beta * (1.0 / model.alpha + gammabar_value) - 1.0

    if degenerate:
        fit = ScalingFit(0.0, 0.0, 0.0, float("inf"), 0, "degenerate")
        return DecayReport(fit, eps_grid, means, stderrs, beta,
                           gammabar_value, target, True, "degenerate",
                           **counters)
    fit = fit_scaling(eps_grid, means, stderrs)
    flag = fit.flag
    if flag == "ok" and fit.ci_halfwidth > 0.3:
        flag = "inconclusive"
    passed = flag != "inconclusive" and fit.slope >= target - 0.15
    return DecayReport(fit, eps_grid, means, stderrs, beta, gammabar_value,
                       target, bool(passed), flag, **counters)


@dataclass
class DensityReport(besov.CriterionReport):
    """density_criterion_experiment's criterion report with the work behind
    it (run-log counters and stage times)."""

    discretization: AmbitDiscretization
    jumps_per_draw: float    # mean jump count per sample
    chunks: int              # bulk sampler chunks (None for the ensemble)
    seconds: dict            # wall time of the sampler and criterion stages


def density_criterion_experiment(spec, model, t, x, n, n_paths=100_000, *,
                                 master_seed=0, workers=1, holder_order=0.5,
                                 nt=64, nx=64) -> DensityReport:
    """Criterion statistic for the law of X(t, x) with weights
    |sigma(t, x)|^n, at the default h grid and frequencies.

    Deterministic coefficient fields take one bulk sampler call (one
    integrand, n_paths draws, chunk c drawn from child c of the
    "ambit-density" path_rng stream) whose whole chunks run on `workers`
    threads; random volatility runs the path ensemble over `workers` in
    stacks of PATHS_PER_STACK paths.  Either way the report is the same
    for any worker count.
    """
    disc = make_discretization(spec, model, t, x, nt=nt, nx=nx)
    clock = time.perf_counter()
    if spec.sigma.is_constant and spec.b.is_constant:
        sig0 = spec.sigma.value
        b0 = spec.b.value

        def f(s, y):
            ind = spec.ambit_set.indicator(t, x, s, y)
            return ind * spec.kernel_g(t, s, x, y) * sig0

        rng = path_rng(master_seed, "ambit-density", 0)
        tally = {}
        stoch = levy.sample_integral(disc.box_model, f, rng,
                                     n_draws=n_paths, tau=disc.tau,
                                     cells=disc.cells, workers=workers,
                                     tally=tally)
        drift = float(np.sum(disc.drift_cell * b0))
        values = spec.x0 + stoch + drift
        weights = np.full(n_paths, abs(sig0) ** n if n else 1.0)
        counters = dict(jumps_per_draw=tally["jumps"] / n_paths,
                        chunks=tally["chunks"])
    else:
        def block(_idx, rngs):
            out = np.empty((len(rngs), 3))
            for i, stack in _stacks(spec, disc, rngs):
                rows = out[i:i + stack.values.size]
                rows[:, 0] = stack.values
                # sigma(t, x): the last time edge is t
                rows[:, 1] = np.abs(stack.table.sigma_frozen[:, -1]) ** n
                rows[:, 2] = stack.record.counts
            return out

        raw = run_ensemble_blocks(n_paths, block, master_seed=master_seed,
                                  stream="ambit-density", workers=workers)
        values, weights = raw[:, 0], raw[:, 1]
        counters = dict(jumps_per_draw=float(raw[:, 2].mean()), chunks=None)
    seconds = dict(sampler=time.perf_counter() - clock)

    clock = time.perf_counter()
    stats = besov.criterion_statistic(values, weights, n, alpha=holder_order)
    report = besov.criterion_report(stats, holder_order)
    seconds["criterion"] = time.perf_counter() - clock
    return DensityReport(**vars(report), discretization=disc,
                         seconds=seconds, **counters)
