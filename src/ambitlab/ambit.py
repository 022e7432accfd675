"""Ambit fields driven by stable Lévy bases over cone-type ambit sets.

    X(t, x) = x0 + int int_{A_t(x)} g(t, s; x, y) sigma(s, y) L(ds, dy)
                 + int int_{B_t(x)} h(t, s; x, y) b(s, y) dy ds,

with A_t(x), B_t(x) cones {0 <= s <= t, |x - y| <= c (t - s)^zeta}
(zeta = 0 gives a slab), kernels from small named families, and sigma, b
either constants or Weierstrass-type random fields with Hölder exponents
known by construction.  Everything is d = 1.

With constant sigma the stochastic integral is exactly alpha-stable, and
density_sample draws it from that law (levy.sample_integral).  Otherwise
sigma is frozen at the cell midpoints of the sampling partition and each
path is driven by one jump record draw, which the coupled approximation

    X_eps(t, x) = U_eps(t, x) + sigma(t - eps, x) * int int_slab g dL

shares, every jump and sub-truncation Gaussian alike.  Cells are
time-major and every t - eps is a time edge, so one reduction of a
stack's records to per-row integrals gives X_eps at every edge asked for,
as a prefix (history) and a suffix (slab); at the last edge, t, X_eps is
X.  Each path's generator makes the same calls whatever the stack
(sample_stack; make_path is a stack of one), so results do not depend on
the stacking.  error_decay and density_sample's random-coefficient branch
run one path ensemble of such stacks.  For time-singular kernels the
sub-truncation Gaussian variance is the cell-midpoint quadrature,
converging only in the joint cell/tau refinement.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import levy
from .montecarlo import (ScalingFit, decide, fit_scaling, path_rng,
                         run_ensemble_blocks)

__all__ = [
    "AmbitSet",
    "make_cone",
    "Kernel",
    "constant_kernel",
    "power_kernel",
    "bump_kernel",
    "FieldSpec",
    "constant_field",
    "weierstrass_field",
    "AmbitSpec",
    "make_ambit_spec",
    "ExponentBundle",
    "exponent_conditions",
    "default_beta_gamma",
    "AmbitDiscretization",
    "make_discretization",
    "PATHS_PER_STACK",
    "PathStack",
    "sample_stack",
    "make_path",
    "approx_parts",
    "DecayReport",
    "DensitySample",
    "error_decay",
    "density_sample",
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
        if not self.zeta:
            return np.full_like(lag, self.c)
        width = lag ** self.zeta
        width *= self.c
        return width

    def indicator(self, t, x, s, y):
        s = np.asarray(s, dtype=float)
        r = np.asarray(np.subtract(y, x, dtype=float))
        np.abs(r, out=r)
        # a slab's half-width is the scalar c: no per-point array to build
        if self.zeta:
            width = self.half_width(t - s)
            width += 1e-15
        else:
            width = self.c + 1e-15
        return (s >= 0) & (s <= t) & (r <= width)

    def max_half_width(self, t):
        return self.c * t ** self.zeta if self.zeta else self.c


def make_cone(c, zeta=1.0) -> AmbitSet:
    return AmbitSet(float(c), float(zeta))


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


def constant_kernel(value=1.0) -> Kernel:
    return Kernel("constant", value=float(value))


def power_kernel(theta, value=1.0) -> Kernel:
    return Kernel("power", value=float(value), theta=float(theta))


def bump_kernel(width, value=1.0) -> Kernel:
    return Kernel("bump", value=float(value), width=float(width))


@dataclass(frozen=True)
class FieldSpec:
    """Volatility/drift field family with Hölder exponents known by
    construction (H2): time exponent delta1, space exponent delta2.  A
    path, base + amp sum_j 2^(-j d1) G_j cos(2^j w0 s + ph_j) + amp sum_j
    2^(-j d2) H_j cos(2^j w0 y + ps_j), is its draw of gains and phases."""

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

    @cached_property
    def dyadic_scales(self):
        """(frequencies omega0 2^j, time gains 2^(-j delta1), space gains
        2^(-j delta2)) of the Weierstrass levels j, shared read-only by
        every path of the family."""
        j = np.arange(self.levels)
        scales = (self.omega0 * 2.0 ** j, 2.0 ** (-self.delta1 * j),
                  2.0 ** (-self.delta2 * j))
        for a in scales:
            a.flags.writeable = False
        return scales

    def draw(self, rng):
        """One path's (4, levels) time gains, space gains, time phases and
        space phases, in draw order; a constant field draws nothing."""
        if self.is_constant:
            return np.empty((4, 0))
        lv = self.levels
        _, decay_t, decay_x = self.dyadic_scales
        return np.stack([rng.standard_normal(lv) * decay_t,
                         rng.standard_normal(lv) * decay_x,
                         rng.uniform(0.0, 2.0 * np.pi, lv),
                         rng.uniform(0.0, 2.0 * np.pi, lv)])

    def grid(self, draws, s, y):
        """(paths, len(s), len(y)) fields of a (4, paths, levels) stack of
        draws on the grid s x y: the time and space sums are separable, so
        each axis is one batched matmul over the paths."""
        if self.is_constant:
            # one read-only number for every path and point
            return np.broadcast_to(self.value,
                                   (draws.shape[1], len(s), len(y)))
        gains_t, gains_x, phases_t, phases_x = draws
        freqs = self.dyadic_scales[0]

        def axis_sum(points, phases, gains):
            waves = self.amplitude * np.cos(np.multiply.outer(points, freqs)
                                            + phases[:, None, :])
            return np.matmul(waves, gains[:, :, None])

        time = self.base + axis_sum(s, phases_t, gains_t)
        space = axis_sum(y, phases_x, gains_x)
        return time + space.transpose(0, 2, 1)


def constant_field(value) -> FieldSpec:
    return FieldSpec("constant", value=float(value))


def weierstrass_field(base=1.0, amplitude=0.25, delta1=0.5, delta2=0.5,
                      omega0=np.pi, levels=16) -> FieldSpec:
    return FieldSpec("weierstrass", base=float(base),
                     amplitude=float(amplitude), delta1=float(delta1),
                     delta2=float(delta2), omega0=float(omega0),
                     levels=int(levels))


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
# (H4) exponent conditions
# ---------------------------------------------------------------------------


def _condition_exponent(kernel, aset, q, time_holder, space_holder):
    """Exponent of a slab condition integral, 1 + a + q k + zeta (1 + p),
    with time weight a, space weight p and k the kernel's time power.
    Raises when the integral diverges (a <= -1 or q k + zeta (1 + p) <= -1).
    """
    b_u = q * kernel.time_power + aset.zeta * (1.0 + space_holder)
    if time_holder <= -1.0 or b_u <= -1.0:
        raise ValueError("divergent")
    return 1.0 + time_holder + b_u


@dataclass
class ExponentBundle:
    gamma0: float
    gamma1: float            # gamma1, gamma2: None for constant sigma
    gamma2: float
    gamma3: float            # gamma3, gamma4: None for constant b
    gamma4: float
    gammabar: float          # min of the present gamma_1..gamma_4
    verdict: bool            # gammabar / gamma_0 > 1 / alpha
    beta: float
    gamma: float


def _conditions(spec, alpha, gamma):
    """{name: (kernel, set, q, time weight, space weight)} of the (H4)
    conditions that apply to spec: the arguments of _condition_exponent, and
    after eps those of the slab-integral oracle in tests/oracles.py."""
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
    return conds


def exponent_conditions(spec, model, beta=None, gamma=None) -> ExponentBundle:
    """The five slab exponent conditions in closed form.

    gamma0: slab mass of |g|^alpha over the ambit cone; gamma1/gamma2: the
    same with the volatility time/space Hölder weights and exponent gamma
    (the exponent divided by gamma); gamma3/gamma4: drift analogues with
    kernel h (linear, exponents reported directly).  Each exponent is
    _condition_exponent's, for every kernel: the bump profile is flat at
    small eps.  Constant sigma (resp. b) makes the corresponding gaps
    vanish identically; those conditions are None and excluded from
    gammabar.
    """
    alpha = model.alpha
    db, dg = default_beta_gamma(alpha)
    beta = db if beta is None else float(beta)
    gamma = dg if gamma is None else float(gamma)
    if not (0 < beta < alpha < gamma <= 2.0):
        raise ValueError("need 0 < beta < alpha < gamma <= 2")

    exponents = dict.fromkeys(f"gamma{i}" for i in range(5))
    for name, cond in _conditions(spec, alpha, gamma).items():
        try:
            exponent = _condition_exponent(*cond)
        except ValueError as exc:
            raise ValueError(f"(H4) condition {name} diverges for this "
                             f"kernel/cone combination") from exc
        if name in ("gamma1", "gamma2"):
            exponent /= gamma
        exponents[name] = exponent

    present = [v for v in list(exponents.values())[1:] if v is not None]
    gammabar = float(min(present)) if present else float("inf")
    verdict = bool(gammabar / exponents["gamma0"] > 1.0 / alpha)
    return ExponentBundle(**exponents, gammabar=gammabar, verdict=verdict,
                          beta=beta, gamma=gamma)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


# Uniform bins per cell of an _EdgeLookup: enough that two edges rarely
# share a bin, so one compare mostly settles a value.
_BINS_PER_CELL = 4


class _EdgeLookup:
    """The cell of each value along one axis of sorted edges in O(1) per
    value: clip(searchsorted(edges, v, "right") - 1, 0, n - 1) with n
    cells, exactly, for every value but NaN.

    An arithmetic guess puts v, clipped to the edges' span, in one of
    about _BINS_PER_CELL * n uniform bins.  The bin map is monotone, so
    the interior edges that it sends below v's bin lie at or below v and
    those that it sends above lie above v.  A bin's first cell (the count
    of interior edges below it) is thus never past v's cell, and at most
    `steps` edges, the most that share one bin, lie between the two: as
    many compares against the next edge make the index exact, the edges
    sharing a bin included.
    """

    def __init__(self, edges):
        self.lo, self.hi = edges[0], edges[-1]
        bins = _BINS_PER_CELL * (edges.size - 1)
        self.scale = bins / (self.hi - self.lo)
        # hi maps to bins, give or take rounding: one more bin holds it
        per_bin = np.bincount(self._bin(edges[1:-1]), minlength=bins + 1)
        self.first = np.cumsum(per_bin) - per_bin
        self.steps = int(per_bin.max())
        # the edge above each cell; none above the last
        self.upper = np.append(edges[1:-1], np.inf)

    def _bin(self, v):
        b = np.clip(v, self.lo, self.hi, out=np.empty(np.shape(v)))
        b -= self.lo
        b *= self.scale
        return b.astype(np.intp)

    def __call__(self, v):
        index = self.first[self._bin(v)]
        for _ in range(self.steps):
            index += v >= self.upper[index]
        return index


@dataclass
class AmbitDiscretization:
    """Sampling box and time-major cell grid of X(t, x), with the
    sigma-free cell factors every path shares (flat, one per cell)."""

    box_model: levy.LevyBasisModel
    cells: levy.CellGrid
    t: float
    x: float
    g_mid: np.ndarray        # 1_A * g at the midpoints
    gauss_sd: np.ndarray     # sd of the sub-tau Gaussian
    comp_cell: np.ndarray    # (tau, 1] compensator (a multiple of vol)
    drift_cell: np.ndarray   # 1_B * h * cellvol (b excluded)

    def __post_init__(self):
        self._rows = _EdgeLookup(self.cells.time_edges)
        self._cols = _EdgeLookup(self.cells.space_edges)

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
    box = replace(model, T=t, domain=(x - W, x + W))
    edges = [t - e for e in eps_grid if 0 < e <= t]
    cells = levy.build_cells(box, nt=nt, nx=nx, extra_time_edges=edges)
    s_mid, y_mid = cells.s_mid, cells.y_mid
    g_mid = spec.ambit_set.indicator(t, x, s_mid, y_mid) \
        * spec.kernel_g(t, s_mid, x, y_mid)
    ind_b = spec.drift_set.indicator(t, x, s_mid, y_mid)
    h_mid = spec.kernel_h(t, s_mid, x, y_mid)
    drift_cell = np.where(ind_b, h_mid, 0.0) * cells.cell_vol
    gauss_sd, comp_cell = levy.cell_factors(box, cells)
    return AmbitDiscretization(box, cells, float(t), float(x), g_mid,
                               gauss_sd, comp_cell, drift_cell)


def _prefix(rows):
    out = np.zeros(rows.shape[:-1] + (rows.shape[-1] + 1,))
    np.cumsum(rows, axis=-1, out=out[..., 1:])
    return out


def _suffix(rows):
    return _prefix(rows[..., ::-1])[..., ::-1]


def _parts(stack, k) -> ApproxParts:
    """X_eps = U_eps + sigma(t - eps, x) * slab_noise at time edge(s) k of
    the cell grid, sigma and b frozen at the edge, one entry (or one row
    over k) per path.  The stack's jump record is reduced once to per-row
    integrals: cells are time-major and every t - eps is a row edge, so
    the history is a prefix of the rows and the slab a suffix.  One
    bincount keyed by (path, row) sums the jumps of the whole stack.  At
    the last edge, t, the slab is empty and X_eps is X."""
    spec, disc, record = stack.spec, stack.disc, stack.record
    n_paths, (n_rows, n_cols) = record.counts.size, disc.cells.shape
    # each jump's (path, row) key, and its flat (path, cell) index
    key = np.repeat(np.arange(n_paths) * n_rows, record.counts)
    key += disc._rows(record.s)
    at = key * n_cols
    at += disc._cols(record.y)
    # 1_A g, scaled in place: the kernel returns a new array
    g_jump = spec.kernel_g(disc.t, record.s, disc.x, record.y)
    g_jump *= spec.ambit_set.indicator(disc.t, disc.x, record.s, record.y)
    hist_jump = stack.sigma_mid.ravel()[at]
    del at
    hist_jump *= g_jump
    # sub-tau Gaussian minus the (tau, 1] compensator, per unit integrand
    noise = record.cell_normals * disc.gauss_sd
    noise -= disc.comp_cell

    def row_sums(cell_values):
        return cell_values.reshape(cell_values.shape[:-1]
                                   + (n_rows, n_cols)).sum(axis=-1)

    def per_row(jump_f, cell_f):
        jump_f *= record.z
        jumps = np.bincount(key, weights=jump_f, minlength=n_paths * n_rows)
        return jumps.reshape(n_paths, n_rows) + row_sums(cell_f * noise)

    hist = _prefix(per_row(hist_jump, stack.g_sigma_mid))[:, k]
    slab = _suffix(per_row(g_jump, disc.g_mid))[:, k]
    drift_history = _prefix(row_sums(disc.drift_cell * stack.b_mid))[:, k]
    # sigma and b at every edge, then indexed: matmul's rounding depends on
    # the point count, so fewer edges would move the frozen values an ulp
    edges, x = disc.cells.time_edges, np.array([disc.x])
    sigma_frozen = spec.sigma.grid(stack.sigma_draws, edges, x)[:, k, 0]
    drift_frozen = spec.b.grid(stack.b_draws, edges, x)[:, k, 0] \
        * _suffix(row_sums(disc.drift_cell))[k]
    u_eps = spec.x0 + hist + drift_history + drift_frozen
    return ApproxParts(disc.t - edges[k], u_eps + sigma_frozen * slab, u_eps,
                       slab, sigma_frozen, drift_history, drift_frozen)


# Paths drawn and reduced together: enough to amortise NumPy's per-call
# cost (and the GIL hand-off of each call under threads), few enough that
# a stack's arrays stay small next to one block's.  Measured on the
# ambit-decay benchmark (2 workers, 2-vCPU Xeon, 24 runs each), median
# wall_s / peak_rss_mb at 8, 12, 16, 24 and 32 paths per stack:
# 0.383/45.1, 0.345/47.0, 0.326/49.2, 0.311/54.6 and 0.314/58.6, against
# 0.463/45.8 before the O(1) cell lookup.  16 is the largest size within
# +10% of that peak RSS.
PATHS_PER_STACK = 16


@dataclass
class PathStack:
    """Paths sampled together by sample_stack."""

    spec: AmbitSpec
    disc: AmbitDiscretization
    sigma_draws: np.ndarray  # (4, paths, levels) FieldSpec.draw stacks
    b_draws: np.ndarray
    sigma_mid: np.ndarray    # (paths, cells) volatility at cell midpoints
    b_mid: np.ndarray
    g_sigma_mid: np.ndarray  # (paths, cells) 1_A g sigma at cell midpoints
    record: levy.JumpRecord  # one draw per path

    @property
    def values(self) -> np.ndarray:
        """(paths,) X(t, x): X_eps at the last time edge, t."""
        return _parts(self, -1).value


def sample_stack(spec, disc, rngs) -> PathStack:
    """Exact draws of X(t, x), one per generator.  Each generator makes
    the calls of a lone path (its fields, then its jump record), so a path
    never depends on the paths stacked with it; the arithmetic runs once
    for the stack."""
    draws = [(spec.sigma.draw(rng), spec.b.draw(rng)) for rng in rngs]
    sigma_draws, b_draws = (np.stack(d, axis=1) for d in zip(*draws))
    n_paths, axes = len(rngs), (disc.cells.s_axis, disc.cells.y_axis)
    sigma_mid = spec.sigma.grid(sigma_draws, *axes).reshape(n_paths, -1)
    b_mid = spec.b.grid(b_draws, *axes).reshape(n_paths, -1)
    g_sigma_mid = disc.g_mid * sigma_mid
    record = levy.sample_records(disc.box_model, g_sigma_mid, rngs,
                                 cells=disc.cells)
    return PathStack(spec, disc, sigma_draws, b_draws, sigma_mid, b_mid,
                     g_sigma_mid, record)


def make_path(spec, disc, rng) -> PathStack:
    """One exact draw of X(t, x): a stack of one path."""
    return sample_stack(spec, disc, [rng])


@dataclass
class ApproxParts:
    """X_eps and its terms at a time edge: eps is t minus the edge, and the
    rest have one entry per path of a stack (a row over several edges)."""

    eps: float
    value: np.ndarray        # X_eps
    u_eps: np.ndarray        # history + frozen drift (F_{t-eps} surrogate)
    slab_noise: np.ndarray   # int int_slab 1_A g dL (sigma-free)
    sigma_frozen: np.ndarray
    drift_history: np.ndarray
    drift_frozen: np.ndarray


def approx_parts(stack: PathStack, eps) -> ApproxParts:
    """Decompose X_eps = U_eps + sigma(t - eps, x) * slab_noise at the
    time edge t - eps."""
    return _parts(stack, stack.disc.cut_row(eps))


def _ensemble(spec, disc, k, n_paths, *, master_seed, stream, workers):
    """(X_eps at time edges k, sigma(t, x), jump count) of path i drawn
    from path_rng(master_seed, stream, i), for each of n_paths, whatever
    the workers and PATHS_PER_STACK; k ends with the last edge, t, where
    X_eps is X."""
    def block(_idx, rngs):
        out = np.empty((len(rngs), len(k) + 2))
        for i in range(0, len(rngs), PATHS_PER_STACK):
            # the previous stack stays referenced while this one is drawn:
            # freed first, its pages would fault back in for this one
            stack = sample_stack(spec, disc, rngs[i:i + PATHS_PER_STACK])
            parts = _parts(stack, k)
            rows = out[i:i + len(parts.value)]
            rows[:, :-2] = parts.value
            rows[:, -2] = parts.sigma_frozen[:, -1]
            rows[:, -1] = stack.record.counts
        return out

    raw = run_ensemble_blocks(n_paths, block, master_seed=master_seed,
                              stream=stream, workers=workers)
    return raw[:, :-2], raw[:, -2], raw[:, -1]


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


@dataclass
class DecayReport:
    fit: ScalingFit
    eps_grid: np.ndarray
    means: np.ndarray
    stderrs: np.ndarray
    exponents: ExponentBundle  # the (H4) conditions behind target_rate
    target_rate: float
    passed: bool             # None unless flag is "ok"
    flag: str
    discretization: AmbitDiscretization
    jumps_per_path: float    # mean recorded jump count
    seconds: dict            # wall time of the ensemble and exponent stages


def error_decay(spec, model, t, x, beta, eps_grid, n_paths, *,
                master_seed=0, workers=1, gamma=None, nt=64,
                nx=64) -> DecayReport:
    """Paired-coupling MC of E|X - X_eps|^beta against the lemma's rate
    beta (1/alpha + gammabar) - 1.

    passed and flag are montecarlo.decide's on "slope > rate"; a vanishing
    gap (constant coefficients) has no slope: None and "degenerate".
    """
    if not (0.0 < beta < model.alpha):
        raise ValueError("need 0 < beta < alpha")
    if n_paths < 2:
        raise ValueError("error_decay needs at least 2 paths for a standard "
                         "error")
    eps_grid = np.asarray(sorted(eps_grid), dtype=float)
    if eps_grid.size < 4 or eps_grid[0] <= 0 or eps_grid[-1] > t:
        raise ValueError("eps_grid must hold >= 4 values in (0, t]")
    disc = make_discretization(spec, model, t, x, eps_grid=eps_grid,
                               nt=nt, nx=nx)
    k = np.array([disc.cut_row(e) for e in eps_grid] + [-1])

    clock = time.perf_counter()
    # X_eps at the cut rows, then X at the last edge
    x_eps, _, jumps = _ensemble(spec, disc, k, n_paths,
                                master_seed=master_seed,
                                stream="ambit-decay", workers=workers)
    seconds = dict(ensemble=time.perf_counter() - clock)
    values = x_eps[:, -1:]
    abs_gaps = np.abs(values - x_eps[:, :-1])
    gaps = abs_gaps ** beta
    # 1 + |X| tells degenerate gaps (pure float rearrangement for constant
    # coefficients) apart
    degenerate = bool(np.all(abs_gaps < 1e-11 * (1.0 + np.abs(values))))
    means = gaps.mean(axis=0)
    stderrs = gaps.std(axis=0, ddof=1) / math.sqrt(n_paths)

    clock = time.perf_counter()
    bundle = exponent_conditions(spec, model, beta=beta, gamma=gamma)
    seconds["exponent_conditions"] = time.perf_counter() - clock
    target = beta * (1.0 / model.alpha + bundle.gammabar) - 1.0

    fit = ScalingFit(0.0, 0.0, 0.0, float("inf"), 0, "degenerate") \
        if degenerate else fit_scaling(eps_grid, means, stderrs)
    passed, flag = decide(fit, target)
    return DecayReport(fit, eps_grid, means, stderrs, bundle, target,
                       passed, flag, disc, float(jumps.mean()), seconds)


@dataclass
class DensitySample:
    """density_sample's draws of X(t, x), their weights |sigma(t, x)|^n
    (one number for deterministic coefficients) and the work behind them
    (run-log counters and the sampler's wall time)."""

    values: np.ndarray
    weights: object          # per-draw array, or one float for every draw
    discretization: AmbitDiscretization
    law: tuple               # levy.stable_law of the integral, or None
    jumps_per_draw: float    # mean jump count per path (None for the law)
    sampler_s: float


@dataclass(frozen=True)
class _Integrand:
    """(s, y) -> scale * 1_A g: X(t, x)'s integrand for sigma = scale."""

    spec: AmbitSpec
    t: float
    x: float
    scale: float

    def __call__(self, s, y):
        t, x = self.t, self.x
        return self.spec.ambit_set.indicator(t, x, s, y) \
            * self.spec.kernel_g(t, s, x, y) * self.scale

    def cell_masses(self, cells, p):
        """int int_cell |f|^p per cell (levy._cell_masses): the midpoint
        rule, but the power kernel's (t - s)^(-theta p) integrates exactly
        per row, ((t - s0)^q - (t - s1)^q) / q with q = 1 - theta p."""
        g, mid = self.spec.kernel_g, (cells.s_mid, cells.y_mid)
        if g.kind != "power":
            return np.abs(self(*mid)) ** p * cells.cell_vol
        q = 1.0 - g.theta * p
        lag = self.t - cells.time_edges
        with np.errstate(divide="ignore"):   # inf on the row ending at t
            rows = np.log(lag[:-1] / lag[1:]) if q == 0.0 \
                else (lag[:-1] ** q - lag[1:] ** q) / q
        masses = np.outer(rows, np.diff(cells.space_edges)).ravel()
        masses *= abs(g.value * self.scale) ** p
        inside = self.spec.ambit_set.indicator(self.t, self.x, *mid)
        return np.where(inside, masses, 0.0)


def density_sample(spec, model, t, x, n, n_paths, *, master_seed=0,
                   workers=1, nt=64, nx=64) -> DensitySample:
    """n_paths draws of X(t, x) with their weights |sigma(t, x)|^n, the
    sample besov.criterion_report judges.

    Deterministic coefficient fields make the stochastic integral exactly
    stable, drawn by one levy.sample_integral call on the "ambit-density"
    path_rng stream's first generator; random volatility runs the path
    ensemble over `workers` in stacks of PATHS_PER_STACK paths.  Either way
    the sample is the same for any worker count.
    """
    disc = make_discretization(spec, model, t, x, nt=nt, nx=nx)
    clock = time.perf_counter()
    if spec.sigma.is_constant and spec.b.is_constant:
        sig0 = spec.sigma.value
        f = _Integrand(spec, disc.t, disc.x, sig0)
        law = levy.stable_law(disc.box_model, f, disc.cells)
        values = levy.sample_integral(
            disc.box_model, f, path_rng(master_seed, "ambit-density", 0),
            n_draws=n_paths, cells=disc.cells)
        values += spec.x0    # x0 + X + drift, in place
        values += float(np.sum(disc.drift_cell * spec.b.value))
        weights = abs(sig0) ** n
        jumps = None
    else:
        # X and sigma(t, x): the last time edge is t
        x_t, sigma, jumps = _ensemble(spec, disc, [-1], n_paths,
                                      master_seed=master_seed,
                                      stream="ambit-density",
                                      workers=workers)
        values, weights = x_t[:, 0], np.abs(sigma) ** n
        law, jumps = None, float(jumps.mean())
    return DensitySample(values, weights, disc, law, jumps,
                         time.perf_counter() - clock)
