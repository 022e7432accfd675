"""Stable-like Lévy bases on a space-time box.

The Lévy measure family is the two-sided power law

    rho(dz) = c_plus 1_{z>0} z^(-alpha-1) dz + c_minus 1_{z<0} |z|^(-alpha-1) dz,

optionally modulated by a nonnegative control weight w(s, y) (the control
measure is w * Lebesgue on [0, T] x D).  The module provides

* the sharp assumption constants of the family (tail moments, truncated
  second moment, cosine lower bound) and their lattice re-verification,
* the dyadic moment-lemma bound with its explicit constant,
* simulation of X = int int f dL by compound-Poisson jumps above a
  truncation tau plus a variance-matched Gaussian for the sub-tau part
  (with an optional jump record so a second integrand can be evaluated
  against the *same* noise),
* the characteristic exponent RePsi by quadrature, and
* Fourier inversion of exp(-Psi) into a smoothed density with exact-grid
  derivative L1 norms.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy import integrate

__all__ = [
    "LevyBasisModel",
    "make_levy_model",
    "kappa_alpha",
    "normalization_mass",
    "AssumptionConstants",
    "assumption_constants",
    "AssumptionReport",
    "verify_assumptions",
    "moment_lemma_constant",
    "MomentLemmaReport",
    "moment_lemma_check",
    "CellGrid",
    "build_cells",
    "JumpRecord",
    "default_tau",
    "cell_factors",
    "sample_record",
    "sample_records",
    "sample_integral",
    "replay_integral",
    "CharacteristicExponent",
    "characteristic_exponent",
    "SmoothedDensity",
    "smoothed_density",
]


@dataclass(frozen=True)
class LevyBasisModel:
    """Stable-like basis: index alpha, one-sided weights, space-time box."""

    alpha: float
    c_plus: float
    c_minus: float
    T: float
    domain: tuple            # ((lo, hi),) * d
    weight: object = None    # control-measure weight w(s, y) -> >= 0
    weight_bound: float = 1.0
    tau: float = None        # small-jump truncation override

    @property
    def d(self):
        return len(self.domain)

    @property
    def c_sum(self):
        return self.c_plus + self.c_minus

    @property
    def c_diff(self):
        return self.c_plus - self.c_minus

    @property
    def symmetric(self):
        return self.c_plus == self.c_minus

    @property
    def box_volume(self):
        vol = self.T
        for lo, hi in self.domain:
            vol *= hi - lo
        return vol

    def weight_values(self, s, y):
        if self.weight is None:
            return np.ones_like(np.asarray(s, dtype=float))
        return np.asarray(self.weight(s, y), dtype=float)

    def levy_density(self, z):
        z = np.asarray(z, dtype=float)
        out = np.where(z > 0, self.c_plus, self.c_minus) \
            * np.abs(z) ** (-self.alpha - 1.0)
        return np.where(z == 0, np.inf, out)


def make_levy_model(alpha, c_plus=1.0, c_minus=1.0, *, T=1.0,
                    domain=((-1.0, 1.0),), weight=None, weight_bound=None,
                    tau=None, normalize=False) -> LevyBasisModel:
    if not (0.0 < alpha < 2.0):
        raise ValueError("alpha must lie in (0, 2)")
    if c_plus < 0 or c_minus < 0 or c_plus + c_minus == 0:
        raise ValueError("one-sided weights must be nonnegative, not both 0")
    if T <= 0:
        raise ValueError("T must be positive")
    domain = tuple((float(lo), float(hi)) for lo, hi in domain)
    if not domain or any(hi <= lo for lo, hi in domain):
        raise ValueError("domain axes must be nonempty intervals")
    if weight is not None:
        if weight_bound is None or weight_bound <= 0:
            raise ValueError("a positive weight_bound is required with a "
                             "weight function")
    if tau is not None and tau <= 0:
        raise ValueError("tau must be positive")
    if normalize:
        # unit-mass convention: int min(1, z^2) rho(dz) = 1
        z_mass = (c_plus + c_minus) * (1.0 / (2.0 - alpha) + 1.0 / alpha)
        c_plus, c_minus = c_plus / z_mass, c_minus / z_mass
    return LevyBasisModel(float(alpha), float(c_plus), float(c_minus),
                          float(T), domain, weight,
                          1.0 if weight_bound is None else float(weight_bound),
                          tau)


# ---------------------------------------------------------------------------
# assumption constants
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def kappa_alpha(alpha) -> float:
    """K_alpha = int_0^inf (1 - cos u) u^(-1-alpha) du.

    Head [0,1]: termwise integration of the cosine series (alternating,
    factorially convergent); tail: 1/alpha minus an oscillatory quadrature.
    """
    if not (0.0 < alpha < 2.0):
        raise ValueError("alpha must lie in (0, 2)")
    head = sum((-1.0) ** (k + 1) / (math.factorial(2 * k) * (2 * k - alpha))
               for k in range(1, 18))
    osc = integrate.quad(lambda u: u ** (-1.0 - alpha), 1.0, np.inf,
                         weight="cos", wvar=1.0)[0]
    return head + 1.0 / alpha - osc


def normalization_mass(model) -> float:
    """Quadrature of int min(1, z^2) rho(dz) (closed form exists; this is
    the independent check)."""
    a = model.alpha
    inner = integrate.quad(lambda z: z ** (1.0 - a), 0.0, 1.0)[0]
    outer = integrate.quad(lambda z: z ** (-1.0 - a), 1.0, np.inf)[0]
    return model.c_sum * (inner + outer)


@dataclass
class AssumptionConstants:
    """Sharp constants for the tail, small-jump and cosine inequalities."""

    alpha: float
    c_sum: float
    C_bar: float             # int_{|z|<=a} z^2 rho = C_bar a^(2-alpha)
    c_lower: float           # inf RePsi_rho(xi)/|xi|^alpha over [r, 100r]
    r: float
    kappa: float             # K_alpha

    def C_beta(self, beta) -> float:
        """Tail constant: int_{|z|>a} |z|^beta rho = C_beta a^(beta-alpha)."""
        if beta >= self.alpha:
            raise ValueError("tail moment requires beta < alpha")
        return self.c_sum / (self.alpha - beta)

    def C_tilde(self, beta) -> float:
        """max(C_bar, C_beta + C_1) with C_1 := 0 when alpha <= 1 (the
        linear-compensator ingredient is vacuous there)."""
        c1 = self.C_beta(1.0) if self.alpha > 1.0 else 0.0
        return max(self.C_bar, self.C_beta(beta) + c1)


def _cosine_ratio(model, xi) -> float:
    """RePsi_rho(xi) / |xi|^alpha for a point mass integrand, by quadrature."""
    a = model.alpha

    def head(z):
        return (1.0 - math.cos(xi * z)) * z ** (-1.0 - a)

    with warnings.catch_warnings():
        # tolerance sits below quad's roundoff floor at large xi on purpose;
        # the returned best value is accurate enough for the 1e-7 checks
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        h = integrate.quad(head, 0.0, 1.0 / xi, epsabs=1e-13,
                           epsrel=1e-12)[0]
    osc = integrate.quad(lambda z: z ** (-1.0 - a), 1.0 / xi, np.inf,
                         weight="cos", wvar=xi)[0]
    flat = (1.0 / xi) ** (-a) / a
    return model.c_sum * (h + flat - osc) / xi ** a


def assumption_constants(model, r=1.0, n_lattice=16) -> AssumptionConstants:
    a = model.alpha
    ratios = [_cosine_ratio(model, xi)
              for xi in np.geomspace(r, 100.0 * r, n_lattice)]
    return AssumptionConstants(
        alpha=a, c_sum=model.c_sum, C_bar=model.c_sum / (2.0 - a),
        c_lower=float(min(ratios)), r=float(r), kappa=kappa_alpha(a))


@dataclass
class AssumptionReport:
    constants: AssumptionConstants
    tail_violation: float
    small_jump_violation: float
    cosine_violation: float
    passed: bool


def verify_assumptions(model, *, a_grid=None, betas=None, xi_grid=None,
                       rtol=1e-8) -> AssumptionReport:
    """Re-verify the three assumption inequalities on an (a, beta, xi)
    lattice at quadrature precision.  Violations are signed relative
    errors (positive = inequality broken)."""
    consts = assumption_constants(model)
    a = model.alpha
    if a_grid is None:
        a_grid = np.geomspace(0.01, 10.0, 7)
    if betas is None:
        betas = [b for b in (0.0, 0.25 * a, 0.5 * a, 0.9 * a)]
    if xi_grid is None:
        xi_grid = np.geomspace(consts.r, 100.0 * consts.r, 9)

    tail_v = -np.inf
    for beta in betas:
        for av in a_grid:
            integral = model.c_sum * integrate.quad(
                lambda z: z ** (beta - a - 1.0), av, np.inf)[0]
            bound = consts.C_beta(beta) * av ** (beta - a)
            tail_v = max(tail_v, (integral - bound) / bound)
    small_v = -np.inf
    for av in a_grid:
        integral = model.c_sum * integrate.quad(
            lambda z: z ** (1.0 - a), 0.0, av)[0]
        bound = consts.C_bar * av ** (2.0 - a)
        small_v = max(small_v, (integral - bound) / bound)
    cos_v = -np.inf
    for xi in xi_grid:
        ratio = _cosine_ratio(model, xi)
        cos_v = max(cos_v, (consts.c_lower - ratio) / consts.c_lower)
    passed = max(tail_v, small_v, cos_v) <= rtol
    return AssumptionReport(consts, float(tail_v), float(small_v),
                            float(cos_v), bool(passed))


# ---------------------------------------------------------------------------
# moment lemma
# ---------------------------------------------------------------------------


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


def moment_lemma_check(model, gamma, a_grid=None) -> MomentLemmaReport:
    """Quadrature of int_{|z|<=a} |z|^gamma rho against the dyadic bound
    C_{gamma,alpha} * C_bar * a^(gamma-alpha)."""
    a = model.alpha
    if not (a < gamma <= 2.0):
        raise ValueError("moment lemma needs alpha < gamma <= 2")
    if a_grid is None:
        a_grid = np.geomspace(1e-3, 1.0, 20)
    a_grid = np.asarray(a_grid, dtype=float)
    const = moment_lemma_constant(gamma, a)
    c_bar = model.c_sum / (2.0 - a)
    integrals = np.array([
        model.c_sum * integrate.quad(lambda z: z ** (gamma - a - 1.0),
                                     0.0, av)[0]
        for av in a_grid])
    bounds = const * c_bar * a_grid ** (gamma - a)
    viol = float(np.max(integrals - bounds))
    return MomentLemmaReport(float(gamma), a, const, a_grid, integrals,
                             bounds, viol,
                             bool(viol <= 1e-9 * float(np.max(bounds))))


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


@dataclass
class CellGrid:
    """Midpoint partition of the box, used for the sub-tau Gaussian field,
    compensators and all outer quadratures."""

    time_edges: np.ndarray
    space_edges: list
    s_mid: np.ndarray        # (n_cells,)
    y_mid: np.ndarray        # (n_cells, d)
    cell_vol: np.ndarray     # (n_cells,)
    weights: np.ndarray      # control weight at midpoints

    @property
    def n_cells(self):
        return self.s_mid.size

    def quadrature(self, values):
        """Midpoint quadrature of a per-cell sample against w * lambda."""
        return float(np.sum(values * self.weights * self.cell_vol))


def build_cells(model, nt=32, nx=32, extra_time_edges=()) -> CellGrid:
    t_edges = np.linspace(0.0, model.T, nt + 1)
    if len(extra_time_edges):
        t_edges = np.unique(np.concatenate(
            [t_edges, np.asarray(extra_time_edges, dtype=float)]))
        if t_edges[0] < -1e-12 or t_edges[-1] > model.T + 1e-12:
            raise ValueError("extra time edges outside [0, T]")
    space_edges = [np.linspace(lo, hi, nx + 1) for lo, hi in model.domain]
    s_mid_1d = 0.5 * (t_edges[:-1] + t_edges[1:])
    mids = [0.5 * (e[:-1] + e[1:]) for e in space_edges]
    mesh = np.meshgrid(s_mid_1d, *mids, indexing="ij")
    s_mid = mesh[0].ravel()
    y_mid = np.stack([m.ravel() for m in mesh[1:]], axis=-1)
    dt = np.diff(t_edges)
    widths = np.ones(1)
    for e in space_edges:
        widths = np.outer(widths, np.diff(e)).ravel()
    cell_vol = np.outer(dt, widths).ravel()
    w = model.weight_values(s_mid, y_mid)
    if np.any(w < 0) or np.any(w > model.weight_bound * (1 + 1e-9)):
        raise ValueError("control weight escapes [0, weight_bound]")
    return CellGrid(t_edges, space_edges, s_mid, y_mid, cell_vol, w)


def default_tau(model, target_var_error=1e-2) -> float:
    """tau = (target variance error)^(1/(2-alpha)); the Gaussian that
    replaces the sub-tau jumps then has variance C_bar * err * int w f^2."""
    if model.tau is not None:
        return model.tau
    return float(target_var_error) ** (1.0 / (2.0 - model.alpha))


def _compensator_k(alpha, tau) -> float:
    # int_tau^1 z^(-alpha) dz, signed (negative when tau > 1)
    if alpha == 1.0:
        return -math.log(tau)
    return (1.0 - tau ** (1.0 - alpha)) / (1.0 - alpha)


@dataclass
class JumpRecord:
    """Every random input of sampled integrals (sample_integral,
    sample_record or sample_records), replayable against a different
    integrand (shared-noise coupling)."""

    tau: float
    cells: CellGrid
    counts: np.ndarray       # (n_draws,) jump counts
    s: np.ndarray            # (total_jumps,)
    y: np.ndarray            # (total_jumps, d)
    z: np.ndarray            # (total_jumps,) signed jump sizes
    cell_normals: np.ndarray  # (n_draws, n_cells)
    n_draws: int

    def erase_after(self, t_cut):
        """Record with all jumps in (t_cut, T] removed and slab cell
        normals zeroed — the sigma-algebra-up-to-t_cut surrogate."""
        keep = self.s <= t_cut + 1e-12
        normals = self.cell_normals.copy()
        normals[:, self.cells.s_mid > t_cut] = 0.0
        counts = np.zeros_like(self.counts)
        did = np.repeat(np.arange(self.n_draws), self.counts)
        np.add.at(counts, did[keep], 1)
        return JumpRecord(self.tau, self.cells, counts, self.s[keep],
                          self.y[keep], self.z[keep], normals, self.n_draws)


def cell_factors(model, tau, cells):
    """Per-cell (sd, compensator) of a sampled integral: over the cells,
    int int f dL is sum f(mid) * (normal * sd - compensator) plus the jumps.

    sd matches the truncated second moment of the sub-tau jumps; the
    compensator is the mean of the simulated (tau, 1] jumps.
    """
    sigma2 = model.c_sum * tau ** (2.0 - model.alpha) / (2.0 - model.alpha)
    sd = np.sqrt(sigma2 * cells.weights * cells.cell_vol)
    comp = model.c_diff * _compensator_k(model.alpha, tau) * cells.weights \
        * cells.cell_vol
    return sd, comp


def _record_values(model, record, f, f_mid=None):
    """Evaluate int int f dL for the noise captured in the record."""
    f_jump = np.asarray(f(record.s, record.y), dtype=float) \
        if record.s.size else np.zeros(0)
    did = np.repeat(np.arange(record.n_draws), record.counts)
    jump_part = np.bincount(did, weights=f_jump * record.z,
                            minlength=record.n_draws)
    if f_mid is None:
        f_mid = np.asarray(f(record.cells.s_mid, record.cells.y_mid),
                           dtype=float)
    # signed coefficient f(mid) * sd(cell): linear in f, so replaying a
    # different integrand against the same normals couples pathwise
    sd = cell_factors(model, record.tau, record.cells)[0]
    gauss_part = record.cell_normals @ (f_mid * sd)
    comp = model.c_diff * _compensator_k(model.alpha, record.tau) \
        * record.cells.quadrature(f_mid)
    return jump_part + gauss_part - comp


def replay_integral(model, record, f):
    """int int f dL against the exact noise of a recorded call."""
    return _record_values(model, record, f)


def _check_integrand(model, cells, f_mid, tau, max_expected_jumps):
    """Sampler preconditions on the cell values of f (one integrand per row
    of a stack (..., n_cells)); returns the expected jump count per draw."""
    if tau <= 0 or not np.isfinite(tau):
        raise ValueError("tau must be positive and finite")
    alpha = model.alpha
    if not np.all(np.isfinite(f_mid)):
        raise ValueError("integrand not finite on the cell lattice")
    # eq-style integrability audit: int int |f|^alpha dlambda must be finite
    if not np.all(np.isfinite(np.sum(np.abs(f_mid) ** alpha * cells.weights
                                     * cells.cell_vol, axis=-1))):
        raise ValueError("integrand fails the |f|^alpha integrability check")

    rate_bound = model.box_volume * model.weight_bound * model.c_sum \
        * tau ** (-alpha) / alpha
    if not np.isfinite(rate_bound) or rate_bound > max_expected_jumps:
        raise ValueError(
            f"expected jump count {rate_bound:.3g} per draw exceeds the "
            f"resolution budget {max_expected_jumps:.3g}; raise tau")
    return rate_bound


def _jump_chunks(model, rng, n, rate_bound, tau):
    """The compound-Poisson jumps above tau of n draws, in chunks of about
    2e6 expected jumps.  Per chunk the draws come in a fixed order: counts,
    times, positions, thinning uniforms (weighted models only), signs and
    Pareto magnitudes; a caller drawing more for the chunk (cell normals)
    does so before asking for the next one.  Yields (start, nb, did, s, y,
    keep, z), did being the draw index of each jump."""
    lo = np.array([iv[0] for iv in model.domain])
    hi = np.array([iv[1] for iv in model.domain])
    chunk = max(1, int(2e6 / max(rate_bound, 1.0)))
    for start in range(0, n, chunk):
        nb = min(chunk, n - start)
        counts = rng.poisson(rate_bound, nb)
        tot = int(counts.sum())
        s = rng.uniform(0.0, model.T, tot)
        y = rng.uniform(lo, hi, (tot, model.d))
        if model.weight is not None:
            keep = rng.uniform(0.0, 1.0, tot) * model.weight_bound \
                <= model.weight_values(s, y)
        else:
            keep = np.ones(tot, dtype=bool)
        sign = np.where(rng.uniform(0.0, 1.0, tot) * model.c_sum
                        < model.c_plus, 1.0, -1.0)
        mag = tau * rng.uniform(0.0, 1.0, tot) ** (-1.0 / model.alpha)
        did = np.repeat(np.arange(nb), counts)
        yield start, nb, did, s, y, keep, sign * mag


def sample_record(model, f_mid, rng, *, tau, cells, n_draws=1,
                  max_expected_jumps=250_000.0) -> JumpRecord:
    """The noise of n_draws integrals against an integrand known by its
    cell-midpoint values f_mid, drawn as sample_integral(return_record=True)
    draws it and checked as it checks f; the caller evaluates the integral
    from the record."""
    n = int(n_draws)
    if n <= 0:
        raise ValueError("n_draws must be positive")
    rate_bound = _check_integrand(model, cells, f_mid, tau,
                                  max_expected_jumps)
    chunks = []
    for _start, nb, did, s, y, keep, z in _jump_chunks(model, rng, n,
                                                       rate_bound, tau):
        normals = rng.standard_normal((nb, cells.n_cells))
        chunks.append((np.bincount(did[keep], minlength=nb), s[keep],
                       y[keep], z[keep], normals))
        # free this chunk before _jump_chunks draws the next one
        del did, s, y, keep, z
    return JumpRecord(
        tau=float(tau), cells=cells,
        counts=np.concatenate([c[0] for c in chunks]),
        s=np.concatenate([c[1] for c in chunks]),
        y=np.concatenate([c[2] for c in chunks]),
        z=np.concatenate([c[3] for c in chunks]),
        cell_normals=np.concatenate([c[4] for c in chunks]),
        n_draws=n)


def sample_records(model, f_mid, rngs, *, tau, cells,
                   max_expected_jumps=250_000.0) -> JumpRecord:
    """One draw per generator, stacked as one record of len(rngs) draws.

    Draw i is the record sample_record(model, f_mid[i], rngs[i]) returns:
    the same checks, and per generator the same calls in the same order
    (count, times, positions, thinning uniforms, sign and magnitude
    uniforms, cell normals).  So a draw never depends on the draws stacked
    with it; only the arithmetic on the drawn numbers runs once per stack.
    """
    if np.shape(f_mid) != (len(rngs), cells.n_cells):
        raise ValueError("need one row of cell values per generator")
    rate_bound = _check_integrand(model, cells, f_mid, tau,
                                  max_expected_jumps)
    lo = np.array([iv[0] for iv in model.domain])
    hi = np.array([iv[1] for iv in model.domain])
    weighted = model.weight is not None
    counts = np.empty(len(rngs), dtype=np.int64)
    normals = np.empty((len(rngs), cells.n_cells))
    s, y, thin, u_sign, u_mag = [], [], [], [], []
    for i, rng in enumerate(rngs):
        tot = counts[i] = rng.poisson(rate_bound, 1)[0]
        s.append(rng.uniform(0.0, model.T, tot))
        y.append(rng.uniform(lo, hi, (tot, model.d)))
        if weighted:
            thin.append(rng.uniform(0.0, 1.0, tot))
        u_sign.append(rng.uniform(0.0, 1.0, tot))
        u_mag.append(rng.uniform(0.0, 1.0, tot))
        rng.standard_normal(out=normals[i])
    s, y = np.concatenate(s), np.concatenate(y)
    sign = np.where(np.concatenate(u_sign) * model.c_sum < model.c_plus,
                    1.0, -1.0)
    z = sign * (tau * np.concatenate(u_mag) ** (-1.0 / model.alpha))
    if weighted:
        keep = np.concatenate(thin) * model.weight_bound \
            <= model.weight_values(s, y)
        did = np.repeat(np.arange(len(rngs)), counts)
        counts = np.bincount(did[keep], minlength=len(rngs))
        s, y, z = s[keep], y[keep], z[keep]
    return JumpRecord(tau=float(tau), cells=cells, counts=counts, s=s, y=y,
                      z=z, cell_normals=normals, n_draws=len(rngs))


def sample_integral(model, f, rng, *, n_draws=None, tau=None,
                    target_var_error=1e-2, cells=None, nt=32, nx=32,
                    return_record=False, max_expected_jumps=250_000.0):
    """Simulate X = int_0^T int_D f(s, y) L(ds, dy).

    Jumps with |z| > tau come from a compound-Poisson sampler (Pareto
    magnitudes, thinned by the control weight); jumps below tau are
    replaced by a centred per-cell Gaussian matching the truncated second
    moment; the raw simulation of (tau, 1] jumps is compensated per the
    1_{[-1,1]} truncation convention of the characteristic exponent.
    """
    scalar = n_draws is None
    n = 1 if scalar else int(n_draws)
    if n <= 0:
        raise ValueError("n_draws must be positive")
    if cells is None:
        cells = build_cells(model, nt=nt, nx=nx)
    if tau is None:
        tau = default_tau(model, target_var_error)
    alpha = model.alpha

    f_mid = np.asarray(f(cells.s_mid, cells.y_mid), dtype=float)
    if return_record:
        record = sample_record(model, f_mid, rng, tau=tau, cells=cells,
                               n_draws=n,
                               max_expected_jumps=max_expected_jumps)
        # computing the values through the record guarantees that a replay
        # against the same integrand is bit-identical
        values = _record_values(model, record, f, f_mid)
        return (values[0] if scalar else values), record
    rate_bound = _check_integrand(model, cells, f_mid, tau,
                                  max_expected_jumps)

    values = np.empty(n)
    total_sd = None
    comp = model.c_diff * _compensator_k(alpha, tau) * cells.quadrature(f_mid)

    for start, nb, did, s, y, keep, z in _jump_chunks(model, rng, n,
                                                      rate_bound, tau):
        z = np.where(keep, z, 0.0)
        f_jump = np.asarray(f(s, y), dtype=float) if s.size \
            else np.zeros(0)
        jump_part = np.bincount(did, weights=f_jump * z, minlength=nb)
        if total_sd is None:
            sigma2 = model.c_sum * tau ** (2.0 - alpha) / (2.0 - alpha)
            total_sd = math.sqrt(float(np.sum(
                sigma2 * cells.weights * f_mid ** 2 * cells.cell_vol)))
        gauss_part = total_sd * rng.standard_normal(nb)
        values[start:start + nb] = jump_part + gauss_part - comp
        # free this chunk before _jump_chunks draws the next one
        del did, s, y, keep, z, f_jump

    return values[0] if scalar else values


# ---------------------------------------------------------------------------
# characteristic exponent and density
# ---------------------------------------------------------------------------


@dataclass
class CharacteristicExponent:
    xi_grid: np.ndarray
    values: np.ndarray           # RePsi(xi)
    alpha: float
    alpha_coefficient: float     # A with RePsi = A |xi|^alpha (stable family)

    def __call__(self, xi):
        return self.alpha_coefficient * np.abs(xi) ** self.alpha


def characteristic_exponent(model, f, xi_grid, *, cells=None, nt=64,
                            nx=64) -> CharacteristicExponent:
    """RePsi_X(xi) for X = int int f dL.

    The inner integral over the stable measure is closed-form,
    int (1 - cos(xi z u)) rho(dz) = c_sum K_alpha |xi u|^alpha, so the
    exponent reduces to A |xi|^alpha with A = K_alpha int int c_sum w
    |f|^alpha; the outer integral is midpoint quadrature on the cell grid.
    """
    if cells is None:
        cells = build_cells(model, nt=nt, nx=nx)
    xi_grid = np.asarray(xi_grid, dtype=float)
    a = model.alpha
    f_mid = np.asarray(f(cells.s_mid, cells.y_mid), dtype=float)
    A = model.c_sum * kappa_alpha(a) \
        * cells.quadrature(np.abs(f_mid) ** a)
    if not np.isfinite(A):
        raise ValueError("characteristic exponent quadrature diverged")
    values = A * np.abs(xi_grid) ** a
    return CharacteristicExponent(xi_grid, values, a, float(A))


@dataclass
class SmoothedDensity:
    """Fourier-inverted density of a symmetric infinitely divisible law."""

    x: np.ndarray
    p: np.ndarray
    alpha: float
    coefficient: float        # RePsi = A |xi|^alpha
    xi_extent: float
    mass: float
    eps: float = None
    _dxi: float = field(default=0.0, repr=False)
    _xi: np.ndarray = field(default=None, repr=False)
    _phi: np.ndarray = field(default=None, repr=False)

    def density_at(self, x):
        return np.interp(x, self.x, self.p)

    def derivative_l1(self, n) -> float:
        """L1 norm of the n-th derivative (spectral differentiation)."""
        if n < 0:
            raise ValueError("n must be nonnegative")
        if n == 0:
            return float(np.trapezoid(np.abs(self.p), self.x))
        spec = (-1j * self._xi) ** n * self._phi
        deriv = np.fft.fftshift(
            np.fft.fft(np.fft.ifftshift(spec))).real * self._dxi / (2 * np.pi)
        return float(np.trapezoid(np.abs(deriv), self.x))


def smoothed_density(model, f, *, cells=None, nt=64, nx=64,
                     grid_size=2 ** 18, xi_factor=6.0,
                     eps=None) -> SmoothedDensity:
    """Invert exp(-Psi) for X = int int f dL (symmetric models only).

    The xi-extent is set where RePsi >= 27.6 (exp(-27.6) < 1e-12) times
    xi_factor oversampling.
    """
    if not model.symmetric:
        raise ValueError("density inversion implemented for symmetric "
                         "bases only (ImPsi == 0)")
    ce = characteristic_exponent(model, f, np.geomspace(1.0, 100.0, 12),
                                 cells=cells, nt=nt, nx=nx)
    if ce.alpha_coefficient <= 0:
        raise ValueError("degenerate integrand: RePsi vanishes")
    A = ce.alpha_coefficient
    xi_nat = (27.6 / A) ** (1.0 / model.alpha)
    xi_max = xi_factor * xi_nat
    M = int(grid_size)
    dxi = 2.0 * xi_max / M
    xi = (np.arange(M) - M // 2) * dxi
    phi = np.exp(-A * np.abs(xi) ** model.alpha)
    p = np.fft.fftshift(np.fft.fft(np.fft.ifftshift(phi))).real \
        * dxi / (2.0 * np.pi)
    dx = 2.0 * np.pi / (M * dxi)
    x = (np.arange(M) - M // 2) * dx
    mass = float(np.trapezoid(p, x))
    if p.min() < -1e-8:
        raise ValueError(f"inversion produced negativity {p.min():.3e}")
    if abs(mass - 1.0) > 1e-6:
        raise ValueError(f"inversion mass {mass!r} deviates from 1")
    return SmoothedDensity(x=x, p=p, alpha=model.alpha, coefficient=A,
                           xi_extent=xi_max, mass=mass, eps=eps,
                           _dxi=dxi, _xi=xi, _phi=phi)
