"""Stable-like Lévy bases on a 1-d space-time box, Lebesgue control.

The Lévy measure family is the two-sided power law

    rho(dz) = c_plus 1_{z>0} z^(-alpha-1) dz + c_minus 1_{z<0} |z|^(-alpha-1) dz,

and the control measure is Lebesgue measure on the box [0, T] x [lo, hi].
The module provides

* the sharp assumption constants of the family (tail moments, truncated
  second moment, cosine lower bound) and their lattice re-verification,
* the dyadic moment-lemma bound with its explicit constant,
* simulation of X = int int f dL by compound-Poisson jumps above a
  truncation tau plus a variance-matched Gaussian for the sub-tau part
  (sample_integral), and of jump records (sample_records) that replay a
  second integrand against the *same* noise (replay_integral), and
* the characteristic exponent RePsi by quadrature.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
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
    "sample_records",
    "sample_integral",
    "replay_integral",
    "CharacteristicExponent",
    "characteristic_exponent",
]


@dataclass(frozen=True)
class LevyBasisModel:
    """Stable-like basis: index alpha, one-sided weights, and the box
    [0, T] x [lo, hi] with Lebesgue control."""

    alpha: float
    c_plus: float
    c_minus: float
    T: float
    domain: tuple            # (lo, hi)
    tau: float = None        # small-jump truncation override

    @property
    def c_sum(self):
        return self.c_plus + self.c_minus

    @property
    def c_diff(self):
        return self.c_plus - self.c_minus

    @property
    def box_volume(self):
        lo, hi = self.domain
        return self.T * (hi - lo)


def make_levy_model(alpha, c_plus=1.0, c_minus=1.0, *, T=1.0,
                    domain=(-1.0, 1.0), tau=None,
                    normalize=False) -> LevyBasisModel:
    if not (0.0 < alpha < 2.0):
        raise ValueError("alpha must lie in (0, 2)")
    if c_plus < 0 or c_minus < 0 or c_plus + c_minus == 0:
        raise ValueError("one-sided weights must be nonnegative, not both 0")
    if T <= 0:
        raise ValueError("T must be positive")
    try:
        lo, hi = map(float, domain)
    except (TypeError, ValueError):
        raise ValueError("domain must be one interval (lo, hi)") from None
    if not -math.inf < lo < hi < math.inf:
        raise ValueError("domain must be a finite interval lo < hi")
    if tau is not None and tau <= 0:
        raise ValueError("tau must be positive")
    if normalize:
        # unit-mass convention: int min(1, z^2) rho(dz) = 1
        z_mass = (c_plus + c_minus) * (1.0 / (2.0 - alpha) + 1.0 / alpha)
        c_plus, c_minus = c_plus / z_mass, c_minus / z_mass
    return LevyBasisModel(float(alpha), float(c_plus), float(c_minus),
                          float(T), (lo, hi), tau)


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
    space_edges: np.ndarray
    s_mid: np.ndarray        # (n_cells,), time-major
    y_mid: np.ndarray        # (n_cells,)
    cell_vol: np.ndarray     # (n_cells,)

    @property
    def n_cells(self):
        return self.s_mid.size

    def quadrature(self, values):
        """Midpoint quadrature of a per-cell sample against Lebesgue."""
        return float(np.sum(values * self.cell_vol))


def build_cells(model, nt=32, nx=32, extra_time_edges=()) -> CellGrid:
    t_edges = np.linspace(0.0, model.T, nt + 1)
    if len(extra_time_edges):
        t_edges = np.unique(np.concatenate(
            [t_edges, np.asarray(extra_time_edges, dtype=float)]))
        if t_edges[0] < -1e-12 or t_edges[-1] > model.T + 1e-12:
            raise ValueError("extra time edges outside [0, T]")
    space_edges = np.linspace(*model.domain, nx + 1)
    s_mid, y_mid = (m.ravel() for m in np.meshgrid(
        0.5 * (t_edges[:-1] + t_edges[1:]),
        0.5 * (space_edges[:-1] + space_edges[1:]), indexing="ij"))
    cell_vol = np.outer(np.diff(t_edges), np.diff(space_edges)).ravel()
    return CellGrid(t_edges, space_edges, s_mid, y_mid, cell_vol)


def default_tau(model) -> float:
    """The model's tau, else tau = err^(1/(2-alpha)) for the target variance
    error err = 1e-2; the Gaussian that replaces the sub-tau jumps then has
    variance C_bar * err * int f^2."""
    if model.tau is not None:
        return model.tau
    return 1e-2 ** (1.0 / (2.0 - model.alpha))


def _compensator_k(alpha, tau) -> float:
    # int_tau^1 z^(-alpha) dz, signed (negative when tau > 1)
    if alpha == 1.0:
        return -math.log(tau)
    return (1.0 - tau ** (1.0 - alpha)) / (1.0 - alpha)


@dataclass
class JumpRecord:
    """Every random input of the integrals sample_records draws (one draw
    per generator), replayable against any integrand (shared-noise
    coupling)."""

    tau: float
    cells: CellGrid
    counts: np.ndarray       # (n_draws,) jump counts
    s: np.ndarray            # (total_jumps,)
    y: np.ndarray            # (total_jumps,)
    z: np.ndarray            # (total_jumps,) signed jump sizes
    cell_normals: np.ndarray  # (n_draws, n_cells)

    def erase_after(self, t_cut):
        """Record with all jumps in (t_cut, T] removed and slab cell
        normals zeroed — the sigma-algebra-up-to-t_cut surrogate."""
        keep = self.s <= t_cut + 1e-12
        normals = self.cell_normals.copy()
        normals[:, self.cells.s_mid > t_cut] = 0.0
        counts = np.zeros_like(self.counts)
        did = np.repeat(np.arange(counts.size), self.counts)
        np.add.at(counts, did[keep], 1)
        return JumpRecord(self.tau, self.cells, counts, self.s[keep],
                          self.y[keep], self.z[keep], normals)


def cell_factors(model, tau, cells):
    """Per-cell (sd, compensator) of a sampled integral: over the cells,
    int int f dL is sum f(mid) * (normal * sd - compensator) plus the jumps.

    sd matches the truncated second moment of the sub-tau jumps; the
    compensator is the mean of the simulated (tau, 1] jumps.
    """
    sigma2 = model.c_sum * tau ** (2.0 - model.alpha) / (2.0 - model.alpha)
    sd = np.sqrt(sigma2 * cells.cell_vol)
    comp = model.c_diff * _compensator_k(model.alpha, tau) * cells.cell_vol
    return sd, comp


def replay_integral(model, record, f):
    """int int f dL against the exact noise of a recorded call."""
    f_jump = np.asarray(f(record.s, record.y), dtype=float) \
        if record.s.size else np.zeros(0)
    n = record.counts.size
    did = np.repeat(np.arange(n), record.counts)
    jump_part = np.bincount(did, weights=f_jump * record.z, minlength=n)
    f_mid = np.asarray(f(record.cells.s_mid, record.cells.y_mid), dtype=float)
    # signed coefficient f(mid) * sd(cell): linear in f, so replaying a
    # different integrand against the same normals couples pathwise
    sd = cell_factors(model, record.tau, record.cells)[0]
    gauss_part = record.cell_normals @ (f_mid * sd)
    comp = model.c_diff * _compensator_k(model.alpha, record.tau) \
        * record.cells.quadrature(f_mid)
    return jump_part + gauss_part - comp


def _check_integrand(model, cells, f_mid, tau, max_expected_jumps):
    """Sampler preconditions on the cell values of f (one integrand per row
    of a stack (..., n_cells)); returns the expected jump count per draw."""
    if tau <= 0 or not np.isfinite(tau):
        raise ValueError("tau must be positive and finite")
    alpha = model.alpha
    if not np.all(np.isfinite(f_mid)):
        raise ValueError("integrand not finite on the cell lattice")
    # eq-style integrability audit: int int |f|^alpha dlambda must be finite
    if not np.all(np.isfinite(np.sum(np.abs(f_mid) ** alpha * cells.cell_vol,
                                     axis=-1))):
        raise ValueError("integrand fails the |f|^alpha integrability check")

    rate_bound = model.box_volume * model.c_sum * tau ** (-alpha) / alpha
    if not np.isfinite(rate_bound) or rate_bound > max_expected_jumps:
        raise ValueError(
            f"expected jump count {rate_bound:.3g} per draw exceeds the "
            f"resolution budget {max_expected_jumps:.3g}; raise tau")
    return rate_bound


# Uniform blocks of the jump stream, one uniform per jump each, in stream
# order: times, positions, signs and magnitudes.
_BLOCKS = 4

# Expected jumps per chunk of sample_integral's draws.  A chunk peaks at
# about 40 bytes per jump, some 10 MB, on each thread.  Measured on the
# ambit-density benchmark: wall time is flat from 1.25e5 to 5e5, and peak
# RSS grows with the chunk while page faults are fewest near 2.5e5.
_JUMPS_PER_CHUNK = 250_000.0


def _map_jumps(model, tau, u):
    """Times, positions and signed sizes of the jumps whose _BLOCKS uniform
    blocks are the rows of u, in stream order.  Each block is mapped in
    place as uniform() maps doubles (lo + (hi - lo) * u); sizes are
    +-tau * u**(-1/alpha), negative where the sign uniform falls past
    c_plus / c_sum."""
    s, y, negative, z = u
    s *= model.T
    lo, hi = model.domain
    y *= hi - lo
    y += lo
    negative *= model.c_sum
    negative = negative >= model.c_plus
    z **= -1.0 / model.alpha
    np.multiply(tau, z, out=z)
    return s, y, np.negative(z, out=z, where=negative)


def sample_records(model, f_mid, rngs, *, tau, cells,
                   max_expected_jumps=250_000.0) -> JumpRecord:
    """The noise of one integral per generator against integrands known
    by their cell-midpoint values (row i of f_mid for rngs[i]), checked as
    sample_integral checks f and stacked as one record of len(rngs) draws.

    Generator i draws poisson(rate_bound, 1) for its jump count tot, then
    one random((_BLOCKS, tot)), a row per block, then
    standard_normal(n_cells) for its cell normals.  So a draw never depends
    on the draws stacked with it; only the arithmetic on the drawn numbers
    runs once per stack.
    """
    if np.shape(f_mid) != (len(rngs), cells.n_cells):
        raise ValueError("need one row of cell values per generator")
    rate_bound = _check_integrand(model, cells, f_mid, tau,
                                  max_expected_jumps)
    counts = np.empty(len(rngs), dtype=np.int64)
    normals = np.empty((len(rngs), cells.n_cells))
    drawn = []
    for i, rng in enumerate(rngs):
        tot = counts[i] = rng.poisson(rate_bound, 1)[0]
        drawn.append(rng.random((_BLOCKS, tot)))
        rng.standard_normal(out=normals[i])
    s, y, z = _map_jumps(model, tau, np.concatenate(drawn, axis=1))
    return JumpRecord(tau=float(tau), cells=cells, counts=counts, s=s, y=y,
                      z=z, cell_normals=normals)


def sample_integral(model, f, rng, *, n_draws=None, tau=None, cells=None,
                    nt=32, nx=32, max_expected_jumps=250_000.0, workers=1,
                    tally=None):
    """Simulate X = int_0^T int_D f(s, y) L(ds, dy).

    Jumps with |z| > tau come from a compound-Poisson sampler (uniform
    times and positions on the box, Pareto magnitudes); jumps below tau are
    replaced by a centred per-cell Gaussian matching the truncated second
    moment; the raw simulation of (tau, 1] jumps is compensated per the
    1_{[-1,1]} truncation convention of the characteristic exponent.

    The draws come in chunks of about _JUMPS_PER_CHUNK expected jumps, so
    the chunk count depends on n_draws and the jump rate only.  Chunk c
    draws from its own generator rng.spawn(n_chunks)[c] and rng itself
    draws nothing; each call spawns new children, so two calls on one rng
    give independent values.  The `workers` threads draw whole chunks, so
    the values are the same for any count.  A dict passed as tally
    receives the work done: chunks and jumps (over all draws).
    """
    scalar = n_draws is None
    n = 1 if scalar else int(n_draws)
    if n <= 0:
        raise ValueError("n_draws must be positive")
    if int(workers) != workers or workers < 1:
        raise ValueError("workers must be a positive integer")
    if cells is None:
        cells = build_cells(model, nt=nt, nx=nx)
    if tau is None:
        tau = default_tau(model)
    alpha = model.alpha

    f_mid = np.asarray(f(cells.s_mid, cells.y_mid), dtype=float)
    rate_bound = _check_integrand(model, cells, f_mid, tau,
                                  max_expected_jumps)

    values = np.empty(n)
    sigma2 = model.c_sum * tau ** (2.0 - alpha) / (2.0 - alpha)
    total_sd = math.sqrt(float(np.sum(sigma2 * f_mid ** 2 * cells.cell_vol)))
    comp = model.c_diff * _compensator_k(alpha, tau) * cells.quadrature(f_mid)

    size = max(1, int(_JUMPS_PER_CHUNK / max(rate_bound, 1.0)))
    starts = range(0, n, size)
    rngs = rng.spawn(len(starts))

    def chunk(start, chunk_rng):
        # poisson(rate_bound, nb) for the counts, then one
        # random((_BLOCKS, tot)) for the jumps, then standard_normal(nb)
        nb = min(size, n - start)
        counts = chunk_rng.poisson(rate_bound, nb)
        tot = int(counts.sum())
        s, y, z = _map_jumps(model, tau, chunk_rng.random((_BLOCKS, tot)))
        if tot:
            z *= f(s, y)
        sums = np.bincount(np.repeat(np.arange(nb), counts), weights=z,
                           minlength=nb)
        values[start:start + nb] = \
            sums + total_sd * chunk_rng.standard_normal(nb) - comp
        return tot

    with ThreadPoolExecutor(int(workers)) as pool:
        jumps = sum(pool.map(chunk, starts, rngs))
    if tally is not None:
        tally.update(chunks=len(rngs), jumps=jumps)
    return values[0] if scalar else values


# ---------------------------------------------------------------------------
# characteristic exponent
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
    exponent reduces to A |xi|^alpha with A = K_alpha int int c_sum
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
