"""Stable-like Lévy bases on a 1-d space-time box, Lebesgue control.

The Lévy measure family is the two-sided power law

    rho(dz) = c_plus 1_{z>0} z^(-alpha-1) dz + c_minus 1_{z<0} |z|^(-alpha-1) dz,

and the control measure is Lebesgue measure on the box [0, T] x [lo, hi].
The module provides

* the sharp assumption constants of the family (tail moments, truncated
  second moment, cosine lower bound), each in closed form,
* the dyadic moment-lemma bound with its explicit constant, against the
  closed-form truncated moments,
* simulation of X = int int f dL by compound-Poisson jumps above the
  model's truncation tau plus a variance-matched Gaussian for the sub-tau
  part (sample_integral), and of jump records (sample_records) that replay
  a second integrand against the *same* noise (replay_integral), and
* the characteristic exponent RePsi = A |xi|^alpha, A by midpoint
  quadrature of |f|^alpha on the cell grid.
"""

from __future__ import annotations

import math
import queue
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LevyBasisModel",
    "make_levy_model",
    "kappa_alpha",
    "AssumptionConstants",
    "assumption_constants",
    "moment_lemma_constant",
    "MomentLemmaReport",
    "moment_lemma_check",
    "CellGrid",
    "build_cells",
    "JumpRecord",
    "cell_factors",
    "jump_bounds",
    "sample_records",
    "sample_integral",
    "replay_integral",
    "CharacteristicExponent",
    "characteristic_exponent",
]


@dataclass(frozen=True)
class LevyBasisModel:
    """Stable-like basis: index alpha, one-sided weights, the box
    [0, T] x [lo, hi] with Lebesgue control, and the small-jump truncation
    tau, below which the samplers draw a matched Gaussian."""

    alpha: float
    c_plus: float
    c_minus: float
    T: float
    domain: tuple            # (lo, hi)
    tau: float

    def __post_init__(self):
        # checked here, so that dataclasses.replace(model, tau=...) is too
        if not 0.0 < self.tau < math.inf:
            raise ValueError("tau must be positive and finite")

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
                    domain=(-1.0, 1.0), tau=None) -> LevyBasisModel:
    """tau defaults to err^(1/(2-alpha)), err = 1e-2: the Gaussian that
    replaces the sub-tau jumps then has variance C_bar * err * int f^2."""
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
    if tau is None:
        tau = 1e-2 ** (1.0 / (2.0 - alpha))
    return LevyBasisModel(float(alpha), float(c_plus), float(c_minus),
                          float(T), (lo, hi), float(tau))


# ---------------------------------------------------------------------------
# assumption constants
# ---------------------------------------------------------------------------


def kappa_alpha(alpha) -> float:
    """K_alpha = int_0^inf (1 - cos u) u^(-1-alpha) du
    = pi / (2 Gamma(1+alpha) sin(pi alpha / 2)) (Sato 1999, section 14).

    The reflection form of -Gamma(-alpha) cos(pi alpha / 2): no pole at
    alpha = 1, where it is pi / 2 exactly.
    """
    if not (0.0 < alpha < 2.0):
        raise ValueError("alpha must lie in (0, 2)")
    return math.pi / (2.0 * math.gamma(1.0 + alpha)
                      * math.sin(math.pi * alpha / 2.0))


@dataclass
class AssumptionConstants:
    """Sharp constants for the tail, small-jump and cosine inequalities,
    each an identity of the power-law family."""

    alpha: float
    c_sum: float
    C_bar: float             # int_{|z|<=a} z^2 rho = C_bar a^(2-alpha)
    c_lower: float           # RePsi_rho(xi) = c_lower |xi|^alpha
    kappa: float             # K_alpha

    def C_beta(self, beta) -> float:
        """Tail constant: int_{|z|>a} |z|^beta rho = C_beta a^(beta-alpha)."""
        if beta >= self.alpha:
            raise ValueError("tail moment requires beta < alpha")
        return self.c_sum / (self.alpha - beta)


def assumption_constants(model) -> AssumptionConstants:
    # u = xi z turns int (1 - cos(xi z)) rho(dz) into c_sum K_alpha |xi|^alpha
    a = model.alpha
    kappa = kappa_alpha(a)
    return AssumptionConstants(
        alpha=a, c_sum=model.c_sum, C_bar=model.c_sum / (2.0 - a),
        c_lower=model.c_sum * kappa, kappa=kappa)


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
        # sorted and deduplicated by hand: np.unique would import numpy.ma
        t_edges = np.concatenate(
            [t_edges, np.asarray(extra_time_edges, dtype=float)])
        t_edges.sort()
        t_edges = t_edges[np.append(True, t_edges[1:] != t_edges[:-1])]
        if t_edges[0] < -1e-12 or t_edges[-1] > model.T + 1e-12:
            raise ValueError("extra time edges outside [0, T]")
    space_edges = np.linspace(*model.domain, nx + 1)
    s_mid, y_mid = (m.ravel() for m in np.meshgrid(
        0.5 * (t_edges[:-1] + t_edges[1:]),
        0.5 * (space_edges[:-1] + space_edges[1:]), indexing="ij"))
    cell_vol = np.outer(np.diff(t_edges), np.diff(space_edges)).ravel()
    return CellGrid(t_edges, space_edges, s_mid, y_mid, cell_vol)


def _sub_tau_law(model):
    """(variance, compensator) per unit integrand and volume: the second
    moment c_sum tau^(2-alpha) / (2-alpha) of the jumps below tau, and the
    mean c_diff int_tau^1 z^(-alpha) dz of the simulated (tau, 1] jumps
    (negative when tau > 1)."""
    a, tau = model.alpha, model.tau
    k = -math.log(tau) if a == 1.0 else (1.0 - tau ** (1.0 - a)) / (1.0 - a)
    return model.c_sum * tau ** (2.0 - a) / (2.0 - a), model.c_diff * k


@dataclass
class JumpRecord:
    """Every random input of the integrals sample_records draws (one draw
    per generator), replayable against any integrand (shared-noise
    coupling) by replay_integral with the model that drew it."""

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
        return JumpRecord(self.cells, counts, self.s[keep],
                          self.y[keep], self.z[keep], normals)


def cell_factors(model, cells):
    """Per-cell (sd, compensator) of a sampled integral: over the cells,
    int int f dL is sum f(mid) * (normal * sd - compensator) plus the jumps.

    sd matches the truncated second moment of the jumps below the model's
    tau; the compensator is the mean of the simulated (tau, 1] jumps.
    """
    sigma2, comp = _sub_tau_law(model)
    return np.sqrt(sigma2 * cells.cell_vol), comp * cells.cell_vol


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
    sd = cell_factors(model, record.cells)[0]
    gauss_part = record.cell_normals @ (f_mid * sd)
    comp = _sub_tau_law(model)[1] * record.cells.quadrature(f_mid)
    return jump_part + gauss_part - comp


# Most expected jumps per draw the samplers accept: a model whose tau asks
# for more is taken for a resolution error rather than a costly draw.
_MAX_EXPECTED_JUMPS = 250_000.0


def _check_integrand(model, cells, f_mid):
    """Sampler preconditions on the cell values of f (one integrand per row
    of a stack (..., n_cells)); returns the expected jump count per draw."""
    alpha = model.alpha
    if not np.all(np.isfinite(f_mid)):
        raise ValueError("integrand not finite on the cell lattice")
    # eq-style integrability audit: int int |f|^alpha dlambda must be finite.
    # With finite values a row's sum can only fail by overflow, so the
    # per-cell audit runs only when max|f|^alpha max(vol) n_cells is not
    # comfortably finite.  Overflow is the failure tested for, not a warning.
    f_max = max(np.max(f_mid), -np.min(f_mid))
    with np.errstate(over="ignore"):
        if not f_max ** alpha * np.max(cells.cell_vol) * cells.n_cells < 1e300:
            mass = np.abs(f_mid, dtype=float)
            mass **= alpha
            mass *= cells.cell_vol
            if not np.all(np.isfinite(np.sum(mass, axis=-1))):
                raise ValueError(
                    "integrand fails the |f|^alpha integrability check")

    rate_bound = model.box_volume * model.c_sum * model.tau ** -alpha / alpha
    if not np.isfinite(rate_bound) or rate_bound > _MAX_EXPECTED_JUMPS:
        raise ValueError(
            f"expected jump count {rate_bound:.3g} per draw exceeds the "
            f"resolution budget {_MAX_EXPECTED_JUMPS:.3g}; raise tau")
    return rate_bound


# Uniform blocks of the jump stream, one uniform per jump each, in stream
# order: times, positions, signs and magnitudes.  A one-number integrand
# reads only the last two.
_BLOCKS = 4
_SIZE_BLOCKS = 2

# Expected jumps per chunk of sample_integral's draws.  Each worker reuses
# one uniform buffer of 16 bytes per jump, some 4 MB (32 bytes, 8 MB, for
# a callable integrand), and a chunk allocates about 8.5 bytes per jump
# besides (the draw index and the sign test; tracemalloc at 2.5e5 jumps).
# Measured on the ambit-density benchmark: wall time is flat from 1.25e5
# to 5e5, and peak RSS grows with the chunk while page faults are fewest
# near 2.5e5.
_JUMPS_PER_CHUNK = 250_000.0

# Poisson standard deviations above a chunk's expected jump total that each
# worker's reused uniform buffer holds; a chunk past it gets a larger one.
_MARGIN_SD = 6.0


def _map_sizes(model, sign, z):
    """Signed sizes of the jumps whose sign and magnitude uniform blocks
    are sign and z, mapped in place into z: +-tau * z**(-1/alpha),
    negative where the sign uniform falls past c_plus / c_sum."""
    # the sign row becomes +-0.5 in place: copysign needs no mask, and
    # flips nothing else since the sizes are positive
    sign *= model.c_sum
    np.subtract(0.5, sign >= model.c_plus, out=sign)
    z **= -1.0 / model.alpha
    np.multiply(model.tau, z, out=z)
    return np.copysign(z, sign, out=z)


def _map_jumps(model, u):
    """Times, positions and signed sizes of the jumps whose _BLOCKS uniform
    blocks are the rows of u, in stream order.  Times and positions are
    mapped in place as uniform() maps doubles (lo + (hi - lo) * u), sizes
    by _map_sizes."""
    s, y, sign, z = u
    s *= model.T
    lo, hi = model.domain
    y *= hi - lo
    y += lo
    return s, y, _map_sizes(model, sign, z)


def jump_bounds(model):
    """(s, y): the least and greatest time and position a sampled jump
    can take, as _map_jumps maps the least and greatest double random()
    returns, 0 and 1 - 2**-53.  The maps are monotone, so every jump time
    and position lies between the two, rounding included."""
    u = np.array([0.0, 1.0 - 2.0 ** -53])
    s, y, _ = _map_jumps(model, np.stack([u, u, u, np.ones(2)]))
    return s, y


def sample_records(model, f_mid, rngs, *, cells) -> JumpRecord:
    """The noise of one integral per generator (the jumps above the
    model's tau and the cell normals of the Gaussian below it) against
    integrands known by their cell-midpoint values (row i of f_mid for
    rngs[i]), checked as sample_integral checks f and stacked as one
    record of len(rngs) draws.

    Generator i draws poisson(rate_bound, 1) for its jump count tot, then
    the uniforms of random((_BLOCKS, tot)), a row per block, then
    standard_normal(n_cells) for its cell normals.  So a draw never depends
    on the draws stacked with it; only the arithmetic on the drawn numbers
    runs once per stack.  Every count is drawn first, so the uniforms go
    straight into the stack's blocks: random(out=) fills a row in the
    order random((_BLOCKS, tot)) would.
    """
    if np.shape(f_mid) != (len(rngs), cells.n_cells):
        raise ValueError("need one row of cell values per generator")
    rate_bound = _check_integrand(model, cells, f_mid)
    counts = np.array([rng.poisson(rate_bound, 1)[0] for rng in rngs],
                      dtype=np.int64)
    ends = np.cumsum(counts)
    u = np.empty((_BLOCKS, counts.sum()))
    normals = np.empty((len(rngs), cells.n_cells))
    for rng, start, end, out in zip(rngs, ends - counts, ends, normals):
        for row in u[:, start:end]:
            rng.random(out=row)
        rng.standard_normal(out=out)
    s, y, z = _map_jumps(model, u)
    return JumpRecord(cells=cells, counts=counts, s=s, y=y, z=z,
                      cell_normals=normals)


def sample_integral(model, f, rng, *, n_draws, cells=None, workers=1,
                    tally=None):
    """(n_draws,) draws of X = int_0^T int_D f(s, y) L(ds, dy), on the
    cells given or else on build_cells(model).

    Jumps with |z| above the model's tau come from a compound-Poisson
    sampler (uniform times and positions on the box, Pareto magnitudes);
    jumps below tau are replaced by a centred per-cell Gaussian matching
    the truncated second moment; the raw simulation of (tau, 1] jumps is
    compensated per the 1_{[-1,1]} truncation convention of the
    characteristic exponent.

    The draws come in chunks of about _JUMPS_PER_CHUNK expected jumps, so
    the chunk count depends on n_draws and the jump rate only.  Chunk c
    draws from its own generator rng.spawn(n_chunks)[c] and rng itself
    draws nothing; each call spawns new children, so two calls on one rng
    give independent values.  The `workers` threads draw whole chunks, so
    the values are the same for any count.  A dict passed as tally
    receives the work done: chunks, draws_per_chunk (of every chunk but
    the last), jumps (over all draws), max_chunk_jumps (of the largest
    chunk), buffer_jumps (the jumps each worker's uniform buffer starts
    with room for), chunk_s (the wall time of each chunk, in chunk order)
    and uniforms_per_jump (the uniforms each jump reads: 2 or _BLOCKS).

    Chunk c's stream is poisson(rate_bound, nb) for its jump counts, tot
    in all, then the uniforms of random((_BLOCKS, tot)), a row per block,
    then standard_normal(nb) for the sub-tau Gaussian.  The uniforms go
    by random(out=) into the first uniforms_per_jump * tot doubles of the
    one buffer its worker reuses for the whole call, which fills them in
    the order random((uniforms_per_jump, tot)) would; a chunk past the
    buffer replaces it with a larger one.  Where f is one number c on the
    whole box it may return c itself, which scales the jumps and cells as
    the array of c would: then only the sign and magnitude blocks are
    read, and the chunk advances its generator past blocks 0 and 1
    instead of drawing them, which leaves the stream where the full draw
    would (so rng must be a PCG64 or PCG64DXSM generator).
    """
    n = int(n_draws)
    if n <= 0:
        raise ValueError("n_draws must be positive")
    if int(workers) != workers or workers < 1:
        raise ValueError("workers must be a positive integer")
    if cells is None:
        cells = build_cells(model)

    f_mid = np.asarray(f(cells.s_mid, cells.y_mid), dtype=float)
    rate_bound = _check_integrand(model, cells, f_mid)

    values = np.empty(n)
    sigma2, comp = _sub_tau_law(model)
    total_sd = math.sqrt(float(np.sum(sigma2 * f_mid ** 2 * cells.cell_vol)))
    comp *= cells.quadrature(f_mid)

    constant = f_mid.ndim == 0
    # advance() moves past exactly one random() double per step only for
    # the PCG64 family
    bit_generator = type(rng.bit_generator)
    if constant and bit_generator not in (np.random.PCG64,
                                          np.random.PCG64DXSM):
        raise ValueError(
            "a one-number integrand needs a PCG64 or PCG64DXSM generator, "
            "whose advance() skips one random() double per step; got "
            f"{bit_generator.__name__}")
    size = max(1, int(_JUMPS_PER_CHUNK / max(rate_bound, 1.0)))
    starts = range(0, n, size)
    rngs = rng.spawn(len(starts))

    # one uniform buffer per worker, reused by every chunk it runs: fresh
    # blocks drawn in a worker thread would stay resident in its arena
    k = _SIZE_BLOCKS if constant else _BLOCKS
    mean = min(size, n) * rate_bound
    buffer_jumps = max(0, math.ceil(mean + _MARGIN_SD * math.sqrt(mean)))
    buffers = queue.SimpleQueue()
    for _ in range(min(int(workers), len(starts))):
        buffers.put(np.empty(k * buffer_jumps))

    def chunk(start, chunk_rng):
        clock = time.perf_counter()
        nb = min(size, n - start)
        counts = chunk_rng.poisson(rate_bound, nb)
        tot = int(counts.sum())
        buf = buffers.get()
        try:
            if buf.size < k * tot:
                buf = np.empty(k * tot)
            u = buf[:k * tot].reshape(k, tot)
            if constant:
                # random() takes one 64-bit output per double
                chunk_rng.bit_generator.advance(
                    (_BLOCKS - _SIZE_BLOCKS) * tot)
                z = _map_sizes(model, *chunk_rng.random(out=u))
                z *= f_mid
            else:
                s, y, z = _map_jumps(model, chunk_rng.random(out=u))
                if tot:
                    z *= f(s, y)
            sums = np.bincount(np.repeat(np.arange(nb), counts), weights=z,
                               minlength=nb)
        finally:
            # a chunk that raises still hands its buffer on
            buffers.put(buf)
        values[start:start + nb] = \
            sums + total_sd * chunk_rng.standard_normal(nb) - comp
        return tot, time.perf_counter() - clock

    with ThreadPoolExecutor(int(workers)) as pool:
        jumps, seconds = zip(*pool.map(chunk, starts, rngs))
    if tally is not None:
        tally.update(chunks=len(rngs), draws_per_chunk=size,
                     jumps=sum(jumps), max_chunk_jumps=max(jumps),
                     buffer_jumps=buffer_jumps, chunk_s=seconds,
                     uniforms_per_jump=k)
    return values


# ---------------------------------------------------------------------------
# characteristic exponent
# ---------------------------------------------------------------------------


@dataclass
class CharacteristicExponent:
    values: np.ndarray           # RePsi(xi) at the xi asked for
    alpha: float
    alpha_coefficient: float     # A with RePsi = A |xi|^alpha (stable family)


def characteristic_exponent(model, f, xi, *,
                            cells=None) -> CharacteristicExponent:
    """RePsi_X(xi) for X = int int f dL, on the cells given or else on
    build_cells(model).

    The inner integral over the stable measure is closed-form,
    int (1 - cos(xi z u)) rho(dz) = c_sum K_alpha |xi u|^alpha, so the
    exponent reduces to A |xi|^alpha with A = K_alpha int int c_sum
    |f|^alpha; the outer integral is midpoint quadrature on the cell grid.
    """
    if cells is None:
        cells = build_cells(model)
    a = model.alpha
    f_mid = np.asarray(f(cells.s_mid, cells.y_mid), dtype=float)
    A = model.c_sum * kappa_alpha(a) \
        * cells.quadrature(np.abs(f_mid) ** a)
    if not np.isfinite(A):
        raise ValueError("characteristic exponent quadrature diverged")
    values = A * np.abs(np.asarray(xi, dtype=float)) ** a
    return CharacteristicExponent(values, a, float(A))
