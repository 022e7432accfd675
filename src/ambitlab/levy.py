"""Stable-like Lévy bases on a 1-d space-time box, Lebesgue control.

The Lévy measure family is the two-sided power law

    rho(dz) = c_plus 1_{z>0} z^(-alpha-1) dz + c_minus 1_{z<0} |z|^(-alpha-1) dz,

and the control measure is Lebesgue measure on the box [0, T] x [lo, hi].
Here are the family's assumption constants in closed form, the exact
alpha-stable law of X = int int f dL for a deterministic f (stable_law,
characteristic_exponent) and its Chambers-Mallows-Stuck draws
(sample_integral), and, for random integrands, jump records
(sample_records: compound-Poisson jumps above the model's truncation tau,
a matched Gaussian below it) that replay against the *same* noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LevyBasisModel",
    "make_levy_model",
    "kappa_alpha",
    "AssumptionConstants",
    "assumption_constants",
    "CellGrid",
    "build_cells",
    "JumpRecord",
    "cell_factors",
    "sample_records",
    "stable_law",
    "sample_integral",
    "replay_integral",
    "CharacteristicExponent",
    "characteristic_exponent",
]


@dataclass(frozen=True)
class LevyBasisModel:
    """Stable-like basis: index alpha, one-sided weights, the box
    [0, T] x [lo, hi] with Lebesgue control, and the small-jump truncation
    tau, below which the jump records draw a matched Gaussian."""

    alpha: float
    c_plus: float
    c_minus: float
    T: float
    domain: tuple            # (lo, hi)
    tau: float

    def __post_init__(self):
        # checked here, so that dataclasses.replace(model, ...) is too
        if not (0.0 < self.alpha < 2.0):
            raise ValueError("alpha must lie in (0, 2)")
        if self.c_plus < 0 or self.c_minus < 0 or self.c_sum == 0:
            raise ValueError(
                "one-sided weights must be nonnegative, not both 0")
        if not self.T > 0:
            raise ValueError("T must be positive")
        lo, hi = self.domain
        if not -math.inf < lo < hi < math.inf:
            raise ValueError("domain must be a finite interval lo < hi")
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
    replaces the sub-tau jumps then has variance C_bar * err * int f^2.
    The model checks its fields itself."""
    try:
        lo, hi = map(float, domain)
    except (TypeError, ValueError):
        raise ValueError("domain must be one interval (lo, hi)") from None
    if tau is None:
        # the model refuses an alpha outside (0, 2) before it reads tau
        tau = 1e-2 ** (1.0 / (2.0 - alpha)) if alpha < 2.0 else math.inf
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


def assumption_constants(model) -> AssumptionConstants:
    # u = xi z turns int (1 - cos(xi z)) rho(dz) into c_sum K_alpha |xi|^alpha
    a = model.alpha
    kappa = kappa_alpha(a)
    return AssumptionConstants(
        alpha=a, c_sum=model.c_sum, C_bar=model.c_sum / (2.0 - a),
        c_lower=model.c_sum * kappa, kappa=kappa)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


@dataclass
class CellGrid:
    """Midpoint partition of the box, used for the sub-tau Gaussian field,
    compensators and all outer quadratures."""

    time_edges: np.ndarray
    space_edges: np.ndarray
    s_axis: np.ndarray       # (rows,) time midpoints
    y_axis: np.ndarray       # (cols,) space midpoints
    s_mid: np.ndarray        # (n_cells,), time-major
    y_mid: np.ndarray        # (n_cells,)
    cell_vol: np.ndarray     # (n_cells,)

    @property
    def shape(self):
        return self.s_axis.size, self.y_axis.size

    @property
    def n_cells(self):
        return self.s_mid.size


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
    s_axis, y_axis = (0.5 * (e[:-1] + e[1:]) for e in (t_edges, space_edges))
    s_mid, y_mid = (m.ravel() for m in np.meshgrid(s_axis, y_axis,
                                                   indexing="ij"))
    cell_vol = np.outer(np.diff(t_edges), np.diff(space_edges)).ravel()
    return CellGrid(t_edges, space_edges, s_axis, y_axis, s_mid, y_mid,
                    cell_vol)


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
    comp = _sub_tau_law(model)[1] \
        * float(np.sum(f_mid * record.cells.cell_vol))
    return jump_part + gauss_part - comp


# Most expected jumps per draw sample_records accepts: a model whose tau
# asks for more is taken for a resolution error rather than a costly draw.
_MAX_EXPECTED_JUMPS = 250_000.0


def _check_integrand(model, cells, f_mid):
    """Sampler preconditions on the cell values of f (one integrand per row
    of a stack (..., n_cells)): finite, with int int |f|^alpha finite."""
    if not np.all(np.isfinite(f_mid)):
        raise ValueError("integrand not finite on the cell lattice")
    # int int |f|^alpha must be finite: with finite values a row's sum can
    # only overflow, so the per-cell audit runs only when max|f|^alpha
    # max(vol) n_cells is not comfortably finite (overflow is not a warning)
    f_max = max(np.max(f_mid), -np.min(f_mid))
    with np.errstate(over="ignore"):
        if not f_max ** model.alpha * np.max(cells.cell_vol) * cells.n_cells \
                < 1e300:
            mass = np.abs(f_mid, dtype=float)
            mass **= model.alpha
            mass *= cells.cell_vol
            if not np.all(np.isfinite(np.sum(mass, axis=-1))):
                raise ValueError(
                    "integrand fails the |f|^alpha integrability check")


# Uniform blocks of the jump stream, one uniform per jump each, in stream
# order: times, positions, signs and magnitudes.
_BLOCKS = 4


def sample_records(model, f_mid, rngs, *, cells) -> JumpRecord:
    """The noise of one integral per generator (the jumps above the
    model's tau and the cell normals of the Gaussian below it) against
    integrands known by their cell-midpoint values (row i of f_mid for
    rngs[i]), stacked as one record of len(rngs) draws.  A model whose tau
    asks for more than _MAX_EXPECTED_JUMPS jumps per draw is refused.

    Generator i draws poisson(rate_bound, 1) for its jump count tot, the
    uniforms of random((_BLOCKS, tot)) row by row, then
    standard_normal(n_cells), so a draw never depends on the draws stacked
    with it.  Every count comes first, so random(out=) fills the stack's
    blocks directly, in the order random((_BLOCKS, tot)) would.
    """
    if np.shape(f_mid) != (len(rngs), cells.n_cells):
        raise ValueError("need one row of cell values per generator")
    _check_integrand(model, cells, f_mid)
    rate_bound = model.box_volume * model.c_sum * model.tau ** -model.alpha \
        / model.alpha
    if not np.isfinite(rate_bound) or rate_bound > _MAX_EXPECTED_JUMPS:
        raise ValueError(
            f"expected jump count {rate_bound:.3g} per draw exceeds the "
            f"resolution budget {_MAX_EXPECTED_JUMPS:.3g}; raise tau")
    counts = np.array([rng.poisson(rate_bound, 1)[0] for rng in rngs],
                      dtype=np.int64)
    ends = np.cumsum(counts)
    u = np.empty((_BLOCKS, counts.sum()))
    normals = np.empty((len(rngs), cells.n_cells))
    for rng, start, end, out in zip(rngs, ends - counts, ends, normals):
        for row in u[:, start:end]:
            rng.random(out=row)
        rng.standard_normal(out=out)
    # in place: times and positions as uniform() maps doubles, sizes
    # +-tau * z**(-1/alpha), negative where the sign uniform falls past
    # c_plus / c_sum; the sign row becomes +-0.5, so copysign needs no
    # mask, and flips nothing else since the sizes are positive
    s, y, sign, z = u
    s *= model.T
    lo, hi = model.domain
    y *= hi - lo
    y += lo
    sign *= model.c_sum
    np.subtract(0.5, sign >= model.c_plus, out=sign)
    z **= -1.0 / model.alpha
    np.multiply(model.tau, z, out=z)
    return JumpRecord(cells=cells, counts=counts, s=s, y=y,
                      z=np.copysign(z, sign, out=z), cell_normals=normals)


# ---------------------------------------------------------------------------
# the exact law of a deterministic integrand
# ---------------------------------------------------------------------------


def _cell_masses(f, f_mid, cells, p):
    """Per cell, int int_cell |f|^p: f.cell_masses(cells, p) where f has
    that method, else the midpoint rule."""
    exact = getattr(f, "cell_masses", None)
    return exact(cells, p) if exact else np.abs(f_mid) ** p * cells.cell_vol


def stable_law(model, f, cells=None):
    """(scale, skew, shift) of the exact law of X = int int f dL for a
    deterministic f, on the cells given or else on build_cells(model):
    log E e^(i xi X) = -(scale |xi|)^alpha (1 - i skew sign(xi) tan(pi
    alpha / 2)) + i shift xi, with scale^alpha = c_sum K_alpha int int
    |f|^alpha (characteristic_exponent's A), skew = c_diff int int
    sign(f) |f|^alpha / (c_sum int int |f|^alpha) and shift = c_diff /
    (alpha - 1) int int f, the 1_{[-1,1]} compensation's (Samorodnitsky-
    Taqqu 1994, ch. 3).  Asymmetric alpha = 1 is refused."""
    a = model.alpha
    if a == 1.0 and model.c_diff:
        raise ValueError("an asymmetric basis (c_plus != c_minus) at "
                         "alpha = 1 has a log-scale shift: no stable_law")
    if cells is None:
        cells = build_cells(model)
    f_mid = np.asarray(f(cells.s_mid, cells.y_mid), dtype=float)
    _check_integrand(model, cells, f_mid)
    A = characteristic_exponent(model, f, 1.0, cells=cells).alpha_coefficient
    skew = shift = 0.0
    if model.c_diff and A:   # a zero integrand has no skew: no 0/0
        sign = np.sign(f_mid)
        skew = float(model.c_diff * kappa_alpha(a) / A
                     * np.sum(sign * _cell_masses(f, f_mid, cells, a)))
        shift = float(model.c_diff / (a - 1.0)
                      * np.sum(sign * _cell_masses(f, f_mid, cells, 1.0)))
        if not math.isfinite(shift):
            raise ValueError("integrand's shift int int f diverges")
    return A ** (1.0 / a), skew, shift


def sample_integral(model, f, rng, *, n_draws, cells=None):
    """(n_draws,) draws of X = int_0^T int_D f(s, y) L(ds, dy), on the
    cells given or else on build_cells(model), from stable_law by
    Chambers-Mallows-Stuck (JASA 71, 1976) in Weron's skewed form (Stat.
    Probab. Lett. 28, 1996): with V = pi (u - 1/2) from random(n_draws),
    then W from standard_exponential(n_draws), t = skew tan(pi alpha / 2)
    and B = arctan(t) / alpha,
    X = shift + scale (1 + t^2)^(1 / (2 alpha)) sin(alpha (V + B))
    / cos(V)^(1/alpha) (cos(V - alpha (V + B)) / W)^((1 - alpha) / alpha),
    the Cauchy shift + scale tan(V) at alpha = 1 (symmetric, so B = 0).
    A zero integrand returns the shift and draws nothing."""
    n = int(n_draws)
    if n <= 0:
        raise ValueError("n_draws must be positive")
    scale, skew, shift = stable_law(model, f, cells)
    if not scale:
        return np.full(n, shift)
    a = model.alpha
    v = rng.random(n)
    v -= 0.5
    v *= math.pi
    # V keeps 1e-12 inside +-pi/2 (moving draws of 3e-13 per end): at the
    # ends cos(V - alpha (V + B)) of a one-sided law may round below 0
    lim = math.pi / 2.0 - 1e-12
    np.clip(v, -lim, lim, out=v)
    w = rng.standard_exponential(n)
    t = skew * math.tan(math.pi * a / 2.0)
    b = math.atan(t) / a
    x = v + b
    x *= a
    # w becomes (cos(V - alpha (V + B)) / W)^((1 - alpha) / alpha)
    c = np.subtract(v, x)
    np.divide(np.cos(c, out=c), w, out=w)
    w **= (1.0 - a) / a
    np.cos(v, out=v)
    v **= -1.0 / a
    np.sin(x, out=x)
    x *= v
    x *= w
    x *= (1.0 + t * t) ** (0.5 / a)
    x *= scale
    x += shift
    return x


# ---------------------------------------------------------------------------
# characteristic exponent
# ---------------------------------------------------------------------------


@dataclass
class CharacteristicExponent:
    values: np.ndarray           # RePsi(xi) at the xi asked for
    alpha_coefficient: float     # A with RePsi = A |xi|^alpha (stable family)


def characteristic_exponent(model, f, xi, *,
                            cells=None) -> CharacteristicExponent:
    """RePsi_X(xi) for X = int int f dL, on the cells given or else on
    build_cells(model).

    The inner integral over the stable measure is closed-form,
    int (1 - cos(xi z u)) rho(dz) = c_sum K_alpha |xi u|^alpha, so the
    exponent reduces to A |xi|^alpha with A = K_alpha int int c_sum
    |f|^alpha; the outer integral sums the cell integrals of |f|^alpha
    (_cell_masses: the midpoint rule unless f gives them).
    """
    if cells is None:
        cells = build_cells(model)
    a = model.alpha
    f_mid = np.asarray(f(cells.s_mid, cells.y_mid), dtype=float)
    A = model.c_sum * kappa_alpha(a) \
        * float(np.sum(_cell_masses(f, f_mid, cells, a)))
    if not np.isfinite(A):
        raise ValueError("characteristic exponent quadrature diverged")
    values = A * np.abs(np.asarray(xi, dtype=float)) ** a
    return CharacteristicExponent(values, float(A))
