"""Spatially homogeneous Gaussian noise, white in time.

The noise is described by its spectral measure mu(dxi) = S(xi) dxi with

    white:                   S(xi) = 1
    riesz(beta):             S(xi) = |xi|^(beta - d),   0 < beta < d
    exponential-covariance:  S(xi) dual to Gamma(x) = exp(-|x|/ell)

under the Fourier convention F(phi)(xi) = int exp(-i<xi,x>) phi dx (so the
correlation functional is <phi, psi>_H = int S(xi) F(phi) conj(F(psi)) dxi;
for white noise this equals (2 pi)^d times the L2 pairing).

Increments are synthesised on a periodic grid by filtering spatial white
noise in Fourier space, which keeps the output exactly real and gives each
discrete mode xi_j the variance dt * S(xi_j) * (2 pi / L)^d.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate as _integrate
from scipy import special as _special

from .montecarlo import ScalingFit, fit_scaling

__all__ = [
    "SpectralNoiseModel",
    "NoiseIncrementField",
    "GammaExponents",
    "DalangConditionError",
    "make_noise_model",
    "spectral_density_radial",
    "grid_frequencies",
    "grid_points",
    "sample_increment",
    "inner_product_H",
    "variance_g",
    "grid_variance_g",
    "exponent_gamma",
]


class DalangConditionError(RuntimeError):
    """The spectral integral int mu(dxi) |F(Lambda(s))(xi)|^2 diverges."""


@dataclass(frozen=True)
class SpectralNoiseModel:
    kind: str  # "white" | "riesz" | "exponential"
    d: int
    Lbox: float
    m: int
    beta: float = None
    ell: float = None
    cutoff: float = None  # spectral truncation radius used by grid sums

    @property
    def dx(self) -> float:
        return self.Lbox / self.m

    @property
    def cell_volume(self) -> float:
        return self.dx**self.d


def make_noise_model(kind, d, Lbox, m, beta=None, ell=None, cutoff=None):
    if kind not in ("white", "riesz", "exponential"):
        raise ValueError(f"unknown noise kind {kind!r}")
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if Lbox <= 0:
        raise ValueError("Lbox must be positive")
    if m < 2 or (m & (m - 1)) != 0:
        raise ValueError("m must be a power of two >= 2")
    if kind == "riesz":
        if beta is None or not (0 < beta < d):
            raise ValueError("riesz noise requires 0 < beta < d")
    if kind == "exponential":
        if ell is None or ell <= 0:
            raise ValueError("exponential covariance requires ell > 0")
    if cutoff is None:
        cutoff = np.pi * m / Lbox  # grid Nyquist radius
    return SpectralNoiseModel(kind, int(d), float(Lbox), int(m),
                              None if beta is None else float(beta),
                              None if ell is None else float(ell),
                              float(cutoff))


def spectral_density_radial(model, r):
    """S as a function of r = |xi| (all three kinds are radial)."""
    r = np.asarray(r, dtype=float)
    if model.kind == "white":
        return np.ones_like(r)
    if model.kind == "riesz":
        with np.errstate(divide="ignore"):
            out = np.where(r > 0, r ** (model.beta - model.d), np.inf)
        return out
    # Fourier dual of exp(-|x|/ell): multivariate Cauchy profile
    d, ell = model.d, model.ell
    c_d = _special.gamma((d + 1) / 2.0) / np.pi ** ((d + 1) / 2.0)
    return c_d * ell**d * (1.0 + (ell * r) ** 2) ** (-(d + 1) / 2.0)


def grid_frequencies(model):
    """d arrays of angular frequencies 2*pi*fftfreq, fft layout."""
    xi = 2.0 * np.pi * np.fft.fftfreq(model.m, d=model.dx)
    return [xi] * model.d


def _radius_grid(model):
    axes = grid_frequencies(model)
    if model.d == 1:
        return np.abs(axes[0])
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.sqrt(sum(a**2 for a in mesh))


def _grid_density(model):
    """S on the discrete frequency grid; the singular riesz zero mode is
    excluded (it is a mu-null point and must not enter sums)."""
    r = _radius_grid(model)
    s = spectral_density_radial(model, r)
    if model.kind == "riesz":
        s = np.where(r == 0, 0.0, s)
    return s


def grid_points(model):
    """Centered physical coordinates of the periodic grid (per axis)."""
    x = (np.arange(model.m) - model.m // 2) * model.dx
    return [x] * model.d


@dataclass
class NoiseIncrementField:
    values: np.ndarray  # shape (m,)*d, real
    dt: float
    model: SpectralNoiseModel

    @property
    def cell_volume(self):
        return self.model.cell_volume


def _synthesis_filter(model, dt):
    s = _grid_density(model)
    return np.sqrt(dt * s) * (2.0 * np.pi / model.dx) ** (model.d / 2.0)


def sample_increment(model, dt, rng) -> NoiseIncrementField:
    """One time-increment field M((t, t+dt] x .) sampled on the grid.

    Filtering FFT'd real white noise keeps the Hermitian symmetry exact, so
    the synthesised field is real up to float roundoff.
    """
    if dt < 0:
        raise ValueError("dt must be nonnegative")
    shape = (model.m,) * model.d
    if dt == 0:
        return NoiseIncrementField(np.zeros(shape), 0.0, model)
    w = rng.standard_normal(shape)
    spec = np.fft.fftn(w) * _synthesis_filter(model, dt)
    v = np.fft.ifftn(spec)
    resid = np.max(np.abs(v.imag)) / max(np.max(np.abs(v.real)), 1e-300)
    if resid > 1e-12:
        raise AssertionError("spectral synthesis lost Hermitian symmetry")
    return NoiseIncrementField(np.ascontiguousarray(v.real), float(dt), model)


def inner_product_H(model, phi, psi) -> float:
    """<phi, psi>_H = sum_j S(xi_j) (2pi/L)^d F(phi)_j conj(F(psi)_j).

    phi and psi are sampled on the model grid; F is approximated by
    dx^d * fftn.  The value is invariant under a common grid shift.
    """
    phi = np.asarray(phi, dtype=float)
    psi = np.asarray(psi, dtype=float)
    shape = (model.m,) * model.d
    if phi.shape != shape or psi.shape != shape:
        raise ValueError("test functions must be sampled on the model grid")
    fphi = np.fft.fftn(phi) * model.cell_volume
    fpsi = np.fft.fftn(psi) * model.cell_volume
    weight = _grid_density(model) * (2.0 * np.pi / model.Lbox) ** model.d
    val = np.sum(weight * fphi * np.conj(fpsi))
    return float(val.real)


# ---------------------------------------------------------------------------
# the variance functional g and its exponents
# ---------------------------------------------------------------------------

_SPHERE_AREA = {1: 2.0, 2: 2.0 * np.pi, 3: 4.0 * np.pi}


def _quad(f, a, b, **kw):
    kw.setdefault("limit", 300)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", _integrate.IntegrationWarning)
        val, _ = _integrate.quad(f, a, b, **kw)
    for w in caught:
        # roundoff-limited accuracy is acceptable; divergence is not
        if "divergent" in str(w.message):
            raise _integrate.IntegrationWarning(str(w.message))
    return val


def _check_dalang(model):
    """Dalang's condition int mu(dxi) / (1 + |xi|^2) < inf, decided exactly.

    S is locally integrable for every supported kind, so only its tail
    S(r) ~ r^-p counts: S(r) r^(d-1) / r^2 is integrable at infinity iff
    p > d - 2.  The same rule holds for heat and wave.
    """
    d = model.d
    if model.kind == "white":
        p = 0.0
    elif model.kind == "riesz":
        p = d - model.beta
    else:
        p = d + 1.0  # Cauchy profile
    if p <= d - 2:
        raise DalangConditionError(
            f"{model.kind} noise in d={d} has spectral tail r^-{p:g}: "
            f"int mu(dxi)/(1+|xi|^2) diverges (Dalang needs tail power > "
            f"{d - 2})")


def squared_time_integral(lam, t, r):
    """int_0^t |F(Lambda(u))(r)|^2 du in closed form (vectorised in t, r)."""
    r = np.asarray(r, dtype=float)
    small = r < 1e-12
    rs = np.where(small, 1.0, r)
    if lam.kind == "heat":
        out = (1.0 - np.exp(-2.0 * t * rs**2)) / (2.0 * rs**2)
        return np.where(small, t, out)
    out = (t - np.sin(2.0 * t * rs) / (2.0 * rs)) / (2.0 * rs**2)
    return np.where(small, t**3 / 3.0, out)


def variance_g(model, lam, eps) -> float:
    """g(eps) = int_0^eps ds int mu(dxi) |F(Lambda(s))(xi)|^2.

    Computed as one radial quadrature of the closed-form time integral,
    omega_d int_0^inf S(r) r^(d-1) squared_time_integral(lam, eps, r) dr,
    split where that integral turns over from growing like eps to decaying
    in r (r = 1/sqrt(2 eps) for heat, r = 1/eps for wave).
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    _check_dalang(model)
    if eps == 0:
        return 0.0
    d = model.d
    f = lambda r: (spectral_density_radial(model, r) * r ** (d - 1)
                   * squared_time_integral(lam, eps, r))
    r1 = 1.0 / np.sqrt(2.0 * eps) if lam.kind == "heat" else 1.0 / eps
    kw = dict(epsabs=0.0, epsrel=1e-10)
    return float(_SPHERE_AREA[d] * (_quad(f, 0.0, r1, **kw)
                                    + _quad(f, r1, np.inf, **kw)))


def grid_variance_g(model, lam, eps) -> float:
    """g(eps) restricted to the grid's discrete spectrum (mode sum).

    This is the exact variance target of the spectral field solver; it
    converges to variance_g as the Nyquist radius grows.
    """
    r = _radius_grid(model)
    weight = _grid_density(model) * (2.0 * np.pi / model.Lbox) ** model.d
    return float(np.sum(weight * squared_time_integral(lam, eps, r)))


@dataclass
class GammaExponents:
    gamma: ScalingFit
    gamma1: ScalingFit
    gamma2: ScalingFit
    eps_grid: np.ndarray
    g_values: np.ndarray
    zero_mode_values: np.ndarray


def exponent_gamma(model, lam, eps_grid) -> GammaExponents:
    """Fit the scaling exponents of the variance functional.

    gamma / gamma1: slope of g(eps) (for these models g is a pure power, so
    the lower and upper exponents coincide); gamma2: slope of the zero-mode
    integral int_0^eps |F(Lambda(s))(0)|^2 ds.  Fits with R^2 < 0.99 are
    flagged "inconclusive".
    """
    eps_grid = np.asarray(eps_grid, dtype=float)
    if eps_grid.size < 4:
        raise ValueError("eps_grid needs at least 4 points")
    g_vals = np.array([variance_g(model, lam, e) for e in eps_grid])
    z_vals = squared_time_integral(lam, eps_grid, 0.0)
    f_g = fit_scaling(eps_grid, g_vals)
    f_z = fit_scaling(eps_grid, z_vals)
    for f in (f_g, f_z):
        if f.flag == "ok" and f.r2 < 0.99:
            f.flag = "inconclusive"
    f_gamma = ScalingFit(f_g.slope, f_g.intercept, f_g.r2, f_g.ci_halfwidth,
                         f_g.points_used, f_g.flag)
    return GammaExponents(f_gamma, f_g, f_z, eps_grid, g_vals, z_vals)
