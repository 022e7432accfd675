"""Spatially homogeneous Gaussian noise, white in time.

The noise is described by its spectral measure mu(dxi) = S(xi) dxi with

    white:                   S(xi) = 1
    riesz(beta):             S(xi) = |xi|^(beta - d),   0 < beta < d
    exponential-covariance:  S(xi) dual to Gamma(x) = exp(-|x|/ell)

under the Fourier convention F(phi)(xi) = int exp(-i<xi,x>) phi dx (so the
correlation functional is <phi, psi>_H = int S(xi) F(phi) conj(F(psi)) dxi;
for white noise this equals (2 pi)^d times the L2 pairing).

The operator is named "heat" or "wave", on R^d with d in {1, 2, 3}.  Its
fundamental solution Lambda enters only through its Fourier transform

    heat:  F(Lambda(s))(xi) = exp(-s |xi|^2)
    wave:  F(Lambda(s))(xi) = sin(s |xi|) / |xi|      (d <= 3)

(the wave Lambda is a nonnegative measure only for d <= 3).

The spectral solver (spde) synthesises increments on the periodic grid
by filtering spatial white noise in Fourier space, which keeps them exactly
real and gives each discrete mode xi_j the variance
dt * S(xi_j) * (2 pi / L)^d.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpectralNoiseModel",
    "GammaExponents",
    "DalangConditionError",
    "make_noise_model",
    "spectral_density_radial",
    "grid_frequencies",
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

    def __post_init__(self):
        # checked here, so that dataclasses.replace(model, ...) is too
        if self.kind not in ("white", "riesz", "exponential"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.d not in (1, 2, 3):
            raise ValueError(f"dimension must be 1, 2 or 3, got {self.d!r}")
        if not self.Lbox > 0:
            raise ValueError("Lbox must be positive")
        if self.m < 2:
            raise ValueError("m must be at least 2")
        if self.kind == "riesz":
            if self.beta is None or not (0 < self.beta < self.d):
                raise ValueError("riesz noise requires 0 < beta < d")
        if self.kind == "exponential":
            if self.ell is None or not self.ell > 0:
                raise ValueError("exponential covariance requires ell > 0")

    @property
    def dx(self) -> float:
        return self.Lbox / self.m


def make_noise_model(kind, d, Lbox, m, beta=None, ell=None):
    """The model checks its fields itself; m must be a power of two here
    (the solver takes any m >= 2)."""
    if m < 2 or (m & (m - 1)) != 0:
        raise ValueError("m must be a power of two >= 2")
    return SpectralNoiseModel(kind, int(d), float(Lbox), int(m),
                              None if beta is None else float(beta),
                              None if ell is None else float(ell))


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
    c_d = math.gamma((d + 1) / 2.0) / np.pi ** ((d + 1) / 2.0)
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


# ---------------------------------------------------------------------------
# the variance functional g and its exponents
# ---------------------------------------------------------------------------

_SPHERE_AREA = {1: 2.0, 2: 2.0 * np.pi, 3: 4.0 * np.pi}


def _quad(f, a, b, **kw):
    # imported here: only the exponential covariance integrates numerically,
    # so importing the package does not load scipy.integrate
    from scipy import integrate as _integrate

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


# c_k = 2 (-1)^k / (2k + 3)!: int_0^t sin^2(ur)/r^2 du = t^3 sum_k c_k
# (2tr)^(2k); for 2tr < 1/4 the first omitted term (k = 6) is below 1e-18
# relative
_WAVE_SERIES = tuple(2.0 * (-1.0) ** k / math.factorial(2 * k + 3)
                     for k in range(6))


def _check_operator(operator):
    if operator not in ("heat", "wave"):
        raise ValueError(f"unknown operator {operator!r}: need 'heat' or "
                         "'wave'")


def squared_time_integral(operator, t, r):
    """int_0^t |F(Lambda(u))(r)|^2 du in closed form (vectorised in t, r).

    Heat is (1 - exp(-2tr^2))/(2r^2), with expm1 so that small 2tr^2 does
    not cancel.  The wave closed form cancels for small 2tr (relative error
    about 1e-16/(2tr)^2), so below 2tr = 1/4 its Taylor series is used.
    """
    _check_operator(operator)
    r = np.asarray(r, dtype=float)
    if operator == "heat":
        small = r < 1e-12
        rs = np.where(small, 1.0, r)
        out = -np.expm1(-2.0 * t * rs**2) / (2.0 * rs**2)
        return np.where(small, t, out)
    x = 2.0 * t * r
    small = x < 0.25
    rs = np.where(small, 1.0, r)
    out = (t - np.sin(x) / (2.0 * rs)) / (2.0 * rs**2)
    if not small.any():
        return out
    x2 = x * x
    series = _WAVE_SERIES[-1]
    for c in _WAVE_SERIES[-2::-1]:
        series = series * x2 + c
    return np.where(small, t**3 * series, out)


# relative accuracy of each piece of the exponential covariance's g(eps)
_G_EPSREL = 1e-10


def _noise_beta(model):
    """The covariance scaling |x|^-beta of the noise: beta = d for white
    noise, the Riesz beta, and 0 for the exponential covariance, whose
    spectral measure is finite."""
    return {"white": model.d, "riesz": model.beta}.get(model.kind, 0.0)


def variance_g(model, operator, eps, tally=None) -> float:
    """g(eps) = int_0^eps ds int mu(dxi) |F(Lambda(s))(xi)|^2.

    In polar form g = omega_d int_0^inf S(r) r^(d-1)
    squared_time_integral(operator, eps, r) dr.  For white and Riesz noise
    S(r) r^(d-1) = r^(beta-1) and g is a pure power in closed form:

        heat:  omega_d (1/4) (2 eps)^(1 - beta/2) (-Gamma(beta/2 - 1))
        wave:  omega_d pi eps^(3 - beta) 2^-beta
               / (Gamma(4 - beta) sin(pi beta / 2))

    (sqrt(2 pi eps) and pi eps^2/2 for white noise in d=1).  The
    exponential covariance takes one radial quadrature, split where the
    time integral turns over from growing like eps to decaying in r
    (r = 1/sqrt(2 eps) for heat, r = 1/eps for wave).  Its wave tail is
    split exactly as S r^(d-3) eps/2 - S r^(d-4) sin(2 eps r)/4: the first
    part is a plain quadrature, the second a Fourier integral (QAWF).

    A dict passed as tally receives evaluations, the number of integrand
    evaluations the quadrature took (0 for the closed forms).
    """
    _check_operator(operator)
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    _check_dalang(model)
    tally = {} if tally is None else tally
    tally["evaluations"] = 0
    if eps == 0:
        return 0.0
    d = model.d
    if model.kind != "exponential":
        # S(r) r^(d-1) = r^(beta-1); Dalang's condition gives 0 < beta < 2
        beta = _noise_beta(model)
        if operator == "heat":
            g = 0.25 * (2.0 * eps) ** (1.0 - beta / 2.0) \
                * -math.gamma(beta / 2.0 - 1.0)
        else:
            g = math.pi * eps ** (3.0 - beta) * 2.0 ** -beta \
                / (math.gamma(4.0 - beta) * math.sin(math.pi * beta / 2.0))
        return float(_SPHERE_AREA[d] * g)

    def radial(r, power):
        tally["evaluations"] += 1
        return spectral_density_radial(model, r) * r ** power

    f = lambda r: radial(r, d - 1) * squared_time_integral(operator, eps, r)
    kw = dict(epsabs=0.0, epsrel=_G_EPSREL)
    if operator == "heat":
        r1 = 1.0 / np.sqrt(2.0 * eps)
        total = _quad(f, 0.0, r1, **kw) + _quad(f, r1, np.inf, **kw)
    else:
        r1 = 1.0 / eps
        head = _quad(f, 0.0, r1, **kw)
        plain = 0.5 * eps * _quad(lambda r: radial(r, d - 3), r1, np.inf,
                                  **kw)
        # QAWF ignores epsrel on an infinite range, so its absolute target
        # is scaled to g: on r >= 1/eps the sine part is at most half the
        # plain part pointwise, so g/omega_d >= (head + plain)/2 and this
        # epsabs keeps its error below epsrel/5 of g, a margin of 5 on the
        # error estimate that QAWF extrapolates across cycles.
        osc = _quad(lambda r: 0.25 * radial(r, d - 4), r1, np.inf,
                    weight="sin", wvar=2.0 * eps,
                    epsabs=0.1 * _G_EPSREL * (head + plain))
        total = head + plain - osc
    return float(_SPHERE_AREA[d] * total)


def grid_variance_g(model, operator, eps) -> float:
    """g(eps) restricted to the grid's discrete spectrum (mode sum).

    This is the exact variance target of the spectral field solver; it
    converges to variance_g as the Nyquist radius grows.
    """
    r = _radius_grid(model)
    weight = _grid_density(model) * (2.0 * np.pi / model.Lbox) ** model.d
    return float(np.sum(weight * squared_time_integral(operator, eps, r)))


@dataclass
class GammaExponents:
    gamma1: float
    gamma2: float
    eps_grid: np.ndarray
    g_values: np.ndarray
    zero_mode_values: np.ndarray
    # integrand calls of each g(eps); None when g is in closed form
    evaluations: np.ndarray = None


def exponent_gamma(model, operator, eps_grid) -> GammaExponents:
    """The exponents of the variance functional in closed form, and the
    values of g behind them.

    gamma1 is the small-eps exponent of g(eps) by scaling on R^d:
    1 - beta/2 for heat and 3 - beta for wave, where the noise scales like
    a covariance |x|^-beta (see _noise_beta).  For white and Riesz noise g
    is a pure power, so the lower exponent gamma equals gamma1; for the
    exponential covariance gamma1 is the small-eps limit of its local
    slope.  gamma2 is the exponent of the zero-mode integral
    int_0^eps |F(Lambda(s))(0)|^2 ds: 1 for heat, 3 for wave.  g(eps) and
    the zero-mode integral are evaluated on eps_grid (the results rows).
    """
    eps_grid = np.asarray(eps_grid, dtype=float)
    if eps_grid.size < 4:
        raise ValueError("eps_grid needs at least 4 points")
    tallies = [{} for _ in eps_grid]
    g_vals = np.array([variance_g(model, operator, e, tally=t)
                       for e, t in zip(eps_grid, tallies)])
    calls = None if model.kind != "exponential" \
        else np.array([t["evaluations"] for t in tallies])
    z_vals = squared_time_integral(operator, eps_grid, 0.0)
    beta = _noise_beta(model)
    if operator == "heat":
        gamma1, gamma2 = 1.0 - beta / 2.0, 1.0
    else:
        gamma1, gamma2 = 3.0 - beta, 3.0
    return GammaExponents(gamma1, gamma2, eps_grid, g_vals, z_vals, calls)
