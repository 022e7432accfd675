"""Finite-difference Besov machinery and the density-criterion statistic.

The n-th forward difference with step h is

    D_h^n f(x) = sum_{j=0}^n (-1)^(n-j) C(n,j) f(x + j h),

and the Besov B^s_{1,inf} norm is

    ||f||_{L^1} + sup_h |h|^(-s) ||D_h^n f||_{L^1},   n > s.

A law kappa on R admits a density in B^{a-alpha}_{1,inf} as soon as
|int D_h^n phi dkappa| <= C ||phi||_{C^alpha_b} |h|^a for every test
function phi in C^alpha_b and 0 < alpha <= a < 1.  `criterion_statistic`
measures the left-hand side on weighted Monte-Carlo samples against an
oscillatory test family and fits the decay exponent in h.

`criterion_report` is where every density verdict is decided: the SPDE and
ambit experiments only draw the sample and its weights |sigma|^n, and it
runs the statistic and turns the fits into the slopes, the verdict and the
run's flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .montecarlo import ScalingFit, decide, fit_scaling

__all__ = [
    "CriterionStatistic",
    "CriterionReport",
    "criterion_statistic",
    "criterion_report",
    "default_h_grid",
    "holder_sup_constant",
    "oscillatory_norm",
    "DEFAULT_FREQUENCIES",
]

MAX_ORDER = 20
DEFAULT_FREQUENCIES = (0.5, 1.0, 2.0, 4.0, 8.0)

# MC quality gate for the log-log regression window: a point qualifies when
# the statistic exceeds 3x its standard error (relative error < 33%).
_NOISE_MULTIPLE = 3.0

# A test family's (verdict, flag): the first of montecarlo.decide's
# outcomes in this list that one of its frequencies gives
_PRECEDENCE = [(False, "ok"), (None, "inconclusive"), (True, "ok"),
               (None, "degenerate")]


def default_h_grid() -> np.ndarray:
    """Geometric grid of 16 steps from 1 down to 2**-15 (descending)."""
    return np.geomspace(1.0, 2.0 ** -15, 16)


# ---------------------------------------------------------------------------
# oscillatory test family and its Holder norm
# ---------------------------------------------------------------------------


def holder_sup_constant(alpha: float) -> float:
    """sup_{u>0} 2 sin(u/2) / u^alpha  (exact Holder seminorm of cos at k=1).

    |cos(k x) - cos(k y)| = 2 |sin(k(x+y)/2)| |sin(k(x-y)/2)|, so the
    seminorm of cos(k .) in C^alpha is k^alpha times this constant.

    For alpha < 1 the sup is the one interior maximum, where the derivative
    vanishes: tan(v/2) = v / (2 alpha) with v in (0, pi).  At alpha = 1 the
    ratio decreases in u and the sup is its u -> 0 limit, 1.
    """
    if not 0 < alpha <= 1:
        raise ValueError("alpha must lie in (0, 1]")
    if alpha == 1:
        return 1.0
    # F(v) = sin(v/2) - v cos(v/2) / (2 alpha) is < 0 on (0, v*) and > 0 on
    # (v*, pi]: Newton steps, replaced by bisection when they leave the
    # bracket (from a poor start plain Newton runs off to another branch)
    lo, hi, v = 0.0, math.pi, 0.5 * math.pi
    for _ in range(100):
        sn, cs = math.sin(0.5 * v), math.cos(0.5 * v)
        f = sn - v * cs / (2.0 * alpha)
        # F is a difference of two terms of size sin(v/2): below a few of
        # its ulps the sign is rounding noise (near alpha = 1, where the
        # root is small, Newton would otherwise cycle there)
        if abs(f) <= 4.0 * math.ulp(sn):
            break
        if f < 0.0:
            lo = v
        else:
            hi = v
        df = 0.5 * cs * (1.0 - 1.0 / alpha) + v * sn / (4.0 * alpha)
        step = v - f / df if df else -1.0
        new = step if lo <= step <= hi else 0.5 * (lo + hi)
        if abs(new - v) <= 4.0 * math.ulp(v):
            break
        v = new
    # the maximum is flat, so the double root is exact enough; evaluating it
    # in extended precision (where the platform has it) rounds the constant
    # to the nearest double instead of carrying a double evaluation's ulps
    v = np.longdouble(v)
    return float(2 * np.sin(v / 2) / v ** np.longdouble(alpha))


def oscillatory_norm(k: float, alpha: float) -> float:
    """C^alpha_b norm of cos(kx) / sin(kx): sup norm 1 plus the seminorm."""
    return 1.0 + k**alpha * holder_sup_constant(alpha)


@dataclass
class CriterionStatistic:
    """Decay of |E[w . D_h^n exp(ik X)]| in h for one test frequency."""

    test_function_id: str
    frequency: float
    h_values: np.ndarray
    stat_values: np.ndarray
    stderr_values: np.ndarray
    norm_constant: float
    fitted: ScalingFit
    window: tuple  # (index range used by the fit) or ()

    def rows(self):
        """CSV-ready (h, stat, stderr) triples."""
        return list(zip(self.h_values, self.stat_values, self.stderr_values))


def _select_window(h, stat, stderr):
    """Smallest decade of h in which every point resolves above MC noise."""
    ok = (stat > _NOISE_MULTIPLE * stderr) & (stat > 1e-300)
    candidates = []
    for i in range(h.size):
        if not ok[i]:
            continue
        inside = (h <= h[i] * (1 + 1e-12)) & (h >= h[i] / 10.0 * (1 - 1e-12))
        idx = np.nonzero(inside)[0]
        if idx.size >= 4 and np.all(ok[idx]):
            candidates.append((h[idx].min(), idx))
    if candidates:
        _, idx = min(candidates, key=lambda c: c[0])
        return idx
    idx = np.nonzero(ok)[0]
    return idx if idx.size >= 4 else np.array([], dtype=int)


def criterion_statistic(samples, weights, n, h_grid=None, alpha=0.5,
                        frequencies=DEFAULT_FREQUENCIES, normalize=True):
    """Per-frequency criterion statistics for a weighted empirical law.

    For each frequency k the statistic is the modulus of the weighted
    sample mean of the order-n difference of e^{ik.},

        stat(h) = | mean_i w_i D_h^n e^{ik X_i} |,

    optionally divided by the C^alpha_b norm of cos(k.) / sin(k.).  The
    difference factorises exactly, D_h^n e^{ikx} = e^{ikx} (e^{ikh} - 1)^n
    with |e^{ikh} - 1| = |2 sin(kh/2)|, so with z_i = w_i e^{ik X_i}

        stat(h) = |mean z| |2 sin(kh/2)|^n,

    and the standard error is sqrt(var Re z + var Im z) / sqrt(N) times the
    same factor (the total variance of c Z is |c|^2 that of Z); n = 0 is the
    identity, used by negative controls.  The decay exponent is fitted over
    the smallest decade of h on which the statistic stays above 3x its
    standard error; a fit over fewer than 4 qualifying points is flagged
    "inconclusive", and an all-zero statistic is flagged "degenerate".

    samples needs at least 2 values, for the standard error.  weights holds
    one weight per sample, or one number for every sample; None means unit
    weights.  Returns one CriterionStatistic per frequency.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1:
        raise ValueError("samples must be a 1-d array")
    if x.size < 2:
        # one sample's statistic is |2 sin(kh/2)|^n exactly, slope n
        raise ValueError("the criterion needs at least 2 samples for a "
                         "standard error")
    w = np.asarray(1.0 if weights is None else weights, dtype=float)
    if w.ndim and w.shape != x.shape:
        raise ValueError("weights must match samples")
    if not np.all(np.isfinite(w)) or not np.all(np.isfinite(x)):
        raise ValueError("criterion weights/samples must be finite")
    if n < 0 or n > MAX_ORDER:
        raise ValueError("difference order out of range")
    if h_grid is None:
        h_grid = default_h_grid()
    h = np.asarray(h_grid, dtype=float)
    if np.any(h <= 0):
        raise ValueError("h values must be positive")
    N = x.size

    out = []
    z = np.empty(N, dtype=complex)
    for k in frequencies:
        norm_c = oscillatory_norm(k, alpha) if normalize else 1.0
        # z = w e^{ikX}, filled in place in one buffer for every frequency
        np.multiply(1j * k, x, out=z)
        np.exp(z, out=z)
        z *= w
        sd = np.sqrt(z.real.var(ddof=1) + z.imag.var(ddof=1))
        factor = np.abs(2.0 * np.sin(k * h / 2.0)) ** n
        stat = abs(z.mean()) * factor / norm_c
        err = sd * factor / np.sqrt(N) / norm_c
        idx = _select_window(h, stat, err)
        if np.all(stat < 1e-14):
            fit = ScalingFit(0.0, 0.0, 0.0, np.inf, 0, "degenerate")
            idx = np.array([], dtype=int)
        elif idx.size >= 4:
            up = idx[np.argsort(h[idx])]         # the window, h ascending
            fit = fit_scaling(h[up], stat[up], err[up])
        else:
            fit = ScalingFit(np.nan, np.nan, 0.0, np.inf, int(idx.size),
                             "inconclusive")
        out.append(CriterionStatistic(
            test_function_id=f"exp(i*{k:g}*x)", frequency=float(k),
            h_values=h.copy(), stat_values=stat, stderr_values=err,
            norm_constant=float(norm_c), fitted=fit,
            window=tuple(int(i) for i in idx)))
    return out


@dataclass
class CriterionReport:
    """Density verdict over a test family: every frequency's decay slope
    must exceed the test-function Holder order."""

    statistics: list
    slopes: dict             # test_function_id -> slope, "ok" fits only
    min_slope: float         # None when no fit is usable
    holder_order: float
    verdict: bool            # None unless flag is "ok"
    flag: str                # "ok" | "inconclusive" | "degenerate"


def criterion_report(samples, weights, n, holder_order) -> CriterionReport:
    """The density verdict of a weighted sample: criterion_statistic at the
    default h grid and frequencies against C^holder_order test functions.

    A scalar weight applies to every sample; None means unit weights.  Each
    frequency's fit is decided on "slope > holder_order"; the run takes the
    first in _PRECEDENCE that a frequency gives.  An exactly zero statistic
    (degenerate) is conclusive, since more paths cannot change it; if every
    one is zero (say every weight is), the zero measure says nothing about
    the law, so the verdict is None.
    """
    statistics = criterion_statistic(samples, weights, n, alpha=holder_order)
    slopes = {s.test_function_id: s.fitted.slope for s in statistics
              if s.fitted.flag == "ok"}
    min_slope = float(min(slopes.values())) if slopes else None
    verdict, flag = min((decide(s.fitted, holder_order) for s in statistics),
                        key=_PRECEDENCE.index)
    return CriterionReport(statistics, slopes, min_slope,
                           float(holder_order), verdict, flag)
