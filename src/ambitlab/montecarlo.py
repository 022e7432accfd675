"""Monte-Carlo plumbing: scaling fits, verdicts, reproducible ensembles.

The slope's confidence halfwidth uses an own Student-t quantile (the exact
integer-dof CDF solved by Newton's method), so the module needs no SciPy.

Randomness comes from `path_rng`, a pure function of (master_seed, stream,
path_index).  Path ensembles run through `run_ensemble_blocks`, whose fixed
blocks and per-path RNGs make results bit-identical for any worker count.
Single-draw experiments take one `path_rng` stream directly; the bulk Levy
sampler (`levy.sample_integral`) draws each chunk from its own child of
that stream (`Generator.spawn`) and runs whole chunks on its workers, with
the same result for any worker count.
"""

from __future__ import annotations

import math
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ScalingFit",
    "fit_scaling",
    "decide",
    "path_rng",
    "run_ensemble_blocks",
]

# Ordinates below this are treated as exact zeros (log-log fits impossible).
DEGENERATE_FLOOR = 1e-14

# Paths are always grouped in fixed-size blocks so that batched numerics do
# not depend on the worker count: this many paths each, unless the caller
# sizes its blocks (spde.paths_per_block).
DEFAULT_BLOCK = 256


def _t_quantile_975(dof: int) -> float:
    """The 0.975 quantile of Student's t with an integer dof >= 2.

    The exact CDF of Abramowitz-Stegun 26.7.3/26.7.4 with theta =
    atan(t/sqrt(dof)) gives P(|T| <= t) = sin(theta) S (even dof) or
    (2/pi)(theta + sin(theta) S) (odd dof), S a finite series in
    cos(theta)^2.  P is concave in t > 0 and the normal quantile lies below
    the root, so Newton's steps from it rise monotonically to the root; the
    error after a step of relative size 1e-12 is far below rounding.
    """
    nu = float(dof)
    log_pdf0 = (math.lgamma((nu + 1.0) / 2.0) - math.lgamma(nu / 2.0)
                - 0.5 * math.log(nu * math.pi))
    t = 1.959963984540054
    while True:
        theta = math.atan(t / math.sqrt(nu))
        c2 = math.cos(theta) ** 2
        term = 1.0 if dof % 2 == 0 else math.cos(theta)
        series = term
        for j in range(2 if dof % 2 == 0 else 3, dof - 1, 2):
            term *= c2 * (j - 1) / j
            series += term
        p = math.sin(theta) * series
        if dof % 2:
            p = (theta + p) * 2.0 / math.pi
        pdf = math.exp(log_pdf0 - 0.5 * (nu + 1.0) * math.log1p(t * t / nu))
        step = (0.95 - p) / (2.0 * pdf)
        t += step
        if abs(step) <= 1e-12 * t:
            return t


@dataclass
class ScalingFit:
    """Weighted least-squares fit of log(y) against log(x)."""

    slope: float
    intercept: float
    r2: float
    ci_halfwidth: float
    points_used: int
    # fit_scaling returns "ok" or "degenerate"; besov's window rule sets
    # "inconclusive" (too few resolved points).  A run's flag is decide's.
    flag: str


def fit_scaling(x, y, stderr=None) -> ScalingFit:
    """Fit y ~ C * x**slope by weighted least squares in log-log space.

    Parameters
    ----------
    x : strictly monotone, positive abscissae (>= 4 points).
    y : positive ordinates.  If every |y| is below 1e-14 the data carry no
        scaling information and the fit is flagged "degenerate".
    stderr : optional per-point Monte-Carlo errors of y; propagated to
        log-space weights via the delta method.

    The 95% confidence halfwidth for the slope uses the Student-t quantile
    with (points - 2) degrees of freedom.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError("x and y must be 1-d arrays of equal length")
    if x.size < 4:
        raise ValueError("need at least 4 points for a scaling fit")
    dx = np.diff(x)
    if not (np.all(dx > 0) or np.all(dx < 0)):
        raise ValueError("x must be strictly monotone")
    if np.any(x <= 0):
        raise ValueError("x values must be positive")
    if np.all(np.abs(y) < DEGENERATE_FLOOR):
        return ScalingFit(0.0, 0.0, 0.0, np.inf, 0, "degenerate")
    if np.any(y <= 0):
        raise ValueError("y values must be positive for a log-log fit")

    lx = np.log(x)
    ly = np.log(y)
    if stderr is not None:
        stderr = np.asarray(stderr, dtype=float)
        if stderr.shape != y.shape:
            raise ValueError("stderr must match y")
        # delta method: sd(log y) = stderr / y; guard exact-zero errors
        sd = np.maximum(stderr / y, 1e-12)
        w = 1.0 / sd**2
    else:
        w = np.ones_like(ly)

    W = np.sum(w)
    mx = np.sum(w * lx) / W
    my = np.sum(w * ly) / W
    sxx = np.sum(w * (lx - mx) ** 2)
    if sxx <= 0:
        raise ValueError("degenerate abscissae")
    sxy = np.sum(w * (lx - mx) * (ly - my))
    slope = sxy / sxx
    intercept = my - slope * mx

    resid = ly - (intercept + slope * lx)
    npts = x.size
    dof = npts - 2
    # weighted residual variance, scaled so unit weights reduce to OLS
    s2 = np.sum(w * resid**2) / dof
    se_slope = np.sqrt(s2 / sxx)
    ci = float(_t_quantile_975(dof) * se_slope)

    ss_res = np.sum(w * resid**2)
    ss_tot = np.sum(w * (ly - my) ** 2)
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return ScalingFit(float(slope), float(intercept), float(r2), ci, int(npts), "ok")


def decide(fit: ScalingFit, threshold: float):
    """(verdict, flag) of the claim "slope > threshold" on the fit's 95% CI:
    True or False, flagged "ok", when the CI lies above or below the
    threshold, else None, "inconclusive".  A fit without a usable slope
    ("degenerate", or besov's window-rule "inconclusive") gives None and
    its own flag."""
    if fit.flag != "ok":
        return None, fit.flag
    if fit.slope - fit.ci_halfwidth > threshold:
        return True, "ok"
    if fit.slope + fit.ci_halfwidth < threshold:
        return False, "ok"
    return None, "inconclusive"


# ---------------------------------------------------------------------------
# reproducible ensembles
# ---------------------------------------------------------------------------


def _stream_key(stream: str) -> int:
    return zlib.crc32(stream.encode("utf-8"))


def path_rng(master_seed: int, stream: str, index: int) -> np.random.Generator:
    """Counter-style RNG for one path: a pure function of its coordinates."""
    ss = np.random.SeedSequence(entropy=int(master_seed),
                                spawn_key=(_stream_key(stream), int(index)))
    return np.random.default_rng(ss)


def _blocks(n: int, size: int):
    return [(i, min(i + size, n)) for i in range(0, n, size)]


def run_ensemble_blocks(n_paths, block_fn, *, master_seed, stream,
                        workers=1, block_size=DEFAULT_BLOCK) -> np.ndarray:
    """Run `block_fn(indices, rngs) -> array(len(indices), ...)` over fixed blocks.

    Block composition depends only on `block_size`, never on `workers`, and
    each path's RNG depends only on its own index, so the stacked output is
    identical for any worker count.
    """
    if n_paths <= 0:
        raise ValueError("n_paths must be positive")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    spans = _blocks(n_paths, block_size)

    def do_block(span):
        i0, i1 = span
        idx = np.arange(i0, i1)
        rngs = [path_rng(master_seed, stream, i) for i in idx]
        out = np.asarray(block_fn(idx, rngs))
        if out.shape[0] != i1 - i0:
            raise ValueError("block_fn returned wrong leading dimension")
        return out

    # both the list and pool.map give the blocks in span order
    if workers == 1:
        results = [do_block(s) for s in spans]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(do_block, spans))
    return np.concatenate(results, axis=0)
