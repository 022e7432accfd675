"""Monte-Carlo plumbing: scaling fits, reproducible ensembles, ECF.

Randomness comes from `path_rng`, a pure function of (master_seed, stream,
path_index).  Path ensembles run through `run_ensemble_blocks`, whose fixed
blocks and per-path RNGs make results bit-identical for any worker count.
Single-draw experiments take one `path_rng` stream directly; the bulk Levy
sampler (`levy.sample_integral`) draws each chunk from its own child of
that stream (`Generator.spawn`) and runs whole chunks on its workers, with
the same result for any worker count.
"""

from __future__ import annotations

import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import special as _special

__all__ = [
    "ScalingFit",
    "fit_scaling",
    "path_rng",
    "run_ensemble_blocks",
    "empirical_cf",
]

# Ordinates below this are treated as exact zeros (log-log fits impossible).
DEGENERATE_FLOOR = 1e-14

# Paths are always grouped in fixed-size blocks so that batched numerics do
# not depend on the worker count.
DEFAULT_BLOCK = 256


@dataclass
class ScalingFit:
    """Weighted least-squares fit of log(y) against log(x)."""

    slope: float
    intercept: float
    r2: float
    ci_halfwidth: float
    points_used: int
    flag: str  # "ok" | "inconclusive" | "degenerate"


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
    s2 = np.sum(w * resid**2) / dof if dof > 0 else np.inf
    se_slope = np.sqrt(s2 / sxx)
    tq = _special.stdtrit(dof, 0.975) if dof > 0 else np.inf
    ci = float(tq * se_slope)

    ss_res = np.sum(w * resid**2)
    ss_tot = np.sum(w * (ly - my) ** 2)
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return ScalingFit(float(slope), float(intercept), float(r2), ci, int(npts), "ok")


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
        return i0, out

    if workers == 1:
        results = [do_block(s) for s in spans]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(do_block, spans))
    by_start = dict(results)
    return np.concatenate([by_start[i0] for i0, _ in spans], axis=0)


# ---------------------------------------------------------------------------
# empirical characteristic function
# ---------------------------------------------------------------------------


def empirical_cf(values, xi_grid):
    """Empirical characteristic function: mean of exp(i xi X).

    Returns (phi, stderr) where stderr is the universal 1/sqrt(n) bound on
    the complex-mean fluctuation (|e^{i xi X}| = 1).
    """
    values = np.asarray(values, dtype=float)
    xi = np.atleast_1d(np.asarray(xi_grid, dtype=float))
    if values.size == 0:
        raise ValueError("empty sample")
    phase = np.exp(1j * np.outer(xi, values))
    phi = phase.mean(axis=1)
    stderr = np.full(xi.shape, 1.0 / np.sqrt(values.size))
    return phi, stderr
