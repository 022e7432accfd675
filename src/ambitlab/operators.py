"""Fundamental solutions of the constant-coefficient operators.

The Fourier convention is F(phi)(xi) = int exp(-i <xi, x>) phi(x) dx, under
which the transforms of the fundamental solutions are

    heat:  F(Lambda(s))(xi) = exp(-s |xi|^2)
    wave:  F(Lambda(s))(xi) = sin(s |xi|) / |xi|      (d <= 3)

Both are radial; `fourier_radial` evaluates them as functions of r = |xi|.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["FundamentalSolution", "heat_operator", "wave_operator"]


@dataclass(frozen=True)
class FundamentalSolution:
    kind: str  # "heat" | "wave"
    d: int

    def fourier_radial(self, s, r):
        """F(Lambda(s)) at radius r = |xi| (vectorised in r)."""
        r = np.asarray(r, dtype=float)
        if self.kind == "heat":
            return np.exp(-s * r**2)
        sr = s * r
        out = np.empty_like(r)
        small = r < 1e-12
        out[~small] = np.sin(sr[~small]) / r[~small]
        out[small] = s  # sin(sr)/r -> s as r -> 0
        return out

    def mass_sup(self, horizon: float) -> float:
        """sup_{t <= T} of the total-variation mass of Lambda(t)."""
        return 1.0 if self.kind == "heat" else float(horizon)


def heat_operator(d: int) -> FundamentalSolution:
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return FundamentalSolution("heat", int(d))


def wave_operator(d: int) -> FundamentalSolution:
    # Lambda is a nonnegative measure only for d <= 3
    if d < 1 or d > 3:
        raise ValueError("wave operator supported for 1 <= d <= 3")
    return FundamentalSolution("wave", int(d))
