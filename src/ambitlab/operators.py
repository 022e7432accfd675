"""Fundamental solutions of the constant-coefficient operators.

The Fourier convention is F(phi)(xi) = int exp(-i <xi, x>) phi(x) dx, under
which the transforms of the fundamental solutions are

    heat:  F(Lambda(s))(xi) = exp(-s |xi|^2)
    wave:  F(Lambda(s))(xi) = sin(s |xi|) / |xi|      (d <= 3)
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["FundamentalSolution", "heat_operator", "wave_operator"]


@dataclass(frozen=True)
class FundamentalSolution:
    kind: str  # "heat" | "wave"
    d: int


def heat_operator(d: int) -> FundamentalSolution:
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return FundamentalSolution("heat", int(d))


def wave_operator(d: int) -> FundamentalSolution:
    # Lambda is a nonnegative measure only for d <= 3
    if d < 1 or d > 3:
        raise ValueError("wave operator supported for 1 <= d <= 3")
    return FundamentalSolution("wave", int(d))
