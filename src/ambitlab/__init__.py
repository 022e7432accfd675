"""Numerical laboratory for density-existence results.

Two families of random models are simulated and measured here:

* stochastic PDEs (heat, wave) driven by Gaussian noise that is white in
  time and spatially homogeneous, where existence of densities is governed
  by the small-time growth of the noise variance, and
* ambit fields driven by stable-like Levy bases on cone-type ambit sets,
  where the governing quantities are slab integrals of the kernel against
  the control measure.

The subpackages expose the building blocks (finite-difference/Besov
machinery, spectral noise, field solvers, Levy-basis samplers, ambit
evaluators) plus Monte-Carlo plumbing and a small CLI.
"""

__version__ = "0.1.0"  # before the submodules, which log it

from . import (ambit, besov, config, experiments, levy, montecarlo, noise,
               operators, spde)

__all__ = ["ambit", "besov", "config", "experiments", "levy", "montecarlo",
           "noise", "operators", "spde"]
