"""Drift estimation and limit-theorem verification for linear stochastic
evolution equations driven by fractional Brownian motion.

Subpackage map:

* :mod:`fracdrift.fgn` -- fractional Gaussian noise and the circulant engine
  behind every exact stationary draw.
* :mod:`fracdrift.models` -- spectral truncations, noise structures, projections.
* :mod:`fracdrift.covariance` -- stationary autocovariance operators and the
  variance factors of the limit theorems.
* :mod:`fracdrift.simulate` -- path integration and exact stationary sampling.
* :mod:`fracdrift.chaos` -- exact cumulants, rate functions, distances to normal.
* :mod:`fracdrift.estimators` -- the four minimum-contrast estimators.
* :mod:`fracdrift.harness` -- Monte Carlo experiments (consistency, CLTs,
  cumulants, non-Gaussian regime, degenerate projections).
* :mod:`fracdrift.cli` -- batch front end (`fracdrift theory|simulate|estimate|experiment`).
"""

__version__ = "0.1.0"
