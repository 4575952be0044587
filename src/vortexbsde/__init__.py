"""Probabilistic and pseudo-spectral solvers for the 2D vorticity equation
on the unit torus.

Modules: periodic field algebra (:mod:`torus_field`), the velocity
operator (:mod:`biot_savart`), the deterministic spectral reference solver
(:mod:`spectral_oracle`), seeded Brownian paths (:mod:`brownian`), the
Monte Carlo backward solver (:mod:`bsde_engine`), estimate checks
(:mod:`diagnostics`), checkpoint IO (:mod:`checkpoint`) and the batch CLI
(:mod:`cli`).  Import what you use from those modules; the package root
exports only the error classes, so importing it loads neither numpy nor
scipy.
"""

from .errors import (
    ConfigurationError,
    DomainError,
    NonConvergenceError,
    NumericalError,
    VortexError,
)

__version__ = "0.1.0"
