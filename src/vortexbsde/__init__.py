"""Probabilistic and pseudo-spectral solvers for the 2D vorticity equation
on the unit torus.

Public surface: periodic field algebra (:mod:`torus_field`), the velocity
operator (:mod:`biot_savart`), the deterministic spectral reference solver
(:mod:`spectral_oracle`), seeded Brownian paths (:mod:`brownian`), the
Monte Carlo backward solver (:mod:`bsde_engine`), estimate checks
(:mod:`diagnostics`), checkpoint IO (:mod:`checkpoint`) and the batch CLI
(:mod:`cli`).
"""

from .biot_savart import apply_K, green_solve
from .bsde_engine import (
    BsdeSolution,
    PicardIterate,
    SolverConfig,
    bsde_residual,
    picard_solve,
)
from .brownian import BrownianPath, branch, scaled_displacement, simulate
from .errors import (
    ConfigurationError,
    DomainError,
    NonConvergenceError,
    NumericalError,
    VortexError,
)
from .spectral_oracle import VorticityTrajectory, evaluate, evolve, nonlinear_term
from .torus_field import (
    GridSignal,
    ScalarField,
    VectorField,
    field_from_mode_list,
    forward_transform,
    inverse_transform,
    partial_derivative,
    sobolev_norm,
    sup_norm,
    translate,
)

__version__ = "0.1.0"
