"""Velocity reconstruction from vorticity on the torus.

The operator K maps a mean-zero scalar vorticity to the unique mean-zero
divergence-free velocity field with curl(u) = omega, by solving

    Lap u1 = -d(omega)/dx2,   Lap u2 = d(omega)/dx1.

With the transform convention of :mod:`torus_field` (Lap acts as
-4*pi^2*|k|^2) the solution is the Fourier multiplier

    u1_hat(k) =  i*k2 / (2*pi*|k|^2) * omega_hat(k)
    u2_hat(k) = -i*k1 / (2*pi*|k|^2) * omega_hat(k),     k != 0.

The multipliers are fixed by residual substitution into the defining
Poisson problems, which is also what the tests check.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .errors import ConfigurationError, DomainError
from .torus_field import (
    ScalarField,
    _ksq,
    _read_only,
    l2_norm,
    partial_derivative,
    _sobolev_symbol,
    wavenumbers,
)

#: Spectral gap of the torus: smallest nonzero eigenvalue of -Lap.
LAMBDA_1 = 4.0 * np.pi**2


@cache
def _velocity_symbols(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (n, n) K multipliers i*k2/(2*pi*|k|^2) and -i*k1/(2*pi*|k|^2),
    read-only and 0 at k = 0: that mode is annihilated, never divided."""
    k = wavenumbers(n).astype(np.float64)
    ksq = _ksq(n)
    inv = np.divide(1.0, ksq, out=np.zeros_like(ksq), where=ksq > 0)
    m1 = 1j * k[None, :] * inv / (2.0 * np.pi)
    m2 = -1j * k[:, None] * inv / (2.0 * np.pi)
    return _read_only(m1), _read_only(m2)


def velocity_modes(omega_modes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Raw-array K multipliers; used by the solvers' hot paths.

    ``omega_modes`` are the (..., N, N) modes of validated fields, so
    mean-zero and Nyquist-free; their velocity is too.
    """
    m1, m2 = _velocity_symbols(omega_modes.shape[-1])
    return omega_modes * m1, omega_modes * m2


def apply_K(omega: ScalarField) -> tuple[ScalarField, ScalarField]:
    """Velocity components (u1, u2) of a mean-zero vorticity; divergence-free,
    curl = omega."""
    u1, u2 = velocity_modes(omega.modes)
    return ScalarField(u1), ScalarField(u2)


def divergence(u: tuple[ScalarField, ScalarField]) -> ScalarField:
    """d1 u1 + d2 u2; components on different grids are a ``ConfigurationError``."""
    u1, u2 = u
    return partial_derivative(u1, 1) + partial_derivative(u2, 2)


def curl(u: tuple[ScalarField, ScalarField]) -> ScalarField:
    """d1 u2 - d2 u1; components on different grids are a ``ConfigurationError``."""
    u1, u2 = u
    return partial_derivative(u2, 1) - partial_derivative(u1, 2)


def verify_elliptic_estimates(f: ScalarField) -> dict:
    """Check ||grad K_j f|| <= ||f|| and ||K_j f|| <= ||f||/sqrt(lambda_1).

    Returns the achieved ratios per component together with pass flags.
    """
    norm_f = l2_norm(f)
    if norm_f == 0.0:
        raise DomainError("elliptic-estimate ratios are undefined for the zero field")
    grad_ratios = []
    poincare_ratios = []
    for comp in apply_K(f):
        grad_sq = l2_norm(partial_derivative(comp, 1)) ** 2 + (
            l2_norm(partial_derivative(comp, 2)) ** 2
        )
        grad_ratios.append(float(np.sqrt(grad_sq)) / norm_f)
        poincare_ratios.append(l2_norm(comp) / norm_f)
    slack = 1.0 + 1e-12
    return {
        "grad_bound_ok": all(r <= slack for r in grad_ratios),
        "poincare_ok": all(r * np.sqrt(LAMBDA_1) <= slack for r in poincare_ratios),
        "ratios": {
            "grad": tuple(grad_ratios),
            "poincare": tuple(poincare_ratios),
        },
    }


# ---------------------------------------------------------------------------
# The elliptic constant C0 with ||K_j f||_{k,2} <= C0 ||f||_{k-1,2}


def closed_form_c0(k_order: int, n: int) -> float:
    """Supremum over resolved modes of the per-mode norm ratio.

    Both Sobolev norms are diagonal in Fourier, so the sharp constant on the
    truncated grid is max over k != 0 and components j of
    |m_j(k)| * sqrt(S_k(k)/S_{k-1}(k)) with m_j the K multiplier.
    """
    if not 1 <= k_order <= 3:
        raise ConfigurationError(f"C0 is measured for orders 1..3, got {k_order}")
    k = wavenumbers(n).astype(np.float64)
    ksq = _ksq(n)
    nonzero = ksq > 0
    root = np.sqrt(_sobolev_symbol(n, k_order) / _sobolev_symbol(n, k_order - 1))[nonzero]
    best = 0.0
    for m_num in (np.abs(k[None, :]), np.abs(k[:, None])):  # |k2| for K1, |k1| for K2
        mult = np.broadcast_to(m_num, ksq.shape)[nonzero] / (2.0 * np.pi * ksq[nonzero])
        best = max(best, float(np.max(mult * root)))
    return best
