"""Deterministic pseudo-spectral solver for the 2D vorticity equation

    d(omega)/dtau = nu * Lap(omega) - u . grad(omega),    u = K(omega)

on the unit torus, used as ground truth for the probabilistic solver.

Time stepping is integrating-factor RK2 (Heun on the diffusion-rescaled
variable): diffusion is applied exactly through the mode-wise factor
exp(-4*pi^2*nu*|k|^2*dtau), advection explicitly.  The quadratic term is
dealiased by 3/2 zero padding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .biot_savart import velocity_modes
from .errors import ConfigurationError, DomainError
from .torus_field import (
    ScalarField,
    _check_no_nyquist,
    _gradient_modes,
    _heat_factor,
    _nyquist_mask,
    grid_to_modes,
    l2_norm,
    modes_to_grid,
)

#: Advective CFL limit: dtau * max|u| * 2*pi*(N/2) must stay below this.
CFL_LIMIT = 0.5


@dataclass(frozen=True)
class VorticityTrajectory:
    """Vorticity fields omega(tau_m, .) on the uniform grid tau_m = m*dt.

    The one trajectory type: oracle runs, Picard iterates (whose tau = 0
    slice is the terminal data psi) and ``.vbst`` checkpoints.
    """

    fields: tuple
    nu: float
    dt: float

    def __post_init__(self):
        if len(self.fields) < 2:
            raise ConfigurationError("trajectory needs at least two time nodes")
        if any(f.grid_size != self.fields[0].grid_size for f in self.fields):
            raise ConfigurationError("trajectory fields disagree on grid size")
        # A NaN passes every later comparison with dt and nu, so reject it here.
        if not (0 < self.dt < math.inf and 0 < self.nu < math.inf):
            raise ConfigurationError(
                f"trajectory needs finite positive dt and nu, got {self.dt!r}, {self.nu!r}"
            )

    @property
    def steps(self) -> int:
        return len(self.fields) - 1

    @property
    def horizon(self) -> float:
        return self.steps * self.dt

    @property
    def grid_size(self) -> int:
        return self.fields[0].grid_size

    def mode_stack(self) -> np.ndarray:
        return np.stack([f.modes for f in self.fields])


def _pad_grid_size(n: int) -> int:
    p = (3 * n) // 2
    return p if p % 2 == 0 else p + 1


def _pad_modes(modes: np.ndarray, p: int) -> np.ndarray:
    """Place resolved modes (Nyquist row assumed zero) onto a larger grid."""
    n = modes.shape[-1]
    half = n // 2
    out = np.zeros(modes.shape[:-2] + (p, p), dtype=np.complex128)
    idx = np.r_[0:half, p - half : p]
    src = np.r_[0:half, n - half : n]
    out[..., idx[:, None], idx[None, :]] = modes[..., src[:, None], src[None, :]]
    return out


def _truncate_modes(big: np.ndarray, n: int) -> np.ndarray:
    p = big.shape[-1]
    half = n // 2
    idx = np.r_[0:half, p - half : p]
    src = np.r_[0:half, n - half : n]
    out = np.zeros(big.shape[:-2] + (n, n), dtype=np.complex128)
    out[..., src[:, None], src[None, :]] = big[..., idx[:, None], idx[None, :]]
    out[..., _nyquist_mask(n)] = 0.0
    return out


def _advection_modes(omega_modes: np.ndarray) -> tuple[np.ndarray, float]:
    """Dealiased modes of u . grad(omega) plus max|u| on the padded lattice."""
    n = omega_modes.shape[-1]
    p = _pad_grid_size(n)
    w1, w2 = _gradient_modes(omega_modes)
    u1, u2 = velocity_modes(omega_modes)
    vals = [modes_to_grid(_pad_modes(m, p)) for m in (u1, u2, w1, w2)]
    max_u = float(np.max(np.hypot(vals[0], vals[1])))
    prod = vals[0] * vals[2] + vals[1] * vals[3]
    adv = _truncate_modes(grid_to_modes(prod), n)
    adv[..., 0, 0] = 0.0  # advection by a divergence-free field has zero mean
    return adv, max_u


def _cfl_or_raise(dt: float, max_u: float, n: int, horizon: float) -> None:
    cfl = dt * max_u * 2.0 * np.pi * (n // 2)
    if cfl > CFL_LIMIT:
        suggested = math.ceil(horizon * max_u * 2.0 * np.pi * (n // 2) / CFL_LIMIT)
        raise ConfigurationError(
            f"advective CFL {cfl:.3f} exceeds {CFL_LIMIT}; "
            f"use at least L = {suggested} steps"
        )


def evolve(omega0: ScalarField, nu: float, horizon: float, steps: int) -> VorticityTrajectory:
    """Integrate the vorticity equation from omega0 over [0, horizon]."""
    if not (np.isfinite(nu) and np.isfinite(horizon) and nu > 0 and horizon > 0):
        raise ConfigurationError("nu and T must be finite and positive")
    if steps < 1:
        raise ConfigurationError("need at least one time step")
    n = omega0.grid_size
    dt = horizon / steps
    decay = _heat_factor(n, nu, dt)
    ny = _nyquist_mask(n)

    _check_no_nyquist(omega0.modes, "omega0")
    w = omega0.modes.copy()
    fields = [ScalarField(w)]
    for _ in range(steps):
        adv1, max_u = _advection_modes(w)
        _cfl_or_raise(dt, max_u, n, horizon)
        k1 = -adv1
        predictor = decay * (w + dt * k1)
        adv2, _ = _advection_modes(predictor)
        k2 = -adv2
        w = decay * w + 0.5 * dt * (decay * k1 + k2)
        w[ny] = 0.0
        w[0, 0] = 0.0
        fields.append(ScalarField(w))
    return VorticityTrajectory(tuple(fields), nu=nu, dt=dt)


def field_at(traj: VorticityTrajectory, tau: float) -> ScalarField:
    """Field at time tau, linearly interpolated between grid nodes."""
    horizon = traj.horizon
    if tau < -1e-12 or tau > horizon * (1 + 1e-12):
        raise DomainError(f"tau = {tau} outside [0, {horizon}]")
    tau = min(max(tau, 0.0), horizon)
    pos = tau / traj.dt
    if abs(pos - round(pos)) < 1e-9:  # exact node lookup, no roundoff mixing
        return traj.fields[int(round(pos))]
    lo = min(int(np.floor(pos)), traj.steps)
    hi = min(lo + 1, traj.steps)
    frac = pos - lo
    if hi == lo or frac == 0.0:
        return traj.fields[lo]
    modes = (1.0 - frac) * traj.fields[lo].modes + frac * traj.fields[hi].modes
    return ScalarField(modes)


def enstrophy(f: ScalarField) -> float:
    return l2_norm(f) ** 2


def kinetic_energy(f: ScalarField) -> float:
    u1, u2 = velocity_modes(f.modes)
    return float(np.sum(np.abs(u1) ** 2 + np.abs(u2) ** 2))
