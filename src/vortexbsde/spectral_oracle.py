"""Deterministic pseudo-spectral solver for the 2D vorticity equation

    d(omega)/dtau = nu * Lap(omega) - u . grad(omega),    u = K(omega)

on the unit torus, used as ground truth for the probabilistic solver.

Time stepping is integrating-factor RK2 (Heun on the diffusion-rescaled
variable): diffusion is applied exactly through the mode-wise factor
exp(-4*pi^2*nu*|k|^2*dtau), advection explicitly.  The quadratic term is
dealiased by 3/2 zero padding (Orszag, J. Atmos. Sci. 28, 1971): mode k
goes to k mod P on the padded grid, the rule of ``torus_field.embed_modes``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .biot_savart import _velocity_symbols, velocity_modes
from .errors import ConfigurationError, DomainError
from .torus_field import (
    ScalarField,
    _gradient_symbols,
    _heat_factor,
    _nyquist_mask,
    _validated_modes,
    l2_norms,
    modes_to_grid,
    wavenumbers,
)

#: Advective CFL limit: dtau * max|u| * 2*pi*(N/2) must stay below this.
CFL_LIMIT = 0.5


@dataclass(frozen=True)
class VorticityTrajectory:
    """Vorticity fields omega(tau_m, .) on the uniform grid tau_m = m*dt.

    The one trajectory type: oracle runs, Picard iterates (whose tau = 0
    slice is the terminal data psi) and ``.vbst`` checkpoints: one read-only
    (L+1, N, N) mode stack, validated once by the ``ScalarField`` rule.
    """

    modes: np.ndarray
    nu: float
    dt: float

    def __post_init__(self):
        shape = np.shape(self.modes)
        if len(shape) != 3 or shape[0] < 2:
            raise ConfigurationError(
                f"trajectory needs an (L+1, N, N) mode stack of at least two time nodes, got {shape}"
            )
        # A NaN passes every later comparison with dt and nu, so reject it here.
        if not (0 < self.dt < math.inf and 0 < self.nu < math.inf):
            raise ConfigurationError(
                f"trajectory needs finite positive dt and nu, got {self.dt!r}, {self.nu!r}"
            )
        object.__setattr__(self, "modes", _validated_modes(self.modes))

    @cached_property
    def fields(self) -> tuple:
        """The nodes as ``ScalarField``s, built on first use.  The package
        reads ``modes``; this is kept for node-wise readers outside it (the
        benchmark's reference errors and the tests)."""
        return tuple(ScalarField(m) for m in self.modes)

    @property
    def steps(self) -> int:
        return self.modes.shape[0] - 1

    @property
    def horizon(self) -> float:
        return self.steps * self.dt


class _AdvectionKernel:
    """Dealiased modes of u . grad(omega) plus max|u| on the padded lattice,
    for one (N, N) vorticity mode array at a time, with every table built
    once per grid size.

    u = K(omega) and grad(omega) go onto the 3N/2 grid (rounded up to an
    even size P) by the 3/2 rule; only the k2 >= 0 half that the real
    inverse FFT reads is written, into one (4, P, P) buffer whose other
    entries stay zero.  The product goes back by a full ``fft2``, and the
    band of the N grid is read off it, with the mean and the Nyquist lines
    set to zero.
    """

    def __init__(self, n: int):
        self.p = p = 2 * -(-3 * n // 4)  # 3N/2 rounded up to an even size
        self.half = half = n // 2  # the k2 >= 0 columns; column n/2 is the Nyquist line
        d1, d2 = _gradient_symbols(n)
        self.symbols = np.stack(
            np.broadcast_arrays(*(m[:, :half] for m in (*_velocity_symbols(n), d1, d2)))
        )
        self.band = wavenumbers(n) % p  # where the 3/2 rule puts each mode
        self.buf = np.zeros((4, p, p), dtype=np.complex128)
        self.mask = _nyquist_mask(n).copy()
        self.mask[0, 0] = True  # advection by a divergence-free field has zero mean

    def __call__(self, omega_modes: np.ndarray) -> tuple[np.ndarray, float]:
        self.buf[:, self.band, : self.half] = self.symbols * omega_modes[:, : self.half]
        u1_vals, u2_vals, w1_vals, w2_vals = modes_to_grid(self.buf)
        max_u = float(np.max(np.hypot(u1_vals, u2_vals)))
        prod = np.fft.fft2(u1_vals * w1_vals + u2_vals * w2_vals)
        adv = prod[self.band[:, None], self.band] / (self.p * self.p)
        adv[self.mask] = 0.0
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
    advection = _AdvectionKernel(n)
    stack = np.empty((steps + 1, n, n), dtype=np.complex128)
    w = stack[0] = omega0.modes
    for m in range(1, steps + 1):
        adv1, max_u = advection(w)
        _cfl_or_raise(dt, max_u, n, horizon)
        k1 = -adv1
        predictor = decay * (w + dt * k1)
        adv2, _ = advection(predictor)
        k2 = -adv2
        w = decay * w + 0.5 * dt * (decay * k1 + k2)
        stack[m] = w
    return VorticityTrajectory(stack, nu=nu, dt=dt)


def modes_at(traj: VorticityTrajectory, tau: float) -> np.ndarray:
    """Modes of omega(tau, .), linearly interpolated between grid nodes; at
    a node, the stack's own read-only row."""
    horizon = traj.horizon
    if tau < -1e-12 or tau > horizon * (1 + 1e-12):
        raise DomainError(f"tau = {tau} outside [0, {horizon}]")
    pos = min(max(tau, 0.0), horizon) / traj.dt
    node = round(pos)
    if abs(pos - node) < 1e-9:  # exact node lookup, no roundoff mixing
        return traj.modes[node]
    lo = int(pos)  # pos is off every node, so lo + 1 <= L
    frac = pos - lo
    return (1.0 - frac) * traj.modes[lo] + frac * traj.modes[lo + 1]


def enstrophy(modes: np.ndarray) -> np.ndarray:
    """Squared L2 norms of (..., N, N) vorticity modes, one per leading index."""
    return l2_norms(modes) ** 2


def kinetic_energy(modes: np.ndarray) -> np.ndarray:
    """Squared L2 norms of the velocity K(omega) of (..., N, N) vorticity
    modes, one per leading index."""
    u1, u2 = velocity_modes(modes)
    return np.sum(np.abs(u1) ** 2 + np.abs(u2) ** 2, axis=(-2, -1))
