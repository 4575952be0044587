"""Independent brute-force oracles used to freeze expected values.

These deliberately avoid the FFT/multiplier code paths of the package:
transforms are literal double loops over wavenumbers and lattice points,
integrals are dense-lattice Riemann/trapezoid sums over analytic samples.
The scalar references at the end (one path, one weight, one increment)
restate single terms of the vectorized estimators for spot checks.
"""

import numpy as np

from vortexbsde import brownian
from vortexbsde.biot_savart import _require_mean_zero
from vortexbsde.errors import ConfigurationError, NumericalError
from vortexbsde.torus_field import ScalarField, translate


def dft_brute(values: np.ndarray) -> np.ndarray:
    """O(N^4) discrete analysis transform, literal double loop over k."""
    n = values.shape[0]
    ks = np.fft.fftfreq(n) * n
    out = np.zeros((n, n), dtype=np.complex128)
    x = np.arange(n) / n
    for i1, k1 in enumerate(ks):
        for i2, k2 in enumerate(ks):
            acc = 0.0 + 0.0j
            for j1 in range(n):
                for j2 in range(n):
                    acc += values[j1, j2] * np.exp(
                        -2j * np.pi * (k1 * x[j1] + k2 * x[j2])
                    )
            out[i1, i2] = acc / n**2
    return out


def series_sum_brute(modes: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Literal synthesis sum_k fhat(k) e^{2 pi i <k,x>} at given points."""
    n = modes.shape[0]
    ks = (np.fft.fftfreq(n) * n).astype(int)
    vals = np.zeros(len(points), dtype=np.complex128)
    for i1, k1 in enumerate(ks):
        for i2, k2 in enumerate(ks):
            c = modes[i1, i2]
            if c == 0:
                continue
            vals += c * np.exp(2j * np.pi * (k1 * points[:, 0] + k2 * points[:, 1]))
    return vals.real


def l2_quadrature(func, samples: int = 4096) -> float:
    """sqrt of the Riemann integral of func(x1, x2)^2 on a dense midpoint lattice."""
    grid = (np.arange(samples) + 0.5) / samples
    vals = func(grid[:, None], grid[None, :])
    return float(np.sqrt(np.mean(vals**2)))


def integral_2d(func, samples: int = 2048) -> float:
    """Riemann integral of func over the unit torus on a midpoint lattice."""
    grid = (np.arange(samples) + 0.5) / samples
    vals = func(grid[:, None], grid[None, :])
    return float(np.mean(vals))


def terminal_value(psi: ScalarField, path: brownian.BrownianPath, nu: float) -> ScalarField:
    """xi = psi( . + sqrt(2*nu) B_T), the terminal random field along a path."""
    _require_mean_zero(psi, "terminal data psi")
    if path.steps < 1:
        raise ConfigurationError("path has no steps")
    return translate(psi, brownian.scaled_displacement(path, path.steps, nu))


def girsanov_weight(h_values, increments, dt: float) -> float:
    """exp(-sum <h_m, dB_m> - 1/2 sum |h_m|^2 dt) with left-point h.

    Overflowing or non-finite exponents raise: a clipped weight would
    silently break the martingale property, so failure must be loud.
    """
    h = np.asarray(h_values, dtype=np.float64)
    db = np.asarray(increments, dtype=np.float64)
    if h.shape != db.shape or h.ndim != 2 or h.shape[1] != 2:
        raise ConfigurationError(f"h and increments must both be (n, 2), got {h.shape} vs {db.shape}")
    if not np.all(np.isfinite(h)):
        raise NumericalError("non-finite h in Girsanov weight")
    exponent = -float(np.sum(h * db)) - 0.5 * float(np.sum(h * h)) * dt
    weight = np.exp(exponent)
    if not np.isfinite(weight) or weight <= 0.0:
        raise NumericalError("Girsanov weight overflow", diagnostics={"exponent": exponent})
    return float(weight)


def increment_at(key, m: int, dt: float) -> np.ndarray:
    """Random access to increment m of the keyed stream (no predecessors)."""
    words = np.random.Philox(counter=m, key=key).random_raw(2)
    return brownian._words_to_normals(words) * np.sqrt(dt)


def dump_csv(path: brownian.BrownianPath, stream) -> None:
    """Write the path as CSV rows (m, t, B1, B2) for debugging."""
    stream.write("m,t,B1,B2\n")
    for m, (t, (b1, b2)) in enumerate(zip(path.times, path.values)):
        stream.write(f"{m},{t!r},{b1!r},{b2!r}\n")
