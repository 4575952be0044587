"""Mean-zero periodic scalar fields on the unit torus as truncated Fourier
series; a vector field is a pair of them.

Conventions (used verbatim by every other module):

    f(x)   = sum_k fhat(k) exp(2*pi*i*<k,x>)
    fhat(k) = integral over [0,1)^2 of f(y) exp(-2*pi*i*<k,y>) dy

so the Laplacian acts as multiplication by -4*pi^2*|k|^2.  Coefficients are
stored as an (N, N) complex array in numpy FFT layout: entry [i1, i2] is
fhat(k) with k_a the integer frequency ``fftfreq(N)*N`` at index i_a, i.e.
k_a in {-N/2, ..., N/2 - 1}.

One constructor rule, for a field and for each node of a trajectory's
(L+1, N, N) stack, makes every field

* real: Hermitian to roundoff, then symmetrised exactly;
* mean-zero: a fhat(0) beyond roundoff is rejected, then fhat(0) is set to
  exactly 0, because the velocity operator K, and with it every solver, is
  defined only on mean-zero vorticity;
* Nyquist-free: any nonzero entry on the row or column k_a = -N/2 is
  rejected, because that index stands for both +-N/2 and no multiplier
  (derivative, translation, K) can act on it consistently.

Operations on fields therefore need no hygiene of their own.  Fields are
immutable; all operations are pure and safe to share across workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import ConfigurationError, DomainError

TWO_PI = 2.0 * np.pi

#: Imaginary residue above this (relative to field scale) means a broken
#: Hermitian symmetry rather than roundoff.
_IMAG_TOL = 1e-10

#: A mean fhat(0) above this (relative to field scale) is a nonzero mean
#: rather than roundoff.
_MEAN_TOL = 1e-12


def _validate_grid_size(n: int) -> None:
    if n < 4 or n % 2 != 0:
        raise ConfigurationError(f"grid size must be even and >= 4, got {n}")


def wavenumbers(n: int) -> np.ndarray:
    """Integer frequencies along one axis in FFT storage order."""
    return (np.fft.fftfreq(n) * n).astype(np.int64)


def _ksq(n: int) -> np.ndarray:
    """|k|^2 on the (n, n) wavenumber grid, as float64."""
    k = wavenumbers(n).astype(np.float64)
    return k[:, None] ** 2 + k[None, :] ** 2


def _heat_factor(n: int, nu: float, tau) -> np.ndarray:
    """Heat factors exp(-4*pi^2*nu*|k|^2*tau); an array tau broadcasts on (n, n)."""
    return np.exp(-4.0 * np.pi**2 * nu * _ksq(n) * tau)


def _gradient_modes(modes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Modes 2*pi*i*k_a*fhat(k) of both partials of (..., n, n) mode arrays."""
    k = wavenumbers(modes.shape[-1]).astype(np.float64)
    return TWO_PI * 1j * k[:, None] * modes, TWO_PI * 1j * k[None, :] * modes


def _nyquist_mask(n: int) -> np.ndarray:
    """Boolean (N, N) mask of modes with |k_a| = N/2 on either axis."""
    k = wavenumbers(n)
    ny = k == -(n // 2)
    return ny[:, None] | ny[None, :]


def _hermitian_conjugate(modes: np.ndarray) -> np.ndarray:
    """conj(fhat(-k)) of (..., N, N) mode arrays, arranged on the same FFT grid."""
    n = modes.shape[-1]
    idx = (-np.arange(n)) % n
    return np.conj(modes[..., idx[:, None], idx])


def _validated_modes(modes) -> np.ndarray:
    """Read-only copy of (..., N, N) mode arrays of real mean-zero fields:
    each (N, N) node must be finite, zero on the Nyquist row and column,
    Hermitian to ``_IMAG_TOL`` and mean-zero to ``_MEAN_TOL`` relative to
    max(max |fhat|, 1), is symmetrised exactly and gets fhat(0) = 0.  An
    error names the first node that fails."""
    m = np.asarray(modes, dtype=np.complex128)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise ConfigurationError(f"mode array must be square, got {m.shape}")
    n = m.shape[-1]
    _validate_grid_size(n)

    def check(bad: np.ndarray, message) -> None:
        """Raise ``message(node)`` for the first node flagged in ``bad``."""
        if np.any(bad):
            node = np.unravel_index(np.argmax(bad), bad.shape)
            where = f"node {', '.join(map(str, node))}: " if node else ""
            raise DomainError(where + message(node))

    # Every check below compares, and a NaN comparison is always False.
    check(~np.isfinite(m).all(axis=(-2, -1)), lambda node: "mode array has non-finite entries")
    nyquist = _nyquist_mask(n) & (m != 0)
    check(
        nyquist.any(axis=(-2, -1)),
        lambda node: "mode array has a nonzero Nyquist mode at index ({}, {}); "
        "no solver can carry it".format(*np.argwhere(nyquist[node])[0]),
    )
    scale = np.maximum(np.abs(m).max(axis=(-2, -1)), 1.0)
    conj = _hermitian_conjugate(m)
    asym = np.abs(m - conj).max(axis=(-2, -1))
    check(
        asym > _IMAG_TOL * scale,
        lambda node: f"mode array breaks Hermitian symmetry (asymmetry {asym[node]:.3e}); "
        "field would not be real-valued",
    )
    # Symmetrize exactly so the invariant holds bit-for-bit downstream;
    # halving first keeps entries near the float maximum finite.
    m = 0.5 * m + 0.5 * conj
    mean = m[..., 0, 0]
    check(
        np.abs(mean) > _MEAN_TOL * scale,
        lambda node: f"field must be mean-zero (fhat(0) = {mean[node]:.3e})",
    )
    m[..., 0, 0] = 0.0
    m.setflags(write=False)
    return m


@dataclass(frozen=True)
class ScalarField:
    """Real mean-zero periodic scalar field held as truncated Fourier
    coefficients."""

    modes: np.ndarray

    def __post_init__(self):
        if np.ndim(self.modes) != 2:
            raise ConfigurationError(f"mode array must be square, got {np.shape(self.modes)}")
        object.__setattr__(self, "modes", _validated_modes(self.modes))

    @property
    def grid_size(self) -> int:
        return self.modes.shape[0]

    # -- small immutable algebra used throughout the solvers ---------------

    def __add__(self, other: "ScalarField") -> "ScalarField":
        if self.grid_size != other.grid_size:
            raise ConfigurationError("grid size mismatch in field addition")
        return ScalarField(self.modes + other.modes)

    def __sub__(self, other: "ScalarField") -> "ScalarField":
        if self.grid_size != other.grid_size:
            raise ConfigurationError("grid size mismatch in field subtraction")
        return ScalarField(self.modes - other.modes)


def field_from_mode_list(n: int, entries) -> ScalarField:
    """Build a mean-zero field from (k1, k2, amplitude) entries.

    Each entry adds ``amp * exp(2*pi*i*<k,x>)`` together with its Hermitian
    partner at -k, so real fields are specified by half the spectrum, e.g.
    sin(2*pi*x1) is the single entry (1, 0, -0.5j).  Modes must be resolved:
    |k_a| < N/2.
    """
    _validate_grid_size(n)
    modes = np.zeros((n, n), dtype=np.complex128)
    for k1, k2, amp in entries:
        k1, k2 = int(k1), int(k2)
        if max(abs(k1), abs(k2)) >= n // 2:
            raise ConfigurationError(
                f"mode ({k1},{k2}) not resolved on an N={n} grid"
            )
        if k1 == 0 and k2 == 0:
            raise DomainError("mean-zero field cannot carry a k=0 mode")
        amp = complex(amp)
        modes[k1 % n, k2 % n] += amp
        modes[(-k1) % n, (-k2) % n] += np.conj(amp)
    return ScalarField(modes)


# ---------------------------------------------------------------------------
# transforms


def modes_to_grid(modes: np.ndarray) -> np.ndarray:
    """Raw-array synthesis of real fields used in hot loops; caller guarantees
    symmetry.  Reads the k2 >= 0 half of the last axis: a real inverse FFT."""
    n1, n2 = modes.shape[-2:]
    return np.fft.irfft2(modes[..., : n2 // 2 + 1], s=(n1, n2), norm="forward")


def grid_to_modes(values: np.ndarray) -> np.ndarray:
    return np.fft.fft2(values) / (values.shape[-2] * values.shape[-1])


# ---------------------------------------------------------------------------
# multiplier operations


def partial_derivative(f: ScalarField, axis: int) -> ScalarField:
    """Spectral partial derivative along axis 1 or 2: multiply fhat(k) by
    2*pi*i*k_a."""
    if axis not in (1, 2):
        raise ConfigurationError(f"axis must be 1 or 2, got {axis}")
    return ScalarField(_gradient_modes(f.modes)[axis - 1])


def _phase_grid(n: int, shift: np.ndarray) -> np.ndarray:
    """exp(2*pi*i*<k, shift>) on the (n, n) wavenumber grid."""
    k = wavenumbers(n).astype(np.float64)
    return np.exp(TWO_PI * 1j * (k[:, None] * shift[0] + k[None, :] * shift[1]))


def translate(f: ScalarField, a) -> ScalarField:
    """Shift x -> f(x + a): multiply fhat(k) by exp(2*pi*i*<k,a>)."""
    a = np.asarray(a, dtype=np.float64) % 1.0
    return ScalarField(f.modes * _phase_grid(f.grid_size, a))


# ---------------------------------------------------------------------------
# norms


def _sobolev_symbol(n: int, k_order: int) -> np.ndarray:
    """sum over |alpha| <= k of (2*pi*k1)^(2a1) * (2*pi*k2)^(2a2)."""
    k = wavenumbers(n).astype(np.float64)
    s1 = (TWO_PI * k[:, None]) ** 2
    s2 = (TWO_PI * k[None, :]) ** 2
    sym = np.zeros((n, n))
    for a1, a2 in product(range(k_order + 1), repeat=2):
        if a1 + a2 <= k_order:
            sym += s1**a1 * s2**a2
    return sym


def l2_norms(modes: np.ndarray) -> np.ndarray:
    """L2 norms of (..., N, N) mode arrays by Parseval, one per leading index."""
    return np.sqrt(np.sum(np.abs(modes) ** 2, axis=(-2, -1)))


def l2_norm(f: ScalarField) -> float:
    return float(l2_norms(f.modes))


def embed_modes(modes: np.ndarray, size: int) -> np.ndarray:
    """Zero-pad (..., N, N) mode arrays of fields (Nyquist-free) onto the
    (size, size) grid, ``size`` even and > N: mode k goes to index k mod size."""
    n = modes.shape[-1]
    if size % 2 or size <= n:
        raise ConfigurationError(f"embedding grid size must be even and > {n}, got {size}")
    pos = wavenumbers(n) % size
    big = np.zeros(modes.shape[:-2] + (size, size), dtype=np.complex128)
    big[..., pos[:, None], pos] = modes
    return big


def _lattice_sup(modes: np.ndarray) -> float:
    """max |f| over the 4x oversampled lattice of one (N, N) mode array."""
    return float(np.max(np.abs(modes_to_grid(embed_modes(modes, 4 * modes.shape[-1])))))


def sup_norm(f: ScalarField) -> float:
    """Lattice maximum of |f| on a 4x oversampled grid.

    This under-approximates the essential sup by at most the interpolation
    slack of the oversampled lattice; callers treating it as exact must
    keep that caveat in mind.
    """
    return _lattice_sup(f.modes)
