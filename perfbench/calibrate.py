"""Host-speed calibration kernel.

The shared host's effective CPU speed changes by up to about 1.4x between
phases that last from seconds to minutes, so a run's wall time says as
much about the host's phase as about the program.  This kernel is a fixed
numpy workload with the solvers' own operation mix, independent of the
package: batched 32x32 inverse FFTs, complex exponentials, ``expm1`` and
reductions over a chunk of 250 branches (the weighted step), and periodic
bilinear gathers from a 128x128 complex grid at 51 200 points (the drifted
step).  It slows down and speeds up with the host as the ops do: timed
on either side of each op on a 2-vCPU Xeon (Sapphire Rapids) KVM guest,
the log-correlation of op and kernel time was 0.88-0.90 on all three
workloads, and the median ratio over 20 s windows spread 4-6 times less
than the raw median op time.  The ops must stay short (about 2 s) for
this: with 4-5 s study ops the correlation fell to 0.7.

The kernel's inputs are fixed, so it does the same work on every call and
in every run; it must not change, or normalised times stop being
comparable with those measured before.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

#: Time of one ``kernel_seconds`` call on the host the benchmark was tuned
#: on (2-vCPU Xeon, Sapphire Rapids, KVM guest, one BLAS/OpenMP thread),
#: whose medians over three series of 90-250 calls were 0.17-0.21 s:
#: normalised times are wall times rescaled to this host speed.
REFERENCE_SECONDS = 0.18

_BRANCHES, _N, _STEPS = 250, 32, 8
_GRID, _PATHS, _GATHER_STEPS = 128, 50, 12


def _inputs():
    rng = np.random.default_rng(0)
    return {
        "flat_modes": rng.choice(_N * _N, 40, replace=False),
        "mode_values": rng.standard_normal((_BRANCHES, 40)) * 0.01 + 0j,
        "disp": rng.standard_normal((_BRANCHES, _STEPS)) * 0.1,
        "grid": rng.standard_normal((_GRID, _GRID)) + 1j * rng.standard_normal((_GRID, _GRID)),
        "pos": rng.random((_PATHS, _N * _N, 2)),
    }


_INPUTS = _inputs()


def _spectral() -> None:
    """The weighted step's mix: phase tables, synthesis, expm1, reductions."""
    k = np.arange(2 * _N, dtype=np.float64)
    disp = _INPUTS["disp"]
    for m in range(_STEPS):
        phase = np.exp(2j * np.pi * disp[:, m, None] * k)
        em = np.zeros((_BRANCHES, _N * _N), dtype=np.complex128)
        em[:, _INPUTS["flat_modes"]] = _INPUTS["mode_values"]
        exponent = np.fft.ifft2(em.reshape(_BRANCHES, _N, _N)).real
        w_minus_1 = np.expm1(-exponent)
        shifted = np.fft.ifft2(phase[:, :_N, None] * phase[:, None, :_N]).real
        sample = shifted * w_minus_1
        sample.sum(axis=0)
        np.square(sample).sum(axis=0)


def _gather() -> None:
    """The drifted step's mix: periodic bilinear interpolation and updates."""
    flat = _INPUTS["grid"].ravel()
    pos = _INPUTS["pos"].copy()
    p = _GRID
    for _ in range(_GATHER_STEPS):
        x = (pos[..., 0] % 1.0) * p
        y = (pos[..., 1] % 1.0) * p
        i0 = x.astype(np.int64)
        j0 = y.astype(np.int64)
        fx = x - i0
        fy = y - j0
        i0 %= p
        j0 %= p
        i1 = i0 + 1
        i1[i1 == p] = 0
        j1 = j0 + 1
        j1[j1 == p] = 0
        v00 = flat.take(i0 * p + j0)
        v10 = flat.take(i1 * p + j0)
        v01 = flat.take(i0 * p + j1)
        v11 = flat.take(i1 * p + j1)
        top = v00 + (v10 - v00) * fx
        bot = v01 + (v11 - v01) * fx
        drift = top + (bot - top) * fy
        pos[..., 0] -= drift.real * 0.01
        pos[..., 1] -= drift.imag * 0.01


def kernel_seconds() -> float:
    """Wall time of one call of the calibration kernel."""
    start = perf_counter()
    _spectral()
    _gather()
    return perf_counter() - start
