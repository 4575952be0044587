"""Monte Carlo solver for the backward stochastic representation of the
2D vorticity equation.

The terminal-value problem

    dY = <Z, K(Y)> dt + sqrt(2*nu) <Z, dB>,    Y_T(x) = psi(x + sqrt(2*nu) B_T)

is solved by Picard iteration on deterministic field trajectories: by the
Markovian reduction Y_n(t, x) = omega_n(T - t, x + sqrt(2*nu) B_t), each
iterate is a family omega_n(tau_m, .) on the shared time grid, and one
Picard step is the linear backward solve

    omega_{n+1}(tau, z) = E[ psi(z + sqrt(2*nu) Btil_tau) * W ],
    W = exp( -int_0^tau <h, dBtil> - 1/2 int_0^tau |h|^2 dr ),
    h(r) = u_n(tau - r, z + sqrt(2*nu) Btil_r) / sqrt(2*nu),
    u_n(tau, .) = K(omega_n(tau, .)),

averaged over fresh Brownian branches (left-point evaluation throughout).

Estimator design (all exact up to a documented, configurable mode
threshold):

* common random numbers: one branch family serves every lattice point,
  every time node (node m uses the first m steps) and every Picard
  iteration, which makes iterate differences low-variance and the whole
  run deterministic;
* heat-semigroup control variate: E[psi(z + sqrt(2*nu) Btil_tau)] is known
  in closed form, so the estimator averages psi * (W - 1) on top of the
  exact heat evolution -- unbiased, and exact when h = 0;
* translations are Fourier phase multiplications, so the exponent sums are
  causal convolutions in the step index, evaluated for all nodes at once
  by FFT along the time axis on the active (above-threshold) modes of u_n
  and |u_n|^2.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, fields

import numpy as np

from . import brownian
from .biot_savart import closed_form_c0, velocity_modes
from .errors import ConfigurationError, DomainError, NonConvergenceError, NumericalError
from .spectral_oracle import VorticityTrajectory, _advection_modes
from .torus_field import (
    TWO_PI,
    ScalarField,
    _check_no_nyquist,
    _gradient_modes,
    _heat_factor,
    _ksq,
    _lattice_sup,
    _nyquist_mask,
    _phase_grid,
    _validate_grid_size,
    embed_modes,
    grid_to_modes,
    modes_to_complex_grid,
    modes_to_grid,
    sup_norm,
    wavenumbers,
)

#: Branches per chunk of the weighted solve: keeps one node's (chunk, n1,
#: n2) temporaries, on its lattice cell, in a core's L2 cache.
_WEIGHTED_CHUNK = 64

#: Cell values per node block of the weighted solve: a chunk of bc branches
#: takes max(1, _WEIGHTED_BLOCK // (bc * n1 * n2)) consecutive nodes at a
#: time, so a small cell's block is as large as one node of the two-mode
#: (32, 16) cell and the per-call overhead is paid once per block.
_WEIGHTED_BLOCK = 64 * 32 * 16

#: Branches per chunk of the drifted solve: keeps one Euler step's
#: (chunk * n1 * n2) point temporaries, on its lattice cell, in a core's
#: L2 cache.
_DRIFTED_CHUNK = 16


# ---------------------------------------------------------------------------
# configuration and data types


#: The values each ``SolverConfig`` field annotation admits; a bool fits none.
_ADMITTED = {
    "int": numbers.Integral,
    "float": numbers.Real,
    "float | None": (numbers.Real, type(None)),
}


@dataclass(frozen=True)
class SolverConfig:
    """Grid, path-count and physics parameters of one solver run."""

    N: int
    L: int
    M_inner: int
    nu: float
    T: float
    alpha: float | None = None  # None selects alpha from the bound formulas
    picard_tol: float = 2.0  # tolerance as a multiple of the Monte Carlo noise floor
    max_iter: int = 8
    base_seed: int = 0
    mode_threshold_rel: float = 1e-7
    groups: int = 16

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, _ADMITTED[f.type]):
                raise ConfigurationError(f"config key {f.name!r} needs {f.type}, got {value!r}")
        _validate_grid_size(self.N)
        if min(self.L, self.M_inner, self.max_iter) < 1:
            raise ConfigurationError("all counts must be >= 1")
        for name in ("nu", "T", "picard_tol"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ConfigurationError(f"{name} must be finite and positive, got {value!r}")
        if self.alpha is not None and not (np.isfinite(self.alpha) and self.alpha >= 0):
            raise ConfigurationError(f"alpha must be finite and non-negative, got {self.alpha!r}")
        if not 0 <= self.mode_threshold_rel < 1:  # NaN or >= 1 selects no velocity mode
            raise ConfigurationError("mode_threshold_rel must be in [0, 1)")
        if not 2 <= self.groups <= self.M_inner:
            raise ConfigurationError("groups must be in [2, M_inner]")

    @property
    def dt(self) -> float:
        return self.T / self.L


def _check_agrees(owner: str, found: dict):
    """Each ``what: (got, want)`` of ``found`` must agree to 1e-12 relative;
    ``owner`` names the object whose ``got`` values are checked."""
    for what, (got, want) in found.items():
        if not abs(got - want) <= 1e-12 * abs(want):
            raise ConfigurationError(f"{owner} {what} {got!r} disagrees with its config ({want!r})")


def _check_trajectory_config(traj: VorticityTrajectory, config: SolverConfig, owner: str):
    """``traj`` must sit on the grid ``config`` describes: grid size, step
    count, nu and dt."""
    found = {
        "grid size": (traj.modes.shape[-1], config.N),
        "step count": (traj.modes.shape[0] - 1, config.L),
        "nu": (traj.nu, config.nu),
        "dt": (traj.dt, config.dt),
    }
    _check_agrees(owner, found)


@dataclass(frozen=True)
class BsdeSolution:
    """Converged solution pair: Y as the last Picard iterate's trajectory
    (its Picard count is ``len(history)``, its weight ``norms["alpha"]``);
    Z at node tau is the spatial gradient of omega(tau, .), translated by
    sqrt(2*nu) B_t along a path."""

    y: VorticityTrajectory
    psi: ScalarField
    config: SolverConfig
    norms: dict
    history: tuple


@dataclass
class SolveStats:
    """Per-solve Monte Carlo bookkeeping (standard errors, sups, groups); the
    groups hold their lattice cell's modes, ``_on_cell`` places them on (N, N)."""

    se_grid: np.ndarray  # (L+1, N, N) pointwise standard error
    pooled_se: np.ndarray  # (L+1,) sqrt(mean_z variance / M)
    sup_lattice: np.ndarray  # (L+1,) max_z |omega| on the N lattice
    group_modes: np.ndarray  # (G, L+1, n1, n2) per-group mean fields (modes)


# ---------------------------------------------------------------------------
# elementary operations


def heat_mode_stack(psi_modes: np.ndarray, nu: float, dt: float, steps: int) -> np.ndarray:
    """Exact heat evolution exp(nu*tau*Lap) psi at every node, mode-wise."""
    taus = np.arange(steps + 1) * dt
    return psi_modes[None, :, :] * _heat_factor(psi_modes.shape[-1], nu, taus[:, None, None])


def heat_iterate(psi: ScalarField, config: SolverConfig, alpha=None) -> VorticityTrajectory:
    """Iterate 0: the h = 0 solve, i.e. the Markovian form of E{xi(x)|F_t}.

    ``alpha`` is unread: the Picard weight lives in the solution's norms;
    the parameter stays for callers that still pass it.
    """
    stack = heat_mode_stack(psi.modes, config.nu, config.dt, config.L)
    return VorticityTrajectory(stack, nu=config.nu, dt=config.dt)


# ---------------------------------------------------------------------------
# the linear backward solve: one Monte Carlo skeleton, two estimators


def _linear_solve(prev: VorticityTrajectory, config: SolverConfig, tag: int, estimator):
    """One Picard step: heat control variate plus a Monte Carlo correction.

    ``prev`` is the previous iterate omega_n(tau_m, .), whose tau = 0 slice
    is the terminal data psi.  Owns what both estimators share: the check
    of ``prev`` against the config (grid size, step count, nu and dt), the
    Nyquist check of psi and hygiene of the later nodes, the velocity of
    ``prev``, the exact heat stack, the keyed increments and displacements,
    branch chunking and the sum, sum-of-squares and group accumulation.
    ``estimator(config, psi_modes, u1, u2)`` returns ``(chunk, cell,
    samples)``: the correction and psi repeat on the lattice cell (n1, n2)
    at the origin, n_a dividing N ((N, N) is the whole lattice), which each
    estimator takes from the modes it reads (``_cell``); ``samples(db,
    disp)`` yields ``(m, sample)`` blocks of consecutive nodes that cover
    m = 1..L in order, ``sample`` being the (branches, k, n1, n2) cell
    values of the correction at nodes m..m+k-1 for one chunk of branches.
    Sums and groups stay on the cell; only the sums are tiled over the
    lattice, for the mean and the standard errors.
    """
    n, steps, dt, nu = config.N, config.L, config.dt, config.nu
    m_inner, n_groups = config.M_inner, config.groups
    _check_trajectory_config(prev, config, "iterate")

    omega = prev.modes.copy()
    # The step would drop a Nyquist mode of psi that the heat stack keeps.
    _check_no_nyquist(omega[0], "psi")
    omega[:, _nyquist_mask(n)] = 0.0  # multiplier-application hygiene
    psi_modes = omega[0]
    u1, u2 = velocity_modes(omega)
    chunk, cell, samples = estimator(config, psi_modes, u1, u2)
    heat = heat_mode_stack(psi_modes, nu, dt, steps)

    db = brownian.ensemble_increments(config.base_seed, tag, m_inner, steps, dt)
    disp = np.zeros((m_inner, steps + 1, 2))
    np.cumsum(db, axis=1, out=disp[:, 1:, :])
    disp *= np.sqrt(2.0 * nu)

    group_of = (np.arange(m_inner) * n_groups) // m_inner
    group_counts = np.bincount(group_of, minlength=n_groups)
    sum_f = np.zeros((steps + 1,) + cell)
    sumsq_f = np.zeros((steps + 1,) + cell)
    group_sum = np.zeros((n_groups, steps + 1) + cell)

    for b0 in range(0, m_inner, chunk):
        b1 = min(b0 + chunk, m_inner)
        run_starts = np.flatnonzero(
            np.r_[True, group_of[b0 + 1 : b1] != group_of[b0 : b1 - 1]]
        )
        run_groups = group_of[b0:b1][run_starts]
        for m, sample in samples(db[b0:b1], disp[b0:b1]):
            nodes = slice(m, m + sample.shape[1])
            # A non-finite sample (e.g. an overflowing Girsanov weight) makes
            # its squared sum non-finite; clipping it would bias the mean.
            with np.errstate(over="ignore", invalid="ignore"):
                sq = np.einsum("bmij,bmij->mij", sample, sample)
                finite = np.isfinite(sq).all(axis=(1, 2))
            if not finite.all():
                raise NumericalError(
                    "non-finite Monte Carlo sample in linear solve",
                    diagnostics={"node": m + int(np.argmin(finite))},
                )
            sumsq_f[nodes] += sq
            # group_of is non-decreasing, so the groups of a chunk's runs
            # are distinct and plain fancy-index addition is exact.
            partial = np.add.reduceat(sample, run_starts, axis=0)
            sum_f[nodes] += partial.sum(axis=0)
            group_sum[run_groups, nodes] += partial
    del samples  # frees the estimator's tables before the assembly allocates
    reps = (1, n // cell[0], n // cell[1])
    return _assemble_iterate(
        config, heat, np.tile(sum_f, reps), np.tile(sumsq_f, reps), group_sum, group_counts
    )


def _assemble_iterate(config, heat, sum_f, sumsq_f, group_sum, group_counts):
    n, m_inner = config.N, config.M_inner
    ny = _nyquist_mask(n)
    s1, s2 = n // group_sum.shape[-2], n // group_sum.shape[-1]

    mc_modes = grid_to_modes(sum_f / m_inner)
    mc_modes[:, 0, 0] = 0.0  # re-project to mean zero
    mc_modes[:, ny] = 0.0
    out = heat + mc_modes
    out[0] = heat[0]  # tau = 0 slice is psi exactly

    var_z = np.maximum(sumsq_f - sum_f**2 / m_inner, 0.0) / max(m_inner - 1, 1)
    se_grid = np.sqrt(var_z / m_inner)
    se_grid[0] = 0.0
    pooled = np.sqrt(np.mean(var_z, axis=(1, 2)) / m_inner)
    pooled[0] = 0.0

    # the cell's modes are the lattice modes at strides (s1, s2), as psi's
    gmodes = grid_to_modes(group_sum / group_counts[:, None, None, None])
    gmodes[:, :, 0, 0] = 0.0
    gmodes[:, :, ny[::s1, ::s2]] = 0.0
    gmodes += heat[None, :, ::s1, ::s2]
    gmodes[:, 0] = heat[0, ::s1, ::s2][None]

    stats = SolveStats(
        se_grid=se_grid,
        pooled_se=pooled,
        sup_lattice=np.max(np.abs(modes_to_grid(out)), axis=(-2, -1)),
        group_modes=gmodes,
    )
    return VorticityTrajectory(out, nu=config.nu, dt=config.dt), stats


def solve_weighted_with_stats(
    prev: VorticityTrajectory, config: SolverConfig
) -> tuple[VorticityTrajectory, SolveStats]:
    """One Picard step by Girsanov-weighted branch averages; returns stats."""
    return _linear_solve(prev, config, brownian.TAG_INNER, _weighted_estimator)


def solve_drifted_with_stats(
    prev: VorticityTrajectory, config: SolverConfig
) -> tuple[VorticityTrajectory, SolveStats]:
    """One Picard step by Euler-Maruyama on dX = -u_n dt + sqrt(2 nu) dB.

    Equivalent in law to the Girsanov-weighted solve; used as an
    independent estimator for the equivalence check.  Velocities are
    bilinearly interpolated on 4x oversampled grids; the terminal psi is
    evaluated spectrally so the heat control variate stays exactly unbiased.
    """
    return _linear_solve(prev, config, brownian.TAG_DRIFT, _drifted_estimator)


# ---------------------------------------------------------------------------
# the weighted (Girsanov) estimator


def _active_indices(mag: np.ndarray, threshold_rel: float):
    peak = float(mag.max(initial=0.0))
    if peak == 0.0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    return np.nonzero(mag > threshold_rel * peak)


def _fold_positions(kvals1: np.ndarray, kvals2: np.ndarray, n: int):
    """Fold extended-grid wavenumbers mod N onto base-grid flat positions.

    Evaluation on the N lattice cannot distinguish k from k mod N, so
    folded scatter-addition is exact for lattice sampling.
    """
    return (kvals1 % n) * n + (kvals2 % n)


@dataclass
class _ScatterPlan:
    order: np.ndarray
    starts: np.ndarray
    targets: np.ndarray

    @classmethod
    def build(cls, flat_positions: np.ndarray):
        order = np.argsort(flat_positions, kind="stable")
        ordered = flat_positions[order]
        starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
        return cls(order=order, starts=starts, targets=ordered[starts])

    def accumulate(self, values: np.ndarray) -> np.ndarray:
        """Sum values (..., K) into the unique ``targets``, in their order."""
        ordered = values[..., self.order]
        return np.add.reduceat(ordered, self.starts, axis=-1)


def _cell(flat_positions: np.ndarray, n: int) -> tuple:
    """Lattice cell (n1, n2) a sum of the modes at flat (N, N) positions
    repeats on: periods N / gcd(N, |k|...) of their wavenumbers per axis."""
    k = np.abs(wavenumbers(n))
    return tuple(n // int(np.gcd.reduce(k[i], initial=n)) for i in divmod(flat_positions, n))


def _on_cell(modes: np.ndarray, cell) -> np.ndarray:
    """The modes (..., n1, n2) of a cell's values, repeated onto a cell
    (m1, m2) with n_a dividing m_a: mode [p1, p2] goes to [p1 m1/n1, p2 m2/n2]."""
    out = np.zeros(modes.shape[:-2] + tuple(cell), dtype=modes.dtype)
    out[..., :: cell[0] // modes.shape[-2], :: cell[1] // modes.shape[-1]] = modes
    return out


@dataclass
class _SubBlock:
    """Lattice synthesis of complex mode arrays supported on fixed rows and
    columns of the (N, N) FFT layout: two small matrix products in place of
    a dense ``ifft2``.  The Nyquist index N/2 stands for k = -N/2, as in
    ``ifft2``; the phases k*j are reduced mod N before the ``exp``.

    Such a sum repeats on the lattice with period n_a = N / gcd(N, |k|) of
    the occupied wavenumbers along each axis, so only the (n1, n2) cell at
    the origin is synthesised.  With the phases reduced mod N, equivalent
    lattice points have identical phase rows, so the cell holds exactly the
    values the full lattice would repeat."""

    rows: np.ndarray
    cols: np.ndarray
    e_rows: np.ndarray  # (n1, R): exp(2 pi i k_r j / N)
    e_cols: np.ndarray  # (C, n2): exp(2 pi i k_c j / N)

    @classmethod
    def build(cls, flat_positions: np.ndarray, n: int):
        rows = np.unique(flat_positions // n)
        cols = np.unique(flat_positions % n)
        k = wavenumbers(n)
        j1, j2 = map(np.arange, _cell(flat_positions, n))
        e_rows = np.exp(TWO_PI * 1j * ((j1[:, None] * k[rows]) % n) / n)
        e_cols = np.exp(TWO_PI * 1j * ((k[cols][:, None] * j2) % n) / n)
        return cls(rows, cols, e_rows, e_cols)

    @property
    def cell(self) -> tuple:
        """The (n1, n2) lattice cell the synthesised values repeat on."""
        return self.e_rows.shape[0], self.e_cols.shape[1]

    def slots(self, flat_positions: np.ndarray, n: int) -> np.ndarray:
        """Flat (R, C) sub-block indices of flat (N, N) mode positions."""
        r = np.searchsorted(self.rows, flat_positions // n)
        return r * self.cols.size + np.searchsorted(self.cols, flat_positions % n)

    def synthesise(self, z: np.ndarray) -> np.ndarray:
        """Cell values (B, n1, n2) of the sub-block modes z, shape (B, R*C)."""
        bc, c = z.shape[0], self.cols.size
        n1, n2 = self.cell
        g = np.matmul(self.e_rows, z.reshape(bc, self.rows.size, c))  # (B, n1, C)
        return (g.reshape(bc * n1, c) @ self.e_cols).reshape(bc, n1, n2)


def _weighted_estimator(config: SolverConfig, psi_modes, u1, u2):
    """Samples psi(z + disp_m) * (W_m - 1) over Girsanov-weighted branches,
    on the lattice cell of the ``_SubBlock`` its modes occupy, in blocks of
    consecutive nodes sized by ``_WEIGHTED_BLOCK``: one synthesis per block."""
    n, steps, dt, nu = config.N, config.L, config.dt, config.nu
    sqrt2nu = np.sqrt(2.0 * nu)

    # Velocity on the doubled grid, synthesised once: the predictable-
    # evaluation guard reads every node (|h| sqrt(dt) must stay small or the
    # exponential moments are meaningless), |u|^2 reads nodes 1..L.
    v1 = modes_to_grid(embed_modes(u1, 2 * n))
    v2 = modes_to_grid(embed_modes(u2, 2 * n))
    max_h = float(np.max(np.hypot(v1, v2))) / sqrt2nu
    if max_h * np.sqrt(dt) > 1.0:
        raise NumericalError(
            "drift too large for the time step",
            diagnostics={"max_h": max_h, "dt": dt},
        )

    # Active mode sets: u_n for the dB term, |u_n|^2 (doubled grid, exact
    # for band-limited u) for the ds term.  Dropping relative mass below the
    # threshold perturbs the exponent by orders of magnitude less than the
    # Monte Carlo noise.
    thr = config.mode_threshold_rel
    mag_a = (np.abs(u1[1:]) + np.abs(u2[1:])).max(axis=0)
    ia1, ia2 = _active_indices(mag_a, thr)

    if not ia1.size:  # W = 1 exactly: a zero correction on psi's cell
        cell = _cell(np.flatnonzero(psi_modes), n)

        def no_correction(db, disp):
            # one block of every node, as a read-only view of a single zero
            yield 1, np.broadcast_to(0.0, (db.shape[0], steps) + cell)

        return _WEIGHTED_CHUNK, cell, no_correction

    w1, w2 = v1[1:], v2[1:]
    q_modes = grid_to_modes(w1 * w1 + w2 * w2)
    iq1, iq2 = _active_indices(np.abs(q_modes).max(axis=0), thr)
    k_ext = wavenumbers(2 * n)
    kq1, kq2 = k_ext[iq1], k_ext[iq2]

    # Frequency-domain coefficient tables for the causal convolutions
    # A_m = sum_{j<m} <u_{m-j}, dB_j> phase_j, Q_m = sum_{j<m} q_{m-j} phase_j.
    pad = 2 * steps
    cu1 = np.zeros((pad, ia1.size), dtype=np.complex128)
    cu2 = np.zeros((pad, ia1.size), dtype=np.complex128)
    cu1[1 : steps + 1] = u1[1:, ia1, ia2]
    cu2[1 : steps + 1] = u2[1:, ia1, ia2]
    fu1 = np.fft.fft(cu1, axis=0)
    fu2 = np.fft.fft(cu2, axis=0)
    cq = np.zeros((pad, iq1.size), dtype=np.complex128)
    cq[1 : steps + 1] = q_modes[:, iq1, iq2]
    fq = np.fft.fft(cq, axis=0)

    # Each node's complex mode array, the exponent plus 1j * the shifted psi
    # (both real fields), lives on the rows and columns occupied by psi, the
    # active u modes and the folded |u|^2 targets.
    ip1, ip2 = np.nonzero(psi_modes)
    ipsi = 1j * psi_modes[ip1, ip2]
    flat_p = ip1 * n + ip2
    flat_a = ia1 * n + ia2
    plan_q = _ScatterPlan.build(_fold_positions(kq1, kq2, n))
    block = _SubBlock.build(np.concatenate([flat_p, flat_a, plan_q.targets]), n)
    slot_p = block.slots(flat_p, n)
    slot_a = block.slots(flat_a, n)
    slot_q = block.slots(plan_q.targets, n)
    size = block.rows.size * block.cols.size

    # Phase tables exp(2 pi i k disp) only at the wavenumbers some term reads.
    k_base = wavenumbers(n)
    kx, kx_of = np.unique(np.concatenate([k_base[ip1], k_base[ia1], kq1]), return_inverse=True)
    ky, ky_of = np.unique(np.concatenate([k_base[ip2], k_base[ia2], kq2]), return_inverse=True)
    xp, xa, xq = np.split(kx_of, [ip1.size, ip1.size + ia1.size])
    yp, ya, yq = np.split(ky_of, [ip2.size, ip2.size + ia2.size])
    kx, ky = kx.astype(np.float64), ky.astype(np.float64)
    n1, n2 = block.cell

    def samples(db, disp):
        bc = db.shape[0]
        px = np.exp(TWO_PI * 1j * disp[:, :, 0, None] * kx)
        py = np.exp(TWO_PI * 1j * disp[:, :, 1, None] * ky)

        # The generator's locals live across every yield, so the time-axis
        # temporaries are updated in place and dropped before the node loop.
        ph_a = px[:, :steps, xa] * py[:, :steps, ya]  # (bc, L, K_A)
        fa = np.fft.fft(db[:, :, 0, None] * ph_a, n=pad, axis=1)
        fa *= fu1
        fa2 = np.fft.fft(db[:, :, 1, None] * ph_a, n=pad, axis=1)
        del ph_a
        fa2 *= fu2
        fa += fa2
        del fa2
        # indexed by node m; node 0, the empty sum, is never read
        a_nodes = np.fft.ifft(fa, axis=1)[:, : steps + 1, :]
        del fa
        fqq = np.fft.fft(px[:, :steps, xq] * py[:, :steps, yq], n=pad, axis=1)
        fqq *= fq
        q_nodes = np.fft.ifft(fqq, axis=1)[:, : steps + 1, :]
        del fqq

        k = max(1, _WEIGHTED_BLOCK // (bc * n1 * n2))
        for m in range(1, steps + 1, k):
            nodes = slice(m, min(m + k, steps + 1))
            z = np.zeros((bc, nodes.stop - m, size), dtype=np.complex128)
            z[:, :, slot_p] = ipsi * (px[:, nodes, xp] * py[:, nodes, yp])
            z[:, :, slot_a] += a_nodes[:, nodes, :] / sqrt2nu
            z[:, :, slot_q] += plan_q.accumulate(q_nodes[:, nodes, :]) * (dt / (4.0 * nu))
            g = block.synthesise(z.reshape(-1, size)).reshape(z.shape[:2] + (n1, n2))
            # An overflowing weight is left to the skeleton's finiteness check.
            with np.errstate(over="ignore", invalid="ignore"):
                sample = g.imag * np.expm1(-g.real)
            yield m, sample

    return _WEIGHTED_CHUNK, block.cell, samples


# ---------------------------------------------------------------------------
# the drifted-SDE estimator (Girsanov equivalence cross-check)


def _bilinear_tables(padded: np.ndarray):
    """``_bilinear``'s table pair for periodic (..., P, P) real grids padded
    with their first row and column, shape (..., P + 1, P + 1): the padded
    grids and the (..., P, P + 1) differences of their consecutive rows."""
    return padded, padded[..., 1:, :] - padded[..., :-1, :]


def _bilinear(tables, x: np.ndarray, y: np.ndarray) -> list:
    """Bilinear interpolation of periodic (P, P) real grids at the points
    (x, y), given in grid units: grid node (i, j) sits at (i, j).

    ``tables`` holds one ``(padded, row_diff)`` pair of ``_bilinear_tables``
    per grid.  Both arrays have the padded row stride P + 1, so a cell's
    lower corner and its neighbour in the next column sit at flat offsets 0
    and 1 in each (the latter read through a view shifted by one); the
    cells and weights are located once for every grid.
    """
    p = tables[0][0].shape[-1] - 1
    i0 = np.floor(x)
    j0 = np.floor(y)
    fx = x - i0
    fy = y - j0
    i = i0.astype(np.intp)
    j = j0.astype(np.intp)
    if p & (p - 1):
        i %= p
        j %= p
    else:  # the same modulus, cheaper for a power of two
        i &= p - 1
        j &= p - 1
    base = i * (p + 1)
    base += j
    out = []
    for padded, row_diff in tables:
        v, d = padded.ravel(), row_diff.ravel()
        top = d.take(base)
        top *= fx
        top += v.take(base)  # v00 + (v10 - v00) * fx
        bot = d[1:].take(base)
        bot *= fx
        bot += v[1:].take(base)  # v01 + (v11 - v01) * fx
        bot -= top
        bot *= fy
        bot += top
        out.append(bot)
    return out


def _half_plane_modes(modes: np.ndarray):
    """Wavenumbers (k1, k2) and coefficients of the nonzero modes with
    k1 > 0, or k1 == 0 and k2 > 0: half the spectrum of a real field."""
    k = wavenumbers(modes.shape[-1])
    half = (k[:, None] > 0) | ((k[:, None] == 0) & (k[None, :] > 0))
    i1, i2 = np.nonzero(half & (modes != 0))
    return k[i1].astype(np.float64), k[i2].astype(np.float64), modes[i1, i2]


def _spectral_point_values(half, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Exact values at the points (x, y) of a real field with zero mean and
    zero Nyquist modes, from its ``_half_plane_modes``: the other half
    contributes the complex conjugate, so each mode adds
    2 (Re c cos theta - Im c sin theta).  Mode-major phases keep every
    elementwise pass contiguous."""
    k1, k2, coef = half
    theta = np.multiply.outer(TWO_PI * k1, x) + np.multiply.outer(TWO_PI * k2, y)
    theta = theta.reshape(coef.size, x.size)
    values = coef.real @ np.cos(theta) - coef.imag @ np.sin(theta)
    return 2.0 * values.reshape(x.shape)


def _velocity_tables(u1: np.ndarray, u2: np.ndarray, cell):
    """Both velocity components of every node on the 4x oversampled grid.

    Returns the ``_bilinear_tables`` of each component, with a leading node
    axis, and each component's (L+1, n1*n2) values on the lattice cell
    ``cell`` = (n1, n2) at the origin, point (i, j) at flat index
    i * n2 + j.  One packed synthesis gives both components as (real,
    imag); they are split into contiguous real tables, since a complex add
    costs several real ones per point.
    """
    n1, n2 = cell
    u_grids = modes_to_complex_grid(embed_modes(u1 + 1j * u2, 4 * u1.shape[-1]))
    padded = [
        np.pad(part, ((0, 0), (0, 1), (0, 1)), mode="wrap")
        for part in (u_grids.real, u_grids.imag)
    ]
    del u_grids  # before the row differences, so the two never coexist
    tables = [_bilinear_tables(part) for part in padded]
    # The lattice is every fourth node of the 4x grid; reshaping the
    # strided view of the cell copies it, so only the tables stay referenced.
    lattice = [
        padded[:, : 4 * n1 : 4, : 4 * n2 : 4].reshape(u1.shape[0], n1 * n2)
        for padded, _ in tables
    ]
    return tables, lattice


def _drifted_estimator(config: SolverConfig, psi_modes, u1, u2):
    """Samples psi(X_m) - psi(z + disp_m) along Euler-Maruyama paths X.

    Runs in chunks of ``_DRIFTED_CHUNK`` branches, one node per block.
    Paths advance in units of the 4x velocity grid's spacing (an exact
    rescaling for power-of-two N).  Every node's paths start on the
    lattice cell (n1, n2) that psi and every node of u repeat on, whose
    points are nodes of that grid, so the first Euler step reads the grid
    instead of interpolating.  Every lattice point shares the branch noise,
    and a shift by n_a lattice points is a shift by 4 n_a whole grid nodes,
    so paths from equivalent lattice points differ by that shift and their
    samples agree up to the rounding of the positions.  The bilinear step
    reads every mode of u, so the cell is taken from the exactly nonzero
    modes, with no threshold.
    """
    n, steps, dt, nu = config.N, config.L, config.dt, config.nu
    p = 4 * n
    drift_step = -dt * p
    sqrt2nu = np.sqrt(2.0 * nu)
    occupied = (psi_modes != 0) | np.any((u1 != 0) | (u2 != 0), axis=0)
    n1, n2 = _cell(np.flatnonzero(occupied), n)
    ((pad1, diff1), (pad2, diff2)), lattice = _velocity_tables(u1, u2, (n1, n2))
    # cell point (i, j), at (4i, 4j) in grid units, has flat index i * n2 + j
    zx = np.repeat(4.0 * np.arange(n1), n2)
    zy = np.tile(4.0 * np.arange(n2), n1)
    half = _half_plane_modes(psi_modes)
    k1, k2, coef = half
    # psi(z + d) = 2 Re sum_k coef_k e^{2 pi i <k, d>} e^{2 pi i <k, z>}: a
    # per-branch displacement phase contracted with a fixed cell table.
    ex = np.exp(TWO_PI * 1j * np.outer(np.arange(n1) / n, k1))
    ey = np.exp(TWO_PI * 1j * np.outer(np.arange(n2) / n, k2))
    lattice_phase = (ex[:, None, :] * ey[None, :, :]).reshape(n1 * n2, -1)

    def samples(db, disp):
        bc = db.shape[0]
        noise = sqrt2nu * db
        noise *= p
        disp_phase = coef * np.exp(
            TWO_PI * 1j * (disp[:, :, 0, None] * k1 + disp[:, :, 1, None] * k2)
        )
        for m in range(1, steps + 1):
            x = zx + (lattice[0][m] * drift_step + noise[:, 0, 0, None])
            y = zy + (lattice[1][m] * drift_step + noise[:, 0, 1, None])
            for j in range(1, m):
                ell = m - j  # left-point field index: time-to-go (m - j) dt
                d1, d2 = _bilinear(
                    ((pad1[ell], diff1[ell]), (pad2[ell], diff2[ell])), x, y
                )
                d1 *= drift_step
                d1 += noise[:, j, 0, None]
                x += d1
                d2 *= drift_step
                d2 += noise[:, j, 1, None]
                y += d2
            vals = _spectral_point_values(half, x / p, y / p)
            cv_vals = 2.0 * np.real(disp_phase[:, m, :] @ lattice_phase.T)
            yield m, (vals - cv_vals).reshape(bc, 1, n1, n2)

    return _DRIFTED_CHUNK, (n1, n2), samples


# ---------------------------------------------------------------------------
# weighted norms, noise floor
#
# The contraction norm weights time t by exp(alpha*t).  Every weight here
# is expressed through tau = T - t and normalized by exp(-alpha*T), i.e.
# exp(-alpha*tau_m) at node m, so that values stay representable for large
# alpha; ratios and tolerance comparisons are invariant under the common
# factor.


def _alpha_weights(alpha: float, dt: float, nodes: int) -> np.ndarray:
    """exp(-alpha*tau_m) at the nodes tau_m = m*dt, m = 0..nodes-1."""
    return np.exp(-alpha * np.arange(nodes) * dt)


def y_alpha_sup(values: np.ndarray, alpha: float, dt: float) -> np.ndarray:
    """Scaled weighted sup norm max_m exp(-alpha*tau_m) * sup_z |field| of
    (..., L+1, n1, n2) lattice values, one per leading index."""
    sups = np.abs(values).max(axis=(-2, -1))
    return np.max(_alpha_weights(alpha, dt, sups.shape[-1]) * sups, axis=-1)


def grad_norm_sq_profile(stack: np.ndarray) -> np.ndarray:
    """||grad omega(tau_m)||_{L^2}^2 for every node, computed spectrally."""
    return np.sum(4.0 * np.pi**2 * _ksq(stack.shape[-1]) * np.abs(stack) ** 2, axis=(-2, -1))


def _prefix_quadrature(integrand: np.ndarray, dt: float) -> np.ndarray:
    """Prefix integrals by end-corrected trapezoid (Euler-Maclaurin).

    The -(dt/12)*(g'(end) - g'(0)) correction with finite-difference slopes
    removes the O(dt^2) bias that would otherwise dominate closed-form
    comparisons of smooth decaying profiles.
    """
    trap = 0.5 * (integrand[1:] + integrand[:-1]) * dt
    prefixes = np.concatenate([[0.0], np.cumsum(trap)])
    if integrand.shape[0] >= 3:
        slopes = np.diff(integrand) / dt
        corr = -(dt**2 / 12.0) * (slopes - slopes[0])
        prefixes[2:] += corr[1:]
    return prefixes


def z_alpha_bmo_sq(stack: np.ndarray, alpha: float, dt: float) -> float:
    """Scaled weighted BMO proxy (squared): max over t-windows of the
    integral of exp(-2*alpha*tau) ||grad omega(tau)||^2.

    Windows [t, T] map to tau-prefixes [0, T - t]; with non-negative
    integrands the maximum is the full integral, but every window is
    formed so the proxy matches its definition literally.
    """
    weighted = _alpha_weights(2.0 * alpha, dt, stack.shape[0]) * grad_norm_sq_profile(stack)
    return float(np.max(_prefix_quadrature(weighted, dt)))


def _group_bmo_sq(group_modes: np.ndarray, n: int, alpha: float, dt: float) -> np.ndarray:
    """z_alpha_bmo_sq of each (L+1, n1, n2) group stack, summed over the
    (n, n) layout: the groups agree to about 5 digits, so a sum over the
    cell would move their spread beyond roundoff."""
    return np.array([z_alpha_bmo_sq(_on_cell(g, (n, n)), alpha, dt) for g in group_modes])


def noise_floor(se: np.ndarray, alpha: float, dt: float) -> float:
    """4x the alpha-weighted maximum of an (L+1,) standard-error profile."""
    return 4.0 * float(np.max(_alpha_weights(alpha, dt, se.shape[0]) * se))


def _batch_means_se(values: np.ndarray) -> float:
    """Standard error of the mean of G group values, std(ddof=1) / sqrt(G)."""
    return float(np.std(values, ddof=1) / np.sqrt(len(values)))


# ---------------------------------------------------------------------------
# Picard iteration


def _alpha_conditions(alpha: float, c0: float, c1: float, nu: float, horizon: float):
    """The two printed contraction conditions on the weight alpha > 0, as
    (value, limit) pairs: c0^2 c1^2 (nu + T c0 c1^2) / (alpha nu^2) <= 1/16
    and c0^2 c1^2 / alpha <= nu / 4."""
    cond1 = c0**2 * c1**2 * (nu + horizon * c0 * c1**2) / (alpha * nu**2)
    cond2 = c0**2 * c1**2 / alpha
    return (cond1, 1.0 / 16.0), (cond2, nu / 4.0)


def select_alpha(c0: float, c1: float, nu: float, horizon: float) -> float:
    """Smallest weight meeting both ``_alpha_conditions``, whose values scale as 1/alpha."""
    return max(value / limit for value, limit in _alpha_conditions(1.0, c0, c1, nu, horizon))


def _max_principle_margin(c1: float, eps_mc: float, sup_lattice) -> float:
    """min over nodes of C1 + eps_MC - sup_z |omega(tau_m)|: negative when an
    iterate exceeds the terminal bound beyond the Monte Carlo allowance."""
    return float(np.min(c1 + eps_mc - np.asarray(sup_lattice)))


def picard_solve(psi: ScalarField, config: SolverConfig) -> BsdeSolution:
    """Fixed-point iteration of the linear backward solve.

    Starts from the exact heat-semigroup iterate, applies the weighted
    solve with common random numbers until the weighted norm of the
    iterate difference drops below tolerance, and returns the converged
    trajectory with its Monte Carlo error report.
    """
    _check_agrees("psi", {"grid size": (psi.grid_size, config.N)})
    dt = config.dt
    c1 = sup_norm(psi)
    c0 = closed_form_c0(1, config.N)
    alpha = config.alpha if config.alpha is not None else select_alpha(c0, c1, config.nu, config.T)
    bounds = {"alpha": alpha, "c0": c0, "c1": c1}

    current = heat_iterate(psi, config)
    if c1 == 0.0:
        return _solution(psi, config, current, (), np.zeros(0), bounds)

    # iterate 0 is deterministic: every group starts from it, on psi's cell
    s1, s2 = (config.N // c for c in _cell(np.flatnonzero(psi.modes), config.N))
    prev_group_modes = current.modes[None, :, ::s1, ::s2]
    history = []
    for iteration in range(1, config.max_iter + 1):
        nxt, stats = solve_weighted_with_stats(current, config)
        max_se = stats.se_grid.max(axis=(1, 2))
        eps_mc = noise_floor(max_se, 0.0, dt)
        margin = _max_principle_margin(c1, eps_mc, stats.sup_lattice)
        if margin < 0.0:
            raise NumericalError(
                "maximum principle violated beyond Monte Carlo allowance",
                diagnostics={"margin": margin, "iteration": iteration},
            )

        delta = nxt.modes - current.modes
        dy = float(y_alpha_sup(modes_to_grid(delta), alpha, dt))
        dz = float(np.sqrt(z_alpha_bmo_sq(delta, alpha, dt)))
        floor = noise_floor(stats.pooled_se, alpha, dt)

        # Each group's delta, on the common cell of the two iterates, and
        # its ||dY^alpha||_inf + ||dZ^alpha||_BMO as for the full delta.
        cell = np.lcm(stats.group_modes.shape[-2:], prev_group_modes.shape[-2:])
        delta_group = _on_cell(stats.group_modes, cell) - _on_cell(prev_group_modes, cell)
        delta_vals = modes_to_grid(delta_group)
        group_norms = y_alpha_sup(delta_vals, alpha, dt) + np.sqrt(
            _group_bmo_sq(delta_group, config.N, alpha, dt)
        )
        # Noise floor of the difference estimator itself: with common random
        # numbers the delta fields carry far less noise than the iterates,
        # which is what makes the contraction ratios measurable at all.
        delta_se = np.sqrt(
            np.mean(np.var(delta_vals, axis=0, ddof=1), axis=(-2, -1)) / config.groups
        )

        record = {
            "iteration": iteration,
            "delta_y_alpha": dy,
            "delta_z_alpha": dz,
            "delta_norm": dy + dz,
            "delta_norm_se": _batch_means_se(group_norms),
            "delta_noise_floor": noise_floor(delta_se, alpha, dt),
            "noise_floor": floor,
            "eps_mc": eps_mc,
            "max_principle_margin": margin,
            "sup_lattice": stats.sup_lattice.tolist(),
            "pooled_se": stats.pooled_se.tolist(),
            "max_se": max_se.tolist(),
            "tolerance": config.picard_tol * floor,
        }
        prev = history[-1] if history else None
        if prev is not None and prev["delta_norm"] > 0:
            record["contraction_ratio"] = record["delta_norm"] / prev["delta_norm"]
            record["ratio_above_noise"] = bool(
                record["delta_norm"] > record["delta_noise_floor"]
                and prev["delta_norm"] > prev["delta_noise_floor"]
            )
        history.append(record)
        prev_group_modes = stats.group_modes
        current = nxt
        if record["delta_norm"] < record["tolerance"]:
            break
    else:
        raise NonConvergenceError(
            f"Picard iteration did not reach tolerance in {config.max_iter} steps",
            history=tuple(history),
        )
    group_bmo_sq = _group_bmo_sq(prev_group_modes, config.N, 0.0, dt)
    return _solution(psi, config, current, tuple(history), group_bmo_sq, bounds)


def _solution(psi, config, iterate, history, group_bmo_sq, bounds) -> BsdeSolution:
    """The solution and its norms: the unweighted BMO proxy of ``iterate``,
    batch-means debiased and with its standard error from the G values
    ``group_bmo_sq`` of the last groups (none for zero data, whose iterate
    is exact); ``bounds`` holds alpha, c0 and c1."""
    bmo_sq = z_alpha_bmo_sq(iterate.modes, 0.0, config.dt)
    g = len(group_bmo_sq)
    # Quadratic functionals of a mean carry an O(1/M) noise bias; batch
    # means estimate and remove it (bias of a group mean is G times the
    # bias of the full mean).
    bias = (float(np.mean(group_bmo_sq)) - bmo_sq) / (g - 1) if g else 0.0
    norms = {
        # node by node: the whole stack on the 4x grid takes 16x its memory
        "y_sup": max(_lattice_sup(m) for m in iterate.modes),
        "z_bmo_sq": bmo_sq,
        "z_bmo_sq_debiased": bmo_sq - bias,
        "z_bmo_sq_se": _batch_means_se(group_bmo_sq) if g else 0.0,
        "z_bmo_group_values": group_bmo_sq.tolist(),
        **bounds,
    }
    return BsdeSolution(y=iterate, psi=psi, config=config, norms=norms, history=history)


# ---------------------------------------------------------------------------
# pathwise residual of the backward equation


def bsde_residual_profile(stack: np.ndarray, nu: float, dt: float, increments) -> np.ndarray:
    """L2(x) norm, per t-node, of the discrete backward-equation defect

        xi - Y(t) - sum_s <Z, K(Y)> dt - sqrt(2 nu) sum_s <Z, dB_s>

    of the (L+1, N, N) mode stack omega(tau_m, .) with time step ``dt``,
    along each Brownian path whose (L, 2) increments are one row of the
    (paths, L, 2) ``increments``: one row of the (paths, L+1) result per
    path.  Left-point sums, everything expressed spectrally through the
    Markovian reduction (translations are phase factors, norms Parseval).
    The path-independent terms are formed once for all paths.
    """
    steps = stack.shape[0] - 1
    increments = np.asarray(increments, dtype=np.float64)
    if increments.ndim != 3 or increments.shape[1:] != (steps, 2):
        raise DomainError(f"increments must be (paths, {steps}, 2), got {increments.shape}")
    n = stack.shape[-1]
    # <grad omega, u>(tau), dealiased, node by node: all nodes on the 3N/2
    # grid at once would take about 30x the stack's memory
    drift = dt * np.stack([_advection_modes(modes)[0] for modes in stack])
    w1, w2 = _gradient_modes(stack)

    sqrt2nu = np.sqrt(2.0 * nu)
    profiles = np.zeros((increments.shape[0], steps + 1))
    for norms, inc in zip(profiles, increments):
        disp = sqrt2nu * np.vstack([np.zeros((1, 2)), np.cumsum(inc, axis=0)])
        ph = _phase_grid(n, disp[steps])
        xi = stack[0] * ph
        acc = np.zeros((n, n), dtype=np.complex128)
        for j in range(steps, -1, -1):
            ell = steps - j  # field index at BSDE time t_j; ph is at disp[j]
            resid = xi - stack[ell] * ph - acc
            norms[j] = np.sqrt(np.sum(np.abs(resid) ** 2))
            if j > 0:
                ph = _phase_grid(n, disp[j - 1])
                db = inc[j - 1]
                acc = acc + ph * (
                    drift[ell + 1] + sqrt2nu * (w1[ell + 1] * db[0] + w2[ell + 1] * db[1])
                )
    return profiles
