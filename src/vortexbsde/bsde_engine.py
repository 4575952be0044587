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
* first-order control variate: with W = exp(-E), the part -psi * E of
  psi * (W - 1) that is first order in h has a closed-form mean too (the
  discrete first Duhamel term), so the weighted estimator averages
  psi * (W - 1 + E), second order in h, and adds that mean exactly;
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
from .spectral_oracle import VorticityTrajectory, _AdvectionKernel
from .torus_field import (
    TWO_PI,
    ScalarField,
    _cell,
    _gradient_modes,
    _heat_factor,
    _nyquist_mask,
    _phase_grid,
    _validate_grid_size,
    embed_modes,
    grid_to_modes,
    lattice_sups,
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

#: Cell points per Euler-step array of the drifted solve: a chunk holds at
#: most _DRIFTED_POINTS // (n1 * n2) branches (``_drifted_chunks``), so a
#: small cell's chunk is large and the per-call overhead is paid once per
#: step of many branches.
_DRIFTED_POINTS = 32768


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
            if value is not None:  # numpy scalars become the Python numbers JSON holds
                object.__setattr__(self, f.name, int(value) if f.type == "int" else float(value))
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
        brownian.check_seed(self.base_seed, "base_seed")

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
    sqrt(2*nu) B_t along a path.  The terminal data psi is node tau = 0 of
    ``y``, which every iterate keeps exactly."""

    y: VorticityTrajectory
    config: SolverConfig
    norms: dict
    history: tuple

    @property
    def psi(self) -> ScalarField:
        return ScalarField(self.y.modes[0])


@dataclass
class SolveStats:
    """Per-solve Monte Carlo bookkeeping (standard errors, sups, groups), all
    taken on the estimator's lattice cell; only ``se_grid`` is tiled over
    the lattice.  The groups hold their cell's modes, ``_on_cell`` places
    them on (N, N)."""

    se_grid: np.ndarray  # (L+1, N, N) pointwise standard error, tiled from the cell
    pooled_se: np.ndarray  # (L+1,) sqrt(mean_z variance / M)
    sup_lattice: np.ndarray  # (L+1,) max_z |omega| on the N lattice, read on the cell
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
    is the terminal data psi; like every trajectory it is mean-zero and
    Nyquist-free by construction.  Owns what both estimators share: the
    check of ``prev`` against the config (grid size, step count, nu and
    dt), the velocity of ``prev``, the exact heat stack, the keyed
    increments and displacements, branch chunking and the sum,
    sum-of-squares and group accumulation.
    ``estimator(config, psi_modes, u1, u2)`` returns ``(bounds, cell,
    samples, control_mean)``: ``bounds`` are increasing branch indices
    0 = b_0 < ... < b_k = M_inner, chunk i holding branches b_i..b_{i+1}-1;
    the correction and psi repeat on the lattice cell (n1, n2) at the
    origin, n_a dividing N ((N, N) is the whole lattice), which each
    estimator takes from the modes it reads (``_cell``); ``samples(db,
    disp)`` yields ``(m, sample)`` blocks of consecutive nodes that cover
    m = 1..L in order, ``sample`` being the (branches, k, n1, n2) cell
    values of the sampled correction at nodes m..m+k-1 for one chunk
    (chunks run one after another, so an estimator may reuse buffers
    across them); a zero correction may yield no block.  ``control_mean`` is the exact mean of
    the control variate the samples subtract from the correction: cell
    values broadcasting to (L+1, n1, n2), zero at node 0, or 0.0 for none.
    Group sums take one matrix product per block, the sums over all
    branches are the groups' sum.  Every sum stays on the cell; the mean
    and every group mean add ``control_mean``, so the standard errors are
    the samples' own, and the mean is placed on the lattice from its cell
    modes.
    """
    steps, dt, nu = config.L, config.dt, config.nu
    m_inner, n_groups = config.M_inner, config.groups
    _check_trajectory_config(prev, config, "iterate")

    psi_modes = prev.modes[0]
    u1, u2 = velocity_modes(prev.modes)
    bounds, cell, samples, control_mean = estimator(config, psi_modes, u1, u2)
    heat = heat_mode_stack(psi_modes, nu, dt, steps)

    db = brownian.ensemble_increments(config.base_seed, tag, m_inner, steps, dt)
    disp = np.zeros((m_inner, steps + 1, 2))
    np.cumsum(db, axis=1, out=disp[:, 1:, :])
    disp *= np.sqrt(2.0 * nu)

    group_of = (np.arange(m_inner) * n_groups) // m_inner
    group_counts = np.bincount(group_of, minlength=n_groups)
    sumsq_f = np.zeros((steps + 1,) + cell)
    group_sum = np.zeros((n_groups, steps + 1) + cell)

    for b0, b1 in zip(bounds[:-1], bounds[1:]):
        # group_of is non-decreasing, so the chunk's groups are g0..g1 - 1: a
        # 0/1 membership matrix sums each of them in one product.
        g0, g1 = group_of[b0], group_of[b1 - 1] + 1
        member = (group_of[b0:b1] == np.arange(g0, g1)[:, None]).astype(np.float64)
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
            partial = member @ sample.reshape(sample.shape[0], -1)
            group_sum[g0:g1, nodes] += partial.reshape((-1,) + sample.shape[1:])
    del samples  # frees the estimator's tables before the assembly allocates
    return _assemble_iterate(config, heat, sumsq_f, group_sum, group_counts, control_mean)


def _cell_iterate(heat: np.ndarray, mean_values: np.ndarray) -> np.ndarray:
    """Cell modes (..., L+1, n1, n2) of the heat stack plus the Monte Carlo
    correction whose cell values are ``mean_values``: the cell's modes are
    the lattice modes at strides (N / n1, N / n2), as psi's.  The correction
    is projected to mean zero and off the Nyquist lines; node 0 is psi
    exactly."""
    n = heat.shape[-1]
    s1, s2 = n // mean_values.shape[-2], n // mean_values.shape[-1]
    modes = grid_to_modes(mean_values)
    modes[..., 0, 0] = 0.0
    modes[..., _nyquist_mask(n)[::s1, ::s2]] = 0.0
    modes += heat[:, ::s1, ::s2]
    modes[..., 0, :, :] = heat[0, ::s1, ::s2]
    return modes


def _assemble_iterate(config, heat, sumsq_f, group_sum, group_counts, control_mean):
    """The iterate and its ``SolveStats`` from the cell's sums and the
    estimator's exact ``control_mean``: the mean and every group by one rule
    (``_cell_iterate``), the mean then placed on the (N, N) lattice, so its
    off-cell modes are exact zeros.  ``group_sum`` becomes the group means
    in place."""
    n, m_inner = config.N, config.M_inner
    cell = group_sum.shape[-2:]
    sum_f = group_sum.sum(axis=0)
    mean_modes = _cell_iterate(heat, sum_f / m_inner + control_mean)

    var_z = np.maximum(sumsq_f - sum_f**2 / m_inner, 0.0) / (m_inner - 1)
    se_cell = np.sqrt(var_z / m_inner)
    se_cell[0] = 0.0
    pooled = np.sqrt(np.mean(var_z, axis=(1, 2)) / m_inner)
    pooled[0] = 0.0

    group_sum /= group_counts[:, None, None, None]
    group_sum += control_mean
    stats = SolveStats(
        se_grid=np.tile(se_cell, (1, n // cell[0], n // cell[1])),
        pooled_se=pooled,
        sup_lattice=np.max(np.abs(modes_to_grid(mean_modes)), axis=(-2, -1)),
        group_modes=_cell_iterate(heat, group_sum),
    )
    return VorticityTrajectory(_on_cell(mean_modes, (n, n)), nu=config.nu, dt=config.dt), stats


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
    bilinearly interpolated on the 4x oversampled grid of their lattice
    cell; the terminal psi is evaluated spectrally so the heat control
    variate stays exactly unbiased.
    """
    return _linear_solve(prev, config, brownian.TAG_DRIFT, _drifted_estimator)


# ---------------------------------------------------------------------------
# the weighted (Girsanov) estimator


def _active_indices(mag: np.ndarray, threshold_rel: float):
    return np.nonzero(mag > threshold_rel * mag.max(initial=0.0))


def _on_cell(modes: np.ndarray, cell) -> np.ndarray:
    """The modes (..., n1, n2) of a cell's values, repeated onto a cell
    (m1, m2) with n_a dividing m_a: mode [p1, p2] goes to [p1 m1/n1, p2 m2/n2]."""
    out = np.zeros(modes.shape[:-2] + tuple(cell), dtype=modes.dtype)
    out[..., :: cell[0] // modes.shape[-2], :: cell[1] // modes.shape[-1]] = modes
    return out


@dataclass
class _SubBlock:
    """Lattice synthesis of complex mode arrays supported on fixed row and
    column wavenumbers: two small matrix products in place of a dense
    ``ifft2``, one product where the block has a single column (a flow
    constant along x2, such as psi = sin 2 pi x1).  The phases k*j are
    reduced mod N before the ``exp``, so congruent wavenumbers (k and
    k - N) share a phase row and the products add them, as sampling on the
    N lattice does.

    Such a sum repeats on the lattice with period n_a = N / gcd(N, |k|) of
    the occupied wavenumbers along each axis, so only the (n1, n2) cell at
    the origin is synthesised.  With the phases reduced mod N, equivalent
    lattice points have identical phase rows, so the cell holds exactly the
    values the full lattice would repeat."""

    e_rows: np.ndarray  # (n1, R): exp(2 pi i k_r j / N)
    e_cols: np.ndarray  # (C, n2): exp(2 pi i k_c j / N)

    @classmethod
    def build(cls, k1: np.ndarray, k2: np.ndarray, n: int):
        """From the distinct row and column wavenumbers k1 and k2."""
        j1, j2 = map(np.arange, _cell(k1, k2, n))
        e_rows = np.exp(TWO_PI * 1j * ((j1[:, None] * k1) % n) / n)
        e_cols = np.exp(TWO_PI * 1j * ((k2[:, None] * j2) % n) / n)
        return cls(e_rows, e_cols)

    @property
    def cell(self) -> tuple:
        """The (n1, n2) lattice cell the synthesised values repeat on."""
        return self.e_rows.shape[0], self.e_cols.shape[1]

    def synthesise(self, z: np.ndarray) -> np.ndarray:
        """Cell values (B, n1, n2) of the sub-block modes z, shape (B, R*C).

        A single column at wavenumber 0 makes the cell one column wide, so
        its phase table is exp(0) = [[1]]: the block's values are then the
        row product alone, over all of z at once.  The weighted step's
        one-column blocks are such blocks: |u|^2's mean mode is always
        active, so its only column is 0."""
        bc = z.shape[0]
        (n1, r), (c, n2) = self.e_rows.shape, self.e_cols.shape
        if (c, n2) == (1, 1):
            return (z @ self.e_rows.T).reshape(bc, n1, 1)
        g = np.matmul(self.e_rows, z.reshape(bc, r, c))  # (B, n1, C)
        return (g.reshape(bc * n1, c) @ self.e_cols).reshape(bc, n1, n2)


def _duhamel_sums(terms: np.ndarray, k1: np.ndarray, k2: np.ndarray, nu: float, dt: float):
    """-dt sum_{l<=m} exp(-4 pi^2 nu |k|^2 (m - l) dt) T_l at the nodes
    m = 1..L of the terms T (L, ...) at the nodes l = 1..L, entry by entry,
    each entry at the wavenumber (k1, k2) (arrays broadcasting on it): the
    recurrence S_m = T_m + exp(-4 pi^2 nu |k|^2 dt) S_{m-1} from S_1 = T_1."""
    decay = np.exp(-4.0 * np.pi**2 * nu * dt * (k1 * k1 + k2 * k2))
    sums = np.array(terms, dtype=np.complex128)
    for m in range(1, len(sums)):
        sums[m] += decay * sums[m - 1]
    sums *= -dt
    return sums


def _transport_mean_pairs(u1, u2, ku, psi_heat, kp, nu: float, dt: float) -> np.ndarray:
    """The u.grad H part of the first-order control's mean, per pair of a u
    mode and a psi mode: entry [m - 1, p, a] of the (L, P, K) result is the
    coefficient, at wavenumber k_p + k_a, of

        -dt sum_{l<=m} P_{(m-l)dt}[u_l . grad H_l],

    from u's modes a, (L, K) coefficients ``u1`` and ``u2`` at nodes 1..L
    and wavenumbers ``ku`` = (k1, k2), and the heat stack H's modes p,
    (L, P) coefficients ``psi_heat`` at nodes 1..L and wavenumbers ``kp``."""
    grad = TWO_PI * 1j * psi_heat[:, :, None]
    terms = grad * (kp[0][:, None] * u1[:, None, :] + kp[1][:, None] * u2[:, None, :])
    return _duhamel_sums(terms, kp[0][:, None] + ku[0], kp[1][:, None] + ku[1], nu, dt)


def _energy_mean_pairs(q, kq, psi_heat, kp, nu: float, dt: float) -> np.ndarray:
    """The |u|^2 H part of the first-order control's mean, per pair of a
    |u|^2 mode and a psi mode: as ``_transport_mean_pairs`` for

        -dt sum_{l<=m} P_{(m-l)dt}[|u_l|^2 H_l / (4 nu)],

    from |u|^2's (L, K) coefficients ``q`` at nodes 1..L and wavenumbers
    ``kq``."""
    terms = psi_heat[:, :, None] * q[:, None, :] / (4.0 * nu)
    return _duhamel_sums(terms, kp[0][:, None] + kq[0], kp[1][:, None] + kq[1], nu, dt)


def _weighted_estimator(config: SolverConfig, psi_modes, u1, u2):
    """Samples psi(z + disp_m) * (W_m - 1 + E_m) over Girsanov-weighted
    branches, W_m = exp(-E_m), on the lattice cell of the ``_SubBlock`` of
    the wavenumbers of psi and the active u and |u|^2 modes, in blocks of
    consecutive nodes sized by ``_WEIGHTED_BLOCK``: one synthesis per
    block.  The control -psi(z + disp_m) E_m they subtract is first order
    in the drift; its exact mean, the discrete first Duhamel term

        -dt sum_{l<=m} P_{(m-l)dt}[u_l . grad H_l + |u_l|^2 H_l / (4 nu)]

    over the same active modes (H the heat stack, P_s = exp(s nu Lap)), is
    folded onto the cell by the same block."""
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
    bounds = [*range(0, config.M_inner, _WEIGHTED_CHUNK), config.M_inner]
    mag_a = (np.abs(u1[1:]) + np.abs(u2[1:])).max(axis=0)
    ia1, ia2 = _active_indices(mag_a, thr)
    k_base = wavenumbers(n)
    ip1, ip2 = np.nonzero(psi_modes)

    if not ia1.size:  # W = 1 exactly: a zero correction on psi's cell, no block
        return bounds, _cell(k_base[ip1], k_base[ip2], n), lambda db, disp: iter(()), 0.0

    w1, w2 = v1[1:], v2[1:]
    q_modes = grid_to_modes(w1 * w1 + w2 * w2)
    iq1, iq2 = _active_indices(np.abs(q_modes).max(axis=0), thr)
    k_ext = wavenumbers(2 * n)

    # Frequency-domain kernel table of the causal convolutions
    # A_m = sum_{j<m} <u_{m-j}, dB_j> phase_j, Q_m = sum_{j<m} q_{m-j} phase_j:
    # one row per active u1, u2 and |u|^2 mode, the time axis last.
    pad, k_a = 2 * steps, ia1.size
    kern = np.zeros((2 * k_a + iq1.size, pad), dtype=np.complex128)
    kern[:, 1 : steps + 1] = np.concatenate(
        (u1[1:, ia1, ia2], u2[1:, ia1, ia2], q_modes[:, iq1, iq2]), axis=1
    ).T
    kern = np.fft.fft(kern, axis=-1)

    # Each node's complex mode array, minus the exponent plus 1j * the
    # shifted psi (both real fields), has a row per distinct first-axis
    # wavenumber of psi, the active u modes and the active |u|^2 modes, and
    # a column per second-axis one, in the doubled grid's FFT order.  The
    # same tables index the phases exp(2 pi i k disp) each term reads.
    ipsi = 1j * psi_modes[ip1, ip2]
    kx, x_of = np.unique(np.r_[k_base[ip1], k_base[ia1], k_ext[iq1]] % (2 * n), return_inverse=True)
    ky, y_of = np.unique(np.r_[k_base[ip2], k_base[ia2], k_ext[iq2]] % (2 * n), return_inverse=True)
    kx, ky = k_ext[kx], k_ext[ky]
    block = _SubBlock.build(kx, ky, n)
    terms = [ip1.size, ip1.size + ia1.size]
    xp, xa, xq = np.split(x_of, terms)
    yp, ya, yq = np.split(y_of, terms)
    slot_p, slot_a, slot_q = np.split(x_of * ky.size + y_of, terms)
    size = kx.size * ky.size
    kx, ky = kx.astype(np.float64), ky.astype(np.float64)
    n1, n2 = block.cell

    # The control's mean: a sum per (active mode, psi mode) pair at its
    # wavenumber k_a + k_p, which is exp(2 pi i k_a z) exp(2 pi i k_p z) on
    # the lattice, so the block synthesises each psi mode's pairs from the
    # active modes' slots, and psi's phase on the cell multiplies them.
    kp = (kx[xp], ky[yp])
    taus = dt * np.arange(1, steps + 1)
    psi_heat = psi_modes[ip1, ip2] * np.exp(
        -4.0 * np.pi**2 * nu * taus[:, None] * (kp[0] ** 2 + kp[1] ** 2)
    )
    pairs = np.zeros((steps, ip1.size, size), dtype=np.complex128)
    pairs[:, :, slot_a] = _transport_mean_pairs(
        u1[1:, ia1, ia2], u2[1:, ia1, ia2], (kx[xa], ky[ya]), psi_heat, kp, nu, dt
    )
    pairs[:, :, slot_q] += _energy_mean_pairs(
        q_modes[:, iq1, iq2], (kx[xq], ky[yq]), psi_heat, kp, nu, dt
    )
    control_mean = np.zeros((steps + 1, n1, n2))
    for p in range(ip1.size):
        folded = block.synthesise(pairs[:, p])
        folded *= np.outer(block.e_rows[:, xp[p]], block.e_cols[yp[p]])
        control_mean[1:] += folded.real

    # The time-axis input, reused by every chunk: a fresh array per chunk
    # would be faulted in anew each time.
    x_buf = np.empty((_WEIGHTED_CHUNK, kern.shape[0], steps), dtype=np.complex128)

    def samples(db, disp):
        bc = db.shape[0]
        px = np.exp(TWO_PI * 1j * disp[:, :, 0, None] * kx)
        py = np.exp(TWO_PI * 1j * disp[:, :, 1, None] * ky)

        # One forward and one inverse FFT for all three convolutions; the
        # generator's locals live across every yield, so the time-axis
        # temporaries are dropped before the node loop.
        pxt, pyt = px.transpose(0, 2, 1), py.transpose(0, 2, 1)
        x = x_buf[:bc]
        ph_a = pxt[:, xa, :steps] * pyt[:, ya, :steps]  # (bc, K_A, L)
        np.multiply(db[:, None, :, 0], ph_a, out=x[:, :k_a])
        np.multiply(db[:, None, :, 1], ph_a, out=x[:, k_a : 2 * k_a])
        np.multiply(pxt[:, xq, :steps], pyt[:, yq, :steps], out=x[:, 2 * k_a :])
        f = np.fft.fft(x, n=pad, axis=-1)
        f *= kern
        f[:, k_a : 2 * k_a] += f[:, :k_a]
        f = np.fft.ifft(f[:, k_a:], axis=-1)
        # indexed by node m: the A columns, then the Q columns; node 0, the
        # empty sum, is never read
        conv = f[..., : steps + 1].transpose(0, 2, 1).copy()
        del f

        k = max(1, _WEIGHTED_BLOCK // (bc * n1 * n2))
        for m in range(1, steps + 1, k):
            nodes = slice(m, min(m + k, steps + 1))
            z = np.zeros((bc, nodes.stop - m, size), dtype=np.complex128)
            z[:, :, slot_p] = ipsi * (px[:, nodes, xp] * py[:, nodes, yp])
            z[:, :, slot_a] += conv[:, nodes, :k_a] / -sqrt2nu
            z[:, :, slot_q] += conv[:, nodes, k_a:] * (-dt / (4.0 * nu))
            g = block.synthesise(z.reshape(-1, size)).reshape(z.shape[:2] + (n1, n2))
            # g = -E + 1j * psi_shift; expm1 runs fastest on a contiguous
            # copy.  An overflowing weight is left to the skeleton's
            # finiteness check.
            sample = g.real.copy()
            with np.errstate(over="ignore", invalid="ignore"):
                np.subtract(np.expm1(sample), sample, out=sample)
                sample *= g.imag
            yield m, sample

    return bounds, block.cell, samples, control_mean


# ---------------------------------------------------------------------------
# the drifted-SDE estimator (Girsanov equivalence cross-check)


def _bilinear_tables(padded: np.ndarray):
    """``_bilinear``'s table pair for periodic (..., P1, P2) real grids
    padded with their first row and column, shape (..., P1 + 1, P2 + 1):
    the padded grids and the (..., P1, P2 + 1) differences of their
    consecutive rows."""
    return padded, padded[..., 1:, :] - padded[..., :-1, :]


def _bilinear(tables, x: np.ndarray, y: np.ndarray) -> list:
    """Bilinear interpolation of periodic (P1, P2) real grids at the points
    (x, y), given in grid units: grid node (i, j) sits at (i, j), and each
    axis wraps by its own period.

    ``tables`` holds one ``(padded, row_diff)`` pair of ``_bilinear_tables``
    per grid.  Both arrays have the padded row stride P2 + 1, so a cell's
    lower corner and its neighbour in the next column sit at flat offsets 0
    and 1 in each (the latter read through a view shifted by one); the
    cells and weights are located once for every grid.
    """
    p1, p2 = (size - 1 for size in tables[0][0].shape[-2:])
    i0 = np.floor(x)
    j0 = np.floor(y)
    fx = x - i0
    fy = y - j0
    i = i0.astype(np.intp)
    j = j0.astype(np.intp)
    if p1 & (p1 - 1) or p2 & (p2 - 1):
        i %= p1
        j %= p2
    else:  # the same remainders, cheaper for powers of two
        i &= p1 - 1
        j &= p2 - 1
    base = i * (p2 + 1)
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
    """Both velocity components of every node on the 4x grid of the
    lattice cell ``cell`` = (n1, n2) at the origin.

    u repeats on the cell, so the (4 n1, 4 n2) nodes of that grid, spaced
    as those of the (4N, 4N) grid, hold every value the whole 4x grid
    would.  Each component is synthesised from its cell modes at strides
    (N / n1, N / n2), as in ``torus_field.lattice_sups``, on its own, so
    only one component's 4x cell modes exist at a time.

    Returns the ``_bilinear_tables`` of each component, with a leading node
    axis, and each component's (L+1, n1*n2) values on the lattice cell,
    point (i, j) at flat index i * n2 + j.
    """
    n = u1.shape[-1]
    n1, n2 = cell
    # cell mode p carries the wavenumber k / (N / n_a), wavenumbers(n_a)[p]
    pos1, pos2 = wavenumbers(n1) % (4 * n1), wavenumbers(n2) % (4 * n2)
    tables = []
    for u in (u1, u2):
        big = np.zeros((u.shape[0], 4 * n1, 4 * n2), dtype=np.complex128)
        big[:, pos1[:, None], pos2] = u[:, :: n // n1, :: n // n2]
        grid = modes_to_grid(big)
        tables.append(_bilinear_tables(np.pad(grid, ((0, 0), (0, 1), (0, 1)), mode="wrap")))
    # The lattice is every fourth node of the 4x grid; reshaping the
    # strided view of the cell copies it, so only the tables stay referenced.
    lattice = [padded[:, :-1:4, :-1:4].reshape(u1.shape[0], n1 * n2) for padded, _ in tables]
    return tables, lattice


def _drifted_chunks(m_inner: int, points: int) -> list:
    """Chunk bounds (``_linear_solve``) of ``m_inner`` branches whose
    Euler-step arrays hold ``points`` cell points per branch: the fewest
    chunks of at most ``_DRIFTED_POINTS`` points (one branch at least),
    their sizes differing by at most one."""
    count = -(-m_inner // max(1, _DRIFTED_POINTS // points))
    return [b * m_inner // count for b in range(count + 1)]


def _drifted_estimator(config: SolverConfig, psi_modes, u1, u2):
    """Samples psi(X_m) - psi(z + disp_m) along Euler-Maruyama paths X.

    Runs in the balanced chunks of ``_drifted_chunks``, one node per block.
    Paths advance in units of the 4x velocity grid's spacing (an exact
    rescaling for power-of-two N).  Every node's paths start on the
    lattice cell (n1, n2) that psi and every node of u repeat on, whose
    points are nodes of that grid, so the first Euler step reads the grid
    instead of interpolating.  The tables hold the cell's 4x grid only
    (``_velocity_tables``), of u scaled by the drift step -dt 4N, so an
    Euler step adds the values it reads as they are.  Every lattice point
    shares the branch noise, and a shift by n_a lattice points is a shift
    by 4 n_a whole grid nodes, so paths from equivalent lattice points
    differ by that shift and their samples agree up to the rounding of the
    positions.  The bilinear step reads every mode of u, so the cell is
    taken from the exactly nonzero modes, with no threshold.
    """
    n, steps, dt, nu = config.N, config.L, config.dt, config.nu
    p = 4 * n
    drift_step = -dt * p
    sqrt2nu = np.sqrt(2.0 * nu)
    occupied = (psi_modes != 0) | np.any((u1 != 0) | (u2 != 0), axis=0)
    k = wavenumbers(n)
    i1, i2 = np.nonzero(occupied)
    n1, n2 = _cell(k[i1], k[i2], n)
    ((pad1, diff1), (pad2, diff2)), lattice = _velocity_tables(
        drift_step * u1, drift_step * u2, (n1, n2)
    )
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
            x = zx + (lattice[0][m] + noise[:, 0, 0, None])
            y = zy + (lattice[1][m] + noise[:, 0, 1, None])
            for j in range(1, m):
                ell = m - j  # left-point field index: time-to-go (m - j) dt
                d1, d2 = _bilinear(
                    ((pad1[ell], diff1[ell]), (pad2[ell], diff2[ell])), x, y
                )
                d1 += noise[:, j, 0, None]
                x += d1
                d2 += noise[:, j, 1, None]
                y += d2
            vals = _spectral_point_values(half, x / p, y / p)
            cv_vals = 2.0 * np.real(disp_phase[:, m, :] @ lattice_phase.T)
            yield m, (vals - cv_vals).reshape(bc, 1, n1, n2)

    return _drifted_chunks(config.M_inner, n1 * n2), (n1, n2), samples, 0.0


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


def _prefix_quadrature(integrand: np.ndarray, dt: float) -> np.ndarray:
    """Prefix integrals by end-corrected trapezoid (Euler-Maclaurin), along
    the last axis.

    The -(dt/12)*(g'(end) - g'(0)) correction with finite-difference slopes
    removes the O(dt^2) bias that would otherwise dominate closed-form
    comparisons of smooth decaying profiles.
    """
    trap = 0.5 * (integrand[..., 1:] + integrand[..., :-1]) * dt
    prefixes = np.zeros(integrand.shape)
    np.cumsum(trap, axis=-1, out=prefixes[..., 1:])
    if integrand.shape[-1] >= 3:
        slopes = np.diff(integrand, axis=-1) / dt
        corr = -(dt**2 / 12.0) * (slopes - slopes[..., :1])
        prefixes[..., 2:] += corr[..., 1:]
    return prefixes


def z_alpha_bmo_sq(stack: np.ndarray, alpha: float, dt: float) -> float:
    """Scaled weighted BMO proxy (squared): max over t-windows of the
    integral of exp(-2*alpha*tau) ||grad omega(tau)||^2.

    Windows [t, T] map to tau-prefixes [0, T - t]; with non-negative
    integrands the maximum is the full integral, but every window is
    formed so the proxy matches its definition literally.  ``stack`` is an
    (L+1, N, N) mode stack; ``_bmo_sq`` is the rule.
    """
    return float(_bmo_sq(stack, stack.shape[-1], alpha, dt))


def _bmo_sq(stacks: np.ndarray, n: int, alpha: float, dt: float) -> np.ndarray:
    """``z_alpha_bmo_sq`` of each (L+1, n1, n2) stack of (..., L+1, n1, n2)
    mode arrays on a lattice cell of the (n, n) grid, the (n, n) layout
    being the cell (n, n).  Cell mode p carries the wavenumber
    wavenumbers(n_a)[p] * n / n_a, as in ``lattice_sups``, so ||grad
    omega||^2 is summed over the cell alone, spectrally."""
    k1, k2 = (wavenumbers(c).astype(np.float64) * (n // c) for c in stacks.shape[-2:])
    grad_sq = np.abs(stacks)
    grad_sq *= grad_sq
    grad_sq *= 4.0 * np.pi**2 * (k1[:, None] ** 2 + k2[None, :] ** 2)
    weighted = _alpha_weights(2.0 * alpha, dt, stacks.shape[-3]) * grad_sq.sum(axis=(-2, -1))
    return np.max(_prefix_quadrature(weighted, dt), axis=-1)


def _group_bmo_sq(group_modes: np.ndarray, n: int, alpha: float, dt: float) -> np.ndarray:
    """z_alpha_bmo_sq of each (L+1, n1, n2) group stack, summed over the
    (n, n) layout: the groups agree to about 5 digits, so a sum over the
    cell moves their spread beyond roundoff (taken on the cell,
    ``scripts/parity.py`` read ``norms.z_bmo_sq_se`` 6.3e-11 off at
    ``even_modes.seed7``, 5 entries failing).  The Picard deltas' groups
    are summed on their cell (``_bmo_sq``)."""
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
        return _solution(config, current, (), np.zeros(0), bounds)

    # iterate 0 is deterministic: every group starts from it, on psi's cell
    k = wavenumbers(config.N)
    i1, i2 = np.nonzero(psi.modes)
    s1, s2 = (config.N // c for c in _cell(k[i1], k[i2], config.N))
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
            _bmo_sq(delta_group, config.N, alpha, dt)
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
    return _solution(config, current, tuple(history), group_bmo_sq, bounds)


def _solution(config, iterate, history, group_bmo_sq, bounds) -> BsdeSolution:
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
        "y_sup": float(np.max(lattice_sups(iterate.modes))),
        "z_bmo_sq": bmo_sq,
        "z_bmo_sq_debiased": bmo_sq - bias,
        "z_bmo_sq_se": _batch_means_se(group_bmo_sq) if g else 0.0,
        "z_bmo_group_values": group_bmo_sq.tolist(),
        **bounds,
    }
    return BsdeSolution(y=iterate, config=config, norms=norms, history=history)


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
    advection = _AdvectionKernel(n)
    drift = dt * np.stack([advection(modes)[0] for modes in stack])
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
