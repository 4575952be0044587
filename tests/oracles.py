"""Independent brute-force oracles used to freeze expected values.

These deliberately avoid the FFT/multiplier code paths of the package:
transforms are literal double loops over wavenumbers and lattice points,
integrals are dense-lattice Riemann/trapezoid sums over analytic samples.
The scalar references (one path, one weight, one increment) restate
single terms of the vectorized estimators for spot checks; the kernel
references at the end are the plain forms of the estimators' hot loops.
``sobolev_norm`` and ``measure_c0`` bound the elliptic constant that
``closed_form_c0`` gives in closed form from below, over random trial fields.
"""

import numpy as np

from vortexbsde import brownian
from vortexbsde.biot_savart import apply_K, velocity_modes
from vortexbsde.bsde_engine import _half_plane_modes, _spectral_point_values
from vortexbsde.errors import ConfigurationError, NumericalError
from vortexbsde.torus_field import (
    TWO_PI,
    ScalarField,
    _gradient_modes,
    _nyquist_mask,
    _sobolev_symbol,
    embed_modes,
    grid_to_modes,
    modes_to_grid,
    translate,
    wavenumbers,
)


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
    ks = np.r_[0 : n // 2, -(n // 2) : 0]
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


MAX_SOBOLEV_ORDER = 4


def sobolev_norm(f: ScalarField, k_order: int) -> float:
    """W^{k,2} norm computed spectrally; order 0 is the plain L^2 norm."""
    if not 0 <= k_order <= MAX_SOBOLEV_ORDER:
        raise ConfigurationError(
            f"Sobolev order must be in [0, {MAX_SOBOLEV_ORDER}], got {k_order}"
        )
    sym = _sobolev_symbol(f.grid_size, k_order)
    return float(np.sqrt(np.sum(sym * np.abs(f.modes) ** 2)))


def measure_c0(k_order: int, trials: int, n: int = 32, seed: int = 0) -> float:
    """Empirical max of ||K_j f||_{k,2} / ||f||_{k-1,2} over random trial fields."""
    if trials < 1:
        raise ConfigurationError("C0 measurement needs at least one trial")
    if not 1 <= k_order <= 3:
        raise ConfigurationError(f"C0 is measured for orders 1..3, got {k_order}")
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0xC0], dtype=np.uint64)))
    best = 0.0
    for _ in range(trials):
        raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        m = 0.5 * (raw + np.conj(raw[(-np.arange(n)) % n][:, (-np.arange(n)) % n]))
        m[0, 0] = 0.0
        m[_nyquist_mask(n)] = 0.0
        f = ScalarField(m)
        denom = sobolev_norm(f, k_order - 1)
        if denom == 0.0:
            continue
        for comp in apply_K(f):
            best = max(best, sobolev_norm(comp, k_order) / denom)
    return best


def terminal_value(psi: ScalarField, increments, nu: float) -> ScalarField:
    """xi = psi( . + sqrt(2*nu) B_T), the terminal random field along the
    path with (L, 2) ``increments``."""
    if len(increments) < 1:
        raise ConfigurationError("path has no steps")
    return translate(psi, np.sqrt(2.0 * nu) * np.cumsum(increments, axis=0)[-1])


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


def dump_csv(increments, dt: float, stream) -> None:
    """Write the path with (L, 2) ``increments`` as CSV rows (m, t, B1, B2)
    for debugging."""
    stream.write("m,t,B1,B2\n")
    values = np.vstack([np.zeros((1, 2)), np.cumsum(increments, axis=0)])
    times = np.arange(len(values)) * dt
    for m, (t, (b1, b2)) in enumerate(zip(times, values)):
        stream.write(f"{m},{t!r},{b1!r},{b2!r}\n")


def pad_modes_reference(modes: np.ndarray, size: int) -> np.ndarray:
    """Resolved modes (zero Nyquist row and column) of (..., N, N) arrays
    placed on the (size, size) grid by a literal loop over wavenumbers:
    mode k goes to index k mod size, every other mode is zero."""
    n = modes.shape[-1]
    out = np.zeros(modes.shape[:-2] + (size, size), dtype=np.complex128)
    for k1 in range(-(n // 2) + 1, n // 2):
        for k2 in range(-(n // 2) + 1, n // 2):
            out[..., k1 % size, k2 % size] = modes[..., k1 % n, k2 % n]
    return out


def bilinear_reference(grid: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Bilinear interpolation of one periodic (P, P) grid at positions (..., 2),
    wrapping positions with ``% 1.0`` and cell indices with ``% P``."""
    p = grid.shape[-1]
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
    flat = grid.ravel()
    base0 = i0 * p
    base1 = i1 * p
    v00 = flat.take(base0 + j0)
    v10 = flat.take(base1 + j0)
    v01 = flat.take(base0 + j1)
    v11 = flat.take(base1 + j1)
    top = v00 + (v10 - v00) * fx
    bot = v01 + (v11 - v01) * fx
    return top + (bot - top) * fy


def weighted_exponent_two_transform(config, psi_modes, u1, u2):
    """The weighted step's per-node fields by two syntheses per node (the
    exponent E, then the shifted psi), with the exponent's modes summed
    literally over the steps and over every mode of u_n and |u_n|^2 (no
    active-mode threshold, no time-axis FFT): ``fields(db, disp)`` yields
    ``(m, E, psi_shift)``, each (branches, N, N) lattice values, for the
    nodes m = 1..L in order.
    """
    n, steps, dt, nu = config.N, config.L, config.dt, config.nu
    sqrt2nu = np.sqrt(2.0 * nu)
    k_base = wavenumbers(n).astype(np.float64)
    k_ext = wavenumbers(2 * n).astype(np.float64)
    v1 = modes_to_grid(np.stack([embed_modes(m, 2 * n) for m in u1]))
    v2 = modes_to_grid(np.stack([embed_modes(m, 2 * n) for m in u2]))
    q = grid_to_modes(v1 * v1 + v2 * v2)  # |u_n|^2, exact on the doubled grid

    def phase(d, k):
        """exp(2 pi i <k, d>) on the k-grid for every branch displacement d."""
        return np.exp(
            2j * np.pi * (d[:, 0, None, None] * k[:, None] + d[:, 1, None, None] * k[None, :])
        )

    def fields(db, disp):
        bc = db.shape[0]
        for m in range(1, steps + 1):
            expo = np.zeros((bc, n, n), dtype=np.complex128)
            for j in range(m):
                ell = m - j
                a = u1[ell] * db[:, j, 0, None, None] + u2[ell] * db[:, j, 1, None, None]
                expo += a * phase(disp[:, j], k_base) / sqrt2nu
                # lattice sampling sees extended wavenumbers modulo n
                qq = q[ell] * phase(disp[:, j], k_ext) * (dt / (4.0 * nu))
                expo += qq.reshape(bc, 2, n, 2, n).sum(axis=(1, 3))
            yield m, modes_to_grid(expo), modes_to_grid(psi_modes * phase(disp[:, m], k_base))

    return fields


def weighted_estimator_two_transform(config, psi_modes, u1, u2):
    """Reference for the weighted estimator in the linear-solve skeleton's
    estimator interface, from ``weighted_exponent_two_transform``'s fields:
    samples psi_shift * (W - 1 + E), W = exp(-E), and the control's mean
    by ``control_mean_dense``.  Takes all branches as one chunk.
    """
    fields = weighted_exponent_two_transform(config, psi_modes, u1, u2)

    def samples(db, disp):
        for m, expo, psi_shift in fields(db, disp):
            yield m, (psi_shift * (np.expm1(-expo) + expo))[:, None]  # one node per block

    mean = control_mean_dense(config, psi_modes, u1, u2)
    return (0, config.M_inner), (config.N, config.N), samples, mean


def control_mean_dense(config, psi_modes, u1, u2):
    """(L+1, N, N) lattice values of the exact mean of the weighted sample's
    control -psi(z + D_m) E_m, the discrete first Duhamel term

        -dt sum_{l<=m} P_{(m-l)dt}[u_l . grad H_l + |u_l|^2 H_l / (4 nu)],

    formed densely: every product on the 4N grid, which holds the
    wavenumbers of |u_n|^2 (up to N) plus psi's without aliasing, from
    every mode of u_n and |u_n|^2, and a literal double sum over the nodes
    with the heat factors of the 4N grid; the lattice reads every fourth
    point.  Node 0 is zero.
    """
    n, steps, dt, nu = config.N, config.L, config.dt, config.nu
    big = 4 * n
    k_base, k_ext, k_big = wavenumbers(n), wavenumbers(2 * n), wavenumbers(big)
    rate = -4.0 * np.pi**2 * nu * (k_big[:, None] ** 2 + k_big[None, :] ** 2).astype(np.float64)

    def values(modes, k):
        """Complex 4N-grid values of modes on the wavenumbers k per axis."""
        out = np.zeros((big, big), dtype=np.complex128)
        out[np.ix_(k % big, k % big)] = modes
        return np.fft.ifft2(out) * big**2

    v1 = modes_to_grid(np.stack([embed_modes(m, 2 * n) for m in u1]))
    v2 = modes_to_grid(np.stack([embed_modes(m, 2 * n) for m in u2]))
    q = grid_to_modes(v1 * v1 + v2 * v2)  # |u_n|^2, exact on the doubled grid
    kf = k_base.astype(np.float64)
    ksq = kf[:, None] ** 2 + kf[None, :] ** 2
    terms = [None]
    for ell in range(1, steps + 1):
        h = psi_modes * np.exp(-4.0 * np.pi**2 * nu * ell * dt * ksq)
        prod = values(u1[ell], k_base) * values(2j * np.pi * kf[:, None] * h, k_base)
        prod += values(u2[ell], k_base) * values(2j * np.pi * kf[None, :] * h, k_base)
        prod += values(q[ell], k_ext) * values(h, k_base) / (4.0 * nu)
        terms.append(np.fft.fft2(prod) / big**2)
    out = np.zeros((steps + 1, n, n))
    for m in range(1, steps + 1):
        acc = sum(np.exp(rate * (m - ell) * dt) * terms[ell] for ell in range(1, m + 1))
        out[m] = (-dt * np.fft.ifft2(acc) * big**2)[::4, ::4].real
    return out


def drifted_estimator_one_chunk(config, psi_modes, u1, u2):
    """Reference for the drifted estimator in the linear-solve skeleton's
    estimator interface: every Euler step, the first included, interpolates
    one packed complex velocity grid (``bilinear_reference``), and all
    branches form one chunk, so every sum adds the paths in order.
    """
    n, steps, dt, nu = config.N, config.L, config.dt, config.nu
    sqrt2nu = np.sqrt(2.0 * nu)
    # Pack both components into one complex grid: a single interpolation
    # pass per step recovers the drift as (real, imag).
    packed = np.stack([embed_modes(a, 4 * n) + 1j * embed_modes(b, 4 * n) for a, b in zip(u1, u2)])
    u_grids = np.fft.ifft2(packed) * (4 * n) ** 2
    grid_1d = np.arange(n) / n
    zx = np.repeat(grid_1d, n)  # lattice point (i, j) at flat index i * N + j
    zy = np.tile(grid_1d, n)
    half = _half_plane_modes(psi_modes)
    k1, k2, coef = half
    # psi(z + d) = 2 Re sum_k coef_k e^{2 pi i <k, d>} e^{2 pi i <k, z>}: a
    # per-branch displacement phase contracted with a fixed lattice table.
    ex = np.exp(TWO_PI * 1j * np.outer(grid_1d, k1))
    ey = np.exp(TWO_PI * 1j * np.outer(grid_1d, k2))
    lattice_phase = (ex[:, None, :] * ey[None, :, :]).reshape(n * n, -1)

    def samples(db, disp):
        bc = db.shape[0]
        disp_phase = coef * np.exp(
            TWO_PI * 1j * (disp[:, :, 0, None] * k1 + disp[:, :, 1, None] * k2)
        )
        for m in range(1, steps + 1):
            x = np.tile(zx, (bc, 1))
            y = np.tile(zy, (bc, 1))
            for j in range(m):
                ell = m - j  # left-point field index: time-to-go (m - j) dt
                drift = bilinear_reference(u_grids[ell], np.stack([x, y], axis=-1))
                x += -drift.real * dt + sqrt2nu * db[:, j, 0, None]
                y += -drift.imag * dt + sqrt2nu * db[:, j, 1, None]
            vals = _spectral_point_values(half, x, y)
            cv_vals = 2.0 * np.real(disp_phase[:, m, :] @ lattice_phase.T)
            yield m, (vals - cv_vals).reshape(bc, 1, n, n)  # one node per block

    return (0, config.M_inner), (config.N, config.N), samples, 0.0


def _lattice_values_brute(modes: np.ndarray) -> np.ndarray:
    """(..., N, N) modes to lattice values by explicit phase matrices."""
    n = modes.shape[-1]
    phase = np.exp(2j * np.pi * np.outer(np.arange(n) / n, np.fft.fftfreq(n) * n))
    return np.real(phase @ modes @ phase.T)


def _weighted_bmo_sq_brute(stack: np.ndarray, alpha: float, dt: float) -> float:
    """max over j of the end-corrected trapezoid integral, over [0, tau_j],
    of exp(-2 alpha tau) ||grad omega(tau)||^2, one window at a time."""
    k = np.fft.fftfreq(stack.shape[-1]) * stack.shape[-1]
    ksq = k[:, None] ** 2 + k[None, :] ** 2
    g = [
        np.exp(-2.0 * alpha * m * dt) * np.sum(4.0 * np.pi**2 * ksq * np.abs(stack[m]) ** 2)
        for m in range(stack.shape[0])
    ]
    best, trap = 0.0, 0.0
    for j in range(1, len(g)):
        trap += 0.5 * (g[j - 1] + g[j]) * dt
        end = -(dt**2 / 12.0) * ((g[j] - g[j - 1]) / dt - (g[1] - g[0]) / dt)
        best = max(best, trap + end)
    return best


def _batch_means_se(values) -> float:
    g = len(values)
    mean = sum(values) / g
    return float(np.sqrt(sum((v - mean) ** 2 for v in values) / (g - 1) / g))


def picard_group_statistics(group_stacks, solution_stack, alpha: float, dt: float) -> dict:
    """Batch-means statistics of a Picard run, restated group by group.

    ``group_stacks`` lists, per iterate from the heat iterate on, its
    (G, L+1, n1, n2) per-group mode stacks on a lattice cell (G = 1 for the
    deterministic heat iterate); ``solution_stack`` is the (L+1, N, N) mode
    stack of the last iterate.  Per Picard step: the batch-means standard
    error of the groups' ||dY^alpha||_inf + ||dZ^alpha||_BMO
    (``delta_norm_se``) and 4x the alpha-weighted pooled standard error of
    the group deltas (``delta_noise_floor``).  For the solution: each last
    group's unweighted BMO proxy (``z_bmo_group_values``), their
    batch-means standard error and the batch-means debiased proxy.
    """
    n = solution_stack.shape[-1]
    lattice = []
    for cell_stack in group_stacks:
        full = np.zeros(cell_stack.shape[:-2] + (n, n), dtype=np.complex128)
        s1, s2 = n // cell_stack.shape[-2], n // cell_stack.shape[-1]
        for p1 in range(cell_stack.shape[-2]):
            for p2 in range(cell_stack.shape[-1]):
                full[..., p1 * s1, p2 * s2] = cell_stack[..., p1, p2]
        lattice.append(full)
    steps = solution_stack.shape[0] - 1
    weights = np.exp(-alpha * np.arange(steps + 1) * dt)
    history = []
    for before, after in zip(lattice[:-1], lattice[1:]):
        deltas = after - before
        vals = _lattice_values_brute(deltas)  # (G, L+1, N, N)
        n_groups = vals.shape[0]
        norms = [
            max(weights[m] * np.max(np.abs(v[m])) for m in range(steps + 1))
            + np.sqrt(_weighted_bmo_sq_brute(d, alpha, dt))
            for v, d in zip(vals, deltas)
        ]
        mean = vals.mean(axis=0)
        var = ((vals - mean) ** 2).sum(axis=0) / (n_groups - 1)
        pooled = np.sqrt(var.mean(axis=(-2, -1)) / n_groups)
        history.append(
            {
                "delta_norm_se": _batch_means_se(norms),
                "delta_noise_floor": 4.0 * float(np.max(weights * pooled)),
            }
        )
    groups = [_weighted_bmo_sq_brute(g, 0.0, dt) for g in lattice[-1]]
    bmo_sq = _weighted_bmo_sq_brute(solution_stack, 0.0, dt)
    return {
        "history": history,
        "z_bmo_group_values": groups,
        "z_bmo_sq_se": _batch_means_se(groups),
        "z_bmo_sq_debiased": bmo_sq - (sum(groups) / len(groups) - bmo_sq) / (len(groups) - 1),
    }


def advection_reference(omega_modes: np.ndarray) -> tuple[np.ndarray, float]:
    """The oracle's dealiased u . grad(omega) of (..., N, N) vorticity modes
    and max|u| on the padded lattice, restated from the package's transforms
    with every table built afresh: K and the gradient on the full spectrum,
    the 3/2-rule embedding by ``embed_modes``, one synthesis and one
    ``grid_to_modes``, the band read back and the mean and Nyquist lines
    zeroed."""
    n = omega_modes.shape[-1]
    p = 2 * -(-3 * n // 4)  # 3N/2 rounded up to an even size
    u1, u2 = velocity_modes(omega_modes)
    u1_vals, u2_vals, w1_vals, w2_vals = modes_to_grid(
        embed_modes(np.stack((u1, u2, *_gradient_modes(omega_modes))), p)
    )
    max_u = float(np.max(np.hypot(u1_vals, u2_vals)))
    band = wavenumbers(n) % p  # where embed_modes put each mode
    adv = grid_to_modes(u1_vals * w1_vals + u2_vals * w2_vals)[..., band[:, None], band]
    adv[..., _nyquist_mask(n)] = 0.0
    adv[..., 0, 0] = 0.0
    return adv, max_u


def full_lattice_sup(modes: np.ndarray) -> float:
    """max |f| over the whole (4N, 4N) lattice of one (N, N) mode array."""
    return float(np.max(np.abs(modes_to_grid(embed_modes(modes, 4 * modes.shape[-1])))))
