import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vortexbsde.biot_savart import _velocity_symbols, curl, divergence
from vortexbsde.errors import ConfigurationError, DomainError
from vortexbsde.torus_field import (
    ScalarField,
    _gradient_symbols,
    _ksq,
    _nyquist_mask,
    embed_modes,
    field_from_mode_list,
    grid_to_modes,
    l2_norm,
    lattice_sups,
    modes_to_grid,
    partial_derivative,
    sup_norm,
    translate,
    wavenumbers,
)

from conftest import random_mean_zero_field
from oracles import (
    dft_brute,
    full_lattice_sup,
    l2_quadrature,
    pad_modes_reference,
    series_sum_brute,
    sobolev_norm,
)

N8 = 8
X8 = np.arange(N8) / N8


def grid_of(func):
    return func(X8[:, None], X8[None, :]) + np.zeros((N8, N8))


def sin1():
    return field_from_mode_list(N8, [(1, 0, -0.5j)])


class TestForwardTransform:
    def test_zero_signal(self):
        assert np.all(grid_to_modes(np.zeros((N8, N8))) == 0)

    def test_cosine_matches_brute_force(self):
        g = grid_of(lambda x, y: np.cos(2 * np.pi * x))
        modes = grid_to_modes(g)
        brute = dft_brute(g)
        assert np.max(np.abs(modes - brute)) < 1e-13
        assert abs(modes[1, 0] - 0.5) < 1e-13
        assert abs(modes[-1, 0] - 0.5) < 1e-13
        mask = np.ones((N8, N8), bool)
        mask[1, 0] = mask[-1, 0] = False
        assert np.max(np.abs(modes[mask])) < 1e-13

    def test_sine_x2_matches_brute_force(self):
        g = grid_of(lambda x, y: np.sin(2 * np.pi * y))
        modes = grid_to_modes(g)
        brute = dft_brute(g)
        assert np.max(np.abs(modes - brute)) < 1e-13
        assert abs(modes[0, 1] - (-0.5j)) < 1e-13
        assert abs(modes[0, -1] - 0.5j) < 1e-13

    def test_rejects_odd_grid(self):
        with pytest.raises(ConfigurationError):
            ScalarField(np.zeros((7, 7)))

    def test_rejects_tiny_grid(self):
        with pytest.raises(ConfigurationError):
            ScalarField(np.zeros((2, 2)))


class TestInverseTransform:
    def test_zero_modes(self):
        assert np.all(modes_to_grid(ScalarField(np.zeros((N8, N8))).modes) == 0)

    def test_cosine_modes_match_series_sum(self):
        modes = np.zeros((N8, N8), complex)
        modes[1, 0] = 0.5
        modes[-1, 0] = 0.5
        f = ScalarField(modes)
        values = modes_to_grid(f.modes)
        pts = np.stack([np.repeat(X8, N8), np.tile(X8, N8)], axis=1)
        brute = series_sum_brute(modes, pts).reshape(N8, N8)
        assert np.max(np.abs(values - brute)) < 1e-13
        assert np.max(np.abs(values - np.cos(2 * np.pi * X8)[:, None])) < 1e-13

    def test_round_trip_random_field(self):
        f = random_mean_zero_field(16, seed=3)
        back = grid_to_modes(modes_to_grid(f.modes))
        assert np.max(np.abs(back - f.modes)) < 1e-12

    def test_grid_round_trip(self, rng):
        vals = rng.standard_normal((16, 16))
        back = modes_to_grid(grid_to_modes(vals))
        assert np.max(np.abs(back - vals)) < 1e-12 * np.max(np.abs(vals))

    @staticmethod
    def _hermitian(raw):
        """The Hermitian part of (..., n1, n2) mode arrays, Nyquist lines included."""
        i1, i2 = ((-np.arange(s)) % s for s in raw.shape[-2:])
        return 0.5 * (raw + np.conj(raw[..., i1[:, None], i2]))

    @pytest.mark.parametrize(
        "shape", [(3, 16, 16), (32, 16), (2, 8, 1), (16, 2), (1, 1)], ids=str
    )
    def test_half_spectrum_synthesis_matches_complex_ifft2(self, shape, rng):
        # modes_to_grid reads only the k2 >= 0 half; on Hermitian arrays, and
        # on the 2x and 4x embeddings of square Nyquist-free stacks, it gives
        # the real part of the full complex synthesis
        raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        stacks = [self._hermitian(raw)]
        if shape[-2] == shape[-1]:
            nyquist_free = stacks[0].copy()
            nyquist_free[..., shape[-1] // 2, :] = nyquist_free[..., shape[-1] // 2] = 0.0
            stacks += [embed_modes(nyquist_free, f * shape[-1]) for f in (2, 4)]
        for modes in stacks:
            want = np.fft.ifft2(modes).real * (modes.shape[-2] * modes.shape[-1])
            got = modes_to_grid(modes)
            assert got.shape == modes.shape
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def integer_wavenumbers(n: int) -> np.ndarray:
    """k at index i of an even n: i below n/2, i - n from there on."""
    i = np.arange(n)
    return np.where(i < n // 2, i, i - n)


class TestWavenumbers:
    def test_exact_for_every_even_grid(self):
        # fftfreq(n) * n rounds below an integer on many of these (n = 24
        # gave [..., 5, 6, 6, 8, ...]); the integer construction cannot
        for n in range(4, 257, 2):
            k = wavenumbers(n)
            assert k.dtype == np.int64
            assert np.array_equal(k, integer_wavenumbers(n)), n

    def test_tables_are_shared_and_read_only(self):
        tables = (wavenumbers(24), _ksq(24), _nyquist_mask(24), *_gradient_symbols(24),
                  *_velocity_symbols(24))
        assert all(not t.flags.writeable for t in tables)
        assert wavenumbers(24) is wavenumbers(24)

    def test_derivative_exact_on_n24(self):
        f = random_mean_zero_field(24, seed=31, decay=0.5)
        k = integer_wavenumbers(24)
        for axis, mult in ((1, k[:, None]), (2, k[None, :])):
            got = partial_derivative(f, axis).modes
            want = 2.0 * np.pi * 1j * mult * f.modes
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
        # d/dx1 sin(14 pi x1) = 14 pi cos(14 pi x1): 7 pi at k = (+-7, 0)
        d1 = partial_derivative(field_from_mode_list(24, [(7, 0, -0.5j)]), 1).modes
        assert d1[7, 0] == pytest.approx(7 * np.pi, rel=1e-15)

    @pytest.mark.parametrize("size", [30, 36, 48])
    def test_embed_round_trip_on_n24(self, size):
        modes = random_mean_zero_field(24, seed=32, decay=0.5).modes
        big = embed_modes(modes, size)
        pos = integer_wavenumbers(24) % size
        assert np.count_nonzero(big) == np.count_nonzero(modes)  # no two modes collide
        assert np.array_equal(big[pos[:, None], pos], modes)
        if size % 24 == 0:
            fine = modes_to_grid(big)[:: size // 24, :: size // 24]
            assert np.max(np.abs(fine - modes_to_grid(modes))) < 1e-13


class TestEmbedModes:
    def test_size_must_be_even_and_larger(self):
        modes = field_from_mode_list(N8, [(1, 2, 0.5)]).modes
        for size in (N8, N8 - 2, 0, N8 + 1):
            with pytest.raises(ConfigurationError, match="even and > 8"):
                embed_modes(modes, size)
        for factor in (2, 4):
            fine = modes_to_grid(embed_modes(modes, factor * N8))
            assert np.max(np.abs(fine[::factor, ::factor] - modes_to_grid(modes))) < 1e-13

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_three_halves_grid_matches_literal_placement(self, n, rng):
        # the oracle's dealiasing grid: resolved modes of a stack go to k mod 3N/2
        modes = rng.standard_normal((3, n, n)) + 1j * rng.standard_normal((3, n, n))
        modes[:, n // 2, :] = 0.0
        modes[:, :, n // 2] = 0.0
        size = 3 * n // 2
        assert np.array_equal(embed_modes(modes, size), pad_modes_reference(modes, size))


class TestScalarFieldInvariants:
    def test_hermitian_violation_rejected(self):
        modes = np.zeros((N8, N8), complex)
        modes[1, 0] = 1.0  # missing conjugate partner
        with pytest.raises(DomainError):
            ScalarField(modes)

    def test_mean_zero_flag_enforced(self):
        # every field is mean-zero: a nonzero fhat(0) is rejected, and one
        # within roundoff is set to exactly 0
        modes = np.zeros((N8, N8), complex)
        modes[0, 0] = 1.0
        with pytest.raises(DomainError, match="mean-zero"):
            ScalarField(modes)
        modes[0, 0] = 1e-13
        assert ScalarField(modes).modes[0, 0] == 0.0

    @pytest.mark.parametrize("index", [(4, 0), (0, 4), (4, 4), (4, 1)])
    def test_nyquist_mode_rejected(self, index):
        # the row and the column k_a = -N/2 stand for both +-N/2
        modes = field_from_mode_list(N8, [(1, 2, 0.5)]).modes.copy()
        modes[index] = 0.25
        modes[(-index[0]) % N8, (-index[1]) % N8] = 0.25
        with pytest.raises(DomainError, match=r"Nyquist mode at index \(%d, %d\)" % index):
            ScalarField(modes)

    @pytest.mark.parametrize("shape", [(8,), (8, 4), (2, 8, 8)])
    def test_non_square_mode_array_rejected(self, shape):
        with pytest.raises(ConfigurationError, match="mode array must be square"):
            ScalarField(np.zeros(shape, complex))

    def test_nan_mode_rejected(self):
        # a NaN fails every comparison, so only an explicit check catches it
        modes = np.zeros((N8, N8), complex)
        modes[1, 0] = modes[-1, 0] = np.nan
        with pytest.raises(DomainError, match="non-finite"):
            ScalarField(modes)

    def test_huge_hermitian_modes_stay_finite(self):
        modes = np.zeros((N8, N8), complex)
        modes[1, 0] = 1.7e308 + 1.7e308j
        modes[-1, 0] = 1.7e308 - 1.7e308j
        f = ScalarField(modes)
        assert np.all(np.isfinite(f.modes))
        assert np.array_equal(f.modes, modes)

    def test_modes_immutable(self):
        f = sin1()
        with pytest.raises(ValueError):
            f.modes[0, 0] = 1.0

    def test_unresolved_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            field_from_mode_list(N8, [(N8 // 2, 0, 1.0)])

    def test_vector_field_grid_mismatch(self):
        # a velocity is a pair of fields; the field algebra checks their grids
        pair = (sin1(), random_mean_zero_field(16, 0))
        with pytest.raises(ConfigurationError, match="grid size mismatch"):
            divergence(pair)
        with pytest.raises(ConfigurationError, match="grid size mismatch"):
            curl(pair)


class TestPartialDerivative:
    def test_zero_field(self):
        f = ScalarField(np.zeros((N8, N8)))
        assert np.all(partial_derivative(f, 1).modes == 0)

    def test_d1_sine_is_scaled_cosine(self):
        d = partial_derivative(sin1(), 1)
        values = modes_to_grid(d.modes)
        expect = 2 * np.pi * np.cos(2 * np.pi * X8)[:, None] * np.ones(N8)
        assert np.max(np.abs(values - expect)) < 1e-12

    def test_d2_of_x1_only_field_vanishes(self):
        d = partial_derivative(sin1(), 2)
        assert np.max(np.abs(d.modes)) == 0.0

    def test_invalid_axis(self):
        with pytest.raises(ConfigurationError):
            partial_derivative(sin1(), 3)


class TestTranslate:
    def test_identity_shift(self):
        f = random_mean_zero_field(16, seed=7)
        g = translate(f, (0.0, 0.0))
        assert np.max(np.abs(g.modes - f.modes)) < 1e-15

    def test_half_period_flips_sine(self):
        g = translate(sin1(), (0.5, 0.0))
        assert np.max(np.abs(g.modes + sin1().modes)) < 1e-14

    def test_round_trip(self):
        f = random_mean_zero_field(16, seed=9)
        a = (0.1234, -0.777)
        g = translate(translate(f, a), (-a[0], -a[1]))
        assert np.max(np.abs(g.modes - f.modes)) < 1e-12

    @settings(max_examples=20, deadline=None)
    @given(
        a1=st.floats(-2, 2, allow_nan=False),
        a2=st.floats(-2, 2, allow_nan=False),
        order=st.integers(0, 4),
    )
    def test_isometry_every_order(self, a1, a2, order):
        f = random_mean_zero_field(16, seed=11)
        g = translate(f, (a1, a2))
        assert sobolev_norm(g, order) == pytest.approx(sobolev_norm(f, order), rel=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(a1=st.floats(-1, 1, allow_nan=False), a2=st.floats(-1, 1, allow_nan=False))
    def test_commutes_with_derivative(self, a1, a2):
        f = random_mean_zero_field(16, seed=13)
        lhs = partial_derivative(translate(f, (a1, a2)), 1)
        rhs = translate(partial_derivative(f, 1), (a1, a2))
        assert np.max(np.abs(lhs.modes - rhs.modes)) < 1e-12


class TestSobolevNorm:
    def test_zero_field(self):
        f = ScalarField(np.zeros((N8, N8)))
        for order in range(5):
            assert sobolev_norm(f, order) == 0.0

    def test_sine_order_zero_matches_quadrature(self):
        oracle = l2_quadrature(lambda x, y: np.sin(2 * np.pi * x) + 0 * y)
        assert oracle == pytest.approx(1 / np.sqrt(2), abs=1e-8)
        assert sobolev_norm(sin1(), 0) == pytest.approx(oracle, abs=1e-7)

    def test_sine_order_one_matches_quadrature(self):
        # ||f||_{1,2}^2 = int f^2 + (d1 f)^2, both by dense quadrature
        base = l2_quadrature(lambda x, y: np.sin(2 * np.pi * x) + 0 * y)
        grad = l2_quadrature(lambda x, y: 2 * np.pi * np.cos(2 * np.pi * x) + 0 * y)
        oracle = np.sqrt(base**2 + grad**2)
        assert oracle == pytest.approx(np.sqrt((1 + 4 * np.pi**2) / 2), abs=1e-6)
        assert sobolev_norm(sin1(), 1) == pytest.approx(oracle, rel=1e-7)

    def test_unsupported_order(self):
        with pytest.raises(ConfigurationError):
            sobolev_norm(sin1(), 5)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_parseval(self, seed):
        f = random_mean_zero_field(16, seed=seed)
        assert sobolev_norm(f, 0) ** 2 == pytest.approx(
            float(np.sum(np.abs(f.modes) ** 2)), rel=1e-12
        )


class TestSupNorm:
    def test_zero_field(self):
        assert sup_norm(ScalarField(np.zeros((N8, N8)))) == 0.0

    def test_sine_on_lattice(self):
        assert sup_norm(sin1()) == pytest.approx(1.0, abs=1e-12)

    def test_homogeneity(self):
        f = random_mean_zero_field(16, seed=21)
        assert sup_norm(ScalarField(3.5 * f.modes)) == pytest.approx(3.5 * sup_norm(f), rel=1e-12)

    @pytest.mark.parametrize(
        "n, entries",
        [
            (32, [(1, 0, -0.5j)]),  # cell (32, 1)
            (32, [(1, 0, -0.25j), (0, 2, 0.25)]),  # cell (32, 16)
            (32, [(2, 0, -0.25j), (0, 2, 0.25)]),  # cell (16, 16)
            (12, [(4, 0, 0.3 - 0.1j), (0, 3, 0.2j), (-4, 3, 0.1)]),  # odd cell (3, 4)
            (24, [(7, 0, -0.5j), (3, -9, 0.2)]),  # n = 24 wavenumbers
            (16, None),  # every mode: cell (16, 16)
        ],
    )
    def test_cell_sup_is_the_full_lattice_sup(self, n, entries):
        if entries is None:
            nodes = [random_mean_zero_field(n, seed=40 + m, decay=0.5).modes for m in range(3)]
        else:
            psi = field_from_mode_list(n, entries).modes
            nodes = [psi * np.exp(-0.3 * m) for m in range(3)]
        stack = np.stack(nodes)
        sups = lattice_sups(stack)
        assert sups.shape == (3,)
        for got, node in zip(sups, nodes):
            want = full_lattice_sup(node)
            assert abs(got - want) <= 4 * np.spacing(want)
        assert sup_norm(ScalarField(nodes[0])) == sups[0]
        assert lattice_sups(stack[None])[0].tolist() == sups.tolist()


class TestFieldAlgebra:
    def test_add_sub_scale(self):
        f = random_mean_zero_field(16, seed=23)
        g = random_mean_zero_field(16, seed=24)
        total = f + g - f
        assert np.max(np.abs(total.modes - g.modes)) < 1e-14
        assert l2_norm(ScalarField(2.0 * f.modes)) == pytest.approx(2 * l2_norm(f), rel=1e-14)

    def test_grid_mismatch(self):
        with pytest.raises(ConfigurationError):
            sin1() + random_mean_zero_field(16, 0)
