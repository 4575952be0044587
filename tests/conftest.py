import numpy as np
import pytest

from vortexbsde.torus_field import ScalarField, _nyquist_mask


def random_mean_zero_field(n: int, seed: int, decay: float = 1.5) -> ScalarField:
    """Random real mean-zero field with an algebraically decaying spectrum."""
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    k = np.r_[0 : n // 2, -(n // 2) : 0]
    ksq = k[:, None] ** 2 + k[None, :] ** 2
    raw = raw / (1.0 + ksq) ** decay
    idx = (-np.arange(n)) % n
    modes = 0.5 * (raw + np.conj(raw[np.ix_(idx, idx)]))
    modes[0, 0] = 0.0
    modes[_nyquist_mask(n)] = 0.0
    return ScalarField(modes)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
