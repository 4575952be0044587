"""Seeded 2D Brownian paths with counter-based (random access) increments.

Every Gaussian increment is produced by the Philox counter-based generator:
the pair of 64-bit words at counter position m of the keyed stream yields,
through uniform conversion and the inverse normal CDF, the two components
of increment m.  Any increment is therefore computable without generating
its predecessors.  ``ensemble_increments`` draws a family of paths' increments,
one counter block per member, so each member is reproducible in isolation;
``simulate`` returns one path's increments, member 0 of its own family.
The purposes (single paths, the weighted and the drifted solve) never share
randomness.

Keys are two 64-bit words: (seed, purpose_tag << 48).
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

from .errors import ConfigurationError

_U64 = np.uint64

#: The largest float below 1: the top word 2^53 - 1 rounds to u = 1.0, whose
#: inverse normal CDF is +inf, so u is clamped here.
_U_MAX = np.nextafter(1.0, 0.0)

# Purpose tags keep independent uses of the same base seed non-colliding.
TAG_SIMULATE = 0x51
TAG_INNER = 0x1E
TAG_DRIFT = 0xD3


def check_seed(seed: int, name: str = "seed") -> None:
    """The seed rule: a seed is a Philox key word, a uint64, so it must lie
    in [0, 2^64); ``name`` is the seed's name in the message."""
    if not 0 <= seed < 2**64:
        raise ConfigurationError(f"{name} must be in [0, 2^64), got {seed!r}")


def stream_key(seed: int, tag: int) -> np.ndarray:
    check_seed(seed)
    return np.array([seed, (tag & 0xFFFF) << 48], dtype=np.uint64)


def _words_to_normals(words: np.ndarray) -> np.ndarray:
    """Map raw 64-bit words to standard normals via inverse CDF."""
    u = ((words >> _U64(11)).astype(np.float64) + 0.5) * 2.0**-53
    return ndtri(np.minimum(u, _U_MAX, out=u))


def simulate(seed: int, steps: int, horizon: float) -> np.ndarray:
    """(steps, 2) increments of one path over [0, horizon], variance
    horizon / steps per component; a pure function of (seed, steps, horizon)."""
    if steps < 1:
        raise ConfigurationError("need at least one step")
    if not (np.isfinite(horizon) and horizon > 0):
        raise ConfigurationError(f"horizon must be finite and positive, got {horizon!r}")
    return ensemble_increments(seed, TAG_SIMULATE, 1, steps, horizon / steps)[0]


def ensemble_increments(
    seed: int, tag: int, count: int, steps: int, dt: float
) -> np.ndarray:
    """(count, steps, 2) increments; member b owns counters [b*steps, (b+1)*steps).

    One keyed stream partitioned by counter blocks: deterministic, and any
    member is reproducible in isolation from (seed, tag, b).
    """
    if count < 1 or steps < 1:
        raise ConfigurationError("ensemble needs positive count and steps")
    key = stream_key(seed, tag)
    bitgen = np.random.Philox(counter=0, key=key)
    words = bitgen.random_raw(4 * steps * count).reshape(count, steps, 4)[:, :, :2]
    return _words_to_normals(words) * np.sqrt(dt)

