"""Seeded 2D Brownian paths with counter-based (random access) increments.

Every Gaussian increment is produced by the Philox counter-based generator:
the pair of 64-bit words at counter position m of the keyed stream yields,
through uniform conversion and the inverse normal CDF, the two components
of increment m.  Any increment is therefore computable without generating
its predecessors, and branching a path never perturbs the parent's
randomness: fresh futures simply use a different key.

Keys are two 64-bit words: (seed, purpose_tag << 48 | stream_index).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .errors import ConfigurationError, DomainError

_U64 = np.uint64
_MASK64 = (1 << 64) - 1

# Purpose tags keep independent uses of the same base seed non-colliding.
TAG_SIMULATE = 0x51
TAG_BRANCH = 0xB2
TAG_INNER = 0x1E
TAG_DRIFT = 0xD3


def stream_key(seed: int, tag: int, index: int = 0) -> list:
    if not 0 <= index < (1 << 48):
        raise ConfigurationError("stream index out of range")
    return [seed & _MASK64, ((tag & 0xFFFF) << 48) | index]


def _words_to_normals(words: np.ndarray) -> np.ndarray:
    """Map raw 64-bit words to standard normals via inverse CDF."""
    u = ((words >> _U64(11)).astype(np.float64) + 0.5) * 2.0**-53
    return ndtri(u)


def raw_increments(key, n_steps: int, dt: float, counter_start: int = 0) -> np.ndarray:
    """(n_steps, 2) Gaussian increments with variance dt per component."""
    bitgen = np.random.Philox(counter=counter_start, key=key)
    words = bitgen.random_raw(4 * n_steps).reshape(n_steps, 4)[:, :2]
    return _words_to_normals(words) * np.sqrt(dt)


@dataclass(frozen=True)
class BrownianPath:
    """Discrete 2D Brownian trajectory on a uniform grid over [0, T]."""

    increments: np.ndarray  # (L, 2)
    dt: float
    key: tuple

    def __post_init__(self):
        inc = np.asarray(self.increments, dtype=np.float64)
        if inc.ndim != 2 or inc.shape[1] != 2 or inc.shape[0] < 1:
            raise ConfigurationError(f"increments must be (L, 2), got {inc.shape}")
        inc = inc.copy()
        inc.setflags(write=False)
        object.__setattr__(self, "increments", inc)
        values = np.vstack([np.zeros((1, 2)), np.cumsum(inc, axis=0)])
        values.setflags(write=False)
        object.__setattr__(self, "_values", values)

    @property
    def steps(self) -> int:
        return self.increments.shape[0]

    @property
    def horizon(self) -> float:
        return self.steps * self.dt

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.steps + 1) * self.dt

    @property
    def values(self) -> np.ndarray:
        """B at the grid nodes, (L+1, 2), starting exactly at the origin."""
        return self._values


def simulate(seed: int, steps: int, horizon: float) -> BrownianPath:
    """Simulate a path; content is a pure function of (seed, steps, horizon)."""
    if steps < 1:
        raise ConfigurationError("need at least one step")
    if horizon <= 0:
        raise ConfigurationError("horizon must be positive")
    dt = horizon / steps
    key = stream_key(seed, TAG_SIMULATE)
    return BrownianPath(raw_increments(key, steps, dt), dt, tuple(key))


def branch(
    path: BrownianPath, t_index: int, branch_seed: int, steps_after: int | None = None
) -> BrownianPath:
    """Path agreeing with ``path`` up to node t_index, fresh afterwards.

    Fresh increments come from the branch_seed-keyed stream at the absolute
    counter positions of the steps they replace, so distinct branch seeds
    give independent futures and the parent path is never re-read.
    """
    if not 0 <= t_index <= path.steps:
        raise DomainError(f"branch node {t_index} outside [0, {path.steps}]")
    if steps_after is None:
        steps_after = path.steps - t_index
    if steps_after < 0:
        raise ConfigurationError("steps_after must be non-negative")
    key = stream_key(branch_seed, TAG_BRANCH)
    parts = [path.increments[:t_index]]
    if steps_after > 0:
        parts.append(raw_increments(key, steps_after, path.dt, counter_start=t_index))
    inc = np.vstack(parts) if len(parts) > 1 else parts[0]
    if inc.shape[0] == 0:
        raise ConfigurationError("branched path would have zero steps")
    return BrownianPath(inc, path.dt, tuple(key))


def scaled_displacement(path: BrownianPath, m: int, nu: float) -> np.ndarray:
    """sqrt(2*nu) * B at node m, the spatial displacement of the flow."""
    if not 0 <= m <= path.steps:
        raise DomainError(f"node {m} outside [0, {path.steps}]")
    return np.sqrt(2.0 * nu) * path.values[m]


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

