import io

import numpy as np
import pytest
from scipy.special import ndtri

from vortexbsde import brownian
from vortexbsde.errors import ConfigurationError

from oracles import dump_csv, increment_at


class TestSimulate:
    def test_bit_reproducible(self):
        a = brownian.simulate(123, 16, 0.5)
        b = brownian.simulate(123, 16, 0.5)
        assert a.shape == (16, 2)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = brownian.simulate(1, 16, 0.5)
        b = brownian.simulate(2, 16, 0.5)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("a, b", [(2**63, 2**63 + 1), (2**64 - 1, 2**64 - 2)])
    def test_seeds_of_the_whole_key_range_differ(self, a, b):
        # a seed >= 2^63 used to pass through float64 on its way into the
        # key, so 2^63 and 2^63 + 1 drew one stream
        inc = [brownian.ensemble_increments(s, brownian.TAG_INNER, 2, 3, 0.1) for s in (a, b)]
        assert not np.array_equal(*inc)
        assert brownian.stream_key(a, brownian.TAG_INNER)[0] == a

    def test_int64_seed_keys_unchanged(self):
        # the key of a seed below 2^63 is the one the two-int list gave
        for seed in (0, 42, 2**63 - 1):
            key = brownian.stream_key(seed, brownian.TAG_DRIFT)
            old = np.random.Philox(key=[seed, brownian.TAG_DRIFT << 48]).random_raw(8)
            assert np.array_equal(np.random.Philox(key=key).random_raw(8), old)

    def test_random_access_matches_bulk(self):
        # Counter-based contract: increment m is computable in isolation.
        key = brownian.stream_key(99, brownian.TAG_SIMULATE)
        bulk = brownian.ensemble_increments(99, brownian.TAG_SIMULATE, 1, 20, 0.01)[0]
        for m in (0, 7, 19):
            inc = increment_at(key, m, 0.01)
            assert np.array_equal(inc, bulk[m])

    def test_top_words_give_finite_normals(self):
        # a word whose top 53 bits are all ones used to map to u = 1.0 and
        # ndtri(1.0) = +inf, an infinite increment
        words = np.array([2**64 - 1, 2**64 - 2**11, 2**64 - 2**11 - 1], dtype=np.uint64)
        z = brownian._words_to_normals(words)
        assert np.all(np.isfinite(z))
        assert z[0] == z[1] > z[2] > 8.0

    def test_generator_values_unchanged(self):
        # 10^6 values of the stream equal the unclamped uniform-to-normal map
        # u = (top 53 bits + 1/2) / 2^53, bit for bit
        count, steps = 1000, 500
        inc = brownian.ensemble_increments(5, brownian.TAG_INNER, count, steps, 1.0)
        key = brownian.stream_key(5, brownian.TAG_INNER)
        words = np.random.Philox(counter=0, key=key).random_raw(4 * count * steps)
        words = words.reshape(count, steps, 4)[:, :, :2]
        u = ((words >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
        assert inc.size == 10**6
        assert np.array_equal(inc, ndtri(u))

    def test_terminal_statistics(self):
        # CLT oracle: over 1e5 paths the sample mean of B_T is within
        # 4*sqrt(T/1e5) of zero and the variance within 5% of T.
        count, horizon = 100_000, 0.7
        inc = brownian.ensemble_increments(77, brownian.TAG_SIMULATE, count, 4, horizon / 4)
        b_t = inc.sum(axis=1)
        tol = 4 * np.sqrt(horizon / count)
        assert np.all(np.abs(b_t.mean(axis=0)) < tol)
        assert np.all(np.abs(b_t.var(axis=0) - horizon) < 0.05 * horizon)

    def test_scaled_displacement_statistics(self):
        count, horizon, nu = 100_000, 0.5, 0.23
        inc = brownian.ensemble_increments(78, brownian.TAG_SIMULATE, count, 2, horizon / 2)
        disp = np.sqrt(2 * nu) * inc.sum(axis=1)
        assert abs(disp[:, 0].var() - 2 * nu * horizon) < 0.05 * 2 * nu * horizon

    def test_invalid_args(self):
        with pytest.raises(ConfigurationError):
            brownian.simulate(0, 0, 1.0)
        with pytest.raises(ConfigurationError):
            brownian.simulate(0, 4, -1.0)
        # a NaN horizon passes `horizon <= 0`; an infinite one gives inf increments
        for horizon in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ConfigurationError, match="finite and positive"):
                brownian.simulate(0, 4, horizon)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_the_key_range(self, seed):
        # such a seed used to reach numpy's uint64 conversion and raise a
        # bare OverflowError
        with pytest.raises(ConfigurationError, match=r"seed must be in \[0, 2\^64\)"):
            brownian.simulate(seed, 4, 1.0)
        with pytest.raises(ConfigurationError, match=r"seed must be in \[0, 2\^64\)"):
            brownian.ensemble_increments(seed, brownian.TAG_INNER, 2, 4, 0.1)


class TestBranch:
    """The solver's branch families: members of one ``ensemble_increments`` draw."""

    def test_branch_at_zero_is_fresh(self):
        # A branch family shares no increment with a path, or with a family
        # of another purpose, drawn from the same seed.
        path = brownian.simulate(11, 16, 0.5)
        inner = brownian.ensemble_increments(11, brownian.TAG_INNER, 1, 16, 0.5 / 16)[0]
        drift = brownian.ensemble_increments(11, brownian.TAG_DRIFT, 1, 16, 0.5 / 16)[0]
        assert not np.any(inner == path)
        assert not np.any(inner == drift)

    def test_branch_independence(self):
        # Disjoint sets of members decorrelate: Monte Carlo correlation of
        # their sums below 4/sqrt(samples).
        n = 20_000
        inc = brownian.ensemble_increments(13, brownian.TAG_INNER, 2 * n, 2, 0.5)
        sums = inc.sum(axis=(1, 2))
        rho = np.corrcoef(sums[:n], sums[n:])[0, 1]
        assert abs(rho) < 4 / np.sqrt(n)

    def test_branched_variance_consistency(self):
        # Var(B_T) over a branched ensemble matches T within 5%.
        dt = 1.0 / 8
        p = brownian.simulate(17, 8, 1.0)
        m = 3
        tails = brownian.ensemble_increments(55, brownian.TAG_INNER, 100_000, 8 - m, dt)
        b_t = np.cumsum(p, axis=0)[m - 1, 0] + tails[:, :, 0].sum(axis=1)
        expect = (8 - m) * dt
        assert abs(b_t.var() - expect) < 0.05 * 1.0

    def test_out_of_range(self):
        with pytest.raises(ConfigurationError):
            brownian.ensemble_increments(0, brownian.TAG_INNER, 0, 4, 0.1)
        with pytest.raises(ConfigurationError):
            brownian.ensemble_increments(0, brownian.TAG_INNER, 4, 0, 0.1)


class TestMisc:
    def test_dump_csv(self):
        p = brownian.simulate(3, 4, 1.0)
        buf = io.StringIO()
        dump_csv(p, 1.0 / 4, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "m,t,B1,B2"
        assert len(lines) == 6

    def test_ensemble_member_isolated_reproduction(self):
        # Member b of an ensemble owns counters [b*L, (b+1)*L) and can be
        # regenerated without touching other members.
        ens = brownian.ensemble_increments(7, brownian.TAG_INNER, 5, 6, 0.1)
        key = brownian.stream_key(7, brownian.TAG_INNER)
        words = np.random.Philox(counter=3 * 6, key=key).random_raw(4 * 6)
        member3 = brownian._words_to_normals(words.reshape(6, 4)[:, :2]) * np.sqrt(0.1)
        assert np.array_equal(ens[3], member3)
