import dataclasses
import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vortexbsde.bsde_engine import BsdeSolution, SolverConfig, picard_solve
from vortexbsde.checkpoint import (
    TRAJ_MAGIC,
    _config_from_dict,
    read_solution_bundle,
    read_trajectory,
    write_solution_bundle,
    write_trajectory,
)
from vortexbsde.diagnostics import full_json_report
from vortexbsde.errors import ConfigurationError, DomainError, VortexError
from vortexbsde.spectral_oracle import VorticityTrajectory, evolve
from vortexbsde.torus_field import ScalarField, field_from_mode_list

from conftest import random_mean_zero_field

#: Stands for a key removed from a bundle document.
ABSENT = object()


def _write_stack(path, modes, steps):
    """A ``.vbst`` of header step count ``steps`` whose body is the stack ``modes``."""
    header = struct.pack("<4sHIHdd", TRAJ_MAGIC, 2, steps, modes.shape[-1], 0.1, 0.1)
    path.write_bytes(header + modes.astype("<c16").tobytes())


class TestFieldFormat:
    """The body of a ``.vbst``: the (L+1, N, N) mode stack, from byte 28."""

    @staticmethod
    def _two_node_file(path, n=4):
        """A one-step ``.vbst`` whose two nodes are of grid size ``n``."""
        f = field_from_mode_list(n, [(1, 0, -0.5j)])
        write_trajectory(path, VorticityTrajectory(np.stack([f.modes, f.modes]), nu=0.1, dt=0.1))
        return path.read_bytes()

    def test_round_trip_bit_exact(self, tmp_path):
        f = random_mean_zero_field(16, 5)
        p = tmp_path / "t.vbst"
        write_trajectory(p, VorticityTrajectory(np.stack([f.modes, -f.modes]), nu=0.1, dt=0.1))
        back = read_trajectory(p)
        assert np.array_equal(back.modes[0], f.modes)
        assert np.array_equal(back.modes[1], -f.modes)

    def test_documented_byte_layout(self, tmp_path):
        # header: magic 'VBST', version u16, L u32, N u16, dt f64, nu f64
        # (little endian), then (L+1)*N*N (re, im) f64 pairs in C order
        buf = self._two_node_file(tmp_path / "t.vbst")
        assert struct.unpack_from("<4sHIHdd", buf, 0) == (TRAJ_MAGIC, 2, 1, 4, 0.1, 0.1)
        coeffs = np.frombuffer(buf, dtype="<f8", offset=28).reshape(2, 16, 2)
        for node in (0, 1):
            # entry index 4 is mode (k1=1, k2=0) = -0.5j, at byte 28 + 16 * (16 * node + 4)
            assert tuple(coeffs[node, 4]) == (0.0, -0.5)
            # its Hermitian partner (k1=-1 -> storage row 3) carries +0.5j
            assert tuple(coeffs[node, 12]) == (0.0, 0.5)
        assert struct.unpack_from("<dd", buf, 28 + 16 * (16 + 4)) == (0.0, -0.5)
        assert len(buf) == 28 + 16 * 2 * 4 * 4

    def test_bad_version(self, tmp_path):
        # a version-1 file: a 26-byte header without N, then one field
        # block (magic, version, N, mean-zero byte, coefficients) per node
        f = field_from_mode_list(4, [(1, 0, -0.5j)])
        block = struct.pack("<4sHHB", b"VBSF", 1, 4, 1) + f.modes.astype("<c16").tobytes()
        p = tmp_path / "t.vbst"
        p.write_bytes(struct.pack("<4sHIdd", TRAJ_MAGIC, 1, 1, 0.1, 0.1) + 2 * block)
        with pytest.raises(ConfigurationError, match="unsupported trajectory format version 1$"):
            read_trajectory(p)

    @pytest.mark.parametrize("cut", [0, 5, 9, 9 + 16 * 16 - 1, 2 * 16 * 16 * 16 - 1])
    def test_truncated_buffer(self, tmp_path, cut):
        # the body of an N = 16 trajectory, 8192 bytes, cut to ``cut`` bytes
        p = tmp_path / "t.vbst"
        buf = self._two_node_file(p, n=16)
        p.write_bytes(buf[:28 + cut])
        match = rf"body has {cut} bytes; its header \(L=1, N=16\) declares 8192$"
        with pytest.raises(ConfigurationError, match=match):
            read_trajectory(p)

    def test_trailing_bytes(self, tmp_path):
        p = tmp_path / "t.vbst"
        p.write_bytes(self._two_node_file(p) + b"\x00")
        with pytest.raises(ConfigurationError, match=r"body has 513 bytes; .* declares 512$"):
            read_trajectory(p)

    @pytest.mark.parametrize("n", [0, 3, 5])
    def test_odd_or_zero_grid_size_rejected(self, tmp_path, n):
        # the body matches the header, so the grid-size rule decides: exit 2
        p = tmp_path / "t.vbst"
        _write_stack(p, np.zeros((2, n, n), complex), 1)
        match = f"grid size must be even and >= 4, got {n}"
        with pytest.raises(ConfigurationError, match=match) as exc:
            read_trajectory(p)
        assert exc.value.exit_code == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            read_trajectory(tmp_path / "absent.vbst")


class TestTrajectoryFormat:
    def test_round_trip(self, tmp_path):
        psi = field_from_mode_list(16, [(1, 0, -0.5j), (0, 2, 0.5)])
        traj = evolve(psi, 0.2, 0.1, 8)
        p = tmp_path / "t.vbst"
        write_trajectory(p, traj)
        back = read_trajectory(p)
        assert back.nu == traj.nu
        assert back.dt == traj.dt
        assert back.steps == traj.steps
        for a, b in zip(back.fields, traj.fields):
            assert np.array_equal(a.modes, b.modes)

    def test_header_layout(self, tmp_path):
        psi = field_from_mode_list(16, [(1, 0, -0.5j)])
        traj = evolve(psi, 0.2, 0.1, 4)
        p = tmp_path / "t.vbst"
        write_trajectory(p, traj)
        buf = p.read_bytes()
        magic, version, steps, n, dt, nu = struct.unpack_from("<4sHIHdd", buf, 0)
        assert magic == TRAJ_MAGIC
        assert (version, steps, n) == (2, 4, 16)
        assert dt == traj.dt and nu == 0.2

    @pytest.mark.parametrize("key", ["dt", "nu"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -0.1])
    def test_non_finite_or_non_positive_header_rejected(self, tmp_path, key, value):
        traj = evolve(field_from_mode_list(16, [(1, 0, -0.5j)]), 0.2, 0.1, 4)
        p = tmp_path / "t.vbst"
        write_trajectory(p, traj)
        buf = bytearray(p.read_bytes())
        struct.pack_into("<d", buf, {"dt": 12, "nu": 20}[key], value)
        p.write_bytes(bytes(buf))
        with pytest.raises(ConfigurationError, match="finite positive dt and nu"):
            read_trajectory(p)

    def test_unsupported_version(self, tmp_path):
        p = tmp_path / "t.vbst"
        write_trajectory(p, evolve(field_from_mode_list(16, [(1, 0, -0.5j)]), 0.2, 0.1, 4))
        buf = bytearray(p.read_bytes())
        struct.pack_into("<H", buf, 4, 3)
        p.write_bytes(bytes(buf))
        with pytest.raises(ConfigurationError, match="unsupported trajectory format version 3"):
            read_trajectory(p)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.vbst"
        p.write_bytes(b"NOPE" + b"\x00" * 30)
        with pytest.raises(ConfigurationError):
            read_trajectory(p)

    def test_truncated(self, tmp_path):
        traj = evolve(field_from_mode_list(16, [(1, 0, -0.5j)]), 0.2, 0.1, 4)
        p = tmp_path / "t.vbst"
        write_trajectory(p, traj)
        buf = p.read_bytes()
        p.write_bytes(buf[:10])
        with pytest.raises(ConfigurationError, match="truncated"):
            read_trajectory(p)
        for damaged in (buf[:-1], buf + b"\x00" * 3):
            p.write_bytes(damaged)
            with pytest.raises(ConfigurationError, match=f"body has {len(damaged) - 28} bytes"):
                read_trajectory(p)

    def test_nyquist_mode_of_a_node_rejected(self, tmp_path):
        # a node carrying the (N/2, 0) mode breaks the field rule like a bad mean
        traj = evolve(field_from_mode_list(16, [(1, 0, -0.5j), (0, 2, 0.5)]), 0.2, 0.1, 4)
        modes = traj.modes.copy()
        modes[2, 8, 0] = 0.05
        p = tmp_path / "t.vbst"
        _write_stack(p, modes, 4)
        with pytest.raises(DomainError, match=r"^node 2: .*Nyquist mode at index \(8, 0\)"):
            read_trajectory(p)

    def test_zero_steps_rejected(self, tmp_path):
        # L = 0 holds psi alone: no trajectory to solve on or compare with
        p = tmp_path / "t.vbst"
        _write_stack(p, field_from_mode_list(4, [(1, 0, -0.5j)]).modes[None], 0)
        with pytest.raises(ConfigurationError, match="two time nodes"):
            read_trajectory(p)

    @settings(
        max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(data=st.data())
    def test_fuzz_truncated_or_corrupted(self, tmp_path, data):
        # anything a damaged trajectory makes the reader raise is a package error
        p = tmp_path / "t.vbst"
        write_trajectory(p, evolve(field_from_mode_list(4, [(1, 0, -0.5j), (0, 1, 0.25)]), 0.2, 0.1, 2))
        buf = bytearray(p.read_bytes())
        cut = data.draw(st.integers(0, len(buf)))
        edits = data.draw(
            st.lists(st.tuples(st.integers(0, len(buf) - 1), st.integers(0, 255)), max_size=6)
        )
        for i, value in edits:
            buf[i] = value
        p.write_bytes(bytes(buf[:cut]))
        try:
            traj = read_trajectory(p)
        except VortexError:
            return
        assert all(np.all(np.isfinite(f.modes)) for f in traj.fields)
        assert len({f.grid_size for f in traj.fields}) == 1


class TestSolutionBundle:
    def test_round_trip_and_rediagnose(self, tmp_path):
        psi = field_from_mode_list(16, [(1, 0, -0.5j)])
        cfg = SolverConfig(
            N=16, L=16, M_inner=200, nu=0.1, T=0.4,
            picard_tol=2.0, max_iter=4,
        )
        sol = picard_solve(psi, cfg)
        bundle = tmp_path / "bundle"
        files = write_solution_bundle(bundle, sol)
        assert set(files) == {p.name for p in bundle.iterdir()}
        assert set(files) == {"solution.json", "y_fields.vbst"}
        back = read_solution_bundle(bundle)
        assert np.array_equal(back.y.modes, sol.y.modes)
        assert np.array_equal(back.psi.modes, sol.psi.modes)  # node 0 of Y
        assert back.config == sol.config
        # diagnostics must be reproducible from the on-disk record alone
        assert full_json_report(back) == full_json_report(sol)
        # an earlier version's psi.vbsf, here holding another field, is not read
        other = field_from_mode_list(16, [(0, 1, 0.25)])
        block = struct.pack("<4sHHB", b"VBSF", 1, 16, 1) + other.modes.astype("<c16").tobytes()
        (bundle / "psi.vbsf").write_bytes(block)
        stale = read_solution_bundle(bundle)
        assert np.array_equal(stale.psi.modes, psi.modes)
        assert full_json_report(stale) == full_json_report(sol)

    def test_numpy_config_values_round_trip(self, tmp_path):
        # numpy scalars fit the config's fields and used to reach json.dumps
        # as numpy types, which it rejects with a bare TypeError
        cfg = SolverConfig(
            N=np.int64(16), L=4, M_inner=np.int32(64), nu=np.float32(0.1), T=0.1,
            alpha=np.float32(1.0), groups=2,
        )
        sol = picard_solve(field_from_mode_list(16, [(1, 0, -0.5j)]), cfg)
        write_solution_bundle(tmp_path, sol)
        back = read_solution_bundle(tmp_path)
        assert back.config == cfg
        for f in dataclasses.fields(SolverConfig):
            assert type(getattr(back.config, f.name)) is type(getattr(cfg, f.name))

    @pytest.mark.parametrize("scale", [1.0, 0.0])
    def test_top_level_count_and_weight(self, tmp_path, scale):
        # the Picard count is the history's length and the weight the one in
        # norms, also for zero data, which returns the heat iterate unsolved
        psi = ScalarField(scale * field_from_mode_list(16, [(1, 0, -0.5j)]).modes)
        cfg = SolverConfig(N=16, L=8, M_inner=64, nu=0.1, T=0.2, max_iter=4)
        sol = picard_solve(psi, cfg)
        write_solution_bundle(tmp_path, sol)
        doc = json.loads((tmp_path / "solution.json").read_text())
        assert doc["iteration_index"] == len(doc["history"]) == len(sol.history)
        assert doc["alpha"] == doc["norms"]["alpha"] == sol.norms["alpha"]
        assert (len(sol.history) > 0) == (scale != 0)

    def test_config_missing_required_keys(self):
        with pytest.raises(ConfigurationError, match="M_inner"):
            _config_from_dict({"N": 16, "L": 4, "nu": 0.1, "T": 0.1})

    def test_bad_json(self, tmp_path):
        (tmp_path / "solution.json").write_text('{"config": {"N": 16,')
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            read_solution_bundle(tmp_path)

    @pytest.mark.parametrize("doc", ["{}", "[]", '"solution"', '{"config": {"N": 16}}'])
    def test_malformed_document(self, tmp_path, doc):
        (tmp_path / "solution.json").write_text(doc)
        with pytest.raises(ConfigurationError, match="solution.json"):
            read_solution_bundle(tmp_path)

    @pytest.mark.parametrize(
        "key, value",
        [("N", "16"), ("N", 16.0), ("nu", None), ("nu", float("nan")), ("groups", True), ("alpha", "0")],
    )
    def test_config_ill_typed_value(self, key, value):
        d = {"N": 16, "L": 4, "M_inner": 8, "nu": 0.1, "T": 0.1, "groups": 2, key: value}
        with pytest.raises(ConfigurationError, match=key):
            _config_from_dict(d)

    @pytest.mark.parametrize(
        "key, value, what",
        [("L", 8, "step count"), ("N", 32, "grid size"), ("nu", 0.2, "nu"), ("T", 0.8, "dt")],
    )
    def test_trajectory_disagrees_with_config(self, tmp_path, key, value, what):
        psi = field_from_mode_list(16, [(1, 0, -0.5j)])
        cfg = SolverConfig(N=16, L=4, M_inner=8, nu=0.1, T=0.1, groups=2)
        sol = BsdeSolution(
            y=evolve(psi, 0.1, 0.1, 4), config=cfg,
            norms={"alpha": 0.0}, history=(),
        )
        write_solution_bundle(tmp_path, sol)
        doc = json.loads((tmp_path / "solution.json").read_text())
        doc["config"][key] = value
        (tmp_path / "solution.json").write_text(json.dumps(doc))
        # not a bare ``what``: the test's tmp_path holds "nu" too
        with pytest.raises(ConfigurationError, match=f"{what} \\S+ disagrees with its config"):
            read_solution_bundle(tmp_path)

    @staticmethod
    def _reported_bundle(directory):
        """Bundle whose norms and two history records hold what the
        diagnostics read."""
        psi = field_from_mode_list(16, [(1, 0, -0.5j)])
        cfg = SolverConfig(N=16, L=8, M_inner=8, nu=0.1, T=0.4, groups=2)
        norms = {"c1": 0.5, "c0": 1.0, "alpha": 40.0, "y_sup": 0.5,
                 "z_bmo_sq_debiased": 0.1, "z_bmo_sq_se": 0.01}
        history = (
            {"iteration": 1, "eps_mc": 0.01, "sup_lattice": [0.5] * 9, "delta_norm": 0.2},
            {"iteration": 2, "eps_mc": 0.01, "sup_lattice": [0.5] * 9, "delta_norm": 0.1,
             "delta_norm_se": 0.01, "contraction_ratio": 0.5},
        )
        sol = BsdeSolution(
            y=evolve(psi, 0.1, 0.4, 8), config=cfg,
            norms=norms, history=history,
        )
        write_solution_bundle(directory, sol)
        return sol

    def test_reported_bundle_reads(self, tmp_path):
        sol = self._reported_bundle(tmp_path)
        assert set(json.loads((tmp_path / "solution.json").read_text())) == {
            "schema_version", "config", "norms", "history", "iteration_index", "alpha"
        }
        assert full_json_report(read_solution_bundle(tmp_path)) == full_json_report(sol)

    @pytest.mark.parametrize(
        "where, value, what",
        [
            # each of these used to escape from full_json_report as a traceback
            (("norms",), {}, "norms"),
            (("norms", "c1"), "x", "c1"),
            (("history",), [1], "record 0"),
            (("history",), [{}], "eps_mc"),
            (("norms", "z_bmo_sq_se"), float("nan"), "z_bmo_sq_se"),
            (("history", 0, "iteration"), 1.5, "iteration"),
            (("history", 0, "sup_lattice"), [0.5, "x"], "sup_lattice"),
            (("history", 1, "contraction_ratio"), "0.5", "contraction_ratio"),
            (("history", 1, "delta_norm_se"), None, "delta_norm_se"),
            # an empty sup_lattice used to end diagnose in a ValueError
            (("history", 0, "sup_lattice"), [], "sup_lattice"),
            (("history", 0, "sup_lattice"), [0.5] * 8, "sup_lattice"),
            # the string "no" used to count as above noise
            (("history", 1, "ratio_above_noise"), "no", "ratio_above_noise"),
            # an unknown or absent schema_version used to be read as 1, and
            # JSON booleans as numbers (True == 1 in Python)
            (("schema_version",), 99, "schema_version"),
            (("schema_version",), ABSENT, "schema_version"),
            (("schema_version",), None, "schema_version"),
            (("schema_version",), True, "schema_version"),
            (("schema_version",), 1.0, "schema_version"),
            (("iteration_index",), True, "iteration_index"),
            (("alpha",), False, "alpha"),
            # version 1 stored a field block per node; no reader of it is kept
            (("schema_version",), 1, "schema_version 1, not 2"),
        ],
    )
    def test_malformed_report(self, tmp_path, where, value, what):
        self._reported_bundle(tmp_path)
        doc = json.loads((tmp_path / "solution.json").read_text())
        parent = doc
        for key in where[:-1]:
            parent = parent[key]
        if value is ABSENT:
            del parent[where[-1]]
        else:
            parent[where[-1]] = value
        (tmp_path / "solution.json").write_text(json.dumps(doc))
        with pytest.raises(ConfigurationError, match=what):
            read_solution_bundle(tmp_path)
