import dataclasses
import hashlib
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vortexbsde
from vortexbsde import bsde_engine, cli
from vortexbsde.biot_savart import closed_form_c0
from vortexbsde.bsde_engine import BsdeSolution, SolverConfig, select_alpha
from vortexbsde.checkpoint import write_solution_bundle
from vortexbsde.errors import ConfigurationError, VortexError
from vortexbsde.spectral_oracle import evolve
from vortexbsde.torus_field import ScalarField, field_from_mode_list, l2_norm, sup_norm

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def write_cfg(path: Path, text: str) -> Path:
    path.write_text(text)
    return path


ORACLE_CFG = """
# single-mode oracle
outdir = {out}
N = 32
L = 64
nu = 0.1
T = 0.5
psi_modes = 1 0 0 -0.5
"""

SOLVE_CFG = """
outdir = {out}
N = 16
L = 16
nu = 0.3
T = 0.2
psi_modes = 1 0 0 -0.5 ; 0 2 0.5 0
M_inner = 150
max_iter = 5
picard_tol = 2.0
base_seed = 11
"""


class TestConfigParsing:
    def test_comments_and_types(self):
        raw = cli._parse_kv_text("a = 1  # trailing\n\n# full line\nb = x\n")
        assert raw == {"a": "1", "b": "x"}

    def test_duplicate_key(self):
        with pytest.raises(ConfigurationError, match="line 2"):
            cli._parse_kv_text("a = 1\na = 2\n")

    @settings(max_examples=300, deadline=None)
    @given(text=st.text(max_size=80) | st.text(alphabet="ab =#;.1-\n\t\r\x0b\x1c\u2028", max_size=60))
    def test_fuzz_kv_text(self, text):
        # any text is either parsed into non-empty keys and values or rejected
        # as a package error
        try:
            values = cli._parse_kv_text(text)
        except VortexError:
            return
        assert all(k and v and "=" not in k and "#" not in k + v for k, v in values.items())

    def test_missing_equals(self):
        with pytest.raises(ConfigurationError, match="line 1"):
            cli._parse_kv_text("nonsense\n")

    def test_unknown_key(self):
        with pytest.raises(ConfigurationError, match="unknown"):
            cli.ORACLE_SCHEMA.parse({"bogus": "1"})

    def test_missing_required(self):
        with pytest.raises(ConfigurationError, match="missing required"):
            cli.ORACLE_SCHEMA.parse({"outdir": "x"})

    def test_type_error_names_key(self):
        raw = {"outdir": "x", "N": "abc", "L": "4", "nu": "0.1", "T": "0.1",
               "psi_modes": "1 0 0 -0.5"}
        with pytest.raises(ConfigurationError, match="'N'"):
            cli.ORACLE_SCHEMA.parse(raw)

    def test_mode_syntax(self):
        entries = cli._parse_modes("1 0 0 -0.5 ; 0 2 0.5 0")
        assert entries[0] == (1, 0, -0.5j)
        assert entries[1] == (0, 2, 0.5 + 0j)
        # a blank entry is skipped
        assert cli._parse_modes(" ; 1 0 0 -0.5 ;; 0 2 0.5 0 ;") == entries
        with pytest.raises(ValueError):
            cli._parse_modes("1 0 0")

    def test_solve_schema_is_solver_config(self):
        # every solve key feeds SolverConfig, so no inert key can creep back,
        # and its default is the SolverConfig default
        names = {f.name for f in dataclasses.fields(SolverConfig)}
        assert set(cli.SOLVE_SCHEMA.spec) == names | {"outdir", "psi_modes"}
        for f in dataclasses.fields(SolverConfig):
            default = cli.SOLVE_SCHEMA.spec[f.name][1]
            if f.default is dataclasses.MISSING:
                assert default is cli._REQUIRED, f.name
            else:
                assert default == f.default, f.name

    def test_shipped_configs_parse(self):
        schemas = {"oracle_": cli.ORACLE_SCHEMA, "solve_": cli.SOLVE_SCHEMA,
                   "compare_": cli.COMPARE_SCHEMA}
        configs = sorted(SCRIPTS.glob("*.cfg"))
        assert configs
        for path in configs:
            [schema] = [s for prefix, s in schemas.items() if path.name.startswith(prefix)]
            schema.parse(cli._parse_kv_text(path.read_text()))

    def test_env_config_dir(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path / "a.cfg", "outdir = x\n")
        monkeypatch.setenv(cli.ENV_CONFIG_DIR, str(tmp_path))
        assert cli.resolve_config_path("a.cfg") == cfg
        with pytest.raises(ConfigurationError):
            cli.resolve_config_path("missing.cfg")


class TestOracleCommand:
    def test_enstrophy_matches_exact_decay(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path / "o.cfg", ORACLE_CFG.format(out=out))
        assert cli.main(["oracle", str(cfg)]) == 0
        lines = (out / "oracle_series.csv").read_text().strip().splitlines()
        assert lines[1] == "tau,enstrophy,energy,sup_omega"
        for row in lines[2:]:
            tau, ens, _, _ = (float(v) for v in row.split(","))
            exact = np.exp(-8 * np.pi**2 * 0.1 * tau) / 2
            assert abs(ens - exact) <= 1e-5 * max(exact, 1e-30)

    def test_zero_initial_data(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_cfg(
            tmp_path / "o.cfg",
            ORACLE_CFG.format(out=out).replace("1 0 0 -0.5", "1 0 0 0"),
        )
        assert cli.main(["oracle", str(cfg)]) == 0
        for row in (out / "oracle_series.csv").read_text().strip().splitlines()[2:]:
            _, ens, energy, sup = (float(v) for v in row.split(","))
            assert ens == 0.0 and energy == 0.0 and sup == 0.0

    def test_rerun_byte_identical(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path / "o.cfg", ORACLE_CFG.format(out=out))
        cli.main(["oracle", str(cfg)])
        first = (out / "oracle_series.csv").read_bytes()
        first_traj = (out / "trajectory.vbst").read_bytes()
        cli.main(["oracle", str(cfg)])
        assert (out / "oracle_series.csv").read_bytes() == first
        assert (out / "trajectory.vbst").read_bytes() == first_traj


class TestSolveCommand:
    def test_solve_writes_bundle_and_diagnostics(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path / "s.cfg", SOLVE_CFG.format(out=out))
        assert cli.main(["solve", str(cfg)]) == 0
        assert (out / "solution" / "y_fields.vbst").exists()
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["max_principle"]["pass"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "success"
        for entry in manifest["outputs"]:
            p = out / entry["path"]
            assert hashlib.sha256(p.read_bytes()).hexdigest() == entry["sha256"]

    def test_outputs_independent_of_blas_threads(self, tmp_path):
        # the skeleton's group sums and the sub-block synthesis are matrix
        # products; a tiny two-mode solve in fresh processes, whose BLAS
        # reads its thread count at start-up, writes the same bytes
        src = str(Path(vortexbsde.__file__).resolve().parents[1])
        solved = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            text = SOLVE_CFG.format(out=out).replace("M_inner = 150", "M_inner = 64")
            cfg = write_cfg(tmp_path / f"threads{threads}.cfg", text.replace("L = 16", "L = 8"))
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
            run = subprocess.run(
                [sys.executable, "-m", "vortexbsde", "solve", str(cfg)],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert run.returncode == 0, run.stderr
            files = ("solution.json", "y_fields.vbst")
            solved.append([(out / "solution" / name).read_bytes() for name in files])
        assert solved[0] == solved[1]

    def test_config_error_exit_code(self, tmp_path):
        cfg = write_cfg(tmp_path / "bad.cfg", "outdir = x\nbogus = 1\n")
        assert cli.main(["solve", str(cfg)]) == 2

    def test_missing_config_exit_code(self):
        assert cli.main(["solve", "/does/not/exist.cfg"]) == 2

    def test_directory_config_exit_code(self, tmp_path, capsys):
        assert cli.main(["solve", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read")
        assert "Traceback" not in err

    def test_non_utf8_config_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "s.cfg"
        cfg.write_bytes(SOLVE_CFG.format(out=tmp_path / "out").encode() + b"# \xff\n")
        assert cli.main(["solve", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config file") and "not UTF-8" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("below", ["", "sub"], ids=["file", "below_file"])
    def test_outdir_in_a_file_exit_code(self, tmp_path, capsys, below):
        # no manifest.json can be written where a file is in the way
        afile = write_cfg(tmp_path / "afile", "")
        out = afile / below
        cfg = write_cfg(tmp_path / "s.cfg", SOLVE_CFG.format(out=out))
        assert cli.main(["solve", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot create outdir {out}: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize(
        "command, blocked",
        [("solve", "solution"), ("oracle", "trajectory.vbst")],
        ids=["solve_bundle_is_a_file", "oracle_trajectory_is_a_directory"],
    )
    def test_blocked_output_exit_code_and_manifest(self, tmp_path, capsys, command, blocked):
        out = tmp_path / "out"
        out.mkdir()
        if command == "solve":
            write_cfg(out / blocked, "")
            text = SOLVE_CFG.format(out=out)
        else:
            (out / blocked).mkdir()
            text = ORACLE_CFG.format(out=out).replace("L = 64", "L = 16")
        cfg = write_cfg(tmp_path / "c.cfg", text)
        assert cli.main([command, str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write outputs in {out}: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "error"
        assert manifest["error"]["type"] == "ConfigurationError"

    def test_blocked_manifest_still_exits_2(self, tmp_path, capsys):
        # manifest.json a directory: neither the success nor the error
        # manifest can be written, and the run still ends in one error line
        out = tmp_path / "out"
        (out / "manifest.json").mkdir(parents=True)
        cfg = write_cfg(tmp_path / "o.cfg", ORACLE_CFG.format(out=out).replace("L = 64", "L = 16"))
        assert cli.main(["oracle", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write outputs in {out}: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert (out / "manifest.json").is_dir()

    @pytest.mark.parametrize(
        "modes, message, error",
        [(";", "empty mode list", None), ("0 0 1 0", "k=0 mode", "DomainError")],
        ids=["no_entry", "mean_mode"],
    )
    def test_bad_psi_modes_exit_code(self, tmp_path, capsys, modes, message, error):
        out = tmp_path / "out"
        text = SOLVE_CFG.format(out=out).replace("1 0 0 -0.5 ; 0 2 0.5 0", modes)
        assert cli.main(["solve", str(write_cfg(tmp_path / "s.cfg", text))]) == 2
        assert message in capsys.readouterr().err
        manifest = out / "manifest.json"
        if error is None:  # a config that does not parse fails before the manifest starts
            assert not manifest.exists()
        else:
            assert json.loads(manifest.read_text())["error"]["type"] == error

    def test_auto_alpha_selected_from_bounds(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path / "s.cfg", SOLVE_CFG.format(out=out) + "alpha = auto\n")
        assert cli.main(["solve", str(cfg)]) == 0
        assert json.loads((out / "manifest.json").read_text())["config"]["alpha"] is None
        norms = json.loads((out / "solution" / "solution.json").read_text())["norms"]
        psi = field_from_mode_list(16, [(1, 0, -0.5j), (0, 2, 0.5)])
        assert norms["alpha"] == select_alpha(closed_form_c0(1, 16), sup_norm(psi), 0.3, 0.2)

    def test_max_principle_violation_exit_code_and_manifest(self, tmp_path, monkeypatch):
        # an understated bound C1 = sup |psi| / 2: the first iterate exceeds it
        monkeypatch.setattr(bsde_engine, "sup_norm", lambda field: 0.5 * sup_norm(field))
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path / "s.cfg", SOLVE_CFG.format(out=out))
        assert cli.main(["solve", str(cfg)]) == 3
        error = json.loads((out / "manifest.json").read_text())["error"]
        assert error["type"] == "NumericalError"
        assert error["message"] == "maximum principle violated beyond Monte Carlo allowance"

    def test_nonconvergence_exit_code_and_manifest(self, tmp_path):
        out = tmp_path / "out"
        text = SOLVE_CFG.format(out=out).replace("picard_tol = 2.0", "picard_tol = 1e-9")
        text = text.replace("max_iter = 5", "max_iter = 1")
        cfg = write_cfg(tmp_path / "s.cfg", text)
        assert cli.main(["solve", str(cfg)]) == 4
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "error"
        assert manifest["error"]["type"] == "NonConvergenceError"
        assert manifest["error"]["history"]  # ratio history embedded
        assert manifest["timings"]["picard_solve"] > 0.0  # the phase that raised

    def test_numerical_failure_exit_code(self, tmp_path):
        out = tmp_path / "out"
        text = (
            f"outdir = {out}\nN = 16\nL = 2\nnu = 1e-5\nT = 2.0\n"
            "psi_modes = 1 0 0 -20 ; 0 2 20 0\nM_inner = 8\ngroups = 2\n"
        )
        cfg = write_cfg(tmp_path / "s.cfg", text)
        assert cli.main(["solve", str(cfg)]) == 3

    def test_nan_threshold_exit_code_and_manifest(self, tmp_path):
        # a NaN threshold used to select no velocity mode and end in exit 4
        out = tmp_path / "out"
        text = (
            f"outdir = {out}\nN = 16\nL = 4\nnu = 0.3\nT = 0.2\n"
            "psi_modes = 1 0 0 -0.5 ; 0 2 0.5 0\nM_inner = 40\nmode_threshold_rel = nan\n"
        )
        cfg = write_cfg(tmp_path / "s.cfg", text)
        assert cli.main(["solve", str(cfg)]) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "error"
        assert manifest["error"]["type"] == "ConfigurationError"
        assert "mode_threshold_rel" in manifest["error"]["message"]

    def test_negative_base_seed_exit_code_and_manifest(self, tmp_path):
        # seed -1 used to draw the stream of seed -2, with a numpy cast warning
        out = tmp_path / "out"
        text = SOLVE_CFG.format(out=out).replace("base_seed = 11", "base_seed = -1")
        assert cli.main(["solve", str(write_cfg(tmp_path / "s.cfg", text))]) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "error"
        assert manifest["error"]["type"] == "ConfigurationError"
        assert manifest["error"]["message"] == "base_seed must be in [0, 2^64), got -1"

    def test_zero_alpha_writes_diagnostics(self, tmp_path):
        out = tmp_path / "out"
        text = (
            f"outdir = {out}\nN = 16\nL = 8\nnu = 0.3\nT = 0.2\n"
            "psi_modes = 1 0 0 -0.5\nM_inner = 40\nalpha = 0\n"
        )
        cfg = write_cfg(tmp_path / "s.cfg", text)
        assert cli.main(["solve", str(cfg)]) == 0
        conditions = json.loads((out / "diagnostics.json").read_text())["constants"]
        assert conditions["alpha"] == 0.0
        assert conditions["alpha_conditions"] == {
            "condition1": float("inf"), "condition2": float("inf"), "ok": False
        }
        assert json.loads((out / "manifest.json").read_text())["status"] == "success"


class TestCompareCommand:
    def _oracle_as_solution(self, tmp_path, nu=0.3, horizon=0.2):
        psi = field_from_mode_list(16, [(1, 0, -0.5j), (0, 2, 0.5)])
        traj = evolve(psi, nu, horizon, 16)
        cfg = SolverConfig(N=16, L=16, M_inner=8, nu=nu, T=horizon, groups=2)
        sol = BsdeSolution(
            y=traj, config=cfg,
            norms={"c1": 1.0, "c0": 1.0, "alpha": 0.0, "y_sup": 1.0,
                   "z_bmo_sq": 0.0, "z_bmo_sq_debiased": 0.0, "z_bmo_sq_se": 0.0,
                   "z_bmo_group_values": []},
            history=(),
        )
        bundle = tmp_path / "bundle"
        write_solution_bundle(bundle, sol)
        from vortexbsde.checkpoint import write_trajectory

        traj_path = tmp_path / "traj.vbst"
        write_trajectory(traj_path, traj)
        return bundle, traj_path

    def test_oracle_against_itself_zero_error(self, tmp_path):
        bundle, traj_path = self._oracle_as_solution(tmp_path)
        out = tmp_path / "cmp"
        cfg = write_cfg(
            tmp_path / "c.cfg",
            f"outdir = {out}\nsolution_bundle = {bundle}\ntrajectory = {traj_path}\n",
        )
        assert cli.main(["compare", str(cfg)]) == 0
        rows = (out / "comparison.csv").read_text().strip().splitlines()[2:]
        assert len(rows) == 17
        assert all(float(r.split(",")[1]) == 0.0 for r in rows)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["max_l2_diff"] == 0.0

    def test_one_distance_per_node(self, tmp_path):
        # Y against the trajectory of 1.1 * psi: row j is ||Y_{L-j} - omega_{L-j}||
        bundle, _ = self._oracle_as_solution(tmp_path)
        psi = field_from_mode_list(16, [(1, 0, -0.55j), (0, 2, 0.55)])
        other = evolve(psi, 0.3, 0.2, 16)
        from vortexbsde.checkpoint import read_solution_bundle, write_trajectory

        write_trajectory(tmp_path / "other.vbst", other)
        out = tmp_path / "cmp"
        cfg = write_cfg(
            tmp_path / "c.cfg",
            f"outdir = {out}\nsolution_bundle = {bundle}\ntrajectory = {tmp_path/'other.vbst'}\n",
        )
        assert cli.main(["compare", str(cfg)]) == 0
        lines = (out / "comparison.csv").read_text().strip().splitlines()
        assert lines[:2] == ["# schema_version=2", "t,l2_diff"]
        y = read_solution_bundle(bundle).y.fields
        expected = [l2_norm(y[16 - j] - other.fields[16 - j]) for j in range(17)]
        assert [float(r.split(",")[1]) for r in lines[2:]] == expected
        assert [float(r.split(",")[0]) for r in lines[2:]] == [j * (0.2 / 16) for j in range(17)]
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary) == {"schema_version", "max_l2_diff", "mean_l2_diff"}
        assert summary["max_l2_diff"] == max(expected) > 0.0

    def test_paths_key_rejected(self, tmp_path, capsys):
        bundle, traj_path = self._oracle_as_solution(tmp_path)
        cfg = write_cfg(
            tmp_path / "c.cfg",
            f"outdir = {tmp_path/'cmp'}\nsolution_bundle = {bundle}\n"
            f"trajectory = {traj_path}\npaths = 32\n",
        )
        assert cli.main(["compare", str(cfg)]) == 2
        assert "'paths'" in capsys.readouterr().err

    def test_solution_vs_oracle_below_tolerance(self, tmp_path):
        # end-to-end: solve, evolve the same data, compare; the Monte Carlo
        # solution tracks the deterministic trajectory at MC accuracy
        out = tmp_path / "out"
        cli.main(["solve", str(write_cfg(tmp_path / "s.cfg", SOLVE_CFG.format(out=out)))])
        ocfg = write_cfg(
            tmp_path / "o.cfg",
            f"outdir = {tmp_path/'traj'}\nN = 16\nL = 16\nnu = 0.3\nT = 0.2\n"
            "psi_modes = 1 0 0 -0.5 ; 0 2 0.5 0\n",
        )
        cli.main(["oracle", str(ocfg)])
        ccfg = write_cfg(
            tmp_path / "c.cfg",
            f"outdir = {tmp_path/'cmp'}\nsolution_bundle = {out/'solution'}\n"
            f"trajectory = {tmp_path/'traj'/'trajectory.vbst'}\n",
        )
        assert cli.main(["compare", str(ccfg)]) == 0
        summary = json.loads((tmp_path / "cmp" / "summary.json").read_text())
        assert summary["max_l2_diff"] < 0.02  # MC scale at M_inner = 150

    @pytest.mark.parametrize("absent", ["solution_bundle", "trajectory"])
    def test_missing_input_exit_code_and_manifest(self, tmp_path, absent):
        paths = dict(zip(("solution_bundle", "trajectory"), self._oracle_as_solution(tmp_path)))
        paths[absent] = tmp_path / "absent"
        out = tmp_path / "cmp"
        cfg = write_cfg(
            tmp_path / "c.cfg",
            f"outdir = {out}\nsolution_bundle = {paths['solution_bundle']}\n"
            f"trajectory = {paths['trajectory']}\n",
        )
        assert cli.main(["compare", str(cfg)]) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "error"
        assert manifest["error"]["type"] == "ConfigurationError"
        assert "absent" in manifest["error"]["message"]

    @pytest.mark.parametrize("offset", [12, 20], ids=["dt", "nu"])
    def test_nan_trajectory_header_exit_code_and_manifest(self, tmp_path, offset):
        # a NaN dt or nu passes every later comparison: a NaN dt used to end
        # compare in a ValueError traceback without a manifest, a NaN nu was
        # accepted silently
        bundle, traj_path = self._oracle_as_solution(tmp_path)
        buf = bytearray(traj_path.read_bytes())
        struct.pack_into("<d", buf, offset, float("nan"))
        traj_path.write_bytes(bytes(buf))
        out = tmp_path / "cmp"
        cfg = write_cfg(
            tmp_path / "c.cfg",
            f"outdir = {out}\nsolution_bundle = {bundle}\ntrajectory = {traj_path}\n",
        )
        assert cli.main(["compare", str(cfg)]) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "error"
        assert manifest["error"]["type"] == "ConfigurationError"

    def test_nyquist_node_exit_code_and_manifest(self, tmp_path):
        # node 2 of the oracle trajectory carries a nonzero (N/2, 0) mode
        bundle, traj_path = self._oracle_as_solution(tmp_path)
        buf = bytearray(traj_path.read_bytes())
        struct.pack_into("<d", buf, 28 + 16 * (2 * 16 * 16 + 8 * 16), 0.05)
        traj_path.write_bytes(bytes(buf))
        out = tmp_path / "cmp"
        cfg = write_cfg(
            tmp_path / "c.cfg",
            f"outdir = {out}\nsolution_bundle = {bundle}\ntrajectory = {traj_path}\n",
        )
        assert cli.main(["compare", str(cfg)]) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "error"
        assert manifest["error"]["type"] == "DomainError"
        assert manifest["error"]["message"].startswith("node 2: ")
        assert "Nyquist" in manifest["error"]["message"]

    def test_parameter_mismatch(self, tmp_path):
        bundle, _ = self._oracle_as_solution(tmp_path)
        other = evolve(field_from_mode_list(16, [(1, 0, -0.5j)]), 0.9, 0.2, 16)
        from vortexbsde.checkpoint import write_trajectory

        bad = tmp_path / "bad.vbst"
        write_trajectory(bad, other)
        cfg = write_cfg(
            tmp_path / "c.cfg",
            f"outdir = {tmp_path/'cmp'}\nsolution_bundle = {bundle}\n"
            f"trajectory = {bad}\n",
        )
        assert cli.main(["compare", str(cfg)]) == 2

    @pytest.mark.parametrize(
        "what, bundle, oracle",
        [("nu", (1e-13, 0.2), (2e-13, 0.2)), ("horizon", (0.3, 1e-10), (0.3, 5e-10))],
        ids=["nu", "horizon"],
    )
    def test_tiny_parameter_mismatch_exit_code(self, tmp_path, what, bundle, oracle):
        # compare checks nu and the horizon to 1e-12 relative, as the bundle
        # reader does; absolute tolerances used to let both pairs through
        bundle_dir, _ = self._oracle_as_solution(tmp_path, *bundle)
        psi = field_from_mode_list(16, [(1, 0, -0.5j), (0, 2, 0.5)])
        from vortexbsde.checkpoint import write_trajectory

        bad = tmp_path / "bad.vbst"
        write_trajectory(bad, evolve(psi, *oracle, 8))
        out = tmp_path / "cmp"
        cfg = write_cfg(
            tmp_path / "c.cfg",
            f"outdir = {out}\nsolution_bundle = {bundle_dir}\ntrajectory = {bad}\n",
        )
        assert cli.main(["compare", str(cfg)]) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["error"]["type"] == "ConfigurationError"
        assert f"trajectory {what} " in manifest["error"]["message"]

    @pytest.mark.parametrize("steps", [32, 24])
    def test_oracle_step_count_may_differ(self, tmp_path, steps):
        # the oracle is read through modes_at: 32 steps put an oracle node on
        # every node of a 16-step bundle, 24 steps on every other one, and
        # the nodes in between are interpolated linearly
        bundle, _ = self._oracle_as_solution(tmp_path)
        psi = field_from_mode_list(16, [(1, 0, -0.5j), (0, 2, 0.5)])
        oracle = evolve(psi, 0.3, 0.2, steps)
        from vortexbsde.checkpoint import read_solution_bundle, write_trajectory

        fine = tmp_path / "fine.vbst"
        write_trajectory(fine, oracle)
        out = tmp_path / "cmp"
        cfg = write_cfg(
            tmp_path / "c.cfg",
            f"outdir = {out}\nsolution_bundle = {bundle}\ntrajectory = {fine}\n",
        )
        assert cli.main(["compare", str(cfg)]) == 0
        rows = (out / "comparison.csv").read_text().strip().splitlines()[2:]
        y = read_solution_bundle(bundle).y.modes
        interpolated = 0
        for j, row in enumerate(rows):
            pos = (16 - j) * steps / 16  # oracle node of tau = T - t_j, exact in binary
            lo = int(pos)
            frac = pos - lo
            b = oracle.modes[lo]
            if frac:
                b = (1 - frac) * b + frac * oracle.modes[lo + 1]
                interpolated += 1
            expected = l2_norm(ScalarField(y[16 - j]) - ScalarField(b))
            got = float(row.split(",")[1])
            # the command finds the same position only up to roundoff in tau / dt
            assert got == (pytest.approx(expected, rel=1e-12) if frac else expected)
        assert len(rows) == 17
        assert interpolated == {32: 0, 24: 8}[steps]

    def test_bundle_step_count_mismatch_exit_code_and_manifest(self, tmp_path):
        # config L disagrees with the 16 steps of y_fields.vbst: compare used
        # to index past the trajectory and die with an IndexError, exit 1
        bundle, traj_path = self._oracle_as_solution(tmp_path)
        doc = json.loads((bundle / "solution.json").read_text())
        doc["config"]["L"] = 32
        (bundle / "solution.json").write_text(json.dumps(doc))
        out = tmp_path / "cmp"
        cfg = write_cfg(
            tmp_path / "c.cfg",
            f"outdir = {out}\nsolution_bundle = {bundle}\ntrajectory = {traj_path}\n",
        )
        assert cli.main(["compare", str(cfg)]) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "error"
        assert manifest["error"]["type"] == "ConfigurationError"
        assert "step count" in manifest["error"]["message"]


class TestDiagnoseCommand:
    def test_unknown_bundle_config_key(self, tmp_path):
        # bundles written while SolverConfig still had M_outer
        bundle, _ = TestCompareCommand()._oracle_as_solution(tmp_path)
        doc = json.loads((bundle / "solution.json").read_text())
        doc["config"]["M_outer"] = 32
        (bundle / "solution.json").write_text(json.dumps(doc))
        out = tmp_path / "diag"
        cfg = write_cfg(tmp_path / "d.cfg", f"outdir = {out}\nsolution_bundle = {bundle}\n")
        assert cli.main(["diagnose", str(cfg)]) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["error"]["type"] == "ConfigurationError"
        assert "M_outer" in manifest["error"]["message"]

    @pytest.mark.parametrize(
        "key, value",
        [
            ("norms", {}),
            ("history", [{}]),
            # used to end in a ValueError from max_principle_check, exit 1
            # and no manifest
            ("history", [{"iteration": 1, "eps_mc": 0.0, "sup_lattice": [], "delta_norm": 0.1}]),
            # used to be read as if it were the one version ever written
            ("schema_version", 99),
        ],
    )
    def test_malformed_report_exit_code_and_manifest(self, tmp_path, key, value):
        bundle, _ = TestCompareCommand()._oracle_as_solution(tmp_path)
        doc = json.loads((bundle / "solution.json").read_text())
        doc[key] = value
        (bundle / "solution.json").write_text(json.dumps(doc))
        out = tmp_path / "diag"
        cfg = write_cfg(tmp_path / "d.cfg", f"outdir = {out}\nsolution_bundle = {bundle}\n")
        assert cli.main(["diagnose", str(cfg)]) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "error"
        assert manifest["error"]["type"] == "ConfigurationError"

    def test_version_1_bundle_exit_code_and_manifest(self, tmp_path):
        # version 1 stored a field block per node of y_fields.vbst
        bundle, _ = TestCompareCommand()._oracle_as_solution(tmp_path)
        doc = json.loads((bundle / "solution.json").read_text())
        assert doc["schema_version"] == 2
        doc["schema_version"] = 1
        (bundle / "solution.json").write_text(json.dumps(doc))
        out = tmp_path / "diag"
        cfg = write_cfg(tmp_path / "d.cfg", f"outdir = {out}\nsolution_bundle = {bundle}\n")
        assert cli.main(["diagnose", str(cfg)]) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "error"
        assert manifest["error"]["type"] == "ConfigurationError"
        assert "schema_version 1, not 2" in manifest["error"]["message"]

    def test_zero_alpha_bundle(self, tmp_path):
        out = tmp_path / "out"
        TestSolveCommand().test_zero_alpha_writes_diagnostics(tmp_path)
        dcfg = write_cfg(
            tmp_path / "d.cfg",
            f"outdir = {tmp_path/'diag'}\nsolution_bundle = {out/'solution'}\n",
        )
        assert cli.main(["diagnose", str(dcfg)]) == 0
        doc = json.loads((tmp_path / "diag" / "diagnostics.json").read_text())
        assert doc == json.loads((out / "diagnostics.json").read_text())
        assert not doc["constants"]["alpha_conditions"]["ok"]

    def test_diagnose_solution(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path / "s.cfg", SOLVE_CFG.format(out=out))
        cli.main(["solve", str(cfg)])
        dcfg = write_cfg(
            tmp_path / "d.cfg",
            f"outdir = {tmp_path/'diag'}\nsolution_bundle = {out/'solution'}\n",
        )
        assert cli.main(["diagnose", str(dcfg)]) == 0
        doc = json.loads((tmp_path / "diag" / "diagnostics.json").read_text())
        # identical to the report the solve emitted
        assert doc == json.loads((out / "diagnostics.json").read_text())
