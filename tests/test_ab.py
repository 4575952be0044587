"""``scripts/ab.py`` runs a paired A/B of two trees and prints its report."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
OPS = ("weighted", "drifted", "picard", "evolve", "residual", "tiny")


def _ab():
    sys.path.insert(0, str(ROOT / "scripts"))
    try:
        import ab
    finally:
        sys.path.pop(0)
    return ab


def test_two_rounds_of_two_copies_of_one_tree(tmp_path):
    for name in ("a", "b"):
        shutil.copytree(ROOT / "src" / "vortexbsde", tmp_path / name / "src" / "vortexbsde")
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "ab.py"), str(tmp_path / "a"),
         str(tmp_path / "b"), "--op", "tiny", "--rounds", "2"],
        capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    doc = json.loads(run.stdout)
    assert doc["op"] == "tiny" and doc["rounds"] == 2
    assert len(doc["a_s"]) == len(doc["b_s"]) == 2
    assert math.isfinite(doc["ratio_median"]) and doc["ratio_median"] > 0.0
    assert doc["a_wins"] + doc["b_wins"] <= 2
    assert 0.0 < doc["sign_test_p"] <= 1.0
    for side in ("a", "b"):
        assert doc[f"{side}_minflt_median"] >= 0 and doc[f"{side}_maxrss_delta_mb"] >= 0.0


def test_op_list_is_documented():
    ab = _ab()
    assert ab.OPS == OPS
    for op in OPS:
        assert f"* ``{op}``:" in ab.__doc__


def test_oracle_ops_run():
    ab = _ab()
    traj = ab.build_op("evolve")()
    assert traj.steps == 32 and np.all(np.isfinite(traj.modes))
    profile = ab.build_op("residual")()
    assert profile.shape == (ab.RESIDUAL_PATHS, 33) and np.all(np.isfinite(profile))


def test_sign_test_p_values():
    ab = _ab()
    assert ab.sign_test_p(5, 5) == 1.0
    assert ab.sign_test_p(10, 0) == ab.sign_test_p(0, 10) == 2.0 / 2**10
    # 9 of 10: 2 * (1 + 10) / 1024
    assert ab.sign_test_p(9, 1) == 22.0 / 1024
