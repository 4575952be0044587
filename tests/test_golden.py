"""Fixed-seed solver outputs stay where ``tests/data/golden.json`` pins them.

``scripts/write_golden.py`` defines the three runs and wrote the file; each
array must agree to 1e-12 relative to its largest pinned magnitude (the
rule of ``scripts/parity.py``) and the Picard iteration count exactly.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from vortexbsde import cli
from vortexbsde.torus_field import field_from_mode_list, sup_norm

from oracles import full_lattice_sup

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("write_golden", ROOT / "scripts" / "write_golden.py")
write_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(write_golden)

REL_TOL = 1e-12
RUNS = ("picard", "drifted", "evolve")


@pytest.fixture(scope="module")
def pinned():
    return json.loads(write_golden.GOLDEN.read_text())


@pytest.fixture(scope="module")
def computed():
    return write_golden.golden_outputs()


def test_data_file_is_small():
    assert write_golden.GOLDEN.stat().st_size < 100_000


def test_iteration_count(pinned, computed):
    assert computed[1] == pinned["iterations"]


@pytest.mark.parametrize("run", RUNS)
def test_arrays_match(run, pinned, computed):
    want = {k: v for k, v in pinned["arrays"].items() if k.startswith(run + ".")}
    got = {k: v for k, v in computed[0].items() if k.startswith(run + ".")}
    assert want and sorted(got) == sorted(want)
    off = {}
    for name, doc in want.items():
        ref = write_golden.decode(doc)
        assert got[name].shape == ref.shape, name
        scale = float(np.max(np.abs(ref), initial=0.0))
        diff = float(np.max(np.abs(got[name] - ref), initial=0.0))
        if diff > REL_TOL * scale:
            off[name] = diff / scale if scale > 0.0 else diff
    assert not off, f"outputs moved beyond {REL_TOL:.0e} relative: {off}"


def test_c1_is_the_full_lattice_sup():
    # sup_norm synthesises psi's lattice cell only; alpha, and with it every
    # history entry, derives from c1 = sup_norm(psi), so for the golden psi
    # and every shipped config's psi it must equal the whole 4x lattice's
    # sup bit for bit
    psis = [field_from_mode_list(write_golden.CONFIG.N, write_golden.PSI_MODES)]
    for path in sorted((ROOT / "scripts").glob("*.cfg")):
        kv = cli._parse_kv_text(path.read_text())
        if "psi_modes" in kv:
            psis.append(field_from_mode_list(int(kv["N"]), cli._parse_modes(kv["psi_modes"])))
    assert len(psis) == 4
    for psi in psis:
        assert sup_norm(psi) == full_lattice_sup(psi.modes)
