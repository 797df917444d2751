"""The command line imports no scipy unless a command needs it.

scipy serves only drift convolution and the reference dynamics of
``core``; the physical constants are literals checked against
``scipy.constants`` here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cqed_fom.constants import HBAR, SPEED_OF_LIGHT, VACUUM_PERMITTIVITY

SRC = Path(__file__).parents[1] / "src"

_SYSTEM = {
    "g": {"value": 10, "unit": "GHz"},
    "kappa_wg": {"value": 10, "unit": "GHz"},
    "gamma": {"value": 100, "unit": "MHz"},
    "gamma_star": {"value": 50, "unit": "MHz"},
}
# (command, config) in run order; modevol reads the grid synth-field wrote
RUNS = [
    ("fom-sweep", {"system": _SYSTEM, "sweep": {"g": {"values": [2, 5, 10], "unit": "GHz"}}}),
    (
        "spectrum",
        {
            "system": _SYSTEM,
            "spin": {"zeeman_split": {"value": 1, "unit": "GHz"}},
            "probe": {
                "start": {"value": -20, "unit": "GHz"},
                "stop": {"value": 20, "unit": "GHz"},
                "points": 41,
            },
        },
    ),
    ("synth-field", {"synth": {"preset": "default", "shape": [24, 12, 8], "output": "g.fgrd"}}),
    ("modevol", {"grid": {"path": "g.fgrd"}}),
]

SCRIPT = """
import json, sys
import cqed_fom.cli as cli
for i, (command, payload) in enumerate(json.loads(sys.argv[1])):
    cfg = f"cfg{i}.json"
    with open(cfg, "w") as fh:
        json.dump(payload, fh)
    assert cli.main([command, "--config", cfg, "--out", "."]) == 0, command
print(json.dumps(sorted(name for name in sys.modules if name.split(".")[0] == "scipy")))
"""


def test_cli_commands_import_no_scipy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(RUNS)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []
    assert (tmp_path / "modevol.csv").exists()


def test_constants_equal_scipy_codata_2022():
    scipy = pytest.importorskip("scipy")
    if tuple(int(p) for p in scipy.__version__.split(".")[:2]) < (1, 15):
        pytest.skip("scipy < 1.15 ships CODATA 2018 (eps0 = 8.8541878128e-12)")
    from scipy import constants

    assert SPEED_OF_LIGHT == constants.c
    assert VACUUM_PERMITTIVITY == constants.epsilon_0
    assert HBAR == constants.hbar
