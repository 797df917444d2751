"""The paper's conclusion, end to end through the command line.

A smaller mode volume raises the peak coupling, but once the emitter's
placement is uncertain over an implantation disk of diameter D the
median coupling of the ultra-confined mode falls below that of the
default mode, and beta and I barely differ between the two. The chain
is `implant-stats` on each synthetic preset, then `fom-sweep` at the
reported median couplings. Every assertion compares the two presets
with each other, so no second implementation of g is needed.
"""

import csv
import json

import pytest

from cqed_fom import cli

DIAMETERS_NM = [0, 50, 100]
SYSTEM = {
    "kappa_wg": {"value": 10, "unit": "GHz"},
    "gamma": {"value": 100, "unit": "MHz"},
    "gamma_star": {"value": 50, "unit": "MHz"},
}


def _run(tmp_path, name, command, payload):
    cfg = tmp_path / f"{name}-{command}.json"
    cfg.write_text(json.dumps(payload))
    out = tmp_path / name
    assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 0
    return out


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("chain")
    results = {}
    for preset in ("default", "ultra-confined"):
        implant = {
            "synth": {"preset": preset},
            "implant": {"diameters": {"values": DIAMETERS_NM, "unit": "nm"}},
        }
        out = _run(tmp_path, preset, "implant-stats", implant)
        median = [float(r["median_GHz"]) for r in _rows(out / "implant_median.csv")]
        sweep = {"system": SYSTEM, "sweep": {"g": {"values": median, "unit": "GHz"}}}
        rows = _rows(_run(tmp_path, preset, "fom-sweep", sweep) / "fom_sweep.csv")
        assert [r["status"] for r in rows] == ["ok"] * len(DIAMETERS_NM)
        results[preset] = {
            "median": median,
            "beta": [float(r["beta"]) for r in rows],
            "indist": [float(r["indist"]) for r in rows],
        }
    return results


def test_ultra_confined_mode_wins_only_at_perfect_placement(chain):
    default, ultra = chain["default"]["median"], chain["ultra-confined"]["median"]
    # D = 0: 406 against 122 GHz; D = 100 nm: 28 against 49 GHz
    assert ultra[0] > 2.0 * default[0]
    assert ultra[-1] < 0.75 * default[-1]


def test_beta_and_indistinguishability_barely_depend_on_the_mode(chain):
    # the largest gaps are 2e-4 in beta and 7e-5 in I
    for key in ("beta", "indist"):
        for a, b in zip(chain["default"][key], chain["ultra-confined"][key]):
            assert abs(a - b) < 1e-3
