"""The bytes the CLI writes for the reference scenario are pinned by sha256.

A refactor of the writers or of the solver that claims to keep every output
byte must keep these digests.  They follow the last bits of the solver, so
a NumPy or BLAS build that rounds differently changes them as well.
"""

import hashlib
import json

from petident.cli import main
from petident.experiments import default_scenario, scenario_to_dict

SIMULATE = {
    "x_true.csv": "0ae0c06e3767a072ea5661713814cc926c2f0fc4f603d26dbb55c685557dcc45",
    "y_true.csv": "743d55b14a2de413aad79cd2cac98f1084bb7359a1a66c6d9e27c3b49880d16b",
    "curves.csv": "13fbe37ac40395a4aad107492a52f1178b088bc225ea607f6cd7bb25c3995531",
}

#: ``reproduce --all --repetitions 1 --seed 5``; "traces" digests every
#: ``trace_*.csv`` as its name, a NUL byte and its bytes, in name order
REPRODUCE = {
    "table1.csv": "0fddfddb23f89d1be699d4ef8c5a9e801d545f50286f90834e195b3a69a779f0",
    "results.json": "852dbdaca6f3ba45842d52d679f1e0e54806aa1f3208c8ecb25a100703a1ca26",
    "traces": "7d3af2e45525c7d5f853e6f2cf100b5b8ee48268d4573256a5af058c700ec252",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_simulate_bytes(tmp_path):
    scenario = tmp_path / "reference.json"
    scenario.write_text(json.dumps(scenario_to_dict(default_scenario())))
    out = tmp_path / "sim"
    assert main(["simulate", "--scenario", str(scenario), "--out", str(out)]) == 0
    assert {name: sha256((out / name).read_bytes()) for name in SIMULATE} == SIMULATE


def test_reproduce_all_bytes(tmp_path):
    argv = ["reproduce", "--all", "--repetitions", "1", "--seed", "5", "--out", str(tmp_path)]
    assert main(argv) == 0
    traces = sorted(tmp_path.glob("trace_*.csv"))
    assert len(traces) == 32
    digests = {
        name: sha256((tmp_path / name).read_bytes()) for name in ("table1.csv", "results.json")
    }
    digests["traces"] = sha256(b"".join(p.name.encode() + b"\0" + p.read_bytes() for p in traces))
    assert digests == REPRODUCE
