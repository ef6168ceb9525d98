"""The bytes the CLI writes for the reference scenario are pinned by sha256.

A refactor of the writers or of the solver that claims to keep every output
byte must keep these digests.  They follow the last bits of the solver, so
a NumPy or BLAS build that rounds differently changes them as well: each
digest that fails names the platform it was recorded on and this one.

Beside the pins, a portable check holds on any platform: each run of
``reproduce --all --repetitions 1 --seed 5`` stops as recorded in
``reproduce_all_seed5.json``, and its values are within a stated tolerance
of the recorded ones.  It runs here and under OpenBLAS's Haswell kernels
with NumPy's AVX-512 loops off, a platform whose last bits differ.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from petident.cli import main
from petident.experiments import default_scenario, scenario_to_dict

from numeric_platform import pin_message

SIMULATE = {
    "x_true.csv": "0ae0c06e3767a072ea5661713814cc926c2f0fc4f603d26dbb55c685557dcc45",
    "y_true.csv": "743d55b14a2de413aad79cd2cac98f1084bb7359a1a66c6d9e27c3b49880d16b",
    "curves.csv": "363044663fb5cd8e675769821d8fb72bdaa4b847f01b1ed927dd56227d88c75b",
}

#: ``reproduce --all --repetitions 1 --seed 5``; "traces" digests every
#: ``trace_*.csv`` as its name, a NUL byte and its bytes, in name order
REPRODUCE = {
    "table1.csv": "0fddfddb23f89d1be699d4ef8c5a9e801d545f50286f90834e195b3a69a779f0",
    "results.json": "852dbdaca6f3ba45842d52d679f1e0e54806aa1f3208c8ecb25a100703a1ca26",
    "traces": "7d3af2e45525c7d5f853e6f2cf100b5b8ee48268d4573256a5af058c700ec252",
}


#: the stdout of each command, run from the output directory's parent; the
#: identify line also digests ``identify_trace.csv``
STDOUT = {
    "check": "e59dcef439435d0cb0df03d8b801fd4171294dc726b8a79930ac787ec7ad5f3f",
    "jaccheck": "1e61c90f56e0aaf6a4d33b5a0d7896d50e23b74758d69a0a07708ed2fc2dbe7c",
    "identify": "5b0d255cd022feeb3967b85f5195ac24aa5a9867b80528344818705b4698bb0a",
}
IDENTIFY_TRACE = "9f33441cad7d349a09830a8f2ecee02f3a9fe49c13320a04fcb375aa5bee8ec9"

ROOT = Path(__file__).resolve().parent.parent
#: each run of ``reproduce --all --repetitions 1 --seed 5``, in cell order, as
#: :func:`portable_rows` reads it from ``results.json``
PORTABLE = ROOT / "tests" / "reproduce_all_seed5.json"
STOP_KEYS = ("stop_reason", "stop_iter", "diverged")
VALUE_KEYS = ("final_residual", "rho_opt", "rho_d", "rel_error_best")

#: environment of a platform that rounds the exponentials and the Gram
#: differently from an AVX-512 machine, and that any AVX2 machine can run
AVX2_PLATFORM = {
    "OPENBLAS_CORETYPE": "Haswell",
    "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_simulate_bytes(tmp_path):
    scenario = tmp_path / "reference.json"
    scenario.write_text(json.dumps(scenario_to_dict(default_scenario())))
    out = tmp_path / "sim"
    assert main(["simulate", "--scenario", str(scenario), "--out", str(out)]) == 0
    digests = {name: sha256((out / name).read_bytes()) for name in SIMULATE}
    assert digests == SIMULATE, pin_message()


def reproduce_digests(out: Path) -> dict:
    """The digests of a ``reproduce`` output directory, keyed as :data:`REPRODUCE`."""
    traces = sorted(out.glob("trace_*.csv"))
    assert len(traces) == 32
    digests = {name: sha256((out / name).read_bytes()) for name in ("table1.csv", "results.json")}
    digests["traces"] = sha256(b"".join(p.name.encode() + b"\0" + p.read_bytes() for p in traces))
    return digests


def test_reproduce_all_bytes(tmp_path):
    argv = ["reproduce", "--all", "--repetitions", "1", "--seed", "5", "--out", str(tmp_path)]
    assert main(argv) == 0
    assert reproduce_digests(tmp_path) == REPRODUCE, pin_message()


def portable_rows(results: list) -> list:
    """The cell, the stop and the values of each run of a ``results.json``."""
    return [
        {
            **{key: cell["spec"][key] for key in ("mode", "delta_y", "delta_x")},
            **{key: run[key] for key in STOP_KEYS + VALUE_KEYS},
        }
        for cell in results
        for run in cell["runs"]
    ]


def close(value, recorded) -> bool:
    """``value`` is within ``1e-12 + 1e-8 |recorded|`` of ``recorded``, or
    both are ``null``."""
    if value is None or recorded is None:
        return value is recorded
    return abs(value - recorded) <= 1e-12 + 1e-8 * abs(recorded)


@pytest.mark.parametrize("platform", [None, AVX2_PLATFORM], ids=["in_process", "avx2"])
def test_reproduce_all_runs_as_recorded(tmp_path, platform):
    argv = ["reproduce", "--all", "--repetitions", "1", "--seed", "5", "--out", str(tmp_path)]
    if platform is None:
        assert main(argv) == 0
    else:
        env = dict(os.environ, **platform)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        done = subprocess.run(
            [sys.executable, "-m", "petident.cli", *argv], env=env,
            capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
    rows = portable_rows(json.loads((tmp_path / "results.json").read_text()))
    recorded = json.loads(PORTABLE.read_text())
    assert len(rows) == len(recorded) == 32
    for row, want in zip(rows, recorded):
        assert {key: row[key] for key in STOP_KEYS} == {key: want[key] for key in STOP_KEYS}, want
        far = {key: (row[key], want[key]) for key in VALUE_KEYS if not close(row[key], want[key])}
        assert not far, (want, far)


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--scenario", "reference.json"],
        ["jaccheck", "--trials", "20"],
        ["identify", "--scenario", "reference.json", "--synthesize", "--delta-y", "1e-3",
         "--seed", "3", "--out", "out"],
    ],
    ids=lambda argv: argv[0],
)
def test_stdout_bytes(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "reference.json").write_text(json.dumps(scenario_to_dict(default_scenario())))
    assert main(argv) == 0
    assert sha256(capsys.readouterr().out.encode()) == STDOUT[argv[0]], pin_message()
    if argv[0] == "identify":
        trace = tmp_path / "out" / "identify_trace.csv"
        assert sha256(trace.read_bytes()) == IDENTIFY_TRACE, pin_message()
