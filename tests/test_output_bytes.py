"""The bytes the CLI writes for the reference scenario are pinned by sha256.

A refactor of the writers or of the solver that claims to keep every output
byte must keep these digests, held in ``golden.json``.  They follow the last
bits of the solver, so a NumPy or BLAS build that rounds differently changes
them as well: each digest that fails names the platform it was recorded on
and this one.

Beside the pins, a portable check holds on any platform: each run of
``reproduce --all --repetitions 1 --seed 5`` stops as the ledger's
``portable`` rows record, and its values are within a stated tolerance of
the recorded ones.  It runs here and under OpenBLAS's Haswell kernels with
NumPy's AVX-512 loops off, a platform whose last bits differ.
"""

import json
import subprocess
import sys

import pytest

from golden import (
    REPRODUCE_ALL, STDOUT_COMMANDS, VALUE_KEYS, identify_trace_digest, pin_message, pinned,
    portable_rows, reproduce_all, reproduce_digests, simulate_digests, stdout_digest,
)
from numeric_platform import AVX2_PLATFORM, platform_env
from platform_table import moved_stops


@pytest.fixture(scope="module")
def reproduced(tmp_path_factory):
    """The output directory of one in-process ``reproduce --all`` run."""
    return reproduce_all(tmp_path_factory.mktemp("reproduce"))


def test_simulate_bytes(tmp_path):
    assert simulate_digests(tmp_path) == pinned("simulate"), pin_message()


def test_reproduce_all_bytes(reproduced):
    assert reproduce_digests(reproduced) == pinned("reproduce"), pin_message()


def close(value, recorded) -> bool:
    """``value`` is within ``1e-12 + 1e-8 |recorded|`` of ``recorded``, or
    both are ``null``."""
    if value is None or recorded is None:
        return value is recorded
    return abs(value - recorded) <= 1e-12 + 1e-8 * abs(recorded)


@pytest.mark.parametrize("platform", [None, AVX2_PLATFORM], ids=["in_process", "avx2"])
def test_reproduce_all_runs_as_recorded(request, tmp_path, platform):
    if platform is None:
        out = request.getfixturevalue("reproduced")
    else:
        out = tmp_path
        done = subprocess.run(
            [sys.executable, "-m", "petident.cli", *REPRODUCE_ALL, "--out", str(out)],
            env=platform_env(platform), capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
    rows = portable_rows(json.loads((out / "results.json").read_text()))
    recorded = pinned("portable")
    assert len(rows) == len(recorded) == 32
    for row, want in zip(rows, recorded):
        assert not moved_stops(want, row), want
        far = {key: (row[key], want[key]) for key in VALUE_KEYS if not close(row[key], want[key])}
        assert not far, (want, far)


@pytest.mark.parametrize("command", STDOUT_COMMANDS)
def test_stdout_bytes(tmp_path, command):
    assert stdout_digest(tmp_path, command) == pinned("stdout")[command], pin_message()
    if command == "identify":
        assert identify_trace_digest(tmp_path) == pinned("identify_trace"), pin_message()
