"""The ledger ``golden.json`` of the suite's exact pins, with the producer of each.

A pin test compares a producer's value with :func:`pinned` exactly, and
``regold.py`` runs the same producers to rewrite the ledger.  A pin holds on
the platform the ledger names only.  Pytest does not collect this helper.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np

from petident import (
    CampaignSpec, IrgnmSettings, default_scenario, perturb_initial, run_campaign, run_irgnm,
    simulate_ground_truth,
)
from petident.cli import main
from petident.experiments import scenario_to_dict

from numeric_platform import numeric_platform
from platform_table import STOP_KEYS

LEDGER = Path(__file__).with_name("golden.json")

#: ``reproduce --all --repetitions 1 --seed 5`` without its ``--out``
REPRODUCE_ALL = ["reproduce", "--all", "--repetitions", "1", "--seed", "5"]

#: the commands whose stdout is pinned, run from a directory that holds the
#: reference scenario as ``reference.json``
STDOUT_COMMANDS = {
    "check": ["check", "--scenario", "reference.json"],
    "jaccheck": ["jaccheck", "--trials", "20"],
    "identify": ["identify", "--scenario", "reference.json", "--synthesize", "--delta-y", "1e-3",
                 "--seed", "3", "--out", "out"],
}

#: ``(delta_y, delta_x)`` of the full-mode cells of 5 repetitions and seed 5
#: whose stops are pinned, keyed in the ledger by their ``str``.  Three runs
#: end on a failed Cholesky factorization, run 3 of the second near
#: condition 6e36 on a last iterate whose residual norm is finite
BATCHED_CELLS = [(0.0, 0.15), (1e-4, 0.15)]

VALUE_KEYS = ("final_residual", "rho_opt", "rho_d", "rel_error_best")


def pinned(key: str):
    """The ledger's entry ``key``."""
    return json.loads(LEDGER.read_text())[key]


def pin_message() -> str:
    """The message of a pin that fails."""
    return f"pinned on {pinned('platform')}; this platform is {numeric_platform()}"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def write_reference(directory: Path) -> Path:
    """The reference scenario written as ``directory/reference.json``."""
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "reference.json").write_text(json.dumps(scenario_to_dict(default_scenario())))
    return directory / "reference.json"


def simulate_digests(directory: Path) -> dict:
    """Pin ``simulate``: the digest of each file it writes for the reference scenario."""
    out = directory / "sim"
    assert main(["simulate", "--scenario", str(write_reference(directory)), "--out", str(out)]) == 0
    return {name: sha256((out / name).read_bytes()) for name in ("x_true.csv", "y_true.csv", "curves.csv")}


def reproduce_all(out: Path) -> Path:
    """``reproduce --all --repetitions 1 --seed 5`` run into ``out``."""
    assert main([*REPRODUCE_ALL, "--out", str(out)]) == 0
    return out


def reproduce_digests(out: Path) -> dict:
    """Pin ``reproduce``: the digests of a ``reproduce --all`` output directory;
    "traces" digests every ``trace_*.csv`` as its name, a NUL byte and its
    bytes, in name order."""
    traces = sorted(out.glob("trace_*.csv"))
    assert len(traces) == 32
    digests = {name: sha256((out / name).read_bytes()) for name in ("table1.csv", "results.json")}
    digests["traces"] = sha256(b"".join(p.name.encode() + b"\0" + p.read_bytes() for p in traces))
    return digests


def stdout_digest(directory: Path, command: str) -> str:
    """Pin ``stdout``: the digest of what a command of :data:`STDOUT_COMMANDS`
    prints, run from ``directory``."""
    write_reference(directory)
    printed = io.StringIO()
    with contextlib.chdir(directory), contextlib.redirect_stdout(printed):
        assert main(STDOUT_COMMANDS[command]) == 0
    return sha256(printed.getvalue().encode())


def identify_trace_digest(directory: Path) -> str:
    """Pin ``identify_trace``: the trace of the ``identify`` command run from ``directory``."""
    return sha256((directory / "out" / "identify_trace.csv").read_bytes())


def records_digest() -> str:
    """Pin ``records``: sha256 over ``(stop_reason, stop_iter, residual_norms,
    rel_errors, final_x)`` of a noise-free ``known_cart`` run of 300
    iterations and of the five runs of the reference cell (delta_y = 1e-3,
    delta_x = 0.1)."""
    scenario = default_scenario("known_cart")
    x_true, y_true = simulate_ground_truth(scenario)
    x0 = perturb_initial(x_true, 0.05, [5, 0])
    records = [run_irgnm(x0, y_true, IrgnmSettings(max_iter=300), x_true=x_true)]
    spec = CampaignSpec(1e-3, 0.1, repetitions=5, seed=300)
    records += run_campaign(spec, default_scenario()).records
    digest = hashlib.sha256()
    for record in records:
        digest.update(f"{record.stop_reason} {record.stop_iter}".encode())
        for array in (record.residual_norms, record.rel_errors, record.final_x.flat):
            digest.update(array.tobytes())
    return digest.hexdigest()


def batched_campaign(delta_y: float, delta_x: float):
    """The summary of a cell of :data:`BATCHED_CELLS`."""
    spec = CampaignSpec(delta_y, delta_x, repetitions=5, mode="full", seed=5)
    with np.errstate(over="ignore"):
        return run_campaign(spec, default_scenario())


def golden_stops(summary) -> list:
    """Pin ``golden_stops``: each run's stop reason, stop iteration and final residual at 12 digits."""
    return [[r.stop_reason, r.stop_iter, format(float(r.residual_norms[-1]), ".12g")] for r in summary.records]


def portable_rows(results: list) -> list:
    """Pin ``portable``: the cell, the stop and the values of each run of a
    ``results.json``."""
    return [
        {
            **{key: cell["spec"][key] for key in ("mode", "delta_y", "delta_x")},
            **{key: run[key] for key in STOP_KEYS + VALUE_KEYS},
        }
        for cell in results
        for run in cell["runs"]
    ]
