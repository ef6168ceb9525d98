"""The benchmark's workloads.  Each one builds its inputs from the workload
seed in :meth:`setup`, performs one closed-loop operation per :meth:`call`
and checks what the operation returned in :meth:`check`.  README.md in this
directory says why each workload exists."""

from __future__ import annotations

import contextlib
import csv
import io
import json
import shutil
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from petident import cli, experiments, forward, solver
from petident.kinetics import KineticParams

import calibration
from spans import Patches

#: The reference cell of the paper's Table 1.
DELTA_Y = 1e-3
DELTA_X = 0.1


def cell_seed(seed: int, call: int) -> int:
    """Base seed of one call's campaign.

    ``run_campaign`` derives repetition ``r``'s streams from ``base ^ r``, so
    two bases that differ only in the bits ``r`` flips replay each other's
    runs.  These bases differ from bit 16 up; repetitions stay below 2**16.
    """
    if seed < 0 or not 0 <= call < 1 << 16:
        raise ValueError("seed must be nonnegative and call below 2**16")
    return ((seed << 16) | call) << 16


def aliasing(groups) -> dict:
    """Runs and distinct random streams over ``(base, repetitions)`` groups
    whose repetition streams are ``base ^ r``."""
    streams = [base ^ r for base, reps in groups for r in range(reps)]
    return {"runs": len(streams), "distinct_streams": len(set(streams))}


@dataclass
class Outcome:
    """What one call returned: its runs with the settings each ran under,
    and the problems found in the call itself (a failed call fails all of
    its ``expected`` runs)."""

    records: list = field(default_factory=list)
    settings: list = field(default_factory=list)
    expected: int = 0
    problems: list = field(default_factory=list)
    state: dict = field(default_factory=dict)
    seconds: float = 0.0


def run_problem(record, settings, plasma_model) -> str | None:
    """Output check of one identification run; ``None`` when it passes."""
    x = record.final_x
    if not np.all(np.isfinite(x.flat)):
        return "final_x is not finite"
    if not np.array_equal(
        forward.project_to_domain(x, settings.epsilon, plasma_model).flat, x.flat
    ):
        return "final_x is outside the admissible box"
    final = float(record.residual_norms[-1])
    if record.stop_reason == "discrepancy" and not final <= settings.tau * settings.delta_estimate:
        return f"discrepancy stop with residual {final!r} above tau*delta"
    if record.stop_reason == "max_iter" and record.stop_iter != settings.max_iter:
        return f"max_iter stop after {record.stop_iter} of {settings.max_iter} iterations"
    return None


class Workload:
    name = ""
    min_calls = 1  # calls always made, and covered by the work fingerprint

    def __init__(self, tiny: bool = False):
        self.tiny = tiny

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.scenario = self.make_scenario(seed)
        self.x_true, self.y_true = experiments.simulate_ground_truth(self.scenario)

    def make_scenario(self, seed):
        return experiments.default_scenario()

    def shape(self) -> tuple[int, int]:
        """Rows and columns of the Jacobian this workload evaluates."""
        layout = self.x_true.layout
        return self.y_true.flat().size, layout.dim

    def install(self, patches: Patches, calibrate: bool = False) -> None:
        """Hooks the workload needs to see its outputs (none by default).
        With ``calibrate``, a workload whose calls are long takes calibration
        samples where the program hands control back inside a call, and
        reports them and the time they took in the outcome's ``state``."""

    def call(self, index: int, tracer) -> Outcome:
        raise NotImplementedError

    def expected_runs(self) -> int:
        raise NotImplementedError

    def stream_groups(self, calls: int, base=cell_seed) -> list:
        """``(base seed, repetitions)`` of the random streams the first
        ``calls`` calls draw, with base seeds chosen by ``base``."""
        raise NotImplementedError

    def check(self, outcome: Outcome) -> list:
        """One entry per run: ``None`` when the run passes, else the problem."""
        if outcome.problems:
            return [outcome.problems[0]] * max(outcome.expected, len(outcome.records))
        return [
            run_problem(r, s, self.scenario.plasma.model_id)
            for r, s in zip(outcome.records, outcome.settings)
        ]

    def finish(self) -> None:
        """Remove what the calls left on disk."""


class Campaign(Workload):
    """Repeated ``experiments.run_campaign`` on one cell of the grid."""

    def __init__(self, tiny=False):
        super().__init__(tiny)
        self.repetitions = 2 if tiny else self.full_repetitions

    def expected_runs(self):
        return self.repetitions

    def call(self, index, tracer):
        spec = experiments.CampaignSpec(
            DELTA_Y, DELTA_X, self.repetitions, "full", cell_seed(self.seed, index)
        )
        summary = tracer.call(
            "experiments.run_campaign", experiments.run_campaign, spec, self.scenario
        )
        settings = spec.resolved_settings()
        return Outcome(
            records=summary.records,
            settings=[settings] * len(summary.records),
            expected=self.repetitions,
        )

    def stream_groups(self, calls, base=cell_seed):
        return [(base(self.seed, i), self.repetitions) for i in range(calls)]


class CampaignRef(Campaign):
    name = "campaign_ref"
    full_repetitions = 5
    min_calls = 6


class RegionsWide(Campaign):
    name = "regions_wide"
    full_repetitions = 2
    min_calls = 6
    regions = 12

    def make_scenario(self, seed):
        """The reference rates tiled over 12 regions, each rate scaled by a
        factor drawn uniformly from [0.7, 1.3]."""
        ref = experiments.default_scenario()
        base = np.array([[k.K1, k.k2, k.k3] for k in ref.kinetics])
        rng = np.random.Generator(np.random.Philox([seed, self.regions]))
        rates = np.resize(base, (self.regions, 3)) * rng.uniform(0.7, 1.3, (self.regions, 3))
        return replace(ref, kinetics=tuple(KineticParams(*row) for row in rates))


class IdentifySingle(Workload):
    """One noise-free ``known_cart`` ``solver.run_irgnm`` per call from an
    initial guess drawn from the seed; always the full iteration budget."""

    name = "identify_single"
    min_calls = 10
    delta_x = 0.05

    def make_scenario(self, seed):
        return experiments.default_scenario("known_cart")

    def setup(self, seed):
        super().setup(seed)
        self.settings = solver.IrgnmSettings(max_iter=20 if self.tiny else 300)

    def expected_runs(self):
        return 1

    def call(self, index, tracer):
        x0 = experiments.perturb_initial(
            self.x_true, self.delta_x, [cell_seed(self.seed, index), 0],
            self.settings.epsilon, self.scenario.plasma.model_id,
        )
        record = tracer.call("solver.run_irgnm", solver.run_irgnm, x0, self.y_true, self.settings)
        return Outcome(records=[record], settings=[self.settings], expected=1)

    def check(self, outcome):
        problems = super().check(outcome)
        y = self.y_true.flat()
        for i, record in enumerate(outcome.records):
            if problems[i] is None:
                final = float(record.residual_norms[-1])
                again = float(np.linalg.norm(forward.forward_vector(record.final_x, self.y_true) - y))
                if abs(again - final) > 1e-9 * max(abs(final), np.finfo(float).tiny):
                    problems[i] = f"recomputed residual {again!r} differs from {final!r}"
        return problems

    def stream_groups(self, calls, base=cell_seed):
        # one perturb_initial stream per call, not derived by XOR
        return [(base(self.seed, i), 1) for i in range(calls)]


class ReproduceGrid(Workload):
    """In-process ``petident reproduce --all`` into a fresh directory."""

    name = "reproduce_grid"
    min_calls = 1
    cells = 32  # 4 noise levels x 4 initialization levels x 2 modes
    repetitions = 1

    def setup(self, seed):
        super().setup(seed)
        self.scratch = None

    def install(self, patches, calibrate=False):
        if self.scratch is None:
            out_root = Path(__file__).resolve().parent / "out"
            out_root.mkdir(exist_ok=True)
            self.scratch = Path(tempfile.mkdtemp(prefix=f"{self.name}-", dir=out_root))
        run_campaign, emit_results = cli.run_campaign, cli.emit_results

        def keep_summary(*args, **kwargs):
            summary = run_campaign(*args, **kwargs)
            self.summaries.append(summary)
            if calibrate:  # between two cells
                start = time.perf_counter()
                self.samples.append(calibration.sample())
                self.sampling_s += time.perf_counter() - start
            return summary

        def count_bytes(*args, **kwargs):
            paths = emit_results(*args, **kwargs)
            self.emit_bytes += sum(Path(p).stat().st_size for p in paths)
            return paths

        patches.set(cli, "run_campaign", keep_summary)
        patches.set(cli, "emit_results", count_bytes)

    def expected_runs(self):
        return self.cells * self.repetitions

    def call(self, index, tracer):
        out = tempfile.mkdtemp(prefix=f"call{index}-", dir=self.scratch)
        argv = [
            "reproduce", "--all", "--repetitions", str(self.repetitions),
            "--seed", str(cell_seed(self.seed, index)), "--out", out,
        ]
        self.summaries, self.emit_bytes = [], 0
        self.samples, self.sampling_s = [], 0.0
        with contextlib.redirect_stdout(io.StringIO()):
            code = tracer.call("cli.main", cli.main, argv)
        summaries = self.summaries
        return Outcome(
            records=[r for s in summaries for r in s.records],
            settings=[s.spec.resolved_settings() for s in summaries for _ in s.records],
            expected=self.expected_runs(),
            problems=[] if code == 0 else [f"reproduce exited with code {code}"],
            state={
                "out": out,
                "cells": len(summaries),
                "emit_bytes": self.emit_bytes,
                "calibration": self.samples,
                "calibration_s": self.sampling_s,
            },
        )

    def check(self, outcome):
        if not outcome.problems:
            out = Path(outcome.state["out"])
            with open(out / "table1.csv", newline="") as fh:
                rows = len(list(csv.reader(fh))) - 1
            with open(out / "results.json") as fh:
                entries = len(json.load(fh))
            counts = (rows, entries, outcome.state["cells"])
            if counts != (self.cells,) * 3:
                outcome.problems.append(
                    f"table1.csv, results.json and the run hold {counts} cells, not {self.cells}"
                )
        return super().check(outcome)

    def stream_groups(self, calls, base=cell_seed):
        # the CLI gives every cell of one call the same base seed
        return [(base(self.seed, i), self.repetitions) for i in range(calls) for _ in range(self.cells)]

    def finish(self):
        if self.scratch is not None:
            shutil.rmtree(self.scratch, ignore_errors=True)


WORKLOADS = {w.name: w for w in (CampaignRef, IdentifySingle, RegionsWide, ReproduceGrid)}
