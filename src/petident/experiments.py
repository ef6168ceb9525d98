"""Scenario construction, synthetic measurement generation and repeated
solver campaigns with divergence accounting.

A :class:`Scenario` bundles the ground-truth arterial curve, plasma-fraction
parameters, per-region kinetics and the measurement grids.  Campaigns draw a
perturbed initial guess and a noise realization per repetition from
independent counter-based random streams, run the solver, classify each run
as diverged or not (no iterate improved on the initialization), and report
every run's record plus the representative run closest to the median
improvement.

Internally all times are in minutes and all rates in 1/min: the solver's
regularization schedule and the admissible-domain floor are calibrated to
the per-minute magnitude of the rate constants.  Scenario files declare
their grid unit (``"min"`` or ``"s"``) and are converted on load;
:func:`build_time_grid` returns seconds per its interface contract.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .forward import MODES, MeasurementSet, ParamVector, apply_forward, pack, project_to_domain
from .kinetics import KineticParams
from .plasma import N_PARAMS, PlasmaParams, plasma_fraction
from .polyexp import PolyExp, eval_polyexp
from .solver import IrgnmSettings, RunRecord, check_integer, run_irgnm

SECONDS_PER_MINUTE = 60.0

#: Acquisition segments in minutes: (start, end, frame count); frames are
#: equidistant within each segment including its right endpoint, and the
#: first segment additionally starts at t = 0.
GRID_SEGMENTS_MINUTES = (
    (0.0, 1.0, 6),
    (1.0, 3.0, 4),
    (3.0, 5.0, 2),
    (5.0, 12.5, 3),
    (12.5, 62.5, 10),
)


def build_time_grid() -> np.ndarray:
    """The graded measurement time grid in seconds: 25 points, 0 .. 3750 s."""
    points: list[float] = []
    for start, end, count in GRID_SEGMENTS_MINUTES:
        if points:
            seg = np.linspace(start, end, count + 1)[1:]
        else:
            seg = np.linspace(start, end, count)
        points.extend(seg.tolist())
    return np.asarray(points) * SECONDS_PER_MINUTE


@dataclass(frozen=True)
class Scenario:
    """Ground-truth configuration (internal unit: minutes).

    ``t_grid`` are the tissue measurement times and ``s_grid`` the blood
    sample times (by default identical).  The true total-blood values follow
    from consistency, ``C_bl = C_art / f`` wherever ``f > 0``.
    """

    c_art: PolyExp
    plasma: PlasmaParams
    kinetics: tuple[KineticParams, ...]
    t_grid: np.ndarray
    s_grid: np.ndarray
    mode: str = "full"

    def __post_init__(self):
        object.__setattr__(self, "t_grid", np.asarray(self.t_grid, dtype=float))
        object.__setattr__(self, "s_grid", np.asarray(self.s_grid, dtype=float))
        object.__setattr__(self, "kinetics", tuple(self.kinetics))
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")

    @property
    def p(self) -> int:
        return self.c_art.degree

    @property
    def n(self) -> int:
        return len(self.kinetics)

    @property
    def q_hat(self) -> int:
        return N_PARAMS

    def true_vector(self) -> ParamVector:
        return pack(
            self.c_art.coefficients,
            self.c_art.exponents,
            np.asarray(self.plasma.m),
            self.kinetics,
        )

    def blood_values(self) -> np.ndarray:
        """Ground-truth blood data: total concentration ``C_art / f`` in
        ``full`` mode, the arterial values themselves in ``known_cart``."""
        art = eval_polyexp(self.c_art, self.s_grid)
        if self.mode == "known_cart":
            return art
        f = plasma_fraction(self.plasma, self.s_grid)
        if np.any(f <= 0):
            raise ValueError("plasma fraction must be positive at blood sample times")
        return art / f

    def template(self) -> MeasurementSet:
        return MeasurementSet(
            t_grid=self.t_grid,
            s_grid=self.s_grid,
            c_bl_values=self.blood_values(),
            mode=self.mode,
        )


def default_scenario(mode: str = "full") -> Scenario:
    """Three cortical gray-matter regions with representative FDG rate
    constants, a triexponential arterial input and a biexponential parent
    plasma fraction, sampled on the graded 25-frame grid over 62.5 min."""
    return Scenario(
        c_art=PolyExp([(-5.0, -0.5), (4.0, -0.2), (1.0, -0.1)]),
        plasma=PlasmaParams("biexp", (0.1, -0.005, -0.1)),
        kinetics=(
            KineticParams(0.157, 0.174, 0.118),
            KineticParams(0.161, 0.179, 0.096),
            KineticParams(0.177, 0.159, 0.088),
        ),
        t_grid=build_time_grid() / SECONDS_PER_MINUTE,
        s_grid=build_time_grid() / SECONDS_PER_MINUTE,
        mode=mode,
    )


def scenario_to_dict(scn: Scenario, units: str = "min") -> dict:
    """The file form of a scenario, with rates in 1/``units`` and times in
    ``units``; the blood sample times are written only when they differ
    from the tissue times."""
    scale = 1.0 if units == "min" else SECONDS_PER_MINUTE
    A, xi1, xi2 = scn.plasma.m
    grid = {"times": (scn.t_grid * scale).tolist(), "units": units}
    if not np.array_equal(scn.s_grid, scn.t_grid):
        grid["blood_times"] = (scn.s_grid * scale).tolist()
    return {
        "mode": scn.mode,
        "p": scn.p,
        "n": scn.n,
        "lambda": scn.c_art.coefficients.tolist(),
        "mu": (scn.c_art.exponents / scale).tolist(),
        "plasma": {"model": "biexp", "A": A, "xi1": xi1 / scale, "xi2": xi2 / scale},
        "regions": [
            {"K1": k.K1 / scale, "k2": k.k2 / scale, "k3": k.k3 / scale}
            for k in scn.kinetics
        ],
        "grid": grid,
    }


def scenario_from_dict(data: dict) -> Scenario:
    """Build a scenario from its file form, converting the declared grid
    unit (rates 1/unit, times in the unit) to the internal per-minute scale.

    Raises ``KeyError`` for a missing key or a plasma family other than
    ``"biexp"``, and ``ValueError`` for a key the file form does not have, a
    unit other than ``"min"`` or ``"s"``, a mode outside
    :data:`.forward.MODES`, or unless every value is finite, ``lambda`` and
    ``mu`` have matching lengths, and both time grids are nonnegative and
    strictly increasing.
    """
    _reject_unknown_keys(
        "scenario", data, ("mode", "p", "n", "lambda", "mu", "plasma", "regions", "grid")
    )
    grid = data.get("grid", {})
    _reject_unknown_keys("grid", grid, ("times", "units", "blood_times"))
    units = grid.get("units", "min")
    if units not in ("min", "s"):
        raise ValueError(f"unknown time unit {units!r}")
    scale = 1.0 if units == "min" else SECONDS_PER_MINUTE

    lam = np.asarray(data["lambda"], dtype=float)
    mu = np.asarray(data["mu"], dtype=float) * scale
    if "p" in data and int(data["p"]) != lam.size:
        raise ValueError("declared p does not match the lambda/mu length")
    spec = data["plasma"]
    _reject_unknown_keys("plasma", spec, ("model", "A", "xi1", "xi2"))
    # the amplitude is unitless, the two exponents are rates
    m = (float(spec["A"]), float(spec["xi1"]) * scale, float(spec["xi2"]) * scale)
    plasma = PlasmaParams(spec.get("model", "biexp"), m)
    for r in data["regions"]:
        _reject_unknown_keys("region", r, ("K1", "k2", "k3"))
    regions = tuple(
        KineticParams(
            float(r["K1"]) * scale, float(r["k2"]) * scale, float(r["k3"]) * scale
        )
        for r in data["regions"]
    )
    if "n" in data and int(data["n"]) != len(regions):
        raise ValueError("declared n does not match the number of regions")
    if "times" in grid:
        t_grid = np.asarray(grid["times"], dtype=float) / scale
    else:
        t_grid = build_time_grid() / SECONDS_PER_MINUTE
    s_grid = (
        np.asarray(grid["blood_times"], dtype=float) / scale
        if "blood_times" in grid
        else t_grid.copy()
    )
    _check_scenario_values(lam, mu, plasma.m, regions, t_grid, s_grid)
    return Scenario(
        c_art=PolyExp(list(zip(lam, mu))),
        plasma=plasma,
        kinetics=regions,
        t_grid=t_grid,
        s_grid=s_grid,
        mode=data.get("mode", "full"),
    )


def _reject_unknown_keys(where: str, data: dict, known) -> None:
    # a key this reader ignores would silently leave a default in its place
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ValueError(f"unknown {where} keys {unknown}")


def _check_scenario_values(lam, mu, m, regions, t_grid, s_grid):
    if lam.shape != mu.shape:
        raise ValueError(f"lambda has {lam.size} entries, mu has {mu.size}")
    rates = [[k.K1, k.k2, k.k3] for k in regions]
    for name, values in (
        ("lambda", lam), ("mu", mu), ("plasma parameters", m),
        ("region rates", rates), ("grid times", t_grid), ("blood times", s_grid),
    ):
        if not np.all(np.isfinite(values)):
            raise ValueError(f"{name} must be finite, got {np.asarray(values).tolist()}")
    for name, grid in (("grid times", t_grid), ("blood times", s_grid)):
        if np.any(grid < 0):
            raise ValueError(f"{name} must be nonnegative")
        if np.any(np.diff(grid) <= 0):
            raise ValueError(f"{name} must be strictly increasing")


def load_scenario(path) -> Scenario:
    with open(path) as fh:
        return scenario_from_dict(json.load(fh))


def simulate_ground_truth(scn: Scenario) -> tuple[ParamVector, MeasurementSet]:
    """Pack the true parameters and evaluate the noise-free measurements.

    The blood-coupling block of the result is exactly zero by construction
    of the blood values.
    """
    x_true = scn.true_vector()
    return x_true, apply_forward(x_true, scn.template())


def make_rng(seed) -> np.random.Generator:
    """Counter-based generator (Philox) behind all experiment randomness;
    fixed so that campaign outputs are reproducible bit for bit."""
    return np.random.Generator(np.random.Philox(seed))


def add_noise(y_true: MeasurementSet, delta_y: float, seed) -> MeasurementSet:
    """Add independent zero-mean Gaussian noise with variance
    ``delta_y^2 / (n T)`` to every tissue entry, so the expected squared
    perturbation of the whole vector is ``delta_y^2``.  The blood-coupling
    block (zero for consistent data) is left untouched."""
    if delta_y < 0:
        raise ValueError("delta_y must be nonnegative")
    if delta_y == 0.0:
        return y_true
    block = np.asarray(y_true.c_tis_block)
    sigma = delta_y / np.sqrt(block.size)
    noise = make_rng(seed).normal(0.0, sigma, size=block.shape)
    return replace(y_true, c_tis_block=block + noise)


def perturb_initial(
    x_true: ParamVector, delta_x: float, seed, epsilon: float = 1e-3,
    plasma_model: str = "biexp",
) -> ParamVector:
    """Componentwise relative perturbation of the true parameters,
    ``x0_i = x_i (1 + sigma_i gamma_i)`` with ``sigma_i`` a random sign and
    ``gamma_i ~ N(delta_x, delta_x / 4)`` (variance ``delta_x / 4``), then
    projected onto the admissible box (``plasma_model`` as in
    :func:`.forward.project_to_domain`)."""
    if delta_x < 0:
        raise ValueError("delta_x must be nonnegative")
    if delta_x == 0.0:
        return project_to_domain(x_true, epsilon, plasma_model)
    rng = make_rng(seed)
    dim = x_true.flat.size
    sign = rng.integers(0, 2, size=dim) * 2.0 - 1.0
    gamma = rng.normal(delta_x, np.sqrt(delta_x / 4.0), size=dim)
    perturbed = ParamVector(x_true.flat * (1.0 + sign * gamma), x_true.layout)
    return project_to_domain(perturbed, epsilon, plasma_model)


@dataclass(frozen=True)
class CampaignSpec:
    """One experiment cell: noise level, initialization level, mode,
    repetition count and base seed.  Per-repetition streams are derived as
    ``base_seed XOR r`` with separate substreams for the initialization draw
    and the noise draw, so repetitions are order-independent."""

    delta_y: float
    delta_x: float
    repetitions: int = 100
    mode: str = "full"
    seed: int = 0
    settings: IrgnmSettings | None = None

    def __post_init__(self):
        check_integer("repetitions", self.repetitions)
        check_integer("seed", self.seed)
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.delta_y < 0 or self.delta_x < 0:
            raise ValueError("noise and perturbation levels must be nonnegative")

    def resolved_settings(self) -> IrgnmSettings:
        if self.settings is not None:
            return self.settings
        return IrgnmSettings.for_noise(float(self.delta_y))


@dataclass
class CampaignSummary:
    """One cell's runs: ``records[r]`` is repetition ``r``'s record."""

    spec: CampaignSpec
    records: list[RunRecord]
    median_run: int | None

    @property
    def diverged_count(self) -> int:
        return sum(bool(record.diverged) for record in self.records)


def run_campaign(spec: CampaignSpec, scenario: Scenario) -> CampaignSummary:
    """Run one experiment cell.

    Every repetition draws its own initialization and noise; all
    repetitions then run as one batch of the solver.  A run is classified
    as diverged when no iterate improved on the initialization or when the
    iteration broke down numerically.  The representative ``median_run`` is
    the non-diverged repetition whose best improvement is closest to the
    median over non-diverged repetitions.
    """
    scenario = replace(scenario, mode=spec.mode)
    x_true, y_true = simulate_ground_truth(scenario)
    settings = spec.resolved_settings()

    starts, data = [], []
    for r in range(spec.repetitions):
        rep_seed = spec.seed ^ r
        starts.append(
            perturb_initial(x_true, spec.delta_x, [rep_seed, 0], settings.epsilon).flat
        )
        data.append(add_noise(y_true, spec.delta_y, [rep_seed, 1]))
    records = run_irgnm(
        ParamVector(np.stack(starts), x_true.layout),
        y_true.with_blocks(
            np.stack([y.c_tis_block for y in data]), np.stack([y.f2_block for y in data])
        ),
        settings,
        x_true=x_true,
    )
    survivors = [
        r for r, record in enumerate(records)
        if not record.diverged and record.rho_opt is not None
    ]
    median_run = None
    if survivors:
        rho = np.array([records[r].rho_opt for r in survivors])
        median = float(np.median(rho))
        median_run = survivors[int(np.argmin(np.abs(rho - median)))]
    return CampaignSummary(spec=spec, records=records, median_run=median_run)


def _fmt(value: float) -> str:
    """Shortest-safe text form: 17 significant digits round-trip a double."""
    return format(float(value), ".17g")


def write_trace(path, record: RunRecord) -> None:
    """Write a run's per-iteration ``iter,residual_norm,rel_error`` table as
    CSV; ``rel_error`` is empty for a run without the truth."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "residual_norm", "rel_error"])
        for k, res in enumerate(record.residual_norms):
            rel = _fmt(record.rel_errors[k]) if record.rel_errors is not None else ""
            writer.writerow([k, _fmt(res), rel])


def summary_to_dict(summary: CampaignSummary) -> dict:
    spec = summary.spec
    settings = spec.resolved_settings()
    return {
        "spec": {
            "delta_y": spec.delta_y,
            "delta_x": spec.delta_x,
            "repetitions": spec.repetitions,
            "mode": spec.mode,
            "seed": spec.seed,
            "settings": {
                "a": settings.a,
                "b": settings.b,
                "tau": settings.tau,
                "epsilon": settings.epsilon,
                "max_iter": settings.max_iter,
                "delta_estimate": settings.delta_estimate,
            },
        },
        "diverged_count": summary.diverged_count,
        "median_run": summary.median_run,
        "runs": [
            {
                "repetition": r,
                "diverged": bool(record.diverged),
                "stop_reason": record.stop_reason,
                "stop_iter": record.stop_iter,
                "final_residual": float(record.residual_norms[-1]),
                "rho_opt": record.rho_opt,
                "rho_d": record.rho_d,
                "rel_error_best": (
                    float(np.min(record.rel_errors))
                    if record.rel_errors is not None
                    else None
                ),
                "failure": record.failure,
            }
            for r, record in enumerate(summary.records)
        ],
    }


def emit_results(summaries: list[CampaignSummary], out_dir) -> list[Path]:
    """Write the outputs of campaign cells, one per cell in the given order:
    a row of the divergence-count table, the median run's per-iteration
    trace, and an entry of the JSON summary.  ``table1.csv`` and
    ``results.json`` are overwritten.  Returns the table, the traces in cell
    order, and ``results.json``.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    table = out / "table1.csv"
    with open(table, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["delta_y", "delta_x", "mode", "repetitions", "diverged", "median_run"]
        )
        for summary in summaries:
            spec = summary.spec
            writer.writerow(
                [
                    _fmt(spec.delta_y),
                    _fmt(spec.delta_x),
                    spec.mode,
                    spec.repetitions,
                    summary.diverged_count,
                    summary.median_run if summary.median_run is not None else "",
                ]
            )
    written = [table]

    for summary in summaries:
        if summary.median_run is None:
            continue
        spec = summary.spec
        trace = out / f"trace_{spec.mode}_dy{spec.delta_y:g}_dx{spec.delta_x:g}_run{summary.median_run}.csv"
        write_trace(trace, summary.records[summary.median_run])
        written.append(trace)

    results = out / "results.json"
    with open(results, "w") as fh:
        json.dump([summary_to_dict(summary) for summary in summaries], fh, indent=1)
    written.append(results)
    return written
