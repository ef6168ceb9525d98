"""Scenario construction, synthetic measurement generation and repeated
solver campaigns with divergence accounting.

A :class:`Scenario` bundles the ground-truth arterial curve, plasma-fraction
parameters, per-region kinetics and the measurement grids.  Campaigns draw a
perturbed initial guess and a noise realization per repetition from
independent counter-based random streams, run the solver, classify each run
as diverged or not (no iterate improved on the initialization), and report
per-run digests plus the representative run closest to the median
improvement.

Internally all times are in minutes and all rates in 1/min: the solver's
regularization schedule and the admissible-domain floor are calibrated to
the per-minute magnitude of the rate constants.  Scenario files declare
their unit (``"min"`` or ``"s"``) and are converted on load;
:func:`build_time_grid` returns seconds per its interface contract.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .forward import MeasurementSet, ParamVector, apply_forward, pack, project_to_domain
from .kinetics import KineticParams
from .plasma import PlasmaParams, get_family, plasma_fraction
from .polyexp import PolyExp, eval_polyexp
from .solver import IrgnmSettings, RunRecord, run_irgnm

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


def build_time_grid(segments=GRID_SEGMENTS_MINUTES) -> np.ndarray:
    """Measurement time grid in seconds (default: 25 points, 0 .. 3750 s)."""
    points: list[float] = []
    for start, end, count in segments:
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

    @property
    def p(self) -> int:
        return self.c_art.degree

    @property
    def n(self) -> int:
        return len(self.kinetics)

    @property
    def q_hat(self) -> int:
        return get_family(self.plasma.model_id).n_params

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
            plasma_model=self.plasma.model_id,
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
    scale = 1.0 if units == "min" else SECONDS_PER_MINUTE
    if scn.plasma.model_id == "biexp":
        A, xi1, xi2 = scn.plasma.m
        plasma = {"model": "biexp", "A": A, "xi1": xi1 / scale, "xi2": xi2 / scale}
    else:
        if scale != 1.0:
            raise ValueError("non-biexp scenarios must be written in minutes")
        plasma = {"model": scn.plasma.model_id, "m": list(scn.plasma.m)}
    return {
        "mode": scn.mode,
        "p": scn.p,
        "n": scn.n,
        "lambda": scn.c_art.coefficients.tolist(),
        "mu": (scn.c_art.exponents / scale).tolist(),
        "plasma": plasma,
        "regions": [
            {"K1": k.K1 / scale, "k2": k.k2 / scale, "k3": k.k3 / scale}
            for k in scn.kinetics
        ],
        "grid": {"times": (scn.t_grid * scale).tolist(), "units": units},
    }


def scenario_from_dict(data: dict) -> Scenario:
    """Build a scenario from its file form, converting declared units
    (rates 1/unit, times in the unit) to the internal per-minute scale.

    Raises ``ValueError`` unless every value is finite, ``lambda`` and
    ``mu`` (and the plasma parameters and their family) have matching
    lengths, and both time grids are nonnegative and strictly increasing.
    """
    units = data.get("grid", {}).get("units", data.get("units", "min"))
    if units in ("min", "minute", "minutes"):
        scale = 1.0
    elif units in ("s", "sec", "second", "seconds"):
        scale = SECONDS_PER_MINUTE
    else:
        raise ValueError(f"unknown time unit {units!r}")

    if "arterial" in data:
        # alternative arterial form: list of {lambda, mu} records
        lam = np.asarray([rec["lambda"] for rec in data["arterial"]], dtype=float)
        mu = np.asarray([rec["mu"] for rec in data["arterial"]], dtype=float) * scale
    else:
        lam = np.asarray(data["lambda"], dtype=float)
        mu = np.asarray(data["mu"], dtype=float) * scale
    if "p" in data and int(data["p"]) != lam.size:
        raise ValueError("declared p does not match the lambda/mu length")
    plasma_spec = data["plasma"]
    model = plasma_spec.get("model", "biexp")
    if "m" in plasma_spec:
        m_raw = [float(v) for v in plasma_spec["m"]]
    else:
        m_raw = [float(plasma_spec["A"]), float(plasma_spec["xi1"]), float(plasma_spec["xi2"])]
    if model == "biexp":
        # the amplitude is unitless, the two exponents are rates
        m = [m_raw[0], m_raw[1] * scale, m_raw[2] * scale]
    elif scale == 1.0:
        m = m_raw
    else:
        raise ValueError("non-biexp scenarios must be declared in minutes")
    regions = tuple(
        KineticParams(
            float(r["K1"]) * scale, float(r["k2"]) * scale, float(r["k3"]) * scale
        )
        for r in data["regions"]
    )
    if "n" in data and int(data["n"]) != len(regions):
        raise ValueError("declared n does not match the number of regions")
    grid = data.get("grid", {})
    if "times" in grid:
        t_grid = np.asarray(grid["times"], dtype=float) / scale
    elif "segments" in grid:
        t_grid = build_time_grid(
            [tuple(seg) for seg in grid["segments"]]
        ) / SECONDS_PER_MINUTE
        if units != "min":
            raise ValueError("grid segments are specified in minutes")
    else:
        t_grid = build_time_grid() / SECONDS_PER_MINUTE
    s_grid = (
        np.asarray(grid["blood_times"], dtype=float) / scale
        if "blood_times" in grid
        else t_grid.copy()
    )
    _check_scenario_values(
        lam, mu, m, get_family(model).n_params, regions, t_grid, s_grid
    )
    return Scenario(
        c_art=PolyExp(list(zip(lam, mu))),
        plasma=PlasmaParams(model, m),
        kinetics=regions,
        t_grid=t_grid,
        s_grid=s_grid,
        mode=data.get("mode", "full"),
    )


def _check_scenario_values(lam, mu, m, n_params, regions, t_grid, s_grid):
    if lam.shape != mu.shape:
        raise ValueError(f"lambda has {lam.size} entries, mu has {mu.size}")
    if len(m) != n_params:
        raise ValueError(f"plasma family takes {n_params} parameters, got {len(m)}")
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
    projected onto the admissible box."""
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
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.delta_y < 0 or self.delta_x < 0:
            raise ValueError("noise and perturbation levels must be nonnegative")

    def resolved_settings(self) -> IrgnmSettings:
        if self.settings is not None:
            return self.settings
        return IrgnmSettings.for_noise(float(self.delta_y))


@dataclass
class RunDigest:
    """Summary of one repetition."""

    repetition: int
    diverged: bool
    stop_reason: str
    stop_iter: int
    final_residual: float
    rho_opt: float | None
    rho_d: float | None
    rel_error_best: float | None
    failure: str | None = None


@dataclass
class CampaignSummary:
    spec: CampaignSpec
    diverged_count: int
    digests: list[RunDigest]
    records: list[RunRecord | None]
    median_run: int | None

    @property
    def repetitions(self) -> int:
        return len(self.digests)


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
            perturb_initial(
                x_true, spec.delta_x, [rep_seed, 0], settings.epsilon,
                scenario.plasma.model_id,
            ).flat
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
    digests = [
        RunDigest(
            repetition=r,
            diverged=bool(record.diverged),
            stop_reason=record.stop_reason,
            stop_iter=record.stop_iter,
            final_residual=float(record.residual_norms[-1]),
            rho_opt=record.rho_opt,
            rho_d=record.rho_d,
            rel_error_best=(
                float(np.min(record.rel_errors))
                if record.rel_errors is not None
                else None
            ),
            failure=record.failure,
        )
        for r, record in enumerate(records)
    ]

    diverged_count = sum(d.diverged for d in digests)
    survivors = [d for d in digests if not d.diverged and d.rho_opt is not None]
    median_run = None
    if survivors:
        rho = np.array([d.rho_opt for d in survivors])
        median = float(np.median(rho))
        median_run = survivors[int(np.argmin(np.abs(rho - median)))].repetition
    return CampaignSummary(
        spec=spec,
        diverged_count=diverged_count,
        digests=digests,
        records=records,
        median_run=median_run,
    )


def _fmt(value: float) -> str:
    """Shortest-safe text form: 17 significant digits round-trip a double."""
    return format(float(value), ".17g")


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
                "repetition": d.repetition,
                "diverged": d.diverged,
                "stop_reason": d.stop_reason,
                "stop_iter": d.stop_iter,
                "final_residual": d.final_residual,
                "rho_opt": d.rho_opt,
                "rho_d": d.rho_d,
                "rel_error_best": d.rel_error_best,
                "failure": d.failure,
            }
            for d in summary.digests
        ],
    }


def load_results(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _cell_key(entry: dict) -> tuple:
    spec = entry["spec"]
    return tuple(spec[k] for k in ("delta_y", "delta_x", "mode", "repetitions", "seed"))


def emit_results(summary: CampaignSummary, out_dir) -> list[Path]:
    """Write the campaign outputs: divergence-count table row, the median
    run's per-iteration trace, and the full JSON summary.

    ``results.json`` holds one entry per cell ``(delta_y, delta_x, mode,
    repetitions, seed)``: emitting a cell again replaces its entry, so
    re-running a cell leaves the files as one run leaves them.  The table
    is rewritten from those entries, one row per cell in entry order.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    spec = summary.spec
    written: list[Path] = []

    results = out / "results.json"
    entries = []
    if results.exists():
        loaded = load_results(results)
        entries = loaded if isinstance(loaded, list) else [loaded]
    entry = summary_to_dict(summary)
    keys = [_cell_key(e) for e in entries]
    if _cell_key(entry) in keys:
        entries[keys.index(_cell_key(entry))] = entry
    else:
        entries.append(entry)

    table = out / "table1.csv"
    with open(table, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["delta_y", "delta_x", "mode", "repetitions", "diverged", "median_run"]
        )
        for e in entries:
            writer.writerow(
                [
                    _fmt(e["spec"]["delta_y"]),
                    _fmt(e["spec"]["delta_x"]),
                    e["spec"]["mode"],
                    e["spec"]["repetitions"],
                    e["diverged_count"],
                    e["median_run"] if e["median_run"] is not None else "",
                ]
            )
    written.append(table)

    if summary.median_run is not None:
        record = summary.records[summary.median_run]
        trace = out / f"trace_{spec.mode}_dy{spec.delta_y:g}_dx{spec.delta_x:g}_run{summary.median_run}.csv"
        with open(trace, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iter", "residual_norm", "rel_error"])
            for k, res in enumerate(record.residual_norms):
                rel = record.rel_errors[k] if record.rel_errors is not None else ""
                writer.writerow(
                    [k, _fmt(float(res)), _fmt(float(rel)) if rel != "" else ""]
                )
        written.append(trace)

    with open(results, "w") as fh:
        json.dump(entries, fh, indent=1)
    written.append(results)
    return written
