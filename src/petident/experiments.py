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
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .forward import (
    DEFAULT_EPSILON, MODES, MeasurementSet, ParamVector, forward_vector, pack, project_to_domain,
)
from .kinetics import KineticParams
from .plasma import PlasmaParams, plasma_fraction
from .polyexp import PolyExp, eval_polyexp
from .solver import IrgnmSettings, RunRecord, check_integer, is_finite, run_irgnm

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

    Raises ``KeyError`` for a plasma family other than ``"biexp"``, and
    ``ValueError`` for a missing key (``lambda``, ``mu``, ``plasma`` and
    ``regions``, the plasma ``A``, ``xi1`` and ``xi2``, each region's
    ``K1``, ``k2`` and ``k3``), a key the file form does not have, a unit
    other than ``"min"`` or ``"s"``, a mode outside
    :data:`.forward.MODES`, or unless the top level, ``grid``, ``plasma``
    and each region are objects, every number is a finite JSON int or float
    (``lambda``, ``mu`` and both time grids flat lists of them, ``p`` and
    ``n`` integers) and stays finite in 1/min, ``lambda`` and ``mu`` have
    matching lengths, no zero weight and no two exponents within
    :data:`.polyexp.EQ_TOL`, ``lambda``, ``mu``, ``regions`` and both time
    grids are not empty, every region has a positive ``k2 + k3`` and no
    negative rate, the plasma parameters lie in their admissible set
    (``A >= 0``, ``xi1, xi2 <= 0``), both time grids are nonnegative and
    strictly increasing, the plasma fraction is positive at every blood
    sample time, and the noise-free measurements are all finite in both
    modes.
    """
    _check_object(
        "scenario", data, ("mode", "p", "n", "grid"), ("lambda", "mu", "plasma", "regions")
    )
    grid = _check_object("grid", data.get("grid", {}), ("times", "units", "blood_times"))
    units = grid.get("units", "min")
    if units not in ("min", "s"):
        raise ValueError(f"unknown time unit {units!r}")
    scale = 1.0 if units == "min" else SECONDS_PER_MINUTE
    for key in ("p", "n"):
        if key in data:
            check_integer(key, data[key])

    lam = _numbers("lambda", data["lambda"])
    mu = _numbers("mu", data["mu"], scale)
    if "p" in data and data["p"] != lam.size:
        raise ValueError("declared p does not match the lambda/mu length")
    spec = _check_object("plasma", data["plasma"], ("model",), ("A", "xi1", "xi2"))
    # the amplitude is unitless, the two exponents are rates; the admissible
    # plasma set is A >= 0, xi1 <= 0, xi2 <= 0
    m = tuple(
        _number(f"plasma {name}", spec[name], 1.0 if name == "A" else scale)
        for name in ("A", "xi1", "xi2")
    )
    if m[0] < 0:
        raise ValueError(f"plasma A must be nonnegative, got {spec['A']}")
    for name, xi in zip(("xi1", "xi2"), m[1:]):
        if xi > 0:
            raise ValueError(f"plasma {name} must not be positive, got {spec[name]} 1/{units}")
    plasma = PlasmaParams(spec.get("model", "biexp"), m)
    if type(data["regions"]) is not list:
        raise ValueError(f"regions must be a list of objects, got {data['regions']!r}")
    if not data["regions"]:
        raise ValueError("regions must not be empty")
    regions = []
    for number, r in enumerate(data["regions"], start=1):
        _check_object(f"region {number}", r, (), ("K1", "k2", "k3"))
        k = KineticParams(
            *(_number(f"region {number} {name}", r[name], scale) for name in ("K1", "k2", "k3"))
        )
        # the closed forms divide by the clearance k2 + k3, and the solver's
        # box holds no negative rate
        where = f"region {number} of {len(data['regions'])}"
        if not k.beta > 0:
            raise ValueError(
                f"k2 + k3 must be positive in every region, {where} "
                f"has k2 + k3 = {float(r['k2']) + float(r['k3'])} 1/{units}"
            )
        for name in ("K1", "k2", "k3"):
            if getattr(k, name) < 0:
                raise ValueError(
                    f"rates must be nonnegative, {where} has {name} = {float(r[name])} 1/{units}"
                )
        regions.append(k)
    if "n" in data and data["n"] != len(regions):
        raise ValueError("declared n does not match the number of regions")
    if "times" in grid:
        t_grid = _numbers("times", grid["times"]) / scale
    else:
        t_grid = build_time_grid() / SECONDS_PER_MINUTE
    s_grid = (
        _numbers("blood_times", grid["blood_times"]) / scale
        if "blood_times" in grid
        else t_grid.copy()
    )
    if lam.shape != mu.shape:  # zip would drop the extra entries
        raise ValueError(f"lambda has {lam.size} entries, mu has {mu.size}")
    c_art = PolyExp(list(zip(lam, mu)))
    for name, grid in (("grid times", t_grid), ("blood times", s_grid)):
        if np.any(grid < 0):
            raise ValueError(f"{name} must be nonnegative")
        if np.any(np.diff(grid) <= 0):
            raise ValueError(f"{name} must be strictly increasing")
    # full-mode blood data are C_art / f, so f must be positive where sampled
    f = plasma_fraction(plasma, s_grid)
    if not np.all(f > 0):
        first = int(np.argmin(f > 0))
        raise ValueError(
            f"plasma parameters (A, xi1, xi2) = {spec['A']}, {spec['xi1']}, {spec['xi2']} "
            f"give plasma fraction {f[first]} at blood time {s_grid[first] * scale} {units}"
        )
    scenario = Scenario(
        c_art=c_art,
        plasma=plasma,
        kinetics=regions,
        t_grid=t_grid,
        s_grid=s_grid,
        mode=data.get("mode", "full"),
    )
    # finite rates can still overflow the data: a clearance k2 + k3 beyond
    # the largest double, or a growing exponent over a long grid.  Commands
    # can switch the mode, so both modes are checked, the file's own first.
    for mode in sorted(MODES, key=lambda m: m != scenario.mode):
        with np.errstate(over="ignore", invalid="ignore"):
            values = simulate_ground_truth(replace(scenario, mode=mode))[1].flat()
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            first, T = int(bad[0]), t_grid.size
            where = (
                f"region {first // T + 1} at time {t_grid[first % T] * scale:g} {units}"
                if first < len(regions) * T
                else f"blood time {s_grid[first - len(regions) * T] * scale:g} {units}"
            )
            other = "" if mode == scenario.mode else f" in {mode} mode"
            raise ValueError(
                f"noise-free measurements must be finite{other}, {where} gives {values[first]}"
            )
    return scenario


def _number(key: str, value, scale: float = 1.0) -> float:
    """``value`` times ``scale``, the file's unit in 1/min: a finite JSON
    number (an int or a float, not a bool, a string or an int too large for
    a float) whose product stays finite."""
    if not (type(value) in (int, float) and is_finite(value)):
        raise ValueError(f"{key} must be a finite number, got {value!r}")
    scaled = float(value) * scale
    if not is_finite(scaled):
        raise ValueError(f"{key} = {value!r} overflows in 1/min")
    return scaled


def _numbers(key: str, values, scale: float = 1.0) -> np.ndarray:
    """A nonempty JSON list of :func:`_number` entries, each times ``scale``."""
    if type(values) is not list:
        raise ValueError(f"{key} must be a flat list of finite numbers, got {values!r}")
    if not values:
        raise ValueError(f"{key} must not be empty")
    return np.array([_number(f"{key} entry {i}", v, scale) for i, v in enumerate(values)])


def _check_object(where: str, data, optional, required=()) -> dict:
    """``data``, unless it is not a JSON object, has a key in neither
    ``optional`` nor ``required``, or lacks one of ``required``."""
    if type(data) is not dict:
        raise ValueError(f"{where} must be an object, got {type(data).__name__}")
    # a key this reader ignores would silently leave a default in its place
    unknown = sorted(set(data) - set(optional) - set(required))
    if unknown:
        raise ValueError(f"unknown {where} keys {unknown}")
    missing = [key for key in required if key not in data]
    if missing:
        raise ValueError(f"{where} is missing {', '.join(missing)}")
    return data


def simulate_ground_truth(scn: Scenario) -> tuple[ParamVector, MeasurementSet]:
    """Pack the true parameters and evaluate the noise-free measurements.

    The blood-coupling block of the result is zero up to rounding in
    ``full`` mode, where the blood values ``C_art / f`` are multiplied by
    ``f`` again, and exactly zero in ``known_cart``.
    """
    x_true, template = scn.true_vector(), scn.template()
    return x_true, template.with_flat(forward_vector(x_true, template))


def make_rng(seed) -> np.random.Generator:
    """Counter-based generator (Philox) behind all experiment randomness;
    fixed so that campaign outputs are reproducible bit for bit."""
    return np.random.Generator(np.random.Philox(seed))


def add_noise(y_true: MeasurementSet, delta_y: float, seed) -> MeasurementSet:
    """Add independent zero-mean Gaussian noise with variance
    ``delta_y^2 / (n T)`` to every tissue entry, so the expected squared
    perturbation of the whole vector is ``delta_y^2``.  The blood-coupling
    block (zero for consistent data) is left untouched.  The result is a
    copy, also at ``delta_y = 0``, where the draw is exact zeros."""
    if not (is_finite(delta_y) and delta_y >= 0):
        raise ValueError(f"delta_y must be finite and nonnegative, got {delta_y}")
    noisy = y_true.with_flat(y_true.flat().copy())
    tissue = noisy.c_tis_block  # a view: the draw lands in noisy's vector
    tissue += make_rng(seed).normal(0.0, delta_y / np.sqrt(tissue.size), size=tissue.shape)
    return noisy


def perturb_initial(
    x_true: ParamVector, delta_x: float, seed, epsilon: float = DEFAULT_EPSILON,
    plasma_model: str = "biexp",
) -> ParamVector:
    """Componentwise relative perturbation of the true parameters,
    ``x0_i = x_i (1 + sigma_i gamma_i)`` with ``sigma_i`` a random sign and
    ``gamma_i ~ N(delta_x, delta_x / 4)`` (variance ``delta_x / 4``), then
    projected onto the admissible box (``plasma_model`` as in
    :func:`.forward.project_to_domain`)."""
    if not (is_finite(delta_x) and delta_x >= 0):
        raise ValueError(f"delta_x must be finite and nonnegative, got {delta_x}")
    rng = make_rng(seed)
    dim = x_true.flat.size
    sign = rng.integers(0, 2, size=dim) * 2.0 - 1.0
    gamma = rng.normal(delta_x, np.sqrt(delta_x / 4.0), size=dim)
    perturbed = ParamVector(x_true.flat * (1.0 + sign * gamma), x_true.layout)
    return project_to_domain(perturbed, epsilon, plasma_model)


def draw_inputs(x_true, y_true, delta_x, delta_y, seed, r, epsilon):
    """Repetition ``r``'s start and noisy data at base seed ``seed``, keyed
    here only: the start perturbs ``x_true`` by Philox stream ``[seed ^ r, 0]``,
    the noise on ``y_true`` comes from ``[seed ^ r, 1]``."""
    return (
        perturb_initial(x_true, delta_x, [seed ^ r, 0], epsilon),
        add_noise(y_true, delta_y, [seed ^ r, 1]),
    )


@dataclass(frozen=True)
class CampaignSpec:
    """One experiment cell: noise level, initialization level, mode,
    repetition count and base seed.  Repetition ``r`` draws its inputs by
    :func:`draw_inputs` from ``(seed, r)`` alone, so repetitions are
    order-independent."""

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
        for name, level in (("delta_y", self.delta_y), ("delta_x", self.delta_x)):
            if not (is_finite(level) and level >= 0):
                raise ValueError(f"{name} must be finite and nonnegative, got {level!r}")
            object.__setattr__(self, name, float(level))

    def resolved_settings(self) -> IrgnmSettings:
        if self.settings is not None:
            return self.settings
        return IrgnmSettings.for_noise(self.delta_y)


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

    draws = [
        draw_inputs(x_true, y_true, spec.delta_x, spec.delta_y, spec.seed, r, settings.epsilon)
        for r in range(spec.repetitions)
    ]
    records = run_irgnm(
        ParamVector(np.stack([x0.flat for x0, _ in draws]), x_true.layout),
        y_true.with_flat(np.stack([y.flat() for _, y in draws])),
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


def write_table(path, header, rows) -> None:
    """Write ``header`` and ``rows`` as CSV; every float cell, Python or
    NumPy, is written as :func:`_fmt` text and every other cell as ``csv``
    writes it."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(
            [_fmt(cell) if isinstance(cell, (float, np.floating)) else cell for cell in row]
            for row in rows
        )


def write_trace(path, record: RunRecord) -> None:
    """Write a run's per-iteration ``iter,residual_norm,rel_error`` table as
    CSV; ``rel_error`` is empty for a run without the truth."""
    residuals = record.residual_norms
    rel = record.rel_errors if record.rel_errors is not None else [""] * len(residuals)
    rows = zip(range(len(residuals)), residuals, rel)
    write_table(path, ["iter", "residual_norm", "rel_error"], rows)


def _json_number(value) -> float | None:
    """``value`` as a JSON number, or ``None`` (``null``) where it is
    missing or not finite: strict JSON has no NaN or infinity."""
    return float(value) if value is not None and is_finite(value) else None


def summary_to_dict(summary: CampaignSummary) -> dict:
    spec = summary.spec
    return {
        "spec": {**asdict(spec), "settings": asdict(spec.resolved_settings())},
        "diverged_count": summary.diverged_count,
        "median_run": summary.median_run,
        "runs": [
            {
                "repetition": r,
                "diverged": bool(record.diverged),
                "stop_reason": record.stop_reason,
                "stop_iter": record.stop_iter,
                "final_residual": _json_number(record.residual_norms[-1]),
                "rho_opt": _json_number(record.rho_opt),
                "rho_d": _json_number(record.rho_d),
                "rel_error_best": _json_number(np.min(record.rel_errors)),
                "failure": record.failure,
            }
            for r, record in enumerate(summary.records)
        ],
    }


def remove_results(out_dir) -> None:
    """Remove from ``out_dir`` every output that :func:`emit_results` writes,
    so that none of an earlier run is left beside a new run's."""
    out = Path(out_dir)
    for stale in [out / "table1.csv", out / "results.json", *out.glob("trace_*.csv")]:
        stale.unlink(missing_ok=True)


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
    header = ["delta_y", "delta_x", "mode", "repetitions", "diverged", "median_run"]
    write_table(table, header, [
        [s.spec.delta_y, s.spec.delta_x, s.spec.mode, s.spec.repetitions,
         s.diverged_count, "" if s.median_run is None else s.median_run]
        for s in summaries
    ])
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
        json.dump([summary_to_dict(summary) for summary in summaries], fh, indent=1, allow_nan=False)
    written.append(results)
    return written
