"""Command-line interface.

Subcommands:

* ``simulate``   -- evaluate a scenario's ground-truth curves and measurements
* ``identify``   -- fit kinetic parameters to measured or synthesized data
* ``check``      -- identifiability diagnostics for a scenario
* ``reproduce``  -- repeated-campaign tables and median-run traces
* ``jaccheck``   -- verify the analytic Jacobian against finite differences

Exit codes: 0 success, 1 usage error, 2 input parse error, 3 numerical
failure.  All randomness derives from ``--seed``; outputs are deterministic
functions of the inputs, written with 17 significant digits so reruns are
byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .experiments import (
    SECONDS_PER_MINUTE,
    _fmt,
    CampaignSpec,
    Scenario,
    add_noise,
    default_scenario,
    emit_results,
    load_scenario,
    perturb_initial,
    run_campaign,
    simulate_ground_truth,
    write_trace,
)
from .forward import MeasurementSet, ParamVector, finite_difference_check, project_to_domain
from .kinetics import DomainError, tissue_concentration
from .plasma import plasma_fraction
from .polyexp import eval_polyexp, has_distinct_rate_regions, region_diversity_report
from .solver import IrgnmSettings, run_irgnm

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_NUMERICAL = 3

DELTA_Y_GRID = (0.0, 1e-4, 1e-3, 1e-2)
DELTA_X_GRID = (0.01, 0.05, 0.1, 0.15)


class UsageError(Exception):
    pass


class CliParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _load_scenario_arg(path: str) -> Scenario:
    try:
        return load_scenario(path)
    except FileNotFoundError as exc:
        raise FileNotFoundError(f"scenario file not found: {path}") from exc
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise ParseFailure(f"cannot parse scenario {path}: {exc}") from exc


class ParseFailure(Exception):
    pass


def _settings_from_args(args, delta_y: float) -> IrgnmSettings:
    flags = dict(
        max_iter=args.max_iter, tau=args.tau, a=args.alpha_a, b=args.alpha_b,
        epsilon=args.epsilon,
    )
    try:
        return IrgnmSettings.for_noise(
            delta_y, **{key: v for key, v in flags.items() if v is not None}
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _param_names(layout) -> list[str]:
    names = [f"lambda{j + 1}" for j in range(layout.p)]
    names += [f"mu{j + 1}" for j in range(layout.p)]
    names += [f"m{j + 1}" for j in range(layout.q_hat)]
    for i in range(layout.n):
        names += [f"K1_{i + 1}", f"k2_{i + 1}", f"k3_{i + 1}"]
    return names


# -- simulate ------------------------------------------------------------------


def cmd_simulate(args) -> int:
    scenario = _load_scenario_arg(args.scenario)
    x_true, y_true = simulate_ground_truth(scenario)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    with open(out / "x_true.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["component", "value"])
        for name, value in zip(_param_names(x_true.layout), x_true.flat):
            writer.writerow([name, _fmt(value)])

    with open(out / "y_true.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["block", "region", "t_sec", "value"])
        T = scenario.t_grid.size
        for i in range(scenario.n):
            for l in range(T):
                writer.writerow(
                    [
                        "c_tis",
                        i + 1,
                        _fmt(scenario.t_grid[l] * SECONDS_PER_MINUTE),
                        _fmt(y_true.c_tis_block[i, l]),
                    ]
                )
        for l in range(scenario.s_grid.size):
            writer.writerow(
                [
                    "blood",
                    "",
                    _fmt(scenario.s_grid[l] * SECONDS_PER_MINUTE),
                    _fmt(y_true.f2_block[l]),
                ]
            )

    dense = np.linspace(0.0, scenario.t_grid[-1], 501)
    art = eval_polyexp(scenario.c_art, dense)
    f = plasma_fraction(scenario.plasma, dense)
    blood = np.where(f > 0, art / f, 0.0)
    tissue = [
        tissue_concentration(scenario.c_art, k, dense) for k in scenario.kinetics
    ]
    with open(out / "curves.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["t_sec", "t_min", "c_art", "f", "c_bl"]
            + [f"c_tis_{i + 1}" for i in range(scenario.n)]
        )
        for l, t in enumerate(dense):
            writer.writerow(
                [
                    _fmt(t * SECONDS_PER_MINUTE),
                    _fmt(t),
                    _fmt(art[l]),
                    _fmt(f[l]),
                    _fmt(blood[l]),
                ]
                + [_fmt(tis[l]) for tis in tissue]
            )

    print(f"wrote x_true.csv, y_true.csv ({y_true.flat().size} entries), curves.csv to {out}")
    return EXIT_OK


# -- identify ------------------------------------------------------------------


def _read_measurements(path: str, template: MeasurementSet, n: int) -> MeasurementSet:
    expected = n * template.n_times + template.q
    path = Path(path)
    try:
        if path.suffix == ".json":
            with open(path) as fh:
                payload = json.load(fh)
            raw = payload["y"] if isinstance(payload, dict) else payload
        else:
            with open(path, newline="") as fh:
                reader = csv.DictReader(fh)
                if reader.fieldnames is None or "value" not in reader.fieldnames:
                    raise ParseFailure(f"{path}: expected a 'value' column")
                raw = [row["value"] for row in reader]
        values = np.asarray([float(v) for v in raw])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseFailure(f"{path}: cannot read measurements: {exc}") from exc
    if values.size != expected:
        raise ParseFailure(
            f"{path}: {values.size} values, scenario requires {expected}"
        )
    if not np.all(np.isfinite(values)):
        bad = int(np.argmin(np.isfinite(values)))
        raise ParseFailure(f"{path}: value {bad} is not finite ({values[bad]})")
    nT = n * template.n_times
    return template.with_blocks(values[:nT].reshape(n, template.n_times), values[nT:])


def cmd_identify(args) -> int:
    scenario = _load_scenario_arg(args.scenario)
    if args.mode is not None:
        scenario = replace(scenario, mode=args.mode)
    settings = _settings_from_args(args, args.delta_y)
    x_true, y_true = simulate_ground_truth(scenario)
    if args.data is not None:
        y_delta = _read_measurements(args.data, scenario.template(), scenario.n)
    elif args.synthesize:
        y_delta = add_noise(y_true, args.delta_y, [args.seed, 1])
    else:
        raise UsageError("either --data PATH or --synthesize is required")
    x0 = perturb_initial(x_true, args.delta_x, [args.seed, 0], settings.epsilon)
    # measured data have no known truth: the scenario is only the prior
    record = run_irgnm(
        x0, y_delta, settings, x_true=x_true if args.data is None else None
    )

    lam, mu, m = record.final_x.lam, record.final_x.mu, record.final_x.m
    print(f"mode: {scenario.mode}")
    print(f"stop: {record.stop_reason} at iteration {record.stop_iter}")
    print(f"residual: {record.residual_norms[-1]:.6e}")
    if record.rel_errors is not None:
        print(f"rel_error: {record.rel_errors[-1]:.6e}")
    if record.rho_opt is not None:
        print(f"rho_opt: {record.rho_opt:.2f}%")
    if record.rho_d is not None:
        print(f"rho_d: {record.rho_d:.2f}%")
    print("lambda: " + " ".join(_fmt(v) for v in lam))
    print("mu (1/min): " + " ".join(_fmt(v) for v in mu))
    print("plasma m: " + " ".join(_fmt(v) for v in m))
    for i, row in enumerate(record.final_x.kinetic_block):
        print(
            f"region {i + 1}: K1={_fmt(row[0])} k2={_fmt(row[1])} k3={_fmt(row[2])} (1/min)"
        )

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    trace = out / "identify_trace.csv"
    write_trace(trace, record)
    print(f"trace written to {trace}")
    return EXIT_OK


# -- check ---------------------------------------------------------------------


def cmd_check(args) -> int:
    scenario = _load_scenario_arg(args.scenario)
    report = region_diversity_report(
        scenario.c_art.exponents,
        scenario.c_art.coefficients,
        scenario.kinetics,
    )
    print(f"region diversity: {'satisfied' if report.satisfied else 'VIOLATED'}")
    if report.satisfied:
        print(f"  margin: {report.margin:.3e}")
        for w in report.witnesses:
            print(
                f"  exponent {w.exponent_index + 1}: regions "
                f"{tuple(r + 1 for r in w.regions)} (margin {w.margin:.3e})"
            )
    else:
        for v in report.violations:
            print(f"  {v}")
    sufficient = has_distinct_rate_regions(scenario.kinetics, scenario.p)
    print(
        f"sufficient condition ({scenario.p + 3} regions with distinct rates): "
        f"{'satisfied' if sufficient else 'not satisfied'}"
    )
    T = scenario.t_grid.size
    needed = 2 * (scenario.p + 3)
    if T >= needed:
        print(f"time samples: T={T} >= {needed} OK")
    else:
        print(f"time samples: warning T={T} < {needed}")
    return EXIT_OK


# -- reproduce -------------------------------------------------------------------


def _cell_overrides(args) -> dict:
    """The campaign fields given on the command line."""
    given = dict(repetitions=args.repetitions, mode=args.mode, seed=args.seed)
    return {key: value for key, value in given.items() if value is not None}


#: Campaign-file keys besides the two levels: cell fields, solver settings.
CELL_KEYS = ("repetitions", "mode", "seed")
SETTINGS_KEYS = ("a", "b", "tau", "epsilon", "max_iter")


def _campaign_from_file(path: str, args) -> CampaignSpec:
    """The cell of a campaign file with the command-line overrides.  Unknown
    keys and non-finite levels are input errors, bad integers usage errors."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseFailure(f"cannot parse campaign {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseFailure(f"campaign {path} is not a JSON object")
    # a key this reader ignored would silently leave a default in its place
    unknown = sorted(set(data) - {"delta_y", "delta_x", *CELL_KEYS, *SETTINGS_KEYS})
    if unknown:
        raise ParseFailure(f"campaign {path} has unknown keys {unknown}")
    for key in ("delta_y", "delta_x", "a", "b", "tau", "epsilon"):
        value = data.get(key, 0.0)
        if type(value) not in (int, float) or not -np.inf < value < np.inf:
            raise ParseFailure(f"campaign {path}: {key} must be a finite number, got {value!r}")
    try:
        settings = IrgnmSettings.for_noise(
            data["delta_y"], **{key: data[key] for key in SETTINGS_KEYS if key in data}
        )
        fields = {key: data[key] for key in CELL_KEYS if key in data}
        return CampaignSpec(
            data["delta_y"], data["delta_x"], settings=settings,
            **{**fields, **_cell_overrides(args)},
        )
    except KeyError as exc:
        raise ParseFailure(f"campaign {path} is missing field {exc}") from exc
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def cmd_reproduce(args) -> int:
    if (args.campaign is None) == (not args.all):
        raise UsageError("exactly one of --campaign PATH or --all is required")
    if args.all and args.mode is not None:
        raise UsageError("--mode cannot be combined with --all, which runs both modes")
    if args.repetitions is not None and args.repetitions < 1:
        raise UsageError("--repetitions must be >= 1")
    scenario = (
        _load_scenario_arg(args.scenario) if args.scenario else default_scenario()
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for stale in [out / "table1.csv", out / "results.json", *out.glob("trace_*.csv")]:
        stale.unlink(missing_ok=True)

    if args.all:
        specs = [
            CampaignSpec(delta_y=dy, delta_x=dx, mode=mode, **_cell_overrides(args))
            for dy in DELTA_Y_GRID
            for dx in DELTA_X_GRID
            for mode in ("full", "known_cart")
        ]
    else:
        specs = [_campaign_from_file(args.campaign, args)]

    failures = 0
    summaries = []
    try:
        for spec in specs:
            label = f"delta_y={spec.delta_y:g} delta_x={spec.delta_x:g} mode={spec.mode}"
            try:
                summary = run_campaign(spec, scenario)
            except Exception as exc:  # keep remaining cells running
                failures += 1
                print(f"{label}: FAILED ({exc})", file=sys.stderr)
                continue
            summaries.append(summary)
            print(
                f"{label}: diverged {summary.diverged_count}/{spec.repetitions}, "
                f"median run {summary.median_run}"
            )
    finally:
        # an interrupted run still writes the cells it finished
        if summaries:
            emit_results(summaries, out)
    if failures:
        print(f"{failures} cell(s) failed", file=sys.stderr)
        return EXIT_NUMERICAL
    print(f"outputs in {out}")
    return EXIT_OK


# -- jaccheck --------------------------------------------------------------------


def run_jaccheck(
    scenario: Scenario,
    trials: int,
    tolerance: float,
    seed: int = 0,
    corrupt_entry: tuple[int, int, float] | None = None,
):
    """Compare the analytic Jacobian with central finite differences at
    random admissible points around the scenario truth.  Returns the worst
    check result.  ``corrupt_entry`` injects an error into the analytic
    Jacobian of the first trial (self-test of the comparison)."""
    template = scenario.template()
    x_true = scenario.true_vector()
    rng = np.random.Generator(np.random.Philox([seed, 2]))
    worst = None
    for trial in range(trials):
        flat = x_true.flat * (1.0 + 0.3 * rng.standard_normal(x_true.flat.size))
        x = project_to_domain(ParamVector(flat, x_true.layout))
        check = finite_difference_check(
            x,
            template,
            rtol=tolerance,
            corrupt_entry=corrupt_entry if trial == 0 else None,
        )
        if worst is None or check.max_rel_dev > worst.max_rel_dev or not check.passed:
            worst = check
        if not check.passed:
            break
    return worst


def cmd_jaccheck(args) -> int:
    if args.trials < 1:
        raise UsageError("--trials must be >= 1")
    scenario = (
        _load_scenario_arg(args.scenario) if args.scenario else default_scenario()
    )
    corrupt = tuple(args.corrupt) if args.corrupt else None
    if corrupt is not None:
        corrupt = (int(corrupt[0]), int(corrupt[1]), float(corrupt[2]))
    check = run_jaccheck(scenario, args.trials, args.tolerance, args.seed, corrupt)
    print(
        f"max relative deviation {check.max_rel_dev:.3e} over {args.trials} trials "
        f"({check.n_noise_limited} entries below the difference-quotient noise floor)"
    )
    if check.passed:
        print("jacobian check: PASS")
        return EXIT_OK
    print(f"jacobian check: FAIL (worst entry {check.worst_entry})")
    return EXIT_NUMERICAL


# -- entry point -----------------------------------------------------------------


def _seed(text: str) -> int:
    """A ``--seed`` value: Philox takes nonnegative integers only."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text!r}")
    return int(text)


def build_parser() -> CliParser:
    parser = CliParser(prog="petident", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, scenario_required=True):
        p.add_argument(
            "--scenario",
            required=scenario_required,
            help="scenario JSON file" + ("" if scenario_required else " (default: built-in)"),
        )
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=_seed, default=0, help="base RNG seed (>= 0)")

    p = sub.add_parser("simulate", help="evaluate ground-truth curves and measurements")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("identify", help="fit parameters to data")
    common(p)
    p.add_argument("--data", help="measurement file (CSV with a value column, or JSON)")
    p.add_argument("--synthesize", action="store_true", help="generate data from the scenario")
    p.add_argument("--delta-x", type=float, default=0.05, help="initialization perturbation level")
    p.add_argument("--delta-y", type=float, default=0.0, help="noise level for --synthesize")
    p.add_argument("--mode", choices=("full", "known_cart"))
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--alpha-a", type=float, default=None)
    p.add_argument("--alpha-b", type=float, default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--max-iter", type=int, default=None)
    p.set_defaults(func=cmd_identify)

    p = sub.add_parser("check", help="identifiability diagnostics")
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("reproduce", help="repeated campaigns and tables")
    common(p, scenario_required=False)
    p.add_argument("--campaign", help="campaign JSON file")
    p.add_argument("--all", action="store_true", help="run the full noise x perturbation x mode grid")
    p.add_argument("--repetitions", type=int, default=None)
    p.add_argument("--mode", choices=("full", "known_cart"), default=None)
    # without --seed, a campaign file's own seed applies
    p.set_defaults(func=cmd_reproduce, seed=None)

    p = sub.add_parser("jaccheck", help="finite-difference Jacobian verification")
    common(p, scenario_required=False)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--tolerance", type=float, default=1e-5)
    p.add_argument("--corrupt", nargs=3, metavar=("ROW", "COL", "AMOUNT"), default=None,
                   help="inject an error into the analytic Jacobian (self-test)")
    p.set_defaults(func=cmd_jaccheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseFailure, FileNotFoundError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (DomainError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
