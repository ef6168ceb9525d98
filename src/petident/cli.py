"""Command-line interface.

Subcommands and their flags (any other flag is a usage error; without
``--scenario``, each runs the built-in reference scenario):

* ``simulate [--scenario --out]`` -- a scenario's ground-truth curves and measurements
* ``identify (--data | --synthesize) [--scenario --out --seed --delta-x --delta-y
  --mode --tau --alpha-a --alpha-b --epsilon --max-iter]`` -- fit kinetic parameters
* ``check [--scenario]`` -- identifiability diagnostics for a scenario
* ``reproduce (--campaign | --all) [--scenario --out --seed --repetitions --mode]``
  -- repeated-campaign tables and median-run traces of the cells of a campaign
  file (one cell or a list of cells), or of the built-in list of 32 cells
* ``jaccheck [--scenario --seed --trials --tolerance --corrupt]`` -- verify the
  analytic Jacobian against finite differences

Exit codes: 0 success, 1 usage error (a bad flag), 2 input parse error (a
scenario, campaign or data file that is missing, cannot be read or has a
fault inside), 3 numerical failure (a ``jaccheck`` FAIL, an ``identify`` run
stopped as ``failure``, a ``reproduce`` cell that raised).  All randomness
derives from ``--seed``: ``identify --synthesize`` draws what repetition 0 of
a one-cell campaign at that seed draws.  Outputs are deterministic functions
of the inputs, so reruns are byte-identical: CSVs carry 17 significant digits,
``results.json`` is strict JSON.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace
from functools import partial
from itertools import product
from pathlib import Path

import numpy as np

from .experiments import (
    SECONDS_PER_MINUTE,
    _check_object,
    _fmt,
    _number,
    _numbers,
    CampaignSpec,
    Scenario,
    default_scenario,
    draw_inputs,
    emit_results,
    make_rng,
    run_campaign,
    scenario_from_dict,
    simulate_ground_truth,
    write_table,
    write_trace,
)
from .forward import (
    MODES,
    JacobianCheck,
    MeasurementSet,
    ParamVector,
    finite_difference_check,
    jacobian,
    numerical_rank,
    project_to_domain,
)
from .plasma import plasma_fraction
from .polyexp import eval_polyexp, has_distinct_rate_regions, region_diversity_report
from .solver import IrgnmSettings, is_finite, run_irgnm

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_NUMERICAL = 3

#: The built-in campaign of ``reproduce --all``: the cells of the paper's Table 1.
ALL_CELLS = [{"delta_y": dy, "delta_x": dx, "mode": mode} for dy, dx, mode in product(
    (0.0, 1e-4, 1e-3, 1e-2), (0.01, 0.05, 0.1, 0.15), MODES)]


class UsageError(Exception):
    pass


class CliParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


class ParseFailure(Exception):
    pass


def _read_file(kind: str, path: str, build, parse=json.load):
    """``build`` applied to ``parse`` of a ``kind`` file: a file that cannot
    be read, or any fault inside it, is an input error that names the file."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return build(parse(fh))
    except FileNotFoundError as exc:
        raise FileNotFoundError(f"{kind} file not found: {path}") from exc
    # JSONDecodeError and UnicodeDecodeError are ValueErrors
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise ParseFailure(f"cannot parse {kind} {path}: {exc}") from exc


def _scenario(args) -> Scenario:
    """The ``--scenario`` file, or the built-in scenario without one."""
    if args.scenario is None:
        return default_scenario()
    return _read_file("scenario", args.scenario, scenario_from_dict)


#: The solver settings that ``identify``'s flags and a campaign file set,
#: and the cell fields that ``reproduce``'s flags and a campaign file set.
SETTINGS_KEYS = ("a", "b", "tau", "epsilon", "max_iter")
CELL_KEYS = ("repetitions", "mode", "seed")


def _given(args, keys) -> dict:
    """The fields among ``keys`` given on the command line."""
    return {key: getattr(args, key) for key in keys if getattr(args, key) is not None}


def _out_dir(path: str) -> Path:
    """``--out`` made a directory, before any work that would write there."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"--out {path} cannot be a directory: {exc}") from exc
    return out


# -- simulate ------------------------------------------------------------------


def cmd_simulate(args) -> int:
    scenario = _scenario(args)
    out = _out_dir(args.out)
    x_true, y_true = simulate_ground_truth(scenario)

    names = x_true.layout.names()
    write_table(out / "x_true.csv", ["component", "value"], zip(names, x_true.flat))
    t_sec, s_sec = scenario.t_grid * SECONDS_PER_MINUTE, scenario.s_grid * SECONDS_PER_MINUTE
    rows = [
        ("c_tis", i + 1, t, value)
        for i, block in enumerate(y_true.c_tis_block)
        for t, value in zip(t_sec, block)
    ]
    rows += [("blood", "", s, value) for s, value in zip(s_sec, y_true.f2_block)]
    write_table(out / "y_true.csv", ["block", "region", "t_sec", "value"], rows)

    dense = np.linspace(0.0, scenario.t_grid[-1], 501)
    art = eval_polyexp(scenario.c_art, dense)
    f = plasma_fraction(scenario.plasma, dense)
    # c_bl is 0 where f underflows to 0, and inf where C_art / f overflows
    with np.errstate(over="ignore"):
        c_bl = np.divide(art, f, out=np.zeros_like(art), where=f > 0)
    # the tissue curves through the forward map, as in y_true.csv
    _, y_dense = simulate_ground_truth(replace(scenario, t_grid=dense))
    columns = [dense * SECONDS_PER_MINUTE, dense, art, f, c_bl, *y_dense.c_tis_block]
    header = ["t_sec", "t_min", "c_art", "f", "c_bl"]
    header += [f"c_tis_{i + 1}" for i in range(scenario.n)]
    write_table(out / "curves.csv", header, np.column_stack(columns))

    print(f"wrote x_true.csv, y_true.csv ({y_true.flat().size} entries), curves.csv to {out}")
    return EXIT_OK


# -- identify ------------------------------------------------------------------


def _csv_values(fh) -> list[float]:
    reader = csv.DictReader(fh)
    if reader.fieldnames is None or "value" not in reader.fieldnames:
        raise ValueError("expected a 'value' column")
    return [float(row["value"]) for row in reader]


def _read_measurements(path: str, like: MeasurementSet) -> MeasurementSet:
    """The ``--data`` file: a CSV ``value`` column, or a JSON list, bare or
    as the only key ``"y"`` of an object, of finite numbers, as many as
    ``like`` holds."""
    expected = like.flat().size

    def build(payload) -> MeasurementSet:
        if type(payload) is dict:
            payload = _check_object("data", payload, (), ("y",))["y"]
        values = _numbers("y", payload)
        if values.size != expected:
            raise ValueError(f"{values.size} values, scenario requires {expected}")
        return like.with_flat(values)

    parse = json.load if Path(path).suffix == ".json" else _csv_values
    return _read_file("data", path, build, parse)


def cmd_identify(args) -> int:
    for flag, level in (("--delta-x", args.delta_x), ("--delta-y", args.delta_y)):
        if not (is_finite(level) and level >= 0):
            raise UsageError(f"{flag} must be finite and nonnegative, got {level}")
    scenario = _scenario(args)
    if args.mode is not None:
        scenario = replace(scenario, mode=args.mode)
    try:
        settings = IrgnmSettings.for_noise(args.delta_y, **_given(args, SETTINGS_KEYS))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    x_true, y_true = simulate_ground_truth(scenario)
    if not args.synthesize:
        measured = _read_measurements(args.data, y_true)
    out = _out_dir(args.out)
    x0, y_delta = draw_inputs(
        x_true, y_true, args.delta_x, args.delta_y, args.seed, 0, settings.epsilon
    )
    if not args.synthesize:  # no known truth: the scenario is only the prior
        y_delta, x_true = measured, None
    record = run_irgnm(x0, y_delta, settings, x_true=x_true)

    lam, mu, m = record.final_x.lam, record.final_x.mu, record.final_x.m
    print(f"mode: {scenario.mode}")
    print(f"stop: {record.stop_reason} at iteration {record.stop_iter}")
    if record.failure is not None:
        print(f"failure: {record.failure}")
    print(f"residual: {record.residual_norms[-1]:.6e}")
    # the local uniqueness of the answer: the rank of the Jacobian at it,
    # without the plasma columns that known_cart mode zeroes
    J, _ = jacobian(record.final_x, y_true)
    if scenario.mode == "known_cart":
        J = np.delete(J, record.final_x.layout.m_slice, axis=1)
    if np.all(np.isfinite(J)):
        rank, ratio = numerical_rank(J)
        print(f"answer: rank {rank} of {J.shape[1]}, sigma_min/sigma_max {ratio:.3e}")
    else:
        print("answer: jacobian not finite at the final iterate")
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

    trace = out / "identify_trace.csv"
    write_trace(trace, record)
    print(f"trace written to {trace}")
    return EXIT_NUMERICAL if record.stop_reason == "failure" else EXIT_OK


# -- check ---------------------------------------------------------------------


def cmd_check(args) -> int:
    scenario = _scenario(args)
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
    # the theorem assumes distinct exponents; PolyExp sorts them ascending
    gaps = np.diff(scenario.c_art.exponents)
    if gaps.size:
        j = int(np.argmin(gaps))
        print(f"arterial exponents: smallest gap {gaps[j]:.3e} (mu_{j + 1}, mu_{j + 2})")
    else:
        print("arterial exponents: one term")
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
    # the local picture: the rank of the Jacobian at the truth
    x_true, y_true = simulate_ground_truth(scenario)
    J, _ = jacobian(x_true, y_true)
    dim = x_true.layout.dim
    print(f"jacobian at the truth ({scenario.mode} mode, {dim} parameters):")
    for rows, block in (("tissue rows", J[: y_true.c_tis_block.size]), ("all rows", J)):
        rank, ratio = numerical_rank(block)
        print(f"  {rows}: rank {rank}, nullity {dim - rank}, sigma_min/sigma_max {ratio:.3e}")
    return EXIT_OK


# -- reproduce -------------------------------------------------------------------


def _cell(data, mode: str, args) -> CampaignSpec:
    """A campaign cell, checked as written, in ``mode`` (the scenario's) unless
    it names one, with the solver defaults for its noise level unless it names
    a setting, and with the command-line overrides, which are checked already."""
    _check_object("campaign", data, CELL_KEYS + SETTINGS_KEYS, ("delta_y", "delta_x"))
    # the integers and the mode are checked by CampaignSpec and IrgnmSettings,
    # the levels by CampaignSpec before they become solver settings
    for key in ("delta_y", "delta_x", "a", "b", "tau", "epsilon"):
        _number(key, data.get(key, 0.0))
    cell = CampaignSpec(
        data["delta_y"], data["delta_x"],
        **{"mode": mode, **{key: data[key] for key in CELL_KEYS if key in data}},
    )
    given = {key: data[key] for key in SETTINGS_KEYS if key in data}
    settings = IrgnmSettings.for_noise(data["delta_y"], **given) if given else None
    return replace(cell, settings=settings, **_given(args, CELL_KEYS))


def _label(spec: CampaignSpec) -> str:
    return f"delta_y={spec.delta_y:g} delta_x={spec.delta_x:g} mode={spec.mode}"


def _cells(data, mode: str, args) -> list[CampaignSpec]:
    """A campaign's cells: one object, or a nonempty list of them whose faults
    name the cell by number, as does a label (so a trace name) seen before."""
    if type(data) is not list:
        return [_cell(data, mode, args)]
    if not data:
        raise ValueError("campaign list must not be empty")
    specs, first = [], {}
    for number, cell in enumerate(data, start=1):
        try:
            specs.append(_cell(cell, mode, args))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"cell {number}: {exc}") from exc
        label = _label(specs[-1])
        if first.setdefault(label, number) != number:
            raise ValueError(f"cell {number}: {label} repeats cell {first[label]}")
    return specs


def cmd_reproduce(args) -> int:
    if args.all and args.mode is not None:
        raise UsageError("--mode cannot be combined with --all, which runs both modes")
    if args.repetitions is not None and args.repetitions < 1:
        raise UsageError("--repetitions must be >= 1")
    scenario = _scenario(args)
    cells = partial(_cells, mode=scenario.mode, args=args)
    specs = cells(ALL_CELLS) if args.all else _read_file("campaign", args.campaign, cells)
    # every input is read before the outputs of an earlier run go
    out = _out_dir(args.out)
    for stale in [out / "table1.csv", out / "results.json", *out.glob("trace_*.csv")]:
        stale.unlink(missing_ok=True)

    failures = 0
    summaries = []
    try:
        for spec in specs:
            label = _label(spec)
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
) -> JacobianCheck:
    """Compare the analytic Jacobian with central finite differences at
    random admissible points around the scenario truth.  Runs every trial
    and returns one check over all of them: the largest deviation (NaN if
    any is NaN) and the summed noise-floor count, with the verdict and the
    entry of the first failing trial, else of the trial of largest
    deviation.  ``corrupt_entry`` injects an error into the analytic
    Jacobian of the first trial (self-test of the comparison)."""
    x_true, y_true = simulate_ground_truth(scenario)
    rng = make_rng([seed, 2])
    checks = []
    for trial in range(trials):
        flat = x_true.flat * (1.0 + 0.3 * rng.standard_normal(x_true.flat.size))
        x = project_to_domain(ParamVector(flat, x_true.layout))
        corrupt = corrupt_entry if trial == 0 else None
        checks.append(finite_difference_check(x, y_true, tolerance, corrupt))
    deviations = [check.max_rel_dev for check in checks]
    failed = [check for check in checks if not check.passed]
    return replace(
        failed[0] if failed else checks[int(np.argmax(deviations))],
        max_rel_dev=float(np.max(deviations)),
        n_noise_limited=sum(check.n_noise_limited for check in checks),
    )


def _corrupt_entry(fields, scenario: Scenario) -> tuple[int, int, float]:
    """``--corrupt ROW COL AMOUNT``: an entry inside the scenario's Jacobian
    and any float, NaN included (the NaN self-test)."""
    try:
        row, col, amount = int(fields[0]), int(fields[1]), float(fields[2])
    except ValueError as exc:
        raise UsageError(f"--corrupt takes integers ROW COL and a float AMOUNT: {exc}") from exc
    x_true, y_true = simulate_ground_truth(scenario)
    for name, index, size in (("ROW", row, y_true.flat().size), ("COL", col, x_true.layout.dim)):
        if not 0 <= index < size:
            raise UsageError(f"--corrupt {name} must be in 0..{size - 1}, got {index}")
    return row, col, amount


def cmd_jaccheck(args) -> int:
    if args.trials < 1:
        raise UsageError("--trials must be >= 1")
    if not (is_finite(args.tolerance) and args.tolerance > 0):
        raise UsageError(f"--tolerance must be finite and positive, got {args.tolerance}")
    scenario = _scenario(args)
    corrupt = _corrupt_entry(args.corrupt, scenario) if args.corrupt else None
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
    parser.commands = sub.choices

    def subcommand(name, func, help, *flags):
        # of --out and --seed, a subcommand takes only those its command reads
        p = sub.add_parser(name, help=help)
        p.add_argument("--scenario", help="scenario JSON file (default: built-in)")
        if "out" in flags:
            p.add_argument("--out", default="out", help="output directory")
        if "seed" in flags:
            p.add_argument("--seed", type=_seed, default=0, help="base RNG seed (>= 0)")
        p.set_defaults(func=func)
        return p

    subcommand("simulate", cmd_simulate, "evaluate ground-truth curves and measurements", "out")

    p = subcommand("identify", cmd_identify, "fit parameters to data", "out", "seed")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--data", help="measurement file (CSV with a value column, or JSON)")
    source.add_argument("--synthesize", action="store_true", help="generate data from the scenario")
    p.add_argument("--delta-x", type=float, default=0.05, help="initialization perturbation level")
    p.add_argument(
        "--delta-y", type=float, default=0.0,
        help="noise level: the discrepancy-stop estimate (0: no such stop, default --max-iter "
        "300, else 200); with --synthesize also the noise added to the data",
    )
    p.add_argument("--mode", choices=MODES)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--alpha-a", dest="a", metavar="ALPHA_A", type=float, default=None)
    p.add_argument("--alpha-b", dest="b", metavar="ALPHA_B", type=float, default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--max-iter", type=int, default=None)

    subcommand("check", cmd_check, "identifiability diagnostics")

    p = subcommand("reproduce", cmd_reproduce, "repeated campaigns and tables", "out", "seed")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--campaign", help="campaign JSON file: one cell or a list of cells")
    source.add_argument(
        "--all", action="store_true", help="run the full noise x perturbation x mode grid"
    )
    p.add_argument("--repetitions", type=int, default=None)
    p.add_argument("--mode", choices=MODES, default=None)
    # without --seed, a campaign file's own seed applies
    p.set_defaults(seed=None)

    p = subcommand("jaccheck", cmd_jaccheck, "finite-difference Jacobian verification", "seed")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--tolerance", type=float, default=1e-5)
    p.add_argument("--corrupt", nargs=3, metavar=("ROW", "COL", "AMOUNT"), default=None,
                   help="inject an error into the analytic Jacobian (self-test)")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
        if extra:  # reported with the usage of the subcommand that does not take them
            parser.commands[args.command].error(f"unrecognized arguments: {' '.join(extra)}")
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseFailure, FileNotFoundError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
