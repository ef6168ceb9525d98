"""Benchmark of the petident identification pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload as a closed loop with one caller for S seconds, in this
process, with BLAS pinned to one thread, checks every output and prints each
metric by name with its unit.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a traced pass (spans are written to ``perfbench/out``).

    python3 perfbench/run.py --write-spec

rewrites BENCHMARK.json at the repository root from the tables below.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import ctypes
import glob
import hashlib
import importlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from collections import Counter
from pathlib import Path

# Modules that import NumPy or petident are imported later: after the check
# for the sources, and inside the timed region of the set-up probe.
from spans import Patches, Tracer, layer_stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

RUN_SECONDS = 20
SETUP_SAMPLES = 5

WORKLOADS = {
    "campaign_ref": "the paper's unit of work: repeated 5-run campaigns on the reference cell, ragged run lengths",
    "identify_single": "latency of one interactive fit: one noise-free known_cart run of exactly 300 iterations per call",
    "regions_wide": "12-region campaigns: per-region loops in forward run 4x as often, normal equations of dim 45",
    "reproduce_grid": "in-process reproduce --all over all 32 cells: the only workload through cli and emit_results",
}

# name, unit, better, bound
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("runs_per_ref_s", "1/ref_s", "higher", 0.2),
    ("iters_per_ref_s", "1/ref_s", "higher", 0.2),
    ("call_ref_ms_p50", "ref_ms", "lower", 0.2),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

# name, unit, better; README.md names the end-to-end metric each should move
PER_LAYER = [
    ("forward.jacobian.calls", "count", "lower"),
    ("forward.jacobian.busy_s", "s", "lower"),
    ("forward.jacobian.us_per_call", "us", "lower"),
    ("forward.jacobian.bytes", "bytes-computed", "lower"),
    ("forward.forward_vector.calls", "count", "lower"),
    ("forward.forward_vector.busy_s", "s", "lower"),
    ("forward.forward_vector.us_per_call", "us", "lower"),
    ("forward.project_to_domain.calls", "count", "lower"),
    ("forward.project_to_domain.busy_s", "s", "lower"),
    ("solver.iterations", "count", "lower"),
    ("solver.irgnm_step.self_s", "s", "lower"),
    ("solver.run_irgnm.self_s", "s", "lower"),
    ("solver.forward_evals_per_iter", "calls/iter", "lower"),
    ("solver.stop.discrepancy", "count", "higher"),
    ("solver.stop.max_iter", "count", "lower"),
    ("solver.stop.failure", "count", "lower"),
    ("solver.diverged_runs", "count", "lower"),
    ("solver.useful_ratio", "ratio", "higher"),
    ("solver.runtime_warnings", "count", "lower"),
    ("experiments.run_campaign.self_s", "s", "lower"),
    ("experiments.inputs.busy_s", "s", "lower"),
    ("experiments.emit_results.busy_s", "s", "lower"),
    ("experiments.emit_results.bytes", "bytes", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]

# (module under petident, attribute, span name): each wrapper is installed
# where callers look the function up, so every call of the pipeline records
# a span without changes to the package.
TRACE_POINTS = [
    ("cli", "run_campaign", "experiments.run_campaign"),
    ("cli", "emit_results", "experiments.emit_results"),
    ("experiments", "run_irgnm", "solver.run_irgnm"),
    ("experiments", "simulate_ground_truth", "experiments.inputs"),
    ("experiments", "perturb_initial", "experiments.inputs"),
    ("experiments", "add_noise", "experiments.inputs"),
    ("experiments", "project_to_domain", "forward.project_to_domain"),
    ("solver", "irgnm_step", "solver.irgnm_step"),
    ("solver", "jacobian", "forward.jacobian"),
    ("solver", "forward_vector", "forward.forward_vector"),
    ("solver", "project_to_domain", "forward.project_to_domain"),
]

LAYERS = sorted({name for *_, name in TRACE_POINTS} | {"cli.main"})
EXPECTED_LAYERS = {
    "campaign_ref": set(LAYERS) - {"cli.main", "experiments.emit_results"},
    "regions_wide": set(LAYERS) - {"cli.main", "experiments.emit_results"},
    "identify_single": set(LAYERS) - {"cli.main", "experiments.emit_results", "experiments.run_campaign"},
    "reproduce_grid": set(LAYERS),
}


def spec() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {}
    for package in (numpy, scipy):
        libs = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
        for lib in glob.glob(str(libs / "*openblas*")):
            handle = ctypes.CDLL(lib)
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
                if hasattr(handle, symbol):
                    threads[Path(lib).name] = getattr(handle, symbol)()
                    break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def call_indices(min_calls, seconds):
    """Indices of a closed loop's calls: ``seconds`` of calls, at least
    ``min_calls`` of them."""
    start = time.perf_counter()
    index = 0
    while index < min_calls or time.perf_counter() - start < seconds:
        yield index
        index += 1


def timed_call(workload, tracer, index):
    """One call of the workload, timed.  A call that raises fails its runs."""
    from workloads import Outcome

    tracer.call_index = index
    start = time.perf_counter()
    try:
        outcome = workload.call(index, tracer)
    except Exception as exc:  # the loop keeps going; the call's runs count as failed
        traceback.print_exc(file=sys.stderr)
        outcome = Outcome(expected=workload.expected_runs(), problems=[repr(exc)])
    outcome.seconds = time.perf_counter() - start
    return outcome


@contextlib.contextmanager
def hooked(workload, calibrate=False):
    hooks = Patches()
    try:
        workload.install(hooks, calibrate)
        yield
    finally:
        hooks.restore()


@contextlib.contextmanager
def tracing(tracer):
    try:
        for module, attr, name in TRACE_POINTS:
            tracer.patch(importlib.import_module(f"petident.{module}"), attr, name)
        yield
    finally:
        tracer.restore()


def work(workload, outcomes) -> dict:
    """Checks every run and sums the work: runs, iterations, stop reasons,
    divergences, failed runs and a hash of each run's result."""
    digest = hashlib.sha256()
    stops = Counter()
    runs = iterations = diverged = failed = 0
    problems = []
    for outcome in outcomes:
        checked = workload.check(outcome)
        failed += sum(p is not None for p in checked)
        problems += [p for p in checked if p is not None][:3]
        runs += max(outcome.expected, len(outcome.records))
        for record in outcome.records:
            iterations += record.stop_iter
            stops[record.stop_reason] += 1
            diverged += bool(record.diverged)
            line = f"{record.stop_reason} {record.stop_iter} {float(record.residual_norms[-1]):.12g}\n"
            digest.update(line.encode())
    return {
        "calls": len(outcomes),
        "runs": runs,
        "iterations": iterations,
        "stops": dict(sorted(stops.items())),
        "diverged": diverged,
        "failed": failed,
        "sha256": digest.hexdigest(),
        "problems": problems[:5],
    }


def fingerprint(totals: dict) -> dict:
    return {k: totals[k] for k in ("calls", "runs", "iterations", "stops", "diverged", "sha256")}


def setup_samples(workload_name, seed) -> list[tuple[float, float]]:
    """Set-up time of fresh interpreters (import petident, build the
    scenario and the ground truth), each with the calibration sample the
    child took right after.  One child process at a time."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload_name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        setup, calibration = child.stdout.split()[-2:]
        samples.append((float(setup), float(calibration)))
    return samples


def end_to_end(workload, args):
    """Untraced closed loop with a calibration sample before the first call
    and after every call (and inside long calls, see ``Workload.install``).
    Each call's time is scaled to reference seconds by the mean of the
    samples around and inside it; throughputs and latencies are medians over
    the calls."""
    import calibration

    tracer = Tracer()  # records only the benchmark's own span around each call
    outcomes = []
    samples = [calibration.sample()]
    with hooked(workload, calibrate=True):
        for index in call_indices(workload.min_calls, args.seconds):
            outcomes.append(timed_call(workload, tracer, index))
            samples.append(calibration.sample())
    totals = work(workload, outcomes)
    wall_s, ref_s = [], []
    for o, before, after in zip(outcomes, samples, samples[1:]):
        wall_s.append(o.seconds - o.state.get("calibration_s", 0.0))
        speed = statistics.mean([before, after, *o.state.get("calibration", [])])
        ref_s.append(wall_s[-1] * calibration.REFERENCE_S / speed)
    ref_ms = [1e3 * t for t in ref_s]
    wall_ms = [1e3 * t for t in wall_s]
    setup = setup_samples(workload.name, args.seed)
    metrics = {
        "setup_s": statistics.median(t * calibration.REFERENCE_S / c for t, c in setup),
        "runs_per_ref_s": statistics.median(len(o.records) / t for o, t in zip(outcomes, ref_s)),
        "iters_per_ref_s": statistics.median(
            sum(r.stop_iter for r in o.records) / t for o, t in zip(outcomes, ref_s)
        ),
        "call_ref_ms_p50": statistics.median(ref_ms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    report = {
        "call_samples": len(outcomes),
        "call_ref_ms_p90": quantile(ref_ms, 0.9),
        "call_wall_ms_p50": statistics.median(wall_ms),
        "call_wall_ms_p90": quantile(wall_ms, 0.9),
        "wall_s": sum(wall_s),
        "calibration_ms": {
            "median": 1e3 * statistics.median(samples),
            "min": 1e3 * min(samples),
            "max": 1e3 * max(samples),
        },
        "setup_wall_s": [t for t, _ in setup],
        "setup_calibration_ms": [1e3 * c for _, c in setup],
        "failed_frac": totals["failed"] / max(totals["runs"], 1),
    }
    return metrics, totals, work(workload, outcomes[: workload.min_calls]), report


def quantile(values, q):
    """The ``q`` quantile, interpolated between the samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(100 * q) - 1]


def per_layer(workload, args):
    """Each call made twice with the same inputs, untraced and traced,
    alternating which goes first; per-layer metrics come from the traced
    calls, the tracing overhead from the median ratio over the pairs."""
    plain_tracer, tracer = Tracer(), Tracer()
    plain, traced = [], []
    n_warnings = 0
    with hooked(workload):
        for index in call_indices(workload.min_calls, args.seconds):
            for with_spans in (False, True) if index % 2 == 0 else (True, False):
                if not with_spans:
                    plain.append(timed_call(workload, plain_tracer, index))
                    continue
                with tracing(tracer), warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always", RuntimeWarning)
                    traced.append(timed_call(workload, tracer, index))
                n_warnings += sum(issubclass(w.category, RuntimeWarning) for w in caught)
    totals = work(workload, traced)
    plain_totals = work(workload, plain)
    stats = layer_stats(tracer.spans)

    def stat(name, key):
        return stats.get(name, {}).get(key, 0)

    def per_call_us(name):
        calls = stat(name, "calls")
        return 1e6 * stat(name, "busy_s") / calls if calls else 0.0

    rows, dim = workload.shape()
    runs = totals["runs"]
    iterations = totals["iterations"]
    evals = stat("forward.jacobian", "calls") + stat("forward.forward_vector", "calls")
    metrics = {
        "forward.jacobian.calls": stat("forward.jacobian", "calls"),
        "forward.jacobian.busy_s": stat("forward.jacobian", "busy_s"),
        "forward.jacobian.us_per_call": per_call_us("forward.jacobian"),
        "forward.jacobian.bytes": stat("forward.jacobian", "calls") * rows * dim * 8,
        "forward.forward_vector.calls": stat("forward.forward_vector", "calls"),
        "forward.forward_vector.busy_s": stat("forward.forward_vector", "busy_s"),
        "forward.forward_vector.us_per_call": per_call_us("forward.forward_vector"),
        "forward.project_to_domain.calls": stat("forward.project_to_domain", "calls"),
        "forward.project_to_domain.busy_s": stat("forward.project_to_domain", "busy_s"),
        "solver.iterations": iterations,
        "solver.irgnm_step.self_s": stat("solver.irgnm_step", "self_s"),
        "solver.run_irgnm.self_s": stat("solver.run_irgnm", "self_s"),
        "solver.forward_evals_per_iter": evals / iterations if iterations else 0.0,
        "solver.stop.discrepancy": totals["stops"].get("discrepancy", 0),
        "solver.stop.max_iter": totals["stops"].get("max_iter", 0),
        "solver.stop.failure": totals["stops"].get("failure", 0),
        "solver.diverged_runs": totals["diverged"],
        "solver.useful_ratio": (runs - totals["diverged"]) / runs if runs else 0.0,
        "solver.runtime_warnings": n_warnings,
        "experiments.run_campaign.self_s": stat("experiments.run_campaign", "self_s"),
        "experiments.inputs.busy_s": stat("experiments.inputs", "busy_s"),
        "experiments.emit_results.busy_s": stat("experiments.emit_results", "busy_s"),
        "experiments.emit_results.bytes": sum(o.state.get("emit_bytes", 0) for o in traced),
        "cli.main.self_s": stat("cli.main", "self_s"),
        "trace.overhead_frac": statistics.median(t.seconds / p.seconds for t, p in zip(traced, plain)) - 1.0,
    }
    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"spans-{workload.name}.jsonl"
    tracer.write_jsonl(spans_file)
    missing = [name for name in LAYERS if name not in stats]
    report = {
        "wall_s": sum(o.seconds for o in traced),
        "untraced_wall_s": sum(o.seconds for o in plain),
        "spans": len(tracer.spans),
        "spans_file": str(spans_file.relative_to(ROOT)),
        "missing_layers": missing,
    }
    if fingerprint(plain_totals) != fingerprint(totals):
        totals["problems"].append("the traced calls did different work from the untraced calls")
    silent = EXPECTED_LAYERS[workload.name] & set(missing)
    if silent:
        totals["problems"].append(f"layers recorded no spans: {sorted(silent)}")
    totals["failed"] += plain_totals["failed"]
    totals["runs"] += plain_totals["runs"]
    return metrics, totals, work(workload, traced[: workload.min_calls]), report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true", help="rewrite BENCHMARK.json")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec(), indent=2) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "petident" / "__init__.py").is_file():
        print(f"petident sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_probe:
        start = time.perf_counter()
        import workloads

        workloads.WORKLOADS[args.workload]().setup(args.seed)
        setup = time.perf_counter() - start
        import calibration

        calibration.kernel()  # first call pays SciPy's lazy set-up
        print(setup, calibration.sample())
        return 0

    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    workload.setup(args.seed)
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, totals, prefix, report = measure(workload, args)
    finally:
        workload.finish()
    units = {n: u for n, u, *_ in (END_TO_END + PER_LAYER)}
    report.update(
        workload=workload.name,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        calls=totals["calls"],
        runs=totals["runs"],
        failed=totals["failed"],
        problems=totals["problems"],
        fingerprint=fingerprint(prefix),
        seed_aliasing={
            "chosen_bases": workloads.aliasing(workload.stream_groups(totals["calls"])),
            "consecutive_bases": workloads.aliasing(
                workload.stream_groups(totals["calls"], lambda seed, call: seed + call)
            ),
        },
        environment=environment(),
    )
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload.name}-trace{args.trace}.json").write_text(json.dumps(report, indent=1) + "\n")
    for name, value in metrics.items():
        print(f"{name:40s} {value:>16.6g} {units[name]}")
    print(json.dumps(report))
    result = {
        "correct": totals["failed"] == 0 and not totals["problems"],
        "attempted": totals["runs"],
        "failed": totals["failed"],
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
