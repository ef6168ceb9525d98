"""Table 1 on this platform against Table 1 under ``AVX2_PLATFORM``.

    python3 tests/platform_table.py [--repetitions R] [--seed S]

Runs ``python -m petident.cli reproduce --all --repetitions R --seed S`` in
two subprocesses, one on this platform and one under
:data:`numeric_platform.AVX2_PLATFORM`, and compares their ``results.json``.
It prints, per cell, the diverged count on each side and whether
``median_run`` differs, then each run whose ``diverged`` flag, stop reason
or stop iteration differs.  A run near a rounding edge ends either way, so a
numbers-changing change reports its diverged count with this margin.  This
module is a tool, not a test module: pytest does not collect it.
"""

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from numeric_platform import AVX2_PLATFORM, numeric_platform, platform_env

#: the fields of a run that say how and whether it stopped
STOP_KEYS = ("stop_reason", "stop_iter", "diverged")


def cell_name(spec: dict) -> str:
    return f"{spec['mode']} dy={spec['delta_y']:g} dx={spec['delta_x']:g}"


def moved_stops(a: dict, b: dict) -> dict:
    """``{key: (a's, b's)}`` over the keys of :data:`STOP_KEYS` where runs
    ``a`` and ``b`` differ."""
    return {key: (a[key], b[key]) for key in STOP_KEYS if a[key] != b[key]}


def describe(moved: dict) -> str:
    """A result of :func:`moved_stops` as ``key before -> after, ...``."""
    return ", ".join(f"{key} {a} -> {b}" for key, (a, b) in moved.items())


def compare(here: list, there: list):
    """Two ``results.json`` lists of the same cells, compared: per cell
    ``(name, diverged here, diverged there, median_run differs)``, and per
    run whose stop differs ``(name, repetition, {key: (here, there)})`` over
    the keys of :data:`STOP_KEYS` that differ."""
    if [c["spec"] for c in here] != [c["spec"] for c in there]:
        raise ValueError("the two results hold different cells")
    cells, runs = [], []
    for a, b in zip(here, there):
        name = cell_name(a["spec"])
        cells.append((name, a["diverged_count"], b["diverged_count"],
                      a["median_run"] != b["median_run"]))
        for ra, rb in zip(a["runs"], b["runs"]):
            moved = moved_stops(ra, rb)
            if moved:
                runs.append((name, ra["repetition"], moved))
    return cells, runs


def report(cells: list, runs: list) -> list:
    """The lines that :func:`main` prints for the result of :func:`compare`."""
    width = max(len(name) for name, *_ in cells)
    lines = [f"{'cell':{width}s}  diverged here/avx2  median_run"]
    lines += [
        f"{name:{width}s}  {here:8d} {there:4d}       {'differs' if moved else 'same'}"
        for name, here, there, moved in cells
    ]
    flags = [(name, r) for name, r, moved in runs if "diverged" in moved]
    lines += [
        f"diverged runs: {sum(c[1] for c in cells)} here, {sum(c[2] for c in cells)} under avx2",
        f"median_run differs in {sum(c[3] for c in cells)} of {len(cells)} cells",
        f"diverged flag differs in {len(flags)} runs in {len({n for n, _ in flags})} cells",
        f"stop differs in {len(runs)} runs in {len({n for n, *_ in runs})} cells:",
    ]
    lines += [f"  {name} run {r}: {describe(moved)}" for name, r, moved in runs]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repetitions", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    sides = {"here": {}, "avx2": AVX2_PLATFORM}
    with tempfile.TemporaryDirectory() as tmp:
        procs = {
            side: subprocess.Popen(
                [sys.executable, "-m", "petident.cli", "reproduce", "--all",
                 "--repetitions", str(args.repetitions), "--seed", str(args.seed),
                 "--out", str(Path(tmp) / side)],
                env=platform_env(platform), stdout=subprocess.DEVNULL,
            )
            for side, platform in sides.items()
        }
        if [proc.wait() for proc in procs.values()] != [0, 0]:
            print("reproduce failed", file=sys.stderr)
            return 1
        here, there = (json.loads((Path(tmp) / side / "results.json").read_text())
                       for side in sides)
    avx2 = subprocess.run(
        [sys.executable, "-c", "from numeric_platform import numeric_platform as f; print(f())"],
        env=platform_env(AVX2_PLATFORM), capture_output=True, text=True, check=True,
    ).stdout.strip()
    print(f"reproduce --all --repetitions {args.repetitions} --seed {args.seed}")
    print(f"here: {numeric_platform()}")
    print(f"avx2: {avx2}")
    print("\n".join(report(*compare(here, there))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
