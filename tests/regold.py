"""``python3 tests/regold.py`` records every exact pin of the suite anew.

It runs each producer of ``golden.py`` in this process, prints each pin that
moved and each portable row whose stop moved, and rewrites ``golden.json``
with the values and this numeric platform.  Pytest does not collect it.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import golden
from numeric_platform import numeric_platform
from platform_table import cell_name, describe, moved_stops


def produce(tmp: Path) -> dict:
    """The ledger of this tree on this platform, made in the directory ``tmp``."""
    out = golden.reproduce_all(tmp / "reproduce")
    return {
        "platform": numeric_platform(),
        "simulate": golden.simulate_digests(tmp / "simulate"),
        "reproduce": golden.reproduce_digests(out),
        "stdout": {command: golden.stdout_digest(tmp / command, command) for command in golden.STDOUT_COMMANDS},
        "identify_trace": golden.identify_trace_digest(tmp / "identify"),
        "records": golden.records_digest(),
        "golden_stops": {
            str(cell): golden.golden_stops(golden.batched_campaign(*cell)) for cell in golden.BATCHED_CELLS
        },
        "portable": golden.portable_rows(json.loads((out / "results.json").read_text())),
    }


def pins(ledger: dict) -> dict:
    """Each pin of a ledger by its name; an entry of an object is ``key entry``."""
    named = {}
    for key, value in ledger.items():
        named.update({f"{key} {k}": v for k, v in value.items()} if isinstance(value, dict) else {key: value})
    return named


def moved(old: dict, new: dict) -> list:
    """The pins of two ledgers whose values differ, then each portable row
    whose stop differs, as ``cell: key before -> after``."""
    before, after = pins(old), pins(new)
    lines = [name for name in {**before, **after} if before.get(name) != after.get(name)]
    return lines + [
        f"  {cell_name(b)}: {describe(moved_stops(a, b))}"
        for a, b in zip(old["portable"], new["portable"]) if moved_stops(a, b)
    ]


def main() -> int:
    old = json.loads(golden.LEDGER.read_text())
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        new = produce(Path(tmp))
    print(f"platform: {new['platform']}")
    lines = moved(old, new)
    print("\n".join(["moved:", *(f"  {line}" for line in lines)]) if lines else "no pin moved")
    golden.LEDGER.write_text(json.dumps(new, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
