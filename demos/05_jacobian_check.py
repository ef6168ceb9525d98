"""Verifying the analytic Jacobian with central finite differences.

The forward map's derivatives are assembled in closed form; this script
compares them against difference quotients at random admissible points and
demonstrates that the comparison actually detects errors by corrupting one
entry.  Entries smaller than the quotient's roundoff floor cannot be
certified by finite differences and are checked against the floor instead.
"""

from petident import default_scenario
from petident.cli import run_jaccheck

scenario = default_scenario()

check = run_jaccheck(scenario, trials=10, tolerance=1e-5, seed=0)
print("clean Jacobian, 10 random points:")
print(f"  max relative deviation: {check.max_rel_dev:.3e}")
print(f"  entries below the quotient noise floor, all 10 points: {check.n_noise_limited}")
print(f"  verdict: {'PASS' if check.passed else 'FAIL'}")

check = run_jaccheck(scenario, trials=1, tolerance=1e-5, seed=0,
                     corrupt_entry=(74, 0, 1e-2))
print("\nsame comparison with one corrupted entry (row 74, column 0, +0.01):")
print(f"  max relative deviation: {check.max_rel_dev:.3e}")
print(f"  verdict: {'PASS' if check.passed else 'FAIL'} (expected FAIL)")
