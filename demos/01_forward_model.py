"""Forward model walkthrough.

Evaluates the ground-truth curves of the reference scenario (three cortical
regions, triexponential arterial input, biexponential parent plasma
fraction): the arterial input, the plasma fraction and the total blood
activity at a few times, and the blood-coupling block at the truth.
"""

import numpy as np

from petident import default_scenario, eval_polyexp, plasma_fraction, simulate_ground_truth

scenario = default_scenario()
x_true, y_true = simulate_ground_truth(scenario)

print("reference scenario")
print(f"  regions: {scenario.n}, arterial exponentials: {scenario.p}")
print(f"  parameter vector length: {x_true.flat.size}")
print(f"  measurement vector length: {y_true.flat().size}")
print(f"  grid: {scenario.t_grid.size} frames over {scenario.t_grid[-1]:.1f} min")

t_probe = np.array([0.5, 1.0, 5.0, 20.0, 62.5])
art = eval_polyexp(scenario.c_art, t_probe)
f = plasma_fraction(scenario.plasma, t_probe)
print("\n   t [min]    C_art        f        C_bl")
for t, a, fv in zip(t_probe, art, f):
    print(f"  {t:7.1f}  {a:9.5f}  {fv:7.4f}  {a / fv:9.5f}")

print("\nblood-coupling block at the truth (should vanish identically):")
print(f"  max |F2| = {np.max(np.abs(y_true.f2_block)):.2e}")
