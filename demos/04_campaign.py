"""A repeated-run campaign with divergence accounting.

Runs matched-seed campaigns in both measurement modes at a noisy cell,
prints the divergence table row, the median representative run, and an
empirical property of noise-free traces (fraction of runs whose residual is
nonincreasing after iteration 5 -- recorded, not asserted anywhere).
Campaign outputs (table row, median trace, JSON summary) land in
demos/out_campaign/.
"""

import numpy as np

from petident import CampaignSpec, default_scenario, emit_results, run_campaign

scenario = default_scenario()

print("cell: delta_y = 1e-3, delta_x = 0.1, 30 matched repetitions per mode")
summaries = {}
for mode in ("full", "known_cart"):
    spec = CampaignSpec(delta_y=1e-3, delta_x=0.1, repetitions=30, mode=mode, seed=300)
    summaries[mode] = run_campaign(spec, scenario)
for mode, summary in summaries.items():
    rho = [record.rho_opt for record in summary.records if record.rho_opt is not None]
    print(
        f"  {mode:11s}: diverged {summary.diverged_count}/30, "
        f"median run #{summary.median_run}, median rho_opt {np.median(rho):.1f}%"
    )

files = emit_results([summaries["full"]], "demos/out_campaign")
print("wrote:", ", ".join(str(f) for f in files))

median = summaries["full"].records[summaries["full"].median_run]
print("\nmedian full-mode run, residual trace (every 10th iterate):")
for k in range(0, median.stop_iter + 1, 10):
    print(f"  iter {k:3d}: residual {median.residual_norms[k]:.3e} "
          f"rel_error {median.rel_errors[k]:.3e}")

print("\nnoise-free traces, residual behavior after iteration 5 (empirical")
print("observation, recorded not asserted):")
spec = CampaignSpec(delta_y=0.0, delta_x=0.05, repetitions=20, seed=0)
summary = run_campaign(spec, scenario)
strict = 0
fractions = []
for record in summary.records:
    tail = record.residual_norms[5:]
    if np.all(np.diff(tail) <= 0.0):
        strict += 1
    fractions.append(float(np.mean(tail[1:] <= tail[:-1])))
print(f"  strictly nonincreasing tails: {strict}/20")
print(f"  per-step nonincreasing fraction: median {np.median(fractions):.2f} "
      f"(the decaying anchor weight produces occasional residual bumps)")
