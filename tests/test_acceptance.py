"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and measured margins.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np

from petident import (
    CampaignSpec,
    IrgnmSettings,
    KineticParams,
    ParamVector,
    PlasmaParams,
    PolyExp,
    add_noise,
    default_scenario,
    eval_polyexp,
    finite_difference_check,
    forward_vector,
    jacobian,
    numerical_rank,
    pack,
    perturb_initial,
    plasma_fraction,
    project_to_domain,
    region_diversity_report,
    run_campaign,
    simulate_ground_truth,
)
from petident.cli import main as cli_main
from petident.experiments import scenario_to_dict

from oracles import (
    canonical,
    integrate_compartments_rk4_grid,
    solve_tikhonov,
    tissue_concentration_quadrature,
    tissue_curves,
)


def report(criterion: str, passed: bool, detail: str):
    print(f"\n[{criterion}] {'PASS' if passed else 'FAIL'}: {detail}")


def test_a1_forward_model_oracle_equivalence(scenario, ground_truth):
    start = time.perf_counter()
    _, y_true = ground_truth
    worst = 0.0
    for i, kin in enumerate(scenario.kinetics):
        rk4 = integrate_compartments_rk4_grid(
            lambda s: eval_polyexp(scenario.c_art, s), kin, scenario.t_grid, step=2e-3
        ).c_tis
        for l, t in enumerate(scenario.t_grid):
            closed = y_true.c_tis_block[i, l]
            if t > 0:
                quad = tissue_concentration_quadrature(
                    lambda s: eval_polyexp(scenario.c_art, s), kin, float(t)
                )
                worst = max(worst, abs(closed - quad) / abs(quad))
                worst = max(worst, abs(closed - rk4[l]) / abs(rk4[l]))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 5.0
    report("A1", ok, f"closed form vs RK4 and quadrature, max rel dev {worst:.2e}, {elapsed:.1f} s")
    assert worst <= 1e-8
    assert elapsed < 5.0


def test_a2_jacobian_against_finite_differences(scenario, ground_truth, template):
    start = time.perf_counter()
    x_true, _ = ground_truth
    rng = np.random.default_rng(97)
    worst = 0.0
    all_passed = True
    for _ in range(20):
        flat = x_true.flat * (1.0 + 0.3 * rng.standard_normal(18))
        x = project_to_domain(ParamVector(flat, x_true.layout))
        check = finite_difference_check(x, template, rtol=1e-5)
        worst = max(worst, check.max_rel_dev)
        all_passed &= check.passed
    elapsed = time.perf_counter() - start
    ok = all_passed and worst <= 1e-5 and elapsed < 10.0
    report(
        "A2", ok,
        f"20 random in-domain points, max rel dev {worst:.2e} on entries the "
        f"difference quotient can resolve, {elapsed:.1f} s",
    )
    assert all_passed
    assert worst <= 1e-5
    assert elapsed < 10.0


def test_a3_noiseless_recovery(scenario):
    start = time.perf_counter()
    results = {}
    for delta_x in (0.01, 0.05):
        spec = CampaignSpec(delta_y=0.0, delta_x=delta_x, repetitions=20, seed=0)
        summary = run_campaign(spec, scenario)
        hits = sum(
            1
            for record in summary.records
            if record.rel_errors is not None and np.min(record.rel_errors) <= 1e-4
        )
        results[delta_x] = (hits, summary.diverged_count)
    elapsed = time.perf_counter() - start
    ok = all(h >= 16 and d == 0 for h, d in results.values()) and elapsed < 120.0
    report(
        "A3", ok,
        "noiseless recovery: "
        + ", ".join(
            f"delta_x={dx}: {h}/20 reached 1e-4, {d} diverged"
            for dx, (h, d) in results.items()
        )
        + f", {elapsed:.1f} s",
    )
    for delta_x, (hits, diverged) in results.items():
        assert hits >= 16, (delta_x, hits)
        assert diverged == 0, (delta_x, diverged)
    assert elapsed < 120.0


def test_a4_scaling_degeneracy(ground_truth, template):
    x_true, _ = ground_truth
    base = forward_vector(x_true, template)
    nT = 75
    tissue_norm = np.linalg.norm(base[:nT])
    worst_tissue = 0.0
    min_blood = np.inf
    for zeta in (0.5, 2.0, 10.0):
        flat = x_true.flat.copy()
        flat[:3] *= zeta
        flat[9::3] /= zeta
        scaled = forward_vector(ParamVector(flat, x_true.layout), template)
        worst_tissue = max(
            worst_tissue, np.linalg.norm(scaled[:nT] - base[:nT]) / tissue_norm
        )
        min_blood = min(min_blood, np.linalg.norm(scaled[nT:] - base[nT:]))
    ok = worst_tissue <= 1e-10 and min_blood > 1e-6
    report(
        "A4", ok,
        f"tissue block invariant to {worst_tissue:.2e} under common-factor "
        f"rescaling; blood block moves by >= {min_blood:.2e}",
    )
    assert worst_tissue <= 1e-10
    assert min_blood > 1e-6


def test_a5_noise_and_perturbation_statistics(ground_truth):
    start = time.perf_counter()
    x_true, y_true = ground_truth
    delta_y = 1e-3
    total = 0.0
    draws = 10_000
    for seed in range(draws):
        noisy = add_noise(y_true, delta_y, [seed, 1])
        diff = noisy.c_tis_block - y_true.c_tis_block
        total += float(np.sum(diff * diff))
    noise_estimate = total / draws
    noise_ok = abs(noise_estimate - delta_y**2) <= 0.05 * delta_y**2

    delta_x = 0.1
    expected = delta_x / 4.0 + delta_x**2
    norm2 = float(np.linalg.norm(x_true.flat)) ** 2
    total = 0.0
    for seed in range(draws):
        x0 = perturb_initial(x_true, delta_x, [seed, 0])
        total += float(np.sum((x0.flat - x_true.flat) ** 2)) / norm2
    perturb_estimate = total / draws
    perturb_ok = abs(perturb_estimate - expected) <= 0.05 * expected
    elapsed = time.perf_counter() - start
    ok = noise_ok and perturb_ok and elapsed < 30.0
    report(
        "A5", ok,
        f"E|noise|^2 = {noise_estimate:.3e} vs {delta_y**2:.3e}; "
        f"E(rel dev^2) = {perturb_estimate:.4f} vs {expected:.4f}; {elapsed:.1f} s",
    )
    assert noise_ok
    assert perturb_ok
    assert elapsed < 30.0


def test_a6_discrepancy_principle_contract(scenario):
    spec = CampaignSpec(delta_y=1e-3, delta_x=0.05, repetitions=20, seed=0)
    summary = run_campaign(spec, scenario)
    settings = spec.resolved_settings()
    threshold = settings.tau * settings.delta_estimate
    stopped = 0
    for record in summary.records:
        if record is None or record.stop_reason != "discrepancy":
            continue
        stopped += 1
        assert record.residual_norms[-1] <= threshold
        assert np.all(record.residual_norms[:-1] > threshold)
    ok = stopped > 0
    report(
        "A6", ok,
        f"{stopped}/20 runs stopped by the discrepancy principle; every stop "
        f"satisfies the residual contract at tau*delta = {threshold:.2e}",
    )
    assert stopped > 0


def test_a7_divergence_trend_between_modes(scenario):
    # counts are RNG-dependent (the base seed is fixed configuration, not a
    # tuned quantity); the asserted trend is the mode comparison and the
    # existence of full-mode divergence at this cell
    start = time.perf_counter()
    counts = {}
    for mode in ("full", "known_cart"):
        spec = CampaignSpec(
            delta_y=1e-3, delta_x=0.1, repetitions=100, mode=mode, seed=300
        )
        counts[mode] = run_campaign(spec, scenario).diverged_count
    elapsed = time.perf_counter() - start
    ok = (
        counts["known_cart"] <= counts["full"]
        and counts["full"] > 0
        and elapsed < 600.0
    )
    report(
        "A7", ok,
        f"100 matched-seed repetitions at noise 1e-3, perturbation 0.1: "
        f"full {counts['full']} diverged, known_cart {counts['known_cart']}; "
        f"{elapsed:.0f} s",
    )
    assert counts["known_cart"] <= counts["full"]
    assert counts["full"] > 0
    assert elapsed < 600.0


def test_a8_identifiability_checks(scenario):
    report_ok = region_diversity_report(
        scenario.c_art.exponents, scenario.c_art.coefficients, scenario.kinetics
    )
    T = scenario.t_grid.size
    grid_ok = T >= 2 * (scenario.p + 3)
    dup = [scenario.kinetics[0]] * 3
    dup_report = region_diversity_report(
        scenario.c_art.exponents, scenario.c_art.coefficients, dup
    )
    named = any("k3 not pairwise distinct" in v for v in dup_report.violations)
    ok = report_ok.satisfied and grid_ok and not dup_report.satisfied and named
    report(
        "A8", ok,
        f"reference scenario diverse (margin {report_ok.margin:.1e}), "
        f"T={T} >= {2 * (scenario.p + 3)}; duplicated kinetics rejected with "
        f"a named clause",
    )
    assert report_ok.satisfied
    assert grid_ok
    assert not dup_report.satisfied
    assert named


def test_a9_invariant_suite(scenario, ground_truth, rng):
    x_true, _ = ground_truth
    checks = []

    # plasma fraction anchored at one
    for _ in range(20):
        params = PlasmaParams(
            "biexp", (rng.uniform(0, 2), -rng.uniform(0, 1), -rng.uniform(0, 1))
        )
        checks.append(plasma_fraction(params, 0.0) == 1.0)

    # compartments empty at time zero
    curves = tissue_curves(scenario.c_art, scenario.kinetics[0], 0.0)
    checks.append(abs(curves.c_fr) < 1e-15)
    checks.append(abs(curves.c_bd) < 1e-15)
    checks.append(abs(curves.c_tis) < 1e-15)

    # projection idempotent
    wild = ParamVector(rng.normal(size=18) * 3, x_true.layout)
    once = project_to_domain(wild)
    checks.append(np.array_equal(project_to_domain(once).flat, once.flat))

    # regularization schedule conditions
    settings = IrgnmSettings()
    alphas = np.array([settings.alpha(k) for k in range(100)])
    ratios = alphas[:-1] / alphas[1:]
    checks.append(bool(np.all(alphas > 0)))
    checks.append(bool(np.all((ratios >= 1.0) & (ratios <= math.exp(settings.b) + 1e-12))))
    checks.append(alphas[-1] < alphas[0] * 1e-8)

    # codec round trip
    kin = [KineticParams(*row) for row in x_true.kinetic_block]
    checks.append(np.array_equal(pack(x_true.lam, x_true.mu, x_true.m, kin).flat, x_true.flat))

    # superposition and coefficient linearity of the arterial curve
    g = PolyExp([(1.5, -0.4)])
    h = PolyExp([(-0.5, -0.15)])
    t = rng.uniform(0, 60, size=8)
    combined = eval_polyexp(PolyExp(g.terms + h.terms), t)
    checks.append(
        bool(
            np.allclose(
                combined, eval_polyexp(g, t) + eval_polyexp(h, t), rtol=1e-12
            )
        )
    )
    checks.append(
        bool(np.allclose(
            eval_polyexp(PolyExp([(2.0 * lam, mu) for lam, mu in g.terms]), t),
            2.0 * eval_polyexp(g, t),
            rtol=1e-15,
        ))
    )

    ok = all(checks)
    report("A9", ok, f"{len(checks)} structural invariants hold")
    assert ok


def test_a10_reproducibility_of_reproduce(tmp_path):
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(scenario_to_dict(default_scenario())))
    campaign_path = tmp_path / "campaign.json"
    campaign_path.write_text(
        json.dumps({"delta_y": 1e-3, "delta_x": 0.05, "repetitions": 5, "seed": 123})
    )
    outs = []
    for name in ("first", "second"):
        out = tmp_path / name
        code = cli_main(
            [
                "reproduce",
                "--campaign", str(campaign_path),
                "--scenario", str(scenario_path),
                "--out", str(out),
            ]
        )
        assert code == 0
        outs.append(out)
    names_a = sorted(p.name for p in outs[0].iterdir())
    names_b = sorted(p.name for p in outs[1].iterdir())
    identical = names_a == names_b and all(
        (outs[0] / n).read_bytes() == (outs[1] / n).read_bytes() for n in names_a
    )
    report("A10", identical, f"two runs produced byte-identical {names_a}")
    assert identical


def test_a11_consistency(scenario):
    # the paper's second claim: the reconstruction error vanishes with the
    # noise level; the seed is fixed configuration, not a tuned quantity
    x_true, y_true = simulate_ground_truth(scenario)
    truth_norm = np.linalg.norm(x_true.flat)
    levels = (1e-2, 1e-3, 1e-4, 1e-5)
    irgnm, tikhonov, stops = [], [], set()
    for delta_y in levels:
        spec = CampaignSpec(delta_y=delta_y, delta_x=0.05, repetitions=20, seed=11)
        records = run_campaign(spec, scenario).records
        stops |= {record.stop_reason for record in records}
        irgnm.append(float(np.median([record.rel_errors[-1] for record in records])))
        errors = []
        for r in range(5):
            x = solve_tikhonov(
                perturb_initial(x_true, 0.05, [11, r, 0]),
                add_noise(y_true, delta_y, [11, r, 1]),
                alpha=delta_y,
            )
            errors.append(np.linalg.norm(x.flat - x_true.flat) / truth_norm)
        tikhonov.append(float(np.median(errors)))
    ok = (
        bool(np.all(np.diff(irgnm) < 0))
        and bool(np.all(np.diff(tikhonov) < 0))
        and stops == {"discrepancy"}
    )
    report(
        "A11", ok,
        "median relative error at noise " + " -> ".join(f"{d:.0e}" for d in levels)
        + ": IRGNM " + " -> ".join(f"{e:.2e}" for e in irgnm)
        + ", Tikhonov (alpha = noise) " + " -> ".join(f"{e:.2e}" for e in tikhonov)
        + f"; IRGNM stops {sorted(stops)}",
    )
    assert np.all(np.diff(irgnm) < 0)
    assert np.all(np.diff(tikhonov) < 0)
    assert stops == {"discrepancy"}


def test_a12_local_identifiability_at_the_truth(capsys, tmp_path):
    # the paper's first claim, locally: the tissue rows of J at the truth
    # leave 4 directions free, the plasma columns and the common factor
    # (lambda scaled up, every K1 down), and the blood rows of total
    # activity close that gap; in known_cart the plasma columns are frozen
    details, nullities, outside = [], {}, {}
    for mode in ("full", "known_cart"):
        scenario = default_scenario(mode)
        x_true = scenario.true_vector()
        J, _ = jacobian(x_true, scenario.template())
        tissue = J[: scenario.n * scenario.t_grid.size]
        dim = x_true.layout.dim
        tissue_rank, _ = numerical_rank(tissue)
        rank, ratio = numerical_rank(J)
        nullities[mode] = (dim - tissue_rank, dim - rank)
        common = np.zeros(dim)
        common[: scenario.p] = x_true.lam
        common[x_true.layout.kinetic_slice][::3] = -x_true.kinetic_block[:, 0]
        null_basis = np.linalg.svd(tissue)[2][tissue_rank:]
        projected = null_basis.T @ (null_basis @ common)
        outside[mode] = np.linalg.norm(common - projected) / np.linalg.norm(common)
        details.append(
            f"{mode}: tissue rank {tissue_rank}, all rows rank {rank} of {dim} "
            f"(sigma ratio {ratio:.2e}), common factor {outside[mode]:.1e} off the null space"
        )
        path = tmp_path / f"{mode}.json"
        path.write_text(json.dumps(scenario_to_dict(scenario)))
        assert cli_main(["check", "--scenario", str(path)]) == 0
        printed = capsys.readouterr().out
        assert f"tissue rows: rank {tissue_rank}, nullity {dim - tissue_rank}," in printed
        assert f"all rows: rank {rank}, nullity {dim - rank}," in printed
    expected = {"full": (4, 0), "known_cart": (4, 3)}
    ok = nullities == expected and max(outside.values()) <= 1e-10
    report("A12", ok, "; ".join(details))
    assert nullities == expected
    assert max(outside.values()) <= 1e-10


def test_a13_no_second_solution_from_wide_starts():
    # the paper's first claim, globally: every noise-free fit from a wide
    # start that reproduces the data equals the truth up to the forward
    # map's two symmetries (arterial pair order, plasma swap); in known_cart
    # the frozen m block is left out.  The third cell shares k2 + k3 = 0.292
    # over its regions, so the sufficient region-diversity condition fails
    start = time.perf_counter()
    reference = default_scenario()
    shared_beta = replace(reference, kinetics=(
        KineticParams(0.157, 0.174, 0.118),
        KineticParams(0.161, 0.196, 0.096),
        KineticParams(0.177, 0.204, 0.088),
    ))
    assert any(
        "k2+k3 not pairwise distinct" in v
        for v in region_diversity_report(
            shared_beta.c_art.exponents, shared_beta.c_art.coefficients, shared_beta.kinetics
        ).violations
    )
    cells = {
        "full": reference,
        "known_cart": default_scenario("known_cart"),
        "shared k2+k3": shared_beta,
    }
    details, fits, worst = [], {}, {}
    for name, scenario in cells.items():
        x_true, y_true = simulate_ground_truth(scenario)
        keep = np.ones(x_true.layout.dim, dtype=bool)
        if scenario.mode == "known_cart":
            keep[x_true.layout.m_slice] = False
        truth = canonical(x_true)[keep]
        bound = 1e-9 * np.linalg.norm(y_true.flat())
        spec = CampaignSpec(0.0, 1.0, 40, scenario.mode, 1)
        fitted = [
            record.final_x
            for record in run_campaign(spec, scenario).records
            if record.residual_norms[-1] <= bound
        ]
        plain = sum(
            np.linalg.norm(x.flat[keep] - x_true.flat[keep]) > 1e-6 * np.linalg.norm(truth)
            for x in fitted
        )
        fits[name] = len(fitted)
        worst[name] = max(
            (np.linalg.norm(canonical(x)[keep] - truth) / np.linalg.norm(truth) for x in fitted),
            default=0.0,
        )
        details.append(
            f"{name}: {len(fitted)} fits ({plain} off the truth as vectors), "
            f"max rel dev up to symmetry {worst[name]:.1e}"
        )
    elapsed = time.perf_counter() - start
    ok = min(fits.values()) >= 3 and max(worst.values()) <= 1e-12 and elapsed < 5.0
    report("A13", ok, "; ".join(details) + f"; {elapsed:.1f} s")
    assert min(fits.values()) >= 3
    assert max(worst.values()) <= 1e-12
    assert elapsed < 5.0
