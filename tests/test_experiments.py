import json

import numpy as np
import pytest

from petident import (
    CampaignSpec,
    IrgnmSettings,
    add_noise,
    build_time_grid,
    emit_results,
    eval_polyexp,
    perturb_initial,
    region_diversity_report,
    run_campaign,
    run_irgnm,
    scenario_from_dict,
    scenario_to_dict,
    simulate_ground_truth,
)
from petident.experiments import SECONDS_PER_MINUTE, load_results


class TestTimeGrid:
    def test_length_and_endpoints(self):
        grid = build_time_grid()
        assert grid.size == 25
        assert grid[0] == 0.0
        assert grid[-1] == 3750.0
        assert np.all(np.diff(grid) > 0)

    def test_segment_counts(self):
        grid = build_time_grid() / SECONDS_PER_MINUTE
        assert np.count_nonzero(grid <= 1.0) == 6
        assert np.count_nonzero((grid > 1.0) & (grid <= 3.0)) == 4
        assert np.count_nonzero((grid > 3.0) & (grid <= 5.0)) == 2
        assert np.count_nonzero((grid > 5.0) & (grid <= 12.5)) == 3
        assert np.count_nonzero((grid > 12.5) & (grid <= 62.5)) == 10


class TestScenario:
    def test_reference_dimensions(self, scenario):
        assert scenario.p == 3 and scenario.n == 3 and scenario.q_hat == 3
        assert scenario.true_vector().flat.size == 18

    def test_blood_values_consistency(self, scenario):
        from petident import plasma_fraction

        blood = scenario.blood_values()
        art = eval_polyexp(scenario.c_art, scenario.s_grid)
        f = plasma_fraction(scenario.plasma, scenario.s_grid)
        np.testing.assert_allclose(blood * f, art, rtol=1e-14)

    def test_known_cart_blood_values_are_arterial(self, known_cart_scenario):
        blood = known_cart_scenario.blood_values()
        art = eval_polyexp(known_cart_scenario.c_art, known_cart_scenario.s_grid)
        np.testing.assert_array_equal(blood, art)

    def test_arterial_curve_nonnegative(self, scenario):
        t = np.linspace(0.0, 62.5, 10_000)
        assert np.all(eval_polyexp(scenario.c_art, t) >= -1e-14)

    def test_passes_diversity_check(self, scenario):
        report = region_diversity_report(
            scenario.c_art.exponents, scenario.c_art.coefficients, scenario.kinetics
        )
        assert report.satisfied

    def test_dict_round_trip_in_both_units(self, scenario):
        for units in ("min", "s"):
            data = scenario_to_dict(scenario, units)
            back = scenario_from_dict(data)
            np.testing.assert_allclose(back.t_grid, scenario.t_grid, rtol=1e-12)
            np.testing.assert_allclose(
                back.c_art.exponents, scenario.c_art.exponents, rtol=1e-12
            )
            np.testing.assert_allclose(
                [k.K1 for k in back.kinetics],
                [k.K1 for k in scenario.kinetics],
                rtol=1e-12,
            )

    def test_dimension_declarations_validated(self, scenario):
        data = scenario_to_dict(scenario)
        data["p"] = 7
        with pytest.raises(ValueError, match="p"):
            scenario_from_dict(data)


class TestSimulateGroundTruth:
    def test_vector_length_and_zero_blood_block(self, ground_truth):
        x_true, y_true = ground_truth
        assert y_true.flat().size == 100
        assert np.max(np.abs(y_true.f2_block)) < 1e-12


class TestNoise:
    def test_zero_level_is_identity(self, ground_truth):
        _, y_true = ground_truth
        noisy = add_noise(y_true, 0.0, seed=1)
        assert np.array_equal(noisy.flat(), y_true.flat())

    def test_blood_block_untouched(self, ground_truth):
        _, y_true = ground_truth
        noisy = add_noise(y_true, 1e-2, seed=1)
        assert np.array_equal(noisy.f2_block, y_true.f2_block)
        assert not np.array_equal(noisy.c_tis_block, y_true.c_tis_block)

    def test_seeded_reproducible(self, ground_truth):
        _, y_true = ground_truth
        a = add_noise(y_true, 1e-3, seed=7)
        b = add_noise(y_true, 1e-3, seed=7)
        assert np.array_equal(a.flat(), b.flat())

    def test_expected_squared_norm(self, ground_truth):
        # E |y_noisy - y|^2 = delta_y^2, Monte-Carlo to 5%
        _, y_true = ground_truth
        delta = 1e-3
        total = 0.0
        draws = 10_000
        for seed in range(draws):
            noisy = add_noise(y_true, delta, seed=[seed, 1])
            diff = noisy.c_tis_block - y_true.c_tis_block
            total += float(np.sum(diff * diff))
        estimate = total / draws
        assert abs(estimate - delta**2) <= 0.05 * delta**2


class TestPerturbation:
    def test_zero_level_returns_truth(self, ground_truth):
        x_true, _ = ground_truth
        x0 = perturb_initial(x_true, 0.0, seed=3)
        assert np.array_equal(x0.flat, x_true.flat)

    def test_result_in_domain(self, ground_truth):
        x_true, _ = ground_truth
        for seed in range(20):
            x0 = perturb_initial(x_true, 0.15, seed=[seed, 0])
            assert np.all(x0.kinetic_block >= 1e-3)
            assert x0.m[0] >= 0 and x0.m[1] <= 0 and x0.m[2] <= 0

    def test_expected_relative_deviation(self, ground_truth):
        # E(|x0 - x|^2 / |x|^2) = delta_x / 4 + delta_x^2, Monte-Carlo to 5%
        x_true, _ = ground_truth
        delta = 0.1
        expected = delta / 4.0 + delta**2
        norm2 = float(np.linalg.norm(x_true.flat)) ** 2
        total = 0.0
        draws = 10_000
        for seed in range(draws):
            x0 = perturb_initial(x_true, delta, seed=[seed, 0])
            total += float(np.sum((x0.flat - x_true.flat) ** 2)) / norm2
        estimate = total / draws
        assert abs(estimate - expected) <= 0.05 * expected

    def test_level_015_expectation_arithmetic(self):
        assert 0.15 / 4 + 0.15**2 == pytest.approx(0.06, rel=1e-12)


class TestCampaign:
    def test_single_repetition(self, scenario):
        spec = CampaignSpec(delta_y=0.0, delta_x=0.05, repetitions=1, seed=11,
                            settings=IrgnmSettings(max_iter=60))
        summary = run_campaign(spec, scenario)
        assert summary.repetitions == 1
        assert summary.diverged_count in (0, 1)

    def test_noiseless_campaign_improves_in_every_run(self, scenario):
        # every noise-free run improves on its initialization; the rare
        # diverged ones are late numerical breakdowns of stuck runs, never
        # runs that failed to improve
        spec = CampaignSpec(delta_y=0.0, delta_x=0.15, repetitions=8, seed=5,
                            settings=IrgnmSettings(max_iter=300))
        summary = run_campaign(spec, scenario)
        assert summary.median_run is not None
        for digest in summary.digests:
            if digest.diverged:
                assert digest.failure is not None
        assert summary.diverged_count <= 3

    def test_mild_noiseless_campaign_never_diverges(self, scenario):
        spec = CampaignSpec(delta_y=0.0, delta_x=0.05, repetitions=8, seed=5,
                            settings=IrgnmSettings(max_iter=300))
        summary = run_campaign(spec, scenario)
        assert summary.diverged_count == 0

    def test_reproducible(self, scenario):
        spec = CampaignSpec(delta_y=1e-3, delta_x=0.05, repetitions=5, seed=21)
        a = run_campaign(spec, scenario)
        b = run_campaign(spec, scenario)
        assert a.diverged_count == b.diverged_count
        assert a.median_run == b.median_run
        for da, db in zip(a.digests, b.digests):
            assert da == db
        for ra, rb in zip(a.records, b.records):
            assert np.array_equal(ra.residual_norms, rb.residual_norms)

    def test_median_run_selection(self, scenario):
        spec = CampaignSpec(delta_y=1e-3, delta_x=0.05, repetitions=7, seed=2)
        summary = run_campaign(spec, scenario)
        survivors = [d for d in summary.digests if not d.diverged]
        rho = np.array([d.rho_opt for d in survivors])
        median = np.median(rho)
        chosen = next(d for d in summary.digests if d.repetition == summary.median_run)
        assert not chosen.diverged
        assert abs(chosen.rho_opt - median) == pytest.approx(
            np.min(np.abs(rho - median)), abs=1e-12
        )

    def test_known_cart_no_worse_than_full_on_matched_seeds(self, scenario):
        specs = {
            mode: CampaignSpec(delta_y=1e-3, delta_x=0.1, repetitions=10, seed=0, mode=mode)
            for mode in ("full", "known_cart")
        }
        counts = {
            mode: run_campaign(spec, scenario).diverged_count
            for mode, spec in specs.items()
        }
        assert counts["known_cart"] <= counts["full"]


class TestBatchedCampaign:
    """One solver loop runs all repetitions of a cell; each run must come
    out as it does alone.  Both cells have ragged run lengths."""

    # (stop reason, stop iteration, final residual at 12 digits) per run of
    # the full-mode cells with 5 repetitions and seed 5, as the loop that ran
    # one repetition after another gave them
    GOLDEN = {
        (0.0, 0.15): [
            ("max_iter", 300, "2.2681292296e-15"),
            ("max_iter", 300, "3.88371877846e-15"),
            ("max_iter", 300, "2.62057420225e-15"),
            ("failure", 93, "nan"),
            ("failure", 79, "nan"),
        ],
        # run 3 overflows its residual norm on the way to the failure
        (1e-4, 0.15): [
            ("discrepancy", 115, "0.000109732566113"),
            ("discrepancy", 104, "0.000108576022381"),
            ("discrepancy", 103, "0.000103473388105"),
            ("failure", 89, "nan"),
            ("discrepancy", 110, "0.000101845776356"),
        ],
    }

    @pytest.mark.parametrize("cell", sorted(GOLDEN))
    def test_runs_equal_lone_runs_and_golden_stops(self, scenario, cell):
        delta_y, delta_x = cell
        spec = CampaignSpec(delta_y, delta_x, repetitions=5, mode="full", seed=5)
        with np.errstate(over="ignore"):
            summary = run_campaign(spec, scenario)
        x_true, y_true = simulate_ground_truth(scenario)
        settings = spec.resolved_settings()
        for r, record in enumerate(summary.records):
            x0 = perturb_initial(x_true, delta_x, [spec.seed ^ r, 0], settings.epsilon)
            y_delta = add_noise(y_true, delta_y, [spec.seed ^ r, 1])
            with np.errstate(over="ignore"):
                alone = run_irgnm(x0, y_delta, settings, x_true=x_true)
            assert (record.stop_reason, record.stop_iter) == (alone.stop_reason, alone.stop_iter)
            assert np.array_equal(record.residual_norms, alone.residual_norms, equal_nan=True)
            assert np.array_equal(record.rel_errors, alone.rel_errors, equal_nan=True)
            assert np.array_equal(record.final_x.flat, alone.final_x.flat)
            assert record.diverged == alone.diverged
            assert record.failure == alone.failure
            if record.stop_reason == "failure":
                assert f"iteration {record.stop_iter}" in record.failure
        stops = [
            (rec.stop_reason, rec.stop_iter, format(float(rec.residual_norms[-1]), ".12g"))
            for rec in summary.records
        ]
        assert stops == self.GOLDEN[cell]


class TestEmitResults:
    def test_files_schema_and_round_trip(self, scenario, tmp_path):
        spec = CampaignSpec(delta_y=1e-3, delta_x=0.05, repetitions=4, seed=13)
        summary = run_campaign(spec, scenario)
        written = emit_results(summary, tmp_path)
        names = {p.name for p in written}
        assert "table1.csv" in names and "results.json" in names

        table = (tmp_path / "table1.csv").read_text().splitlines()
        assert table[0] == "delta_y,delta_x,mode,repetitions,diverged,median_run"
        assert len(table) == 2

        trace = next(p for p in written if p.name.startswith("trace_"))
        lines = trace.read_text().splitlines()
        assert lines[0] == "iter,residual_norm,rel_error"

        loaded = load_results(tmp_path / "results.json")
        assert loaded[0]["diverged_count"] == summary.diverged_count
        assert loaded[0]["median_run"] == summary.median_run
        assert len(loaded[0]["runs"]) == 4
        round_tripped = json.dumps(loaded)
        assert json.loads(round_tripped) == loaded

    def test_emitting_a_cell_again_replaces_it(self, scenario, tmp_path):
        specs = [
            CampaignSpec(delta_y=1e-3, delta_x=0.05, repetitions=2, seed=seed)
            for seed in (13, 14)
        ]
        summaries = [run_campaign(spec, scenario) for spec in specs]
        for summary in (summaries[0], summaries[1], summaries[0]):
            emit_results(summary, tmp_path)
        once = tmp_path / "once"
        for summary in summaries:
            emit_results(summary, once)
        for name in ("table1.csv", "results.json"):
            assert (tmp_path / name).read_bytes() == (once / name).read_bytes()
        assert len((tmp_path / "table1.csv").read_text().splitlines()) == 3
        assert [e["spec"]["seed"] for e in load_results(tmp_path / "results.json")] == [13, 14]
