import dataclasses
import json
import math
from dataclasses import replace

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
from petident.experiments import SECONDS_PER_MINUTE, draw_inputs, summary_to_dict

from golden import BATCHED_CELLS, batched_campaign, golden_stops, pin_message, pinned


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
        assert scenario.p == 3 and scenario.n == 3 and scenario.true_vector().layout.q_hat == 3
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
        sparse_blood = replace(scenario, s_grid=scenario.t_grid[::2])
        for units in ("min", "s"):
            for scn in (scenario, sparse_blood):
                data = scenario_to_dict(scn, units)
                assert ("blood_times" in data["grid"]) == (scn is sparse_blood)
                back = scenario_from_dict(data)
                np.testing.assert_allclose(back.t_grid, scenario.t_grid, rtol=1e-12)
                np.testing.assert_allclose(back.s_grid, scn.s_grid, rtol=1e-12)
                np.testing.assert_allclose(
                    back.c_art.exponents, scenario.c_art.exponents, rtol=1e-12
                )
                np.testing.assert_allclose(
                    [k.K1 for k in back.kinetics],
                    [k.K1 for k in scenario.kinetics],
                    rtol=1e-12,
                )

    def test_unknown_grid_key_rejected(self, scenario):
        data = scenario_to_dict(scenario)
        data["grid"] = {"segments": [[0.0, 62.5, 25]], "units": "min"}
        with pytest.raises(ValueError, match="segments"):
            scenario_from_dict(data)

    @pytest.mark.parametrize("units", ["minutes", "seconds", "sec"])
    def test_unit_spellings_other_than_min_and_s_rejected(self, scenario, units):
        data = scenario_to_dict(scenario)
        data["grid"]["units"] = units
        with pytest.raises(ValueError, match="unknown time unit"):
            scenario_from_dict(data)

    @pytest.mark.parametrize("units, scale", [("min", 1.0), ("s", 60.0)])
    def test_nonpositive_plasma_fraction_rejected(self, scenario, units, scale):
        # f(t) = 2 e^(-t) - 1 (t in minutes) is negative from the 0.8 min sample on
        data = scenario_to_dict(scenario, units)
        data["plasma"].update(A=2.0, xi1=-1.0 / scale, xi2=0.0)
        named = rf"plasma parameters .* at blood time {0.8 * scale} {units}"
        with pytest.raises(ValueError, match=named):
            scenario_from_dict(data)

    @pytest.mark.parametrize("units, scale", [("min", 1.0), ("s", 60.0)])
    def test_nonpositive_clearance_rejected(self, scenario, units, scale):
        data = scenario_to_dict(scenario, units)
        data["regions"][0].update(k2=-0.2 / scale, k3=0.0)
        named = rf"region 1 of 3 has k2 \+ k3 = {-0.2 / scale} 1/{units}"
        with pytest.raises(ValueError, match=named):
            scenario_from_dict(data)

    @pytest.mark.parametrize("units, scale", [("min", 1.0), ("s", 60.0)])
    def test_truth_outside_the_box_rejected(self, scenario, units, scale):
        data = scenario_to_dict(scenario, units)
        data["regions"][2]["K1"] = -0.1 / scale
        named = rf"rates must be nonnegative, region 3 of 3 has K1 = {-0.1 / scale} 1/{units}"
        with pytest.raises(ValueError, match=named):
            scenario_from_dict(data)
        data = scenario_to_dict(scenario, units)
        data["plasma"]["xi2"] = 0.01 / scale
        named = rf"plasma xi2 must not be positive, got {0.01 / scale} 1/{units}"
        with pytest.raises(ValueError, match=named):
            scenario_from_dict(data)

    def test_grid_without_times_is_the_graded_grid(self, scenario):
        data = scenario_to_dict(scenario)
        del data["grid"]["times"]
        loaded = scenario_from_dict(data)
        assert loaded.t_grid.size == 25
        assert np.array_equal(loaded.t_grid, build_time_grid() / SECONDS_PER_MINUTE)
        assert np.array_equal(loaded.s_grid, loaded.t_grid)

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
    def test_zero_level_is_a_bitwise_copy(self, ground_truth):
        # the general path draws exact zeros at delta_y = 0
        _, y_true = ground_truth
        noisy = add_noise(y_true, 0.0, seed=1)
        assert noisy.flat().tobytes() == y_true.flat().tobytes()
        assert not np.shares_memory(noisy.flat(), y_true.flat())

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


@pytest.mark.parametrize("level", [math.nan, math.inf, -0.1])
def test_draws_reject_levels_that_are_not_finite_and_nonnegative(ground_truth, level):
    x_true, y_true = ground_truth
    with pytest.raises(ValueError, match="finite and nonnegative"):
        add_noise(y_true, level, seed=1)
    with pytest.raises(ValueError, match="finite and nonnegative"):
        perturb_initial(x_true, level, [1, 0])


class TestCampaign:
    @pytest.mark.parametrize(
        "levels",
        [(math.nan, 0.1), (math.inf, 0.1), (1e-3, math.nan), (1e-3, math.inf), (-1e-3, 0.1)],
    )
    def test_levels_must_be_finite_and_nonnegative(self, levels):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            CampaignSpec(*levels)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"repetitions": 2.0}, "repetitions must be an integer, got 2.0"),
            ({"repetitions": True}, "repetitions must be an integer, got True"),
            ({"seed": "1"}, "seed must be an integer, got '1'"),
            ({"mode": "bogus"}, "mode must be one of ('full', 'known_cart'), got 'bogus'"),
            ({"repetitions": 0}, "repetitions must be >= 1"),
            ({"seed": -1}, "seed must be nonnegative"),
        ],
    )
    def test_cell_fields_checked(self, fields, message):
        with pytest.raises(ValueError) as info:
            CampaignSpec(1e-3, 0.1, **fields)
        assert str(info.value) == message

    def test_single_repetition(self, scenario):
        spec = CampaignSpec(delta_y=0.0, delta_x=0.05, repetitions=1, seed=11,
                            settings=IrgnmSettings(max_iter=60))
        summary = run_campaign(spec, scenario)
        assert len(summary.records) == 1
        assert summary.diverged_count in (0, 1)

    def test_noiseless_campaign_improves_in_every_run(self, scenario):
        # every noise-free run improves on its initialization; the rare
        # diverged ones are late numerical breakdowns of stuck runs, never
        # runs that failed to improve
        spec = CampaignSpec(delta_y=0.0, delta_x=0.15, repetitions=8, seed=5,
                            settings=IrgnmSettings(max_iter=300))
        summary = run_campaign(spec, scenario)
        assert summary.median_run is not None
        for record in summary.records:
            if record.diverged:
                assert record.failure is not None
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
        assert summary_to_dict(a)["runs"] == summary_to_dict(b)["runs"]
        for ra, rb in zip(a.records, b.records):
            assert np.array_equal(ra.residual_norms, rb.residual_norms)

    def test_median_run_selection(self, scenario):
        spec = CampaignSpec(delta_y=1e-3, delta_x=0.05, repetitions=7, seed=2)
        summary = run_campaign(spec, scenario)
        survivors = [record for record in summary.records if not record.diverged]
        rho = np.array([record.rho_opt for record in survivors])
        median = np.median(rho)
        chosen = summary.records[summary.median_run]
        assert not chosen.diverged
        assert abs(chosen.rho_opt - median) == pytest.approx(
            np.min(np.abs(rho - median)), abs=1e-12
        )

    @pytest.mark.parametrize("seed", [4, 9])
    def test_record_r_is_a_lone_run_on_repetition_r_draws(self, scenario, seed):
        spec = CampaignSpec(delta_y=1e-3, delta_x=0.1, repetitions=4, seed=seed)
        summary = run_campaign(spec, scenario)
        x_true, y_true = simulate_ground_truth(scenario)
        settings = spec.resolved_settings()
        for r in (0, 3):
            x0, y_delta = draw_inputs(
                x_true, y_true, spec.delta_x, spec.delta_y, seed, r, settings.epsilon
            )
            alone = run_irgnm(x0, y_delta, settings, x_true=x_true)
            record = summary.records[r]
            assert (record.stop_reason, record.stop_iter) == (alone.stop_reason, alone.stop_iter)
            assert np.array_equal(record.residual_norms, alone.residual_norms)
            assert np.array_equal(record.rel_errors, alone.rel_errors)
            assert np.array_equal(record.final_x.flat, alone.final_x.flat)
            assert (record.diverged, record.rho_opt, record.rho_d) == (
                alone.diverged, alone.rho_opt, alone.rho_d
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

    @pytest.mark.parametrize("cell", BATCHED_CELLS)
    def test_runs_equal_lone_runs_and_golden_stops(self, scenario, cell):
        delta_y, delta_x = cell
        summary = batched_campaign(delta_y, delta_x)
        x_true, y_true = simulate_ground_truth(scenario)
        spec = summary.spec
        settings = spec.resolved_settings()
        for r, record in enumerate(summary.records):
            x0, y_delta = draw_inputs(
                x_true, y_true, delta_x, delta_y, spec.seed, r, settings.epsilon
            )
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
        # the batched runs equal the lone ones anywhere; the golden stops
        # hold on the platform they were recorded on
        assert golden_stops(summary) == pinned("golden_stops")[str(cell)], pin_message()

    def test_records_are_frozen_and_own_their_final_iterates(self, scenario):
        # a record's final iterate is not a view of the batch it ran in
        summary = run_campaign(CampaignSpec(1e-3, 0.05, repetitions=3, seed=13), scenario)
        for record in summary.records:
            assert record.final_x.flat.flags.owndata
            with pytest.raises(dataclasses.FrozenInstanceError):
                record.diverged = True


class TestEmitResults:
    def test_files_schema_and_round_trip(self, scenario, tmp_path):
        spec = CampaignSpec(delta_y=1e-3, delta_x=0.05, repetitions=4, seed=13)
        summary = run_campaign(spec, scenario)
        written = emit_results([summary], tmp_path)
        names = {p.name for p in written}
        assert "table1.csv" in names and "results.json" in names

        table = (tmp_path / "table1.csv").read_text().splitlines()
        assert table[0] == "delta_y,delta_x,mode,repetitions,diverged,median_run"
        assert len(table) == 2

        trace = next(p for p in written if p.name.startswith("trace_"))
        lines = trace.read_text().splitlines()
        assert lines[0] == "iter,residual_norm,rel_error"

        loaded = json.loads((tmp_path / "results.json").read_text())
        assert loaded[0]["diverged_count"] == summary.diverged_count
        assert loaded[0]["median_run"] == summary.median_run
        assert len(loaded[0]["runs"]) == 4
        round_tripped = json.dumps(loaded)
        assert json.loads(round_tripped) == loaded
