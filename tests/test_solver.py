import math

import numpy as np
import pytest

from petident import (
    IrgnmSettings,
    ParamVector,
    RunRecord,
    StepFailure,
    add_noise,
    forward_vector,
    irgnm_step,
    jacobian,
    perturb_initial,
    project_to_domain,
    rho_metrics,
    run_irgnm,
    solve_tikhonov,
)
from petident.solver import _residual_norm


class TestSettings:
    def test_alpha_schedule_decay_conditions(self):
        s = IrgnmSettings(a=800.0, b=0.2)
        alphas = np.array([s.alpha(k) for k in range(50)])
        assert np.all(alphas > 0)
        ratios = alphas[:-1] / alphas[1:]
        assert np.all(ratios >= 1.0)
        np.testing.assert_allclose(ratios, s.c_alpha, rtol=1e-12)
        assert s.c_alpha == pytest.approx(math.exp(0.2), rel=1e-15)
        assert s.alpha(400) < 1e-30

    @pytest.mark.parametrize(
        "kwargs",
        [dict(a=0.0), dict(b=-1.0), dict(tau=1.0), dict(tau=0.9),
         dict(epsilon=0.0), dict(max_iter=-1), dict(max_iter=2.5), dict(max_iter=True),
         dict(delta_estimate=-1e-3)],
    )
    def test_invalid_settings_rejected(self, kwargs):
        with pytest.raises(ValueError):
            IrgnmSettings(**kwargs)


class TestStep:
    def test_fixed_point_at_consistent_anchor(self, ground_truth):
        x_true, y_true = ground_truth
        stepped, failures = irgnm_step(x_true, x_true, y_true, alpha_k=5.0)
        assert failures == [None]
        np.testing.assert_allclose(stepped.flat, x_true.flat, atol=1e-12)

    def test_dominant_regularization_pulls_to_anchor(self, ground_truth, rng):
        x_true, y_true = ground_truth
        x0 = perturb_initial(x_true, 0.05, [7, 0])
        x_k = perturb_initial(x_true, 0.1, [8, 0])
        stepped, _ = irgnm_step(x_k, x0, y_true, alpha_k=1e12)
        expected = x0.flat  # step ~ x0 - x_k
        np.testing.assert_allclose(stepped.flat, expected, rtol=1e-3)

    def test_matches_independent_least_squares_solve(self, ground_truth, rng):
        # the normal-equation step equals the least-squares solution of the
        # stacked system [J; sqrt(alpha) I] d = [r; sqrt(alpha)(x0 - xk)]
        x_true, y_true = ground_truth
        x0 = perturb_initial(x_true, 0.05, [11, 0])
        x_k = perturb_initial(x_true, 0.1, [12, 0])
        alpha = 0.1
        J, value = jacobian(x_k, y_true)
        r = y_true.flat() - value
        stacked = np.vstack([J, math.sqrt(alpha) * np.eye(18)])
        rhs = np.concatenate([r, math.sqrt(alpha) * (x0.flat - x_k.flat)])
        expected_step, *_ = np.linalg.lstsq(stacked, rhs, rcond=None)
        stepped, _ = irgnm_step(x_k, x0, y_true, alpha)
        projected = project_to_domain(
            ParamVector(x_k.flat + expected_step, x_k.layout)
        )
        np.testing.assert_allclose(stepped.flat, projected.flat, rtol=1e-9, atol=1e-12)

    def test_rejects_nonpositive_alpha(self, ground_truth):
        x_true, y_true = ground_truth
        with pytest.raises(ValueError):
            irgnm_step(x_true, x_true, y_true, 0.0)

    def test_batch_steps_each_run_alone(self, ground_truth):
        # rows of a batch step as lone runs do; a run whose normal equations
        # fail is reported in its slot, alone or in the batch
        x_true, y_true = ground_truth
        starts = [perturb_initial(x_true, 0.1, [seed, 0]) for seed in range(3)]
        anchors = [perturb_initial(x_true, 0.05, [seed, 1]) for seed in range(3)]
        blocks = [y_true.c_tis_block.copy() for _ in range(3)]
        blocks[1][0, 3] = np.nan
        data = [y_true.with_blocks(b, y_true.f2_block) for b in blocks]
        stepped, failures = irgnm_step(
            ParamVector(np.stack([x.flat for x in starts]), x_true.layout),
            ParamVector(np.stack([x.flat for x in anchors]), x_true.layout),
            y_true.with_blocks(np.stack(blocks), np.stack([y_true.f2_block] * 3)),
            alpha_k=0.5,
        )
        assert failures[0] is None and failures[2] is None
        assert isinstance(failures[1], StepFailure)
        for b in (0, 2):
            alone, alone_failures = irgnm_step(starts[b], anchors[b], data[b], 0.5)
            assert np.array_equal(stepped.flat[b], alone.flat)
            assert alone_failures == [None]
        _, [failure] = irgnm_step(starts[1], anchors[1], data[1], 0.5)
        assert isinstance(failure, StepFailure)

    def test_given_linearization_is_used(self, ground_truth):
        x_true, y_true = ground_truth
        x_k = perturb_initial(x_true, 0.1, [4, 0])
        linearization = jacobian(x_k, y_true)
        assert np.array_equal(
            irgnm_step(x_k, x_true, y_true, 0.3, linearization=linearization)[0].flat,
            irgnm_step(x_k, x_true, y_true, 0.3)[0].flat,
        )


class TestRunIrgnm:
    def test_start_at_truth_noiseless(self, ground_truth):
        x_true, y_true = ground_truth
        record = run_irgnm(x_true, y_true, IrgnmSettings(max_iter=3), x_true=x_true)
        assert record.residual_norms[0] <= 1e-10
        assert record.rel_errors[0] == 0.0
        assert record.stop_reason == "max_iter"
        assert record.diverged is False

    def test_noiseless_recovery_majority_of_seeds(self, ground_truth):
        x_true, y_true = ground_truth
        hits = 0
        for seed in range(6):
            x0 = perturb_initial(x_true, 0.05, [seed, 0])
            record = run_irgnm(x0, y_true, IrgnmSettings(max_iter=300), x_true=x_true)
            if min(record.rel_errors) <= record.rel_errors[0] * 1e-4:
                hits += 1
        assert hits >= 4

    def test_discrepancy_stop_contract(self, ground_truth):
        x_true, y_true = ground_truth
        delta = 1e-3
        settings = IrgnmSettings(max_iter=200, delta_estimate=delta, tau=1.1)
        for seed in range(3):
            x0 = perturb_initial(x_true, 0.05, [seed, 0])
            y_delta = add_noise(y_true, delta, [seed, 1])
            record = run_irgnm(x0, y_delta, settings, x_true=x_true)
            if record.stop_reason == "discrepancy":
                assert record.residual_norms[-1] <= 1.1 * delta
                assert np.all(record.residual_norms[:-1] > 1.1 * delta)
                assert record.rho_d is not None

    def test_nonfinite_residual_ends_run_as_failure(self, ground_truth):
        # an infinite datum makes the residual infinite: the run stops there
        # instead of stepping on from it
        x_true, y_true = ground_truth
        x0 = perturb_initial(x_true, 0.05, [1, 0])
        block = y_true.c_tis_block.copy()
        block[1, 7] = np.inf
        with np.errstate(over="ignore"):
            record = run_irgnm(
                x0, y_true.with_blocks(block, y_true.f2_block),
                IrgnmSettings(max_iter=5), x_true=x_true,
            )
        assert (record.stop_reason, record.stop_iter) == ("failure", 0)
        assert "iteration 0" in record.failure
        assert record.residual_norms.tolist() == [math.inf]
        assert record.diverged is True

    def test_finite_residual_past_1e154_has_a_finite_norm(self, ground_truth):
        # r . r overflows once entries pass ~1e154; the residual itself is
        # finite, so its norm is too and the run is not a failure
        x_true, y_true = ground_truth
        block = y_true.c_tis_block.copy()
        block[1, 7] = 1e200
        y_delta = y_true.with_blocks(block, y_true.f2_block)
        record = run_irgnm(x_true, y_delta, IrgnmSettings(max_iter=0))
        assert (record.stop_reason, record.stop_iter) == ("max_iter", 0)
        residual = forward_vector(x_true, y_delta) - y_delta.flat()
        assert record.residual_norms.tolist() == [math.hypot(*residual)]
        assert 1e200 <= record.residual_norms[0] < 1.0000001e200

    def test_mixed_batch_norms_follow_the_lone_run_rule(self, ground_truth):
        # one batch: an ordinary row, a finite row whose r . r overflows and
        # a row with an infinite datum; the stacked square sums must give
        # each row the norm _residual_norm gives its residual, and the stops
        # of lone runs
        x_true, y_true = ground_truth
        x0 = perturb_initial(x_true, 0.05, [1, 0])
        blocks = np.stack([y_true.c_tis_block] * 3)
        blocks[1, 1, 7] = 1e200
        blocks[2, 1, 7] = np.inf
        y_delta = y_true.with_blocks(blocks, np.stack([y_true.f2_block] * 3))
        settings = IrgnmSettings(max_iter=3)
        records = run_irgnm(
            ParamVector(np.stack([x0.flat] * 3), x0.layout), y_delta, settings,
            x_true=x_true,
        )
        stops = [(r.stop_reason, r.stop_iter) for r in records]
        assert stops == [("max_iter", 3), ("failure", 1), ("failure", 0)]
        assert 1e200 <= records[1].residual_norms[0] < math.inf
        assert records[2].residual_norms.tolist() == [math.inf]
        for b, record in enumerate(records):
            data = y_delta.flat()[b]
            alone = run_irgnm(
                x0, y_true.with_blocks(blocks[b], y_true.f2_block), settings,
                x_true=x_true,
            )
            assert (alone.stop_reason, alone.stop_iter) == stops[b]
            assert alone.residual_norms.tobytes() == record.residual_norms.tobytes()
            with np.errstate(over="ignore", invalid="ignore"):
                first = _residual_norm(forward_vector(x0, y_true) - data)
                last = _residual_norm(forward_vector(record.final_x, y_true) - data)
            assert first == record.residual_norms[0]
            assert np.array_equal([last], record.residual_norms[-1:], equal_nan=True)

    def test_nonfinite_residual_is_not_a_max_iter_stop(self, ground_truth):
        x_true, y_true = ground_truth
        block = y_true.c_tis_block.copy()
        block[0, 0] = np.nan
        record = run_irgnm(
            x_true, y_true.with_blocks(block, y_true.f2_block), IrgnmSettings(max_iter=0)
        )
        assert (record.stop_reason, record.stop_iter) == ("failure", 0)

    def test_batch_needs_data_per_run(self, ground_truth):
        # shared data would be sliced along its region axis as runs finish
        x_true, y_true = ground_truth
        with pytest.raises(ValueError, match="leading axis"):
            run_irgnm(ParamVector(np.stack([x_true.flat] * 3), x_true.layout), y_true)

    def test_iterates_stay_in_domain(self, ground_truth):
        # the run cut at max_iter=k ends on iterate k of the longest run
        x_true, y_true = ground_truth
        x0 = perturb_initial(x_true, 0.15, [42, 0])
        longest = run_irgnm(x0, y_true, IrgnmSettings(max_iter=40))
        for k in range(41):
            settings = IrgnmSettings(max_iter=k)
            record = run_irgnm(x0, y_true, settings)
            assert (record.stop_reason, record.stop_iter) == ("max_iter", k)
            assert np.array_equal(record.residual_norms, longest.residual_norms[: k + 1])
            it = record.final_x
            residual = forward_vector(it, y_true) - y_true.flat()
            assert _residual_norm(residual) == longest.residual_norms[k]
            assert np.all(it.kinetic_block >= settings.epsilon)
            assert it.m[0] >= 0.0 and it.m[1] <= 0.0 and it.m[2] <= 0.0

    def test_deterministic(self, ground_truth):
        x_true, y_true = ground_truth
        x0 = perturb_initial(x_true, 0.1, [3, 0])
        a = run_irgnm(x0, y_true, IrgnmSettings(max_iter=50), x_true=x_true)
        b = run_irgnm(x0, y_true, IrgnmSettings(max_iter=50), x_true=x_true)
        assert np.array_equal(a.residual_norms, b.residual_norms)
        assert np.array_equal(a.rel_errors, b.rel_errors)
        assert np.array_equal(a.final_x.flat, b.final_x.flat)

    def test_multi_start_consistency(self, ground_truth):
        # all recovered parameter vectors agree, echoing uniqueness
        x_true, y_true = ground_truth
        finals = []
        for seed in range(10):
            x0 = perturb_initial(x_true, 0.05, [seed, 0])
            record = run_irgnm(x0, y_true, IrgnmSettings(max_iter=300), x_true=x_true)
            if not record.diverged:
                finals.append(record.final_x.flat)
        assert len(finals) >= 9
        scale = np.linalg.norm(x_true.flat)
        for f in finals[1:]:
            assert np.linalg.norm(f - finals[0]) <= 1e-3 * scale
        for f in finals:
            kin = f[9:].reshape(3, 3)
            truth = x_true.flat[9:].reshape(3, 3)
            np.testing.assert_allclose(kin[:, 1:], truth[:, 1:], rtol=1e-3)


class TestRhoMetrics:
    def _record(self, rel_errors, stop_reason="discrepancy"):
        return RunRecord(
            residual_norms=np.zeros(len(rel_errors)),
            stop_reason=stop_reason,
            stop_iter=len(rel_errors) - 1,
            final_x=None,
            rel_errors=np.asarray(rel_errors, dtype=float),
        )

    def test_synthetic_halving_history(self, ground_truth):
        x_true, _ = ground_truth
        e0 = 0.2
        x0 = ParamVector(
            x_true.flat + e0 * np.linalg.norm(x_true.flat) * np.eye(18)[0],
            x_true.layout,
        )
        record = self._record([e0, 0.5 * e0, 0.25 * e0])
        rho_opt, rho_d = rho_metrics(record, x0, x_true)
        assert rho_opt == pytest.approx(75.0, rel=1e-12)
        assert rho_d == pytest.approx(75.0, rel=1e-12)

    def test_exact_hit_gives_100(self, ground_truth):
        x_true, _ = ground_truth
        x0 = ParamVector(x_true.flat * 1.1, x_true.layout)
        record = self._record([0.1, 0.05, 0.0], stop_reason="max_iter")
        rho_opt, rho_d = rho_metrics(record, x0, x_true)
        assert rho_opt == 100.0
        assert rho_d is None

    def test_monotone_worsening_is_divergence(self, ground_truth):
        x_true, _ = ground_truth
        x0 = ParamVector(x_true.flat * 1.1, x_true.layout)
        record = self._record([0.1, 0.2, 0.4], stop_reason="max_iter")
        rho_opt, _ = rho_metrics(record, x0, x_true)
        assert rho_opt <= 0.0

    def test_zero_denominator_rejected(self, ground_truth):
        x_true, _ = ground_truth
        record = self._record([0.0, 0.0])
        with pytest.raises(ValueError):
            rho_metrics(record, x_true, x_true)


class TestSolveTikhonov:
    def test_consistent_anchor_is_minimizer(self, ground_truth):
        x_true, y_true = ground_truth
        solution = solve_tikhonov(x_true, y_true, alpha=0.3)
        np.testing.assert_allclose(solution.flat, x_true.flat, atol=1e-12)

    def test_large_alpha_returns_anchor(self, ground_truth):
        x_true, y_true = ground_truth
        x_bar = perturb_initial(x_true, 0.05, [5, 0])
        solution = solve_tikhonov(x_bar, y_true, alpha=1e12)
        np.testing.assert_allclose(solution.flat, x_bar.flat, rtol=1e-3)

    def test_small_alpha_recovers_truth(self, ground_truth):
        # the residual term dominates: the stationary point sits within the
        # alpha-bias of the truth (bias direction varies with the draw)
        x_true, y_true = ground_truth
        x_bar = perturb_initial(x_true, 0.01, [2, 0])
        solution = solve_tikhonov(x_bar, y_true, alpha=1e-6, settings=IrgnmSettings(max_iter=300))
        rel = np.linalg.norm(solution.flat - x_true.flat) / np.linalg.norm(x_true.flat)
        assert rel <= 1e-3
        # cross-check against the iteratively regularized route on the same data
        record = run_irgnm(x_bar, y_true, IrgnmSettings(max_iter=300), x_true=x_true)
        agreement = np.linalg.norm(solution.flat - record.final_x.flat)
        assert agreement <= 1e-3 * np.linalg.norm(x_true.flat)

    def test_rejects_nonpositive_alpha(self, ground_truth):
        x_true, y_true = ground_truth
        with pytest.raises(ValueError):
            solve_tikhonov(x_true, y_true, alpha=0.0)


class TestResidualNorm:
    def test_bitwise_numpy_norm_on_ordinary_residuals(self, rng):
        for scale in (1e-300, 1e-12, 1.0, 1e100, 1e150):
            for size in (1, 7, 100):
                r = scale * rng.normal(size=size)
                assert _residual_norm(r) == float(np.linalg.norm(r))

    def test_nonfinite_entries_give_a_nonfinite_norm(self):
        with np.errstate(invalid="ignore"):
            assert _residual_norm(np.array([1.0, np.inf, 2.0])) == math.inf
            assert math.isnan(_residual_norm(np.array([1.0, np.nan, np.inf])))

    def test_overflowing_square_sum_is_rescaled(self):
        r = np.array([3e200, -4e200, 0.0])
        with np.errstate(over="ignore"):
            assert not math.isfinite(float(r @ r))
            assert _residual_norm(r) == pytest.approx(5e200, rel=1e-15)
            # beyond the largest double the norm itself overflows
            assert _residual_norm(np.array([1.5e308, 1.5e308])) == math.inf
