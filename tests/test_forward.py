from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from petident import (
    DomainError,
    KineticParams,
    ParamLayout,
    ParamVector,
    apply_forward,
    finite_difference_check,
    forward_vector,
    integrate_compartments_rk4_grid,
    jacobian,
    pack,
    project_to_domain,
    tikhonov_objective,
    unpack,
)
from petident.experiments import default_scenario
from petident.forward import MODES
from petident.polyexp import eval_polyexp


def twelve_region_scenario(mode):
    """Reference input with 12 regions spread +-30 % around the reference
    rates: exercises the region-vectorized column placement beyond n = 3."""
    ref = default_scenario(mode)
    rates = np.array([[k.K1, k.k2, k.k3] for k in ref.kinetics])
    spread = np.random.default_rng(12).uniform(0.7, 1.3, size=(12, 3))
    kinetics = [KineticParams(*row) for row in rates[np.arange(12) % 3] * spread]
    return replace(ref, kinetics=tuple(kinetics))


def random_in_domain(x_true, rng, spread=0.3):
    flat = x_true.flat * (1.0 + spread * rng.standard_normal(x_true.flat.size))
    return project_to_domain(ParamVector(flat, x_true.layout))


class TestCodec:
    def test_reference_vector_has_length_18(self, ground_truth):
        x_true, _ = ground_truth
        assert x_true.flat.shape == (18,)
        assert x_true.layout == ParamLayout(p=3, q_hat=3, n=3)

    def test_round_trip_exact(self, rng):
        lam = rng.normal(size=4)
        mu = rng.normal(size=4)
        m = rng.normal(size=3)
        kin = [KineticParams(*rng.uniform(0.01, 1, size=3)) for _ in range(5)]
        x = pack(lam, mu, m, kin)
        assert x.flat.size == 2 * 4 + 3 + 15 == 26
        lam2, mu2, m2, kin2 = unpack(x)
        assert np.array_equal(lam, lam2) and np.array_equal(mu, mu2)
        assert np.array_equal(m, m2) and kin2 == kin
        assert np.array_equal(pack(lam2, mu2, m2, kin2).flat, x.flat)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pack([1.0, 2.0], [0.1], [0.0], [KineticParams(0.1, 0.1, 0.1)])
        with pytest.raises(ValueError):
            ParamVector(np.zeros(7), ParamLayout(p=1, q_hat=1, n=2))


class TestForwardOperator:
    def test_blood_block_vanishes_at_truth(self, ground_truth):
        _, y_true = ground_truth
        assert np.max(np.abs(y_true.f2_block)) < 1e-12

    def test_measurement_vector_length(self, ground_truth, scenario):
        _, y_true = ground_truth
        assert y_true.flat().size == scenario.n * 25 + 25 == 100

    def test_matches_rk4_oracle_everywhere(self, ground_truth, scenario):
        x_true, y_true = ground_truth
        for i, k in enumerate(scenario.kinetics):
            oracle = integrate_compartments_rk4_grid(
                lambda s: eval_polyexp(scenario.c_art, s), k, scenario.t_grid, step=2e-3
            )
            np.testing.assert_allclose(
                y_true.c_tis_block[i], oracle.c_tis, rtol=1e-8, atol=1e-12
            )

    def test_scaling_degeneracy(self, ground_truth, template):
        # lambda -> z*lambda, K1 -> K1/z leaves the tissue block unchanged
        # but moves the blood block: blood data pin the common factor
        x_true, y_true = ground_truth
        nT = 75
        base = forward_vector(x_true, template)
        for z in (0.5, 2.0, 10.0):
            flat = x_true.flat.copy()
            flat[:3] *= z
            kin = flat[9:].reshape(3, 3)
            kin[:, 0] /= z
            scaled = forward_vector(ParamVector(flat, x_true.layout), template)
            tissue_scale = np.linalg.norm(base[:nT])
            assert np.linalg.norm(scaled[:nT] - base[:nT]) <= 1e-10 * tissue_scale
            if z != 1.0:
                assert np.linalg.norm(scaled[nT:] - base[nT:]) > 1e-6

    def test_known_cart_mode_ignores_plasma(self, known_cart_scenario):
        x_true = known_cart_scenario.true_vector()
        template = known_cart_scenario.template()
        y = forward_vector(x_true, template)
        assert np.max(np.abs(y[75:])) < 1e-12
        shifted = x_true.flat.copy()
        shifted[6:9] = [0.7, -0.3, -0.01]  # different plasma parameters
        y2 = forward_vector(ParamVector(shifted, x_true.layout), template)
        np.testing.assert_array_equal(y, y2)

    def test_domain_error_for_nonpositive_clearance(self, ground_truth, template):
        x_true, _ = ground_truth
        flat = x_true.flat.copy()
        flat[10] = -0.2  # k2 of region 1
        flat[11] = 0.1
        with pytest.raises(DomainError):
            forward_vector(ParamVector(flat, x_true.layout), template)


class TestJacobian:
    def test_influx_column_is_value_over_influx(self, ground_truth, template):
        x_true, _ = ground_truth
        J, value = jacobian(x_true, template, with_value=True)
        T = template.n_times
        for i in range(3):
            col = 9 + 3 * i
            K1 = x_true.flat[col]
            rows = slice(i * T, (i + 1) * T)
            np.testing.assert_allclose(J[rows, col], value[rows] / K1, rtol=1e-12)

    def test_blood_rows_have_zero_kinetic_columns(self, ground_truth, template):
        x_true, _ = ground_truth
        J = jacobian(x_true, template)
        assert np.all(J[75:, 9:] == 0.0)

    def test_known_cart_blood_rows_have_zero_plasma_columns(self, known_cart_scenario):
        x = known_cart_scenario.true_vector()
        J = jacobian(x, known_cart_scenario.template())
        assert np.all(J[75:, 6:9] == 0.0)

    def test_matches_finite_differences_at_random_points(self, ground_truth, template, rng):
        cases = [(ground_truth[0], template, 20)] + [
            (wide.true_vector(), wide.template(), 5)
            for wide in map(twelve_region_scenario, ("full", "known_cart"))
        ]
        for x_true, tmpl, points in cases:
            for _ in range(points):
                x = random_in_domain(x_true, rng)
                check = finite_difference_check(x, tmpl)
                assert check.passed, check
                assert check.max_rel_dev <= 1e-5

    @pytest.mark.parametrize("n_regions", [3, 12])
    def test_value_is_forward_vector_bitwise(self, n_regions, rng):
        scenario = default_scenario() if n_regions == 3 else twelve_region_scenario("full")
        template = scenario.template()
        for _ in range(5):
            x = random_in_domain(scenario.true_vector(), rng)
            _, value = jacobian(x, template, with_value=True)
            assert np.array_equal(value, forward_vector(x, template))

    def test_corrupted_jacobian_detected(self, ground_truth, template):
        x_true, _ = ground_truth
        check = finite_difference_check(x_true, template, corrupt_entry=(74, 0, 1e-2))
        assert not check.passed


def scenario_with_regions(n, mode):
    if n == 12:
        return twelve_region_scenario(mode)
    ref = default_scenario(mode)
    return replace(ref, kinetics=ref.kinetics[:n])


BATCH_CASES = {(n, mode): scenario_with_regions(n, mode) for n in (1, 3, 12) for mode in MODES}


class TestBatch:
    """A ``(B, dim)`` stack of points gives each row's single-point results
    bit for bit; the batched solver rests on this."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_stack_equals_row_by_row_bitwise(self, data):
        n = data.draw(st.sampled_from([1, 3, 12]), label="n")
        mode = data.draw(st.sampled_from(MODES), label="mode")
        batch = data.draw(st.integers(1, 6), label="B")
        scenario = BATCH_CASES[n, mode]
        x_true, template = scenario.true_vector(), scenario.template()
        layout = x_true.layout
        factor = st.floats(0.7, 1.3)
        rows = []
        for _ in range(batch):
            flat = x_true.flat * np.array(
                data.draw(st.lists(factor, min_size=layout.dim, max_size=layout.dim))
            )
            if data.draw(st.booleans()):
                # an arterial exponent at or next to a region's resonance
                # mu_j = -(k2 + k3)
                j = data.draw(st.integers(0, layout.p - 1))
                i = data.draw(st.integers(0, n - 1))
                k2, k3 = flat[layout.kinetic_slice()][3 * i + 1 : 3 * i + 3]
                offset = data.draw(st.sampled_from([0.0, 1e-13, -1e-10, 1e-6, -1e-3]))
                flat[layout.p + j] = -(k2 + k3) * (1.0 + offset)
            rows.append(flat)
        stack = project_to_domain(ParamVector(np.array(rows), layout))
        values = forward_vector(stack, template)
        J, with_value = jacobian(stack, template, with_value=True)
        assert J.shape == (batch, template.n_times * n + template.q, layout.dim)
        for b, flat in enumerate(rows):
            x = project_to_domain(ParamVector(flat, layout))
            J_b, value_b = jacobian(x, template, with_value=True)
            assert np.array_equal(stack.flat[b], x.flat)
            assert np.array_equal(values[b], forward_vector(x, template))
            assert np.array_equal(J[b], J_b)
            assert np.array_equal(with_value[b], value_b)


class TestProjection:
    def test_identity_on_domain(self, ground_truth):
        x_true, _ = ground_truth
        assert np.array_equal(project_to_domain(x_true).flat, x_true.flat)

    def test_clamps_kinetic_floor_and_plasma_signs(self, ground_truth):
        x_true, _ = ground_truth
        flat = x_true.flat.copy()
        flat[9] = -0.5   # K1 of region 1
        flat[7] = 0.2    # xi1
        projected = project_to_domain(ParamVector(flat, x_true.layout))
        assert projected.flat[9] == 1e-3
        assert projected.flat[7] == 0.0

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_idempotent_and_nonexpansive(self, data):
        layout = ParamLayout(p=2, q_hat=3, n=2)
        box = st.floats(-5, 5, allow_nan=False)
        u = np.array(data.draw(st.lists(box, min_size=13, max_size=13)))
        v = np.array(data.draw(st.lists(box, min_size=13, max_size=13)))
        pu = project_to_domain(ParamVector(u, layout))
        pv = project_to_domain(ParamVector(v, layout))
        again = project_to_domain(pu)
        assert np.array_equal(again.flat, pu.flat)
        assert np.linalg.norm(pu.flat - pv.flat) <= np.linalg.norm(u - v) + 1e-12


class TestTikhonovObjective:
    def test_zero_at_truth(self, ground_truth):
        x_true, y_true = ground_truth
        assert tikhonov_objective(x_true, x_true, y_true, 3.7) == pytest.approx(0.0, abs=1e-22)

    def test_alpha_zero_is_pure_residual(self, ground_truth, rng):
        x_true, y_true = ground_truth
        x = random_in_domain(x_true, rng)
        residual = forward_vector(x, y_true) - y_true.flat()
        assert tikhonov_objective(x, x_true, y_true, 0.0) == pytest.approx(
            float(residual @ residual), rel=1e-14
        )

    def test_sum_of_independently_computed_terms(self, ground_truth, rng):
        x_true, y_true = ground_truth
        x = random_in_domain(x_true, rng)
        x_bar = random_in_domain(x_true, rng)
        # independent recomputation: apply_forward blocks + plain loops
        filled = apply_forward(x, y_true)
        res = 0.0
        for i in range(3):
            for l in range(25):
                res += (filled.c_tis_block[i, l] - y_true.c_tis_block[i, l]) ** 2
        for l in range(25):
            res += (filled.f2_block[l] - y_true.f2_block[l]) ** 2
        pen = sum((a - b) ** 2 for a, b in zip(x.flat, x_bar.flat))
        assert tikhonov_objective(x, x_bar, y_true, 1.0) == pytest.approx(
            res + pen, rel=1e-12
        )

    def test_negative_alpha_rejected(self, ground_truth):
        x_true, y_true = ground_truth
        with pytest.raises(ValueError):
            tikhonov_objective(x_true, x_true, y_true, -1.0)
