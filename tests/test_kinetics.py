import math

import numpy as np
import pytest

from petident import (
    DomainError,
    KineticParams,
    PolyExp,
    eval_polyexp,
)
from petident.kinetics import region_kernel

from oracles import integrate_compartments_rk4_grid, tissue_concentration_quadrature, tissue_curves

ARTERIAL = PolyExp([(-5.0, -0.5), (4.0, -0.2), (1.0, -0.1)])
REGION1 = KineticParams(0.157, 0.174, 0.118)
REGION2 = KineticParams(0.161, 0.179, 0.096)


def arterial_fn(t):
    return eval_polyexp(ARTERIAL, t)


class TestRk4Oracle:
    def test_zero_horizon(self):
        curves = integrate_compartments_rk4_grid(arterial_fn, REGION1, [0.0], step=0.1)
        assert curves.c_fr[0] == 0.0 and curves.c_bd[0] == 0.0 and curves.c_tis[0] == 0.0

    def test_fourth_order_convergence(self):
        # halving the step shrinks the error against the closed form ~16x
        exact = tissue_curves(ARTERIAL, REGION1, 5.0).c_tis
        errors = []
        for step in (0.5, 0.25):
            approx = integrate_compartments_rk4_grid(arterial_fn, REGION1, [5.0], step).c_tis[0]
            errors.append(abs(approx - exact))
        ratio = errors[0] / errors[1]
        assert 11.0 < ratio < 22.0

    def test_bound_compartment_nondecreasing(self):
        grid = np.linspace(0.0, 30.0, 61)
        curves = integrate_compartments_rk4_grid(arterial_fn, REGION1, grid, step=0.01)
        assert np.all(np.diff(curves.c_bd) >= -1e-14)

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            integrate_compartments_rk4_grid(arterial_fn, REGION1, [2.0, 1.0], 0.1)


class TestClosedForm:
    def test_zero_influx_gives_zero(self):
        k = KineticParams(0.0, 0.174, 0.118)
        for t in (0.0, 1.0, 30.0):
            assert tissue_curves(ARTERIAL, k, t).c_tis == 0.0

    def test_initial_condition(self):
        assert tissue_curves(ARTERIAL, REGION1, 0.0).c_tis == pytest.approx(0.0, abs=1e-15)
        curves = tissue_curves(ARTERIAL, REGION1, 0.0)
        assert curves.c_fr == pytest.approx(0.0, abs=1e-15)
        assert curves.c_bd == pytest.approx(0.0, abs=1e-15)

    def test_region1_matches_rk4_at_one_minute(self):
        # t = 60 s on the per-minute scale
        value = tissue_curves(ARTERIAL, REGION1, 1.0).c_tis
        oracle = integrate_compartments_rk4_grid(arterial_fn, REGION1, [1.0], step=1e-4).c_tis[0]
        assert value == pytest.approx(oracle, rel=1e-8)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            tissue_curves(ARTERIAL, KineticParams(0.1, -0.2, 0.1), 1.0)

    def test_domain_error_numbers_regions_from_one(self):
        rates = [[0.1, 0.1, 0.1], [0.1, 0.0, 0.0]]
        with pytest.raises(DomainError, match=r"\(region 2: 0\.0\)"):
            region_kernel(np.array([1.0]), np.array([-0.5]), np.array(rates), np.array([1.0]))

    def test_linearity_in_influx_exact(self):
        # doubling K1 scales by a power of two: bit-identical result
        doubled = KineticParams(2 * REGION1.K1, REGION1.k2, REGION1.k3)
        t = np.linspace(0.0, 62.5, 40)
        assert np.array_equal(
            tissue_curves(ARTERIAL, doubled, t).c_tis,
            2.0 * tissue_curves(ARTERIAL, REGION1, t).c_tis,
        )
        tripled = KineticParams(3 * REGION1.K1, REGION1.k2, REGION1.k3)
        np.testing.assert_allclose(
            tissue_curves(ARTERIAL, tripled, t).c_tis,
            3.0 * tissue_curves(ARTERIAL, REGION1, t).c_tis,
            rtol=1e-15,
        )

    def test_superposition(self, rng):
        g = PolyExp([(2.0, -0.3), (-1.0, -0.7)])
        h = PolyExp([(0.5, -0.05), (1.5, -1.1)])
        t = rng.uniform(0, 60, size=12)
        combined = tissue_curves(PolyExp(g.terms + h.terms), REGION1, t).c_tis
        separate = tissue_curves(g, REGION1, t).c_tis + tissue_curves(h, REGION1, t).c_tis
        np.testing.assert_allclose(combined, separate, rtol=1e-12)


class TestFreeCompartment:
    def test_initial_condition(self):
        assert tissue_curves(ARTERIAL, REGION2, 0.0).c_fr == pytest.approx(0.0, abs=1e-15)

    def test_zero_input(self):
        zero = PolyExp([])
        for t in (0.0, 2.5, 50.0):
            assert tissue_curves(zero, REGION2, t).c_fr == 0.0

    def test_region2_matches_rk4_at_five_minutes(self):
        # t = 300 s on the per-minute scale
        value = tissue_curves(ARTERIAL, REGION2, 5.0).c_fr
        oracle = integrate_compartments_rk4_grid(arterial_fn, REGION2, [5.0], step=1e-4).c_fr[0]
        assert value == pytest.approx(oracle, rel=1e-8)


class TestQuadratureOracle:
    def test_zero_time(self):
        assert tissue_concentration_quadrature(arterial_fn, REGION1, 0.0) == 0.0

    def test_agrees_with_closed_form_on_grid(self, scenario):
        for k in scenario.kinetics:
            for t in scenario.t_grid:
                if t == 0.0:
                    continue
                closed = tissue_curves(scenario.c_art, k, float(t)).c_tis
                quad = tissue_concentration_quadrature(
                    lambda s: eval_polyexp(scenario.c_art, s), k, float(t)
                )
                assert closed == pytest.approx(quad, rel=1e-8)

    def test_constant_input_integrates_by_hand(self):
        # constant input c: C_tis(t) = K1 c (k3 t + k2 (1 - e^(-beta t)) / beta) / beta
        c = 2.3
        k = REGION1
        beta = k.k2 + k.k3
        for t in (0.5, 2.0, 3.0, 20.0):
            expected = k.K1 * c * (k.k3 * t + k.k2 * (1 - math.exp(-beta * t)) / beta) / beta
            value = tissue_concentration_quadrature(lambda s: c, k, t)
            assert value == pytest.approx(expected, rel=1e-10)
            # the closed form's zero-exponent branch
            closed = tissue_curves(PolyExp([(c, 0.0)]), k, t).c_tis
            assert value == pytest.approx(closed, rel=1e-10)


class TestOracleEquivalence:
    def test_three_routes_agree_on_random_parameters(self, rng):
        for _ in range(5):
            p = int(rng.integers(1, 4))
            art = PolyExp(zip(rng.uniform(-3, 4, size=p), -rng.uniform(0.02, 0.8, size=p)))
            if art.degree == 0:
                continue
            k = KineticParams(*rng.uniform(0.05, 0.4, size=3))
            t = float(rng.uniform(0.5, 30.0))
            closed = tissue_curves(art, k, t).c_tis
            quad = tissue_concentration_quadrature(lambda s: eval_polyexp(art, s), k, t)
            rk4 = integrate_compartments_rk4_grid(
                lambda s: eval_polyexp(art, s), k, [t], step=5e-4
            ).c_tis[0]
            assert closed == pytest.approx(quad, rel=1e-8)
            assert closed == pytest.approx(rk4, rel=1e-8)


class TestResonance:
    def test_value_continuous_across_resonant_exponent(self):
        k = KineticParams(0.15, 0.2, 0.1)  # beta = 0.3
        t = np.linspace(0.0, 62.5, 30)
        at = tissue_curves(PolyExp([(2.0, -0.3)]), k, t).c_tis
        for offset in (1e-8, -1e-8):
            near = tissue_curves(PolyExp([(2.0, -0.3 + offset)]), k, t).c_tis
            scale = np.max(np.abs(at))
            assert np.max(np.abs(near - at)) <= 1e-6 * scale

    def test_resonant_value_matches_rk4(self):
        k = KineticParams(0.15, 0.2, 0.1)
        art = PolyExp([(2.0, -0.3)])
        value = tissue_curves(art, k, 7.0).c_tis
        oracle = integrate_compartments_rk4_grid(
            lambda s: eval_polyexp(art, s), k, [7.0], 1e-4
        ).c_tis[0]
        assert value == pytest.approx(oracle, rel=1e-9)

    def test_zero_exponent_matches_rk4(self):
        k = KineticParams(0.15, 0.2, 0.1)
        art = PolyExp([(1.3, 0.0), (1.0, -0.2)])
        value = tissue_curves(art, k, 4.0).c_tis
        oracle = integrate_compartments_rk4_grid(
            lambda s: eval_polyexp(art, s), k, [4.0], 1e-4
        ).c_tis[0]
        assert value == pytest.approx(oracle, rel=1e-9)
