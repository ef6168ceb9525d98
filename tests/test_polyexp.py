import time
from itertools import combinations

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from petident import (
    EQ_TOL,
    KineticParams,
    PolyExp,
    eval_polyexp,
    has_distinct_rate_regions,
    region_diversity_report,
)
from petident import polyexp
from oracles import region_diversity_report_by_triple

ARTERIAL_TERMS = [(-5.0, -0.5), (4.0, -0.2), (1.0, -0.1)]


class TestEvalPolyExp:
    def test_arterial_curve_is_zero_at_zero(self):
        g = PolyExp(ARTERIAL_TERMS)
        assert eval_polyexp(g, 0.0) == 0.0

    def test_constant_term(self):
        g = PolyExp([(1.0, 0.0)])
        for t in (0.0, 1.0, 17.3, 1e4):
            assert eval_polyexp(g, t) == 1.0

    def test_against_high_precision_oracle(self):
        # frozen from mpmath at 50 digits: -5 e^-5 + 4 e^-2 + e^-1
        g = PolyExp(ARTERIAL_TERMS)
        with mpmath.workdps(50):
            expected = float(
                sum(mpmath.mpf(lam) * mpmath.e ** (mpmath.mpf(mu) * 10) for lam, mu in ARTERIAL_TERMS)
            )
        assert eval_polyexp(g, 10.0) == pytest.approx(expected, rel=1e-15)

    def test_vectorized_matches_scalar(self):
        g = PolyExp(ARTERIAL_TERMS)
        t = np.linspace(0, 60, 7)
        vals = eval_polyexp(g, t)
        assert vals.shape == (7,)
        for ti, vi in zip(t, vals):
            assert vi == pytest.approx(eval_polyexp(g, float(ti)), rel=1e-15)

    def test_zero_function(self):
        assert PolyExp([]).degree == 0
        assert eval_polyexp(PolyExp([]), 3.0) == 0.0

    def test_terms_sorted_by_exponent(self):
        g = PolyExp([(1.0, -0.1), (-5.0, -0.5), (4.0, -0.2)])
        assert g.terms == tuple(ARTERIAL_TERMS)

    @pytest.mark.parametrize(
        "terms, message",
        [
            ([(1.0, -0.5), (0.0, -0.2)], "lambda must have no zero weight, got [1.0, 0.0]"),
            ([(1.0, -0.1), (-0.0, -0.2)], "lambda must have no zero weight, got [1.0, -0.0]"),
            (
                [(1.0, -0.1), (2.0, -0.5), (1.0, -0.5 + 1e-11)],
                f"mu entries must differ by more than 1e-10, got {[-0.1, -0.5, -0.5 + 1e-11]}",
            ),
        ],
    )
    def test_fewer_terms_than_listed_rejected(self, terms, message):
        # the reader's messages: a zero weight or two exponents within
        # EQ_TOL would leave the sum with fewer terms than it lists
        with pytest.raises(ValueError) as info:
            PolyExp(terms)
        assert str(info.value) == message

    def test_linearity_in_coefficients(self, rng):
        for _ in range(50):
            p1, p2 = rng.integers(1, 5, size=2)
            g = PolyExp(zip(rng.normal(size=p1), rng.normal(size=p1)))
            h = PolyExp(zip(rng.normal(size=p2), rng.normal(size=p2)))
            a, b = rng.normal(size=2)
            t = rng.uniform(-2, 2)
            combined = eval_polyexp(
                PolyExp([(a * lam, mu) for lam, mu in g.terms]
                        + [(b * lam, mu) for lam, mu in h.terms]),
                t,
            )
            expected = a * eval_polyexp(g, t) + b * eval_polyexp(h, t)
            assert combined == pytest.approx(expected, rel=1e-12, abs=1e-12)


def count_sign_changes(values):
    signs = np.sign(values[values != 0.0])
    return int(np.count_nonzero(np.diff(signs) != 0))


class TestRootsBound:
    def test_random_polyexp_sign_changes_within_bound(self, rng):
        for _ in range(40):
            d = int(rng.integers(1, 5))
            g = PolyExp(zip(rng.normal(size=d), rng.normal(size=d)))
            if g.degree == 0:
                continue
            t = np.linspace(-5, 5, 10_000)
            assert count_sign_changes(eval_polyexp(g, t)) <= g.degree - 1


class TestRegionDiversity:
    def test_reference_scenario_satisfied(self, scenario):
        report = region_diversity_report(
            scenario.c_art.exponents, scenario.c_art.coefficients, scenario.kinetics
        )
        assert report.satisfied
        assert len(report.witnesses) == scenario.p
        assert report.margin > 0

    def test_identical_regions_violate(self):
        kin = [KineticParams(0.1, 0.2, 0.3)] * 3
        report = region_diversity_report([-0.5, -0.2], [1.0, 1.0], kin)
        assert not report.satisfied
        assert any("k3 not pairwise distinct" in v for v in report.violations)

    @pytest.mark.parametrize(
        "mu, lam", [([], []), ([-0.5, -0.2], [1.0]), ([-0.5], [1.0, 2.0])]
    )
    def test_empty_or_unequal_terms_rejected(self, mu, lam):
        kin = [KineticParams(0.1, 0.2 + 0.1 * i, 0.3 + 0.1 * i) for i in range(3)]
        with pytest.raises(ValueError, match="nonempty and of equal length"):
            region_diversity_report(mu, lam, kin)

    def test_two_regions_insufficient(self):
        kin = [KineticParams(0.1, 0.2, 0.3), KineticParams(0.2, 0.3, 0.4)]
        report = region_diversity_report([-0.5], [1.0], kin)
        assert not report.satisfied
        assert any("n < 3" in v for v in report.violations)

    def test_resonant_disjunct_accepted(self):
        # mu + k2 + k3 = 0 in one region satisfies the disjunction there
        kin = [
            KineticParams(0.1, 0.2, 0.3),
            KineticParams(0.1, 0.25, 0.35),
            KineticParams(0.1, 0.3, 0.41),
        ]
        report = region_diversity_report([-0.5], [1.0], kin)
        assert report.satisfied

    def test_equals_the_report_decided_triple_by_triple(self, scenario, rng):
        # rates from a few levels, moved by offsets around EQ_TOL, that meet the
        # exponents in mu + k3 = 0 and in resonances mu + k2 + k3 = 0; a third
        # of the weight vectors make the coefficient sum of one region vanish
        offsets = np.array([0.0, 0.6, 1.0, 1.4]) * EQ_TOL
        failures = set()
        for _ in range(1000):
            n, p = int(rng.integers(2, 9)), int(rng.integers(1, 4))
            mu = -rng.choice([0.1, 0.2, 0.3, 0.5], size=p, replace=False)
            lam = rng.choice([-2.0, -1.0, 0.5, 1.0, 3.0], size=p)
            rates = rng.choice([0.0, 0.1, 0.2, 0.25, 0.3, 0.5, 0.6], size=(n, 2))
            rates += rng.choice(offsets, size=(n, 2)) * rng.choice([-1, 1], size=(n, 2))
            denom = rates[rng.integers(n), 1] + mu
            if p > 1 and rng.random() < 1 / 3 and np.all(np.abs(denom) > EQ_TOL):
                lam[-1] = -np.sum(lam[:-1] / denom[:-1]) * denom[-1]
            kin = [KineticParams(0.1, beta - k3, k3) for k3, beta in rates]
            report = region_diversity_report(mu, lam, kin)
            assert report == region_diversity_report_by_triple(mu, lam, kin)
            failures.update(v.split(": ")[-1].split(" in region")[0] for v in report.violations)
        assert failures == {
            "k3 not pairwise distinct",
            "k2+k3 not pairwise distinct",
            "mu + k3 vanishes",
            "coefficient sum vanishes",
            "n < 3 (only 2 regions)",
        }
        # 25 regions tiled from the reference rates, as they are and scaled
        # by factors drawn from [0.7, 1.3]
        base = np.resize([[k.K1, k.k2, k.k3] for k in scenario.kinetics], (25, 3))
        scale = np.random.Generator(np.random.Philox([11, 25])).uniform(0.7, 1.3, (25, 3))
        args = scenario.c_art.exponents, scenario.c_art.coefficients
        for rates in (base, base * scale):
            kin = [KineticParams(*row) for row in rates]
            assert region_diversity_report(*args, kin) == region_diversity_report_by_triple(*args, kin)


class TestSufficientCondition:
    def test_six_distinct_regions(self):
        kin = [KineticParams(0.1, 0.2 + 0.01 * i, 0.1 * (i + 1)) for i in range(6)]
        assert has_distinct_rate_regions(kin, p=3)

    def test_reference_scenario_not_sufficient_but_diverse(self, scenario):
        # only 3 regions < p + 3 = 6: the sufficient condition fails even
        # though the direct diversity check passes
        assert not has_distinct_rate_regions(scenario.kinetics, scenario.p)
        report = region_diversity_report(
            scenario.c_art.exponents, scenario.c_art.coefficients, scenario.kinetics
        )
        assert report.satisfied

    @pytest.mark.parametrize("p", [0, -1])
    def test_degree_below_one_rejected(self, p):
        kin = [KineticParams(0.1, 0.2 + 0.01 * i, 0.1 * (i + 1)) for i in range(6)]
        with pytest.raises(ValueError, match="degree p must be >= 1"):
            has_distinct_rate_regions(kin, p)

    def test_duplicate_k3_among_minimal_set(self):
        kin = [KineticParams(0.1, 0.2 + 0.01 * i, 0.15) for i in range(6)]
        kin = [KineticParams(0.1, 0.2, 0.1), KineticParams(0.1, 0.25, 0.1)] + [
            KineticParams(0.1, 0.2 + 0.03 * i, 0.2 + 0.05 * i) for i in range(4)
        ]
        assert not has_distinct_rate_regions(kin, p=3)

    def test_many_tiled_regions_skip_the_subset_search(self, scenario, monkeypatch):
        # 60 regions of three rate triples are three rate pairs, whose 3
        # distinct values < p + 3 end the search at its root; no subset of
        # the C(60, 6) = 50,063,860 is enumerated
        def no_search(*args):
            raise AssertionError("the subsets were searched")

        monkeypatch.setattr(polyexp, "combinations", no_search)
        kin = [scenario.kinetics[i % 3] for i in range(60)]
        assert not has_distinct_rate_regions(kin, scenario.p)

    def test_many_regions_of_few_levels_take_no_exponential_search(self, monkeypatch):
        # six k3 levels at one k2 + k3 level and five k2 + k3 levels at one
        # k3 level, tiled: each rate has p + 3 = 6 distinct values, but no 6
        # regions are distinct in both, which C(30, 6) = 593,775 subsets took
        # seconds to show; and four k3 levels of 29 own k2 + k3 values each
        # with one k2 + k3 level of 30 own k3 values, 146 pairs of which at
        # most 5 are distinct in both, which the distinct counts of each rate
        # alone took 1.6 million nodes to show
        def no_search(*args):
            raise AssertionError("the subsets were searched")

        monkeypatch.setattr(polyexp, "combinations", no_search)
        pairs = [(0.1 + 0.05 * i, 0.5) for i in range(6)] + [(0.05, 0.6 + 0.05 * i) for i in range(5)]
        own = [(0.05 * (a + 1), 1.0 + 0.01 * (29 * a + j)) for a in range(4) for j in range(29)]
        own += [(2.0 + 0.01 * j, 0.5) for j in range(30)]
        for rates in ([pairs[i % 11] for i in range(30)], [pairs[i % 11] for i in range(60)], own):
            kin = [KineticParams(0.1, beta - k3, k3) for k3, beta in rates]
            start = time.perf_counter()
            assert not has_distinct_rate_regions(kin, p=3)
            assert time.perf_counter() - start < 1.0
        # one region off every level makes six
        assert has_distinct_rate_regions(kin + [KineticParams(0.1, 4.0, 3.0)], p=3)

    def test_agrees_with_the_full_search_at_near_ties(self, rng):
        def full_search(kin, p):
            k3 = np.array([k.k3 for k in kin])
            beta = np.array([k.k2 + k.k3 for k in kin])
            def distinct(values):
                return bool(np.all(np.diff(np.sort(values)) > EQ_TOL))

            return any(
                distinct(k3[list(s)]) and distinct(beta[list(s)])
                for s in combinations(range(len(kin)), p + 3)
            )

        # rates from a few levels, nan and infinities among them, moved by
        # offsets around EQ_TOL; half the inputs repeat one region exactly
        levels = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, np.nan, np.inf, -np.inf]
        weights = [0.13] * 6 + [0.06, 0.08, 0.08]
        offsets = np.array([0.0, 0.6, 1.0, 1.4, 1e7]) * EQ_TOL
        for _ in range(600):
            n, p = int(rng.integers(0, 12)), int(rng.integers(1, 4))
            rates = rng.choice(levels, p=weights, size=(n, 2))
            rates += rng.choice(offsets, size=(n, 2)) * rng.choice([-1, 1], size=(n, 2))
            if n > 1 and rng.random() < 0.5:
                rates[rng.integers(n)] = rates[rng.integers(n)]
            kin = [KineticParams(0.1, k2, k3) for k2, k3 in rates.tolist()]
            # inf - inf is nan, which is never distinct
            with np.errstate(invalid="ignore"):
                expected = full_search(kin, p)
            assert has_distinct_rate_regions(kin, p) == expected

    def test_sufficient_implies_diverse(self, rng):
        # random scenarios with p + 3 separated regions always pass both checks
        for _ in range(25):
            p = int(rng.integers(1, 4))
            lam = rng.normal(size=p) + np.where(rng.normal(size=p) >= 0, 0.5, -0.5)
            mu = -np.cumsum(rng.uniform(0.05, 0.4, size=p))
            kin = [
                KineticParams(
                    float(rng.uniform(0.05, 0.3)),
                    0.1 + 0.07 * i + float(rng.uniform(0, 0.02)),
                    0.05 + 0.11 * i,
                )
                for i in range(p + 3)
            ]
            if not has_distinct_rate_regions(kin, p):
                continue
            report = region_diversity_report(mu, lam, kin)
            assert report.satisfied


@settings(max_examples=60, deadline=None)
@given(
    terms=st.lists(
        st.tuples(
            st.floats(-10, 10, allow_nan=False),
            st.floats(-3, 3, allow_nan=False),
        ),
        min_size=0,
        max_size=5,
    ),
    t=st.floats(-5, 5, allow_nan=False),
)
def test_polyexp_construction_invariants(terms, t):
    # a term list is rejected, or kept whole: sorted, distinct and nonzero
    fewer = any(lam == 0.0 for lam, _ in terms) or np.any(
        np.diff(sorted(mu for _, mu in terms)) <= EQ_TOL
    )
    if fewer:
        with pytest.raises(ValueError):
            PolyExp(terms)
        return
    g = PolyExp(terms)
    assert g.terms == tuple(sorted(terms, key=lambda term: term[1]))
    assert np.all(np.diff(g.exponents) > EQ_TOL)
    assert np.all(g.coefficients != 0.0)
    assert np.isfinite(eval_polyexp(g, t))
