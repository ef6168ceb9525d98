import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from petident import PlasmaParams, plasma, plasma_fraction

REFERENCE = PlasmaParams("biexp", (0.1, -0.005, -0.1))


def test_starts_at_one_for_any_admissible_parameters(rng):
    for _ in range(30):
        params = PlasmaParams(
            "biexp", (rng.uniform(0, 2), -rng.uniform(0, 1), -rng.uniform(0, 1))
        )
        assert plasma_fraction(params, 0.0) == 1.0


def test_single_exponential_limit():
    params = PlasmaParams("biexp", (1.0, -0.3, -0.9))
    for t in (0.0, 1.0, 10.0):
        assert plasma_fraction(params, t) == pytest.approx(math.exp(-0.3 * t), rel=1e-15)


def test_reference_value_at_100():
    # 0.1 e^-0.5 + 0.9 e^-10, independent scalar arithmetic
    expected = 0.1 * math.exp(-0.5) + 0.9 * math.exp(-10.0)
    assert plasma_fraction(REFERENCE, 100.0) == pytest.approx(expected, rel=1e-15)


def test_unknown_family_rejected():
    with pytest.raises(KeyError, match="unknown plasma-fraction family"):
        PlasmaParams("nosuchmodel", (1.0,))


@settings(max_examples=80, deadline=None)
@given(
    A=st.floats(0, 1, allow_nan=False),
    xi1=st.floats(-2, 0, allow_nan=False),
    xi2=st.floats(-2, 0, allow_nan=False),
)
def test_monotone_nonincreasing_on_unit_range(A, xi1, xi2):
    params = PlasmaParams("biexp", (A, xi1, xi2))
    t = np.linspace(0.0, 62.5, 200)
    values = plasma_fraction(params, t)
    assert np.all(np.diff(values) <= 1e-12)
    assert np.all((values >= -1e-12) & (values <= 1.0 + 1e-12))


def test_continuity_in_parameters(rng):
    t = np.linspace(0.0, 62.5, 50)
    base = np.array([0.4, -0.03, -0.5])
    f0 = plasma_fraction(PlasmaParams("biexp", base), t)
    for delta in (1e-3, 1e-5, 1e-7):
        shift = base + delta * np.array([1.0, -1.0, -1.0])
        f1 = plasma_fraction(PlasmaParams("biexp", shift), t)
        assert np.max(np.abs(f1 - f0)) < 70 * delta


def test_value_and_jacobian():
    m = np.array([[0.3, -0.02, -0.7], [1.2, -0.5, 0.0]])
    t = np.linspace(0.0, 62.5, 25)
    value, jac = plasma.value_and_jacobian(m, t)
    A, xi1, xi2 = (m[:, i, None] for i in range(3))
    assert value.tobytes() == (A * np.exp(xi1 * t) + (1.0 - A) * np.exp(xi2 * t)).tobytes()
    assert jac.shape == (2, 3, 25)
    h = 1e-7
    for c in range(3):
        step = np.zeros(3)
        step[c] = h
        up, down = (plasma.value_and_jacobian(m + d, t)[0] for d in (step, -step))
        quotient = (up - down) / (2 * h)
        np.testing.assert_allclose(jac[:, c], quotient, rtol=1e-6, atol=1e-9)
