"""The fused special functions behind the closed-form kernel: accuracy of
``_psi_pair`` against 50-digit references, bitwise equality of
``region_kernel`` with the composition of the separate elementary functions
it replaced, the read-only shape caches, and the import path."""

import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import petident
from petident import forward, solver
from petident.kinetics import _check_clearance, _psi_pair, region_kernel, term_sum

EPS = np.finfo(float).eps


# -- the composition region_kernel replaced, kept as its reference ---------------


def _phi2_reference(z):
    z = np.asarray(z, dtype=float)
    small = np.abs(z) < 1e-4
    zs = np.where(small, 1.0, z)
    return np.where(small, 0.5 + z / 6.0 + z * z / 24.0, (np.expm1(zs) - zs) / (zs * zs))


def _psi0_reference(z, t):
    z = np.asarray(z, dtype=float)
    t = np.asarray(t, dtype=float)
    zt = z * t
    zero = z == 0.0
    zs = np.where(zero, 1.0, z)
    return np.where(zero, t, np.expm1(zt) / zs)


def _psi0_dz_reference(z, t):
    return t * _psi0_reference(z, t) - t * t * _phi2_reference(np.asarray(z) * np.asarray(t))


@np.errstate(over="ignore", invalid="ignore")
def region_kernel_reference(lam, mu, rates, t, derivatives=False):
    lam = np.asarray(lam, dtype=float)
    mu = np.asarray(mu, dtype=float)[..., :, None]
    t = np.asarray(t, dtype=float)
    rates = np.asarray(rates, dtype=float)
    K1, k2, k3 = (rates[..., i, None, None] for i in range(3))
    beta = k2 + k3
    _check_clearance(beta[..., 0, 0])
    g1 = K1 * k3 / beta
    g2 = K1 * k2 / beta
    eb = np.exp(-beta * t)
    psi0 = _psi0_reference(mu, t)
    terms0 = psi0[..., None, :, :]
    psi1 = eb * _psi0_reference(beta + mu[..., None, :, :], t)
    w = g1 * terms0 + g2 * psi1
    if not derivatives:
        return psi0, psi1, w
    dpsid = _psi0_dz_reference(beta + mu[..., None, :, :], t)
    d_mu = lam[..., None, :, None] * (
        g1 * _psi0_dz_reference(mu, t)[..., None, :, :] + g2 * eb * dpsid
    )
    lam_row = lam[..., None, None, :]
    shared = g2[..., 0] * term_sum(lam_row, -t * psi1 + eb * dpsid)
    d_rates = np.stack(
        [
            term_sum(lam_row, (k3 / beta) * terms0 + (k2 / beta) * psi1),
            (g1 / beta)[..., 0] * term_sum(lam_row, psi1 - terms0) + shared,
            (g2 / beta)[..., 0] * term_sum(lam_row, terms0 - psi1) + shared,
        ],
        axis=-1,
    )
    return psi0, psi1, w, d_mu, d_rates


def same_bits(a, b) -> bool:
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


T_GRID = np.concatenate([[0.0], np.geomspace(0.05, 62.5, 24)])


class TestFusedKernel:
    """``region_kernel`` evaluates psi0 and its z-derivative at ``mu`` and at
    ``beta + mu`` from one fused call; every array is bit for bit the one
    of the separate functions."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_bitwise_equal_to_separate_functions(self, data):
        batch = data.draw(st.integers(1, 6), label="B")
        n = data.draw(st.sampled_from([1, 3, 12]), label="n")
        p = data.draw(st.integers(1, 3), label="p")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        lam = rng.normal(size=(batch, p))
        mu = -rng.uniform(0.01, 1.0, size=(batch, p))
        rates = rng.uniform(0.01, 0.5, size=(batch, n, 3))
        for b in range(batch):
            kind = data.draw(st.sampled_from(["plain", "resonant", "zero"]))
            j = data.draw(st.integers(0, p - 1))
            if kind == "zero":
                mu[b, j] = 0.0
            elif kind == "resonant":
                # mu_j = -(k2 + k3) of one region, exactly or a few ulps off
                i = data.draw(st.integers(0, n - 1))
                ulps = data.draw(st.integers(-3, 3))
                beta = rates[b, i, 1] + rates[b, i, 2]
                mu[b, j] = -beta + ulps * np.spacing(beta)
        lead = data.draw(st.sampled_from([True, False]), label="batched")
        args = (lam, mu, rates) if lead else (lam[0], mu[0], rates[0])
        for derivatives in (False, True):
            kernel = region_kernel(*args, T_GRID, derivatives=derivatives)
            fields = (kernel.psi0, kernel.psi1, kernel.w)
            if derivatives:
                fields += (kernel.d_mu, kernel.d_rates)
            reference = region_kernel_reference(*args, T_GRID, derivatives)
            assert len(fields) == len(reference)
            for got, want in zip(fields, reference):
                assert same_bits(got, want)

    def test_direct_calls_raise_no_warning(self):
        # the 0/0 quotients at z = 0 and below the series switch are
        # overwritten, and neither function warns about them
        z = np.array([0.0, -0.0, 3e-6, -2e-5, 0.4])[:, None]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _psi_pair(z, T_GRID)
            region_kernel(
                [1.0, -0.5], [0.0, -0.2], [[0.1, 0.1, 0.1], [0.2, 0.05, 0.15]], T_GRID,
                derivatives=True,
            )

    def test_pair_equals_separate_functions(self):
        z = np.array([-3.0, -1e-3, -1e-4, -5e-5, 0.0, 2e-5, 1e-4, 0.3])[:, None]
        psi0, dz = _psi_pair(z, T_GRID)
        assert same_bits(psi0, _psi0_reference(z, T_GRID))
        assert same_bits(dz, _psi0_dz_reference(z, T_GRID))


# -- 50-digit references ----------------------------------------------------------


def psi_pair_50_digits(z: float, t: float):
    """psi0 and d psi0 / dz at the exact binary values of ``z`` and ``t``."""
    with mpmath.workdps(50):
        z, t = mpmath.mpf(z), mpmath.mpf(t)
        u = z * t
        if abs(u) < mpmath.mpf("1e-8"):
            # series: psi0 = t sum u^m/(m+1)!, dz = t^2 sum (m+1) u^m/(m+2)!
            psi0 = t * mpmath.fsum(u**m / mpmath.factorial(m + 1) for m in range(12))
            dz = t * t * mpmath.fsum(
                (m + 1) * u**m / mpmath.factorial(m + 2) for m in range(12)
            )
            return psi0, dz
    # the closed forms cancel up to 2 log10(1/|u|) <= 16 digits: work at 80
    with mpmath.workdps(80):
        z, t = mpmath.mpf(z), mpmath.mpf(t)
        u = z * t
        em = mpmath.expm1(u)
        return em / z, t * t * (u * mpmath.exp(u) - em) / (u * u)


def dz_error_bound(u: float) -> float:
    """Relative-error bound of the float64 ``d psi0 / dz`` at ``u = z t``.

    ``4 (1 + |u|) eps`` covers rounding (the two terms ``t psi0`` and
    ``t^2 phi2`` cancel by a factor of about ``|u|`` for large ``|u|``).
    The other two terms are a known defect of ``phi2(u) = (e^u - 1 - u)/u^2``
    around its 1e-4 series switch: the direct branch cancels and loses about
    ``eps / |u|`` (worst just above the switch: 1.5e-12 measured at
    ``u = 1.25e-4``, 1.8e-12 at most), and the three-term series below the
    switch drops ``u^3 / 120``, ~2e-14 relative at the switch.  Mending it changes the
    Jacobian's bits, so it is pinned here instead.
    """
    u = abs(u)
    rounding = 4.0 * (1.0 + u) * EPS
    if u >= 1e-4:
        return rounding + 8.0 * EPS / u
    return rounding + u**3 / 30.0


def relative_error(got: float, want) -> float:
    return float(abs((mpmath.mpf(got) - want) / want))


def check_pair(z: float, t: float):
    psi0, dz = _psi_pair(np.array([z]), np.array([t]))
    want_psi0, want_dz = psi_pair_50_digits(z, t)
    u = z * t
    assert relative_error(float(psi0[0]), want_psi0) <= 4.0 * EPS, (z, t)
    assert relative_error(float(dz[0]), want_dz) <= dz_error_bound(u), (z, t)


TIMES = st.floats(1e-3, 62.5)


class TestPsiPairHighPrecision:
    @settings(max_examples=150, deadline=None)
    @given(
        # z t in the subnormal range rounds to few bits; no rate is that small
        u=st.floats(-60.0, 5.0).filter(lambda u: u == 0.0 or abs(u) >= 1e-300),
        t=TIMES,
    )
    def test_over_the_working_range(self, u, t):
        check_pair(u / t, t)

    @settings(max_examples=150, deadline=None)
    @given(
        exponent=st.floats(-7.0, -2.0),
        sign=st.sampled_from([-1.0, 1.0]),
        t=TIMES,
    )
    def test_around_the_series_switch(self, exponent, sign, t):
        check_pair(sign * 10.0**exponent / t, t)

    @settings(max_examples=100, deadline=None)
    @given(
        beta=st.floats(0.002, 2.0),
        ulps=st.integers(-40, 40),
        t=TIMES,
    )
    def test_resonant_band(self, beta, ulps, t):
        # z = beta + mu as the kernel forms it, for mu within ulps of -beta
        mu = -beta + ulps * np.spacing(beta)
        check_pair(beta + mu, t)

    @pytest.mark.parametrize("t", [1e-3, 0.5, 1.0, 62.5])
    def test_at_zero(self, t):
        psi0, dz = _psi_pair(np.array([0.0]), np.array([t]))
        assert psi0[0] == t
        assert relative_error(float(dz[0]), mpmath.mpf(t) ** 2 / 2) <= 2.0 * EPS

    def test_the_switch_defect_is_what_the_bound_names(self):
        # just above |u| = 1e-4 the direct branch is off by ~1.5e-12, which
        # the rounding term alone does not cover
        z, t = 3.111724988706104e-06, 40.2299693592217
        _, dz = _psi_pair(np.array([z]), np.array([t]))
        error = relative_error(float(dz[0]), psi_pair_50_digits(z, t)[1])
        assert 4.0 * (1.0 + 1e-4) * EPS < error <= dz_error_bound(z * t)


# -- read-only shape caches --------------------------------------------------------


class TestShapeCaches:
    def test_rate_plan_is_read_only(self):
        rows, cols = forward._rate_plan(3, 25, 9)
        assert cols.shape == (75, 3) and cols[26].tolist() == [12, 13, 14]
        for array in (rows, cols):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1

    def test_gram_identity_is_read_only(self):
        eye = solver._identity(18)
        assert np.array_equal(eye, np.eye(18))
        with pytest.raises(ValueError, match="read-only"):
            eye[0, 0] = 2.0

    def test_caches_return_the_same_arrays(self):
        assert forward._rate_plan(3, 25, 9)[1] is forward._rate_plan(3, 25, 9)[1]
        assert solver._identity(18) is solver._identity(18)


# -- import path ---------------------------------------------------------------------


def test_import_does_not_load_the_integrator():
    src = str(Path(petident.__file__).resolve().parent.parent)
    code = "\n".join(
        [
            "import sys",
            f"sys.path.insert(0, {src!r})",
            "import petident, petident.cli",
            "print('scipy.integrate' in sys.modules)",
            "from petident import KineticParams, tissue_concentration_quadrature",
            "k = KineticParams(0.157, 0.174, 0.118)",
            "print(repr(tissue_concentration_quadrature(lambda s: 1.0, k, 2.0)))",
            "print('scipy.integrate' in sys.modules)",
        ]
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    before, value, after = result.stdout.split()
    assert (before, after) == ("False", "True")
    k = petident.KineticParams(0.157, 0.174, 0.118)
    exact = petident.tissue_concentration(petident.PolyExp([(1.0, 0.0)]), k, 2.0)
    assert float(value) == pytest.approx(exact, rel=1e-10)
