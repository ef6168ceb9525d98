"""Closed-form and numerical solutions of the irreversible two-tissue
compartment system.

The model is the linear ODE pair

    d/dt C_fr = K1 * C_art(t) - (k2 + k3) * C_fr,   C_fr(0) = 0
    d/dt C_bd = k3 * C_fr,                          C_bd(0) = 0

with tissue concentration ``C_tis = C_fr + C_bd``.  For a polyexponential
arterial input ``C_art = sum_j lambda_j e^(mu_j t)`` the solution is

    C_tis = sum_j lambda_j (G1 psi0(mu_j, t) + G2 e^(-beta t) psi0(beta + mu_j, t))

with ``beta = k2 + k3``, ``G1 = K1 k3 / beta`` and ``G2 = K1 k2 / beta``.
:func:`region_kernel` is the one implementation of this closed form and of
its exact parameter derivatives, vectorized over regions; the single-region
curves here and the forward operator and Jacobian in :mod:`.forward` are
views of its arrays.  Two independent numerical routes (adaptive quadrature
of the variation-of-constants formula and a fixed-step RK4 integration) are
provided as oracles; the quadrature oracle loads SciPy's integrator on its
first call, so importing this module does not.

All closed-form expressions are evaluated through the pair

    psi0(z, t)      = (e^(z t) - 1) / z            (-> t       as z -> 0)
    d/dz psi0(z, t) = t psi0(z, t) - t^2 phi2(z t) (-> t^2 / 2 as z -> 0)
    phi2(u)         = (e^u - 1 - u) / u^2          (-> 1/2     as u -> 0)

which :func:`_psi_pair` computes from one ``expm1(z t)``, once for all
arterial exponents ``mu_j`` and all ``beta_i + mu_j`` together.  The
removable singularities are handled with ``expm1``-based forms and a series,
so the values and their parameter derivatives stay accurate arbitrarily
close to the resonant configurations ``mu_j = -(k2 + k3)`` and ``mu_j = 0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .polyexp import PolyExp

class DomainError(ValueError):
    """Raised when kinetic parameters leave the admissible domain."""


@dataclass(frozen=True)
class KineticParams:
    """Rate constants of one region: influx ``K1``, efflux ``k2``, binding
    ``k3`` (all 1/time, in the time unit of the surrounding scenario)."""

    K1: float
    k2: float
    k3: float

    @property
    def beta(self) -> float:
        """Total free-compartment clearance ``k2 + k3``."""
        return self.k2 + self.k3


@dataclass(frozen=True)
class TissueCurves:
    """Free and bound compartment values (scalars or arrays over a time
    grid); the tissue value is their sum."""

    c_fr: float | np.ndarray
    c_bd: float | np.ndarray

    @property
    def c_tis(self) -> float | np.ndarray:
        return self.c_fr + self.c_bd


# -- stable elementary pieces -------------------------------------------------


def _psi_pair(z, t):
    """``psi0(z, t) = (e^(z t) - 1) / z`` and its derivative with respect to
    ``z``, elementwise, from one ``z t`` product and one ``expm1`` of it.

    ``psi0`` equals ``t`` at ``z = 0``.  The derivative is
    ``t psi0 - t^2 phi2(z t)`` with ``phi2(u) = (e^u - 1 - u) / u^2``, which
    switches to its series ``1/2 + u/6 + u^2/24`` for ``|u| < 1e-4``; it
    equals ``t^2 / 2`` at ``z = 0``.  Both quotients run on every entry; their
    silent 0/0 at ``z = 0`` and below the switch are then overwritten.
    """
    z = np.asarray(z, dtype=float)
    t = np.asarray(t, dtype=float)
    zt = z * t
    em = np.expm1(zt)
    with np.errstate(divide="ignore", invalid="ignore"):
        psi0 = em / z
        phi2 = np.asarray((em - zt) / (zt * zt))
    if np.count_nonzero(z) < z.size:
        psi0 = np.where(z == 0.0, t, psi0)
    small = np.abs(zt) < 1e-4
    u = zt[small]
    phi2[small] = 0.5 + u / 6.0 + u * u / 24.0
    return psi0, t * psi0 - t * t * phi2


def _check_clearance(beta):
    """Reject regions whose ``k2 + k3`` is not positive (NaN passes: it
    propagates into the values and surfaces as a numerical failure).
    ``beta`` holds one entry per region in its last axis."""
    bad = np.less_equal(beta, 0.0)
    if np.count_nonzero(bad):
        beta, bad = np.atleast_1d(beta, bad)
        index = tuple(np.argwhere(bad)[0])
        raise DomainError(
            f"k2 + k3 must be positive in every region "
            f"(region {index[-1]}: {beta[index]})"
        )


def term_sum(lam_row, terms):
    """``sum_j lam_j * terms[..., j, :]``: the arterial weights applied to
    per-term arrays whose term axis is the second to last.

    ``lam_row`` holds the weights as a row, ``(..., 1, p)``, with one more
    axis before it for each broadcast axis of ``terms`` (e.g. regions).
    Each row of a batch is the same vector-matrix product as ``lam @ terms``
    of a single point, so a batch gives the single-point results bit for
    bit."""
    return (lam_row @ terms)[..., 0, :]


# -- the closed form ------------------------------------------------------------


@dataclass(frozen=True)
class RegionKernel:
    """Closed-form pieces of the tissue curves of ``n`` regions driven by a
    ``p``-term arterial input, on ``T`` time points.

    ``psi0[j, l] = psi0(mu_j, t_l)`` and
    ``psi1[i, j, l] = e^(-beta_i t_l) psi0(beta_i + mu_j, t_l)``, so that
    ``w = G1 psi0 + G2 psi1`` holds the per-term tissue contributions and
    ``lam @ w`` the tissue curves ``(n, T)``.  With derivatives requested,
    ``d_mu[i, j, l]`` is the derivative of ``lam @ w`` with respect to
    ``mu_j`` and ``d_rates[i, l]`` the derivatives with respect to
    ``(K1, k2, k3)`` of region ``i``.  A batch of parameter points prefixes
    every array with its leading axes.
    """

    psi0: np.ndarray
    psi1: np.ndarray
    w: np.ndarray
    d_mu: np.ndarray | None = None
    d_rates: np.ndarray | None = None


@np.errstate(over="ignore", invalid="ignore")
def region_kernel(lam, mu, rates, t, derivatives: bool = False) -> RegionKernel:
    """Evaluate the closed form for all regions at once.

    ``lam`` and ``mu`` are ``(..., p)`` arrays, ``rates`` an ``(..., n, 3)``
    array of rows ``(K1, k2, k3)`` and ``t`` a 1-d time grid; leading axes
    are a batch of independent parameter points.  Raises
    :class:`DomainError` naming the first region with ``k2 + k3 <= 0``.
    """
    lam = np.asarray(lam, dtype=float)
    mu = np.asarray(mu, dtype=float)[..., None, :, None]  # (..., 1, p, 1)
    t = np.asarray(t, dtype=float)
    rates = np.asarray(rates, dtype=float)
    # each (..., n, 1, 1): broadcasts against (..., 1, p, T) term arrays;
    # the pairs (k3, k2) and (g1, g2) are (..., n, 2, 1)
    K1 = rates[..., :1, None]
    k32 = rates[..., 2:0:-1, None]
    beta = k32[..., 1:, :] + k32[..., :1, :]
    _check_clearance(beta[..., 0, 0])
    g = K1 * k32 / beta
    g1, g2 = g[..., :1, :], g[..., 1:, :]
    eb = np.exp(-beta * t)
    # psi0 at z = mu_j (first slot) and at z = beta_i + mu_j (one slot per
    # region), from one array: (..., 1 + n, p, T)
    psi, dpsi = _psi_pair(np.concatenate([mu, beta + mu], axis=-3), t)
    psi0 = psi[..., 0, :, :]
    terms0 = psi[..., :1, :, :]
    psi1 = eb * psi[..., 1:, :, :]
    w = g1 * terms0 + g2 * psi1
    if not derivatives:
        return RegionKernel(psi0, psi1, w)

    dpsid = dpsi[..., 1:, :, :]
    d_mu = lam[..., None, :, None] * (g1 * dpsi[..., :1, :, :] + g2 * eb * dpsid)
    # the four weighted term sums behind the rate derivatives, one matmul
    # over a (..., n, 4, p, T) array filled slot by slot
    kb = k32 / beta
    terms = np.empty(psi1.shape[:-2] + (4,) + psi1.shape[-2:])
    terms[..., 0, :, :] = kb[..., :1, :] * terms0 + kb[..., 1:, :] * psi1
    terms[..., 1, :, :] = psi1 - terms0
    terms[..., 2, :, :] = terms0 - psi1
    terms[..., 3, :, :] = -t * psi1 + eb * dpsid
    sums = term_sum(lam[..., None, None, None, :], terms)
    # d_rates: the K1 sum, then (g1, g2) / beta times a sum plus a shared one
    cols = (g / beta) * sums[..., 1:3, :]
    cols += g2 * sums[..., 3:, :]
    d_rates = np.empty(sums.shape[:-2] + (sums.shape[-1], 3))
    d_rates[..., 0] = sums[..., 0, :]
    d_rates[..., 1:] = cols.swapaxes(-1, -2)
    return RegionKernel(psi0, psi1, w, d_mu, d_rates)


def tissue_concentration(c_art: PolyExp, k: KineticParams, t):
    """Tissue value ``C_tis(t) = C_fr(t) + C_bd(t)`` in closed form.

    The per-term contribution is
    ``lambda_j * (G1 * psi0(mu_j, t) + G2 * e^(-beta t) * psi0(beta + mu_j, t))``
    with ``G1 = K1 k3 / beta`` and ``G2 = K1 k2 / beta``; the resonant
    (``mu_j = -beta``) and constant-input (``mu_j = 0``) limits are the
    exact values of these expressions.
    """
    return tissue_curves(c_art, k, t).c_tis


@np.errstate(over="ignore", invalid="ignore")
def tissue_curves(c_art: PolyExp, k: KineticParams, t):
    """Both compartments at scalar or array ``t``:
    ``C_fr = K1 * lam @ psi1`` and ``C_bd = G1 * lam @ (psi0 - psi1)``."""
    t = np.asarray(t, dtype=float)
    lam = c_art.coefficients
    kernel = region_kernel(
        lam, c_art.exponents, [[k.K1, k.k2, k.k3]], np.atleast_1d(t)
    )
    psi1 = kernel.psi1[0]
    fr = k.K1 * (lam @ psi1)
    bd = (k.K1 * k.k3 / k.beta) * (lam @ (kernel.psi0 - psi1))
    if t.ndim == 0:
        return TissueCurves(c_fr=float(fr[0]), c_bd=float(bd[0]))
    return TissueCurves(c_fr=fr, c_bd=bd)


# -- independent oracles -------------------------------------------------------


def tissue_concentration_quadrature(
    c_art_values: Callable[[float], float],
    k: KineticParams,
    t: float,
    rtol: float = 1e-11,
) -> float:
    """Tissue value via adaptive quadrature of the variation-of-constants
    representation

        C_tis(t) = K1 k2/beta * e^(-beta t) * int_0^t e^(beta s) C_art(s) ds
                 + K1 k3/beta * int_0^t C_art(s) ds.

    Accepts any continuous arterial input, which makes it an oracle
    independent of the closed forms.

    Raises
    ------
    DomainError
        If ``k2 + k3 <= 0``.
    RuntimeError
        If the quadrature does not reach the requested tolerance.
    """
    # SciPy's integrator is loaded here, on first use, so that importing
    # the package does not pay for it
    from scipy.integrate import quad

    _check_clearance(k.beta)
    t = float(t)
    if t == 0.0:
        return 0.0
    beta = k.beta

    def weighted(s):
        return math.exp(beta * (s - t)) * c_art_values(s)

    val1, err1 = quad(weighted, 0.0, t, epsabs=0.0, epsrel=rtol, limit=400)
    val2, err2 = quad(c_art_values, 0.0, t, epsabs=0.0, epsrel=rtol, limit=400)
    scale = max(abs(val1), abs(val2), 1e-300)
    if max(err1, err2) > 1e-6 * scale:
        raise RuntimeError(
            f"quadrature did not converge: errors ({err1:.2e}, {err2:.2e})"
        )
    return k.K1 * (k.k2 * val1 + k.k3 * val2) / beta


def default_rk4_step(t_end: float) -> float:
    """Default RK4 step: 1e-3 of the integration span for sub-unit spans,
    otherwise 1e-3 time units, never larger than 1e-2 time units."""
    return min(1e-3 * t_end / max(1.0, t_end), 1e-2)


def integrate_compartments_rk4_grid(
    c_art_values: Callable[[float], float],
    k: KineticParams,
    t_grid,
    step: float | None = None,
) -> TissueCurves:
    """RK4 integration reporting both compartments at every point of an
    increasing time grid (single pass).

    Within each grid interval the step size is shrunk to divide the interval
    exactly, so grid points are hit without interpolation.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size == 0:
        return TissueCurves(c_fr=np.array([]), c_bd=np.array([]))
    if np.any(np.diff(t_grid) < 0) or t_grid[0] < 0:
        raise ValueError("t_grid must be nonnegative and nondecreasing")
    if step is None:
        step = default_rk4_step(float(t_grid[-1]) if t_grid[-1] > 0 else 1.0)
    if step <= 0:
        raise ValueError("step must be positive")

    K1, beta, k3 = k.K1, k.k2 + k.k3, k.k3
    exp = math.exp

    fr = 0.0
    bd = 0.0
    t = 0.0
    out_fr = np.empty_like(t_grid)
    out_bd = np.empty_like(t_grid)
    for idx, t_next in enumerate(t_grid):
        span = t_next - t
        if span > 0.0:
            nsteps = max(1, math.ceil(span / step))
            h = span / nsteps
            for _ in range(nsteps):
                ca0 = c_art_values(t)
                cam = c_art_values(t + 0.5 * h)
                ca1 = c_art_values(t + h)
                # stage derivatives of (fr, bd)
                k1f = K1 * ca0 - beta * fr
                k1b = k3 * fr
                f2 = fr + 0.5 * h * k1f
                k2f = K1 * cam - beta * f2
                k2b = k3 * f2
                f3 = fr + 0.5 * h * k2f
                k3f = K1 * cam - beta * f3
                k3b = k3 * f3
                f4 = fr + h * k3f
                k4f = K1 * ca1 - beta * f4
                k4b = k3 * f4
                fr += h * (k1f + 2.0 * k2f + 2.0 * k3f + k4f) / 6.0
                bd += h * (k1b + 2.0 * k2b + 2.0 * k3b + k4b) / 6.0
                t += h
            t = float(t_next)
        out_fr[idx] = fr
        out_bd[idx] = bd
    return TissueCurves(c_fr=out_fr, c_bd=out_bd)
