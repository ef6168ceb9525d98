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
provided as oracles.

All closed-form expressions are evaluated through the functions

    psi0(z, t) = (e^(z t) - 1) / z        (-> t       as z -> 0)
    phi2(z)    = (e^z - 1 - z) / z^2      (-> 1/2     as z -> 0)

whose removable singularities are handled with ``expm1``-based forms, so the
values and their parameter derivatives stay accurate arbitrarily close to
the resonant configurations ``mu_j = -(k2 + k3)`` and ``mu_j = 0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import quad

from .polyexp import PolyExp

#: Width of the exact-resonance window: inside it the limit expressions for
#: ``mu_j = -(k2+k3)`` and ``mu_j = 0`` are guaranteed (they are also what
#: the stable forms converge to).
RESONANCE_TOL = 1e-9


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


def _phi2(z):
    """(e^z - 1 - z) / z^2 with a series fallback near 0."""
    z = np.asarray(z, dtype=float)
    small = np.abs(z) < 1e-4
    zs = np.where(small, 1.0, z)
    out = np.where(small, 0.5 + z / 6.0 + z * z / 24.0, (np.expm1(zs) - zs) / (zs * zs))
    return out


def _psi0(z, t):
    """(e^(z t) - 1) / z, elementwise; equals t at z = 0."""
    z = np.asarray(z, dtype=float)
    t = np.asarray(t, dtype=float)
    zt = z * t
    zero = z == 0.0
    zs = np.where(zero, 1.0, z)
    return np.where(zero, t, np.expm1(zt) / zs)


def _psi0_dz(z, t):
    """Derivative of :func:`_psi0` with respect to ``z``; equals t^2/2 at 0."""
    return t * _psi0(z, t) - t * t * _phi2(np.asarray(z) * np.asarray(t))


def _check_clearance(beta):
    """Reject regions whose ``k2 + k3`` is not positive (NaN passes: it
    propagates into the values and surfaces as a numerical failure).
    ``beta`` holds one entry per region in its last axis."""
    beta = np.atleast_1d(beta)
    bad = beta <= 0.0
    if bad.any():
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
    mu = np.asarray(mu, dtype=float)[..., :, None]
    t = np.asarray(t, dtype=float)
    rates = np.asarray(rates, dtype=float)
    # each (..., n, 1, 1): broadcasts against (..., 1, p, T) term arrays
    K1, k2, k3 = (rates[..., i, None, None] for i in range(3))
    beta = k2 + k3
    _check_clearance(beta[..., 0, 0])
    g1 = K1 * k3 / beta
    g2 = K1 * k2 / beta
    eb = np.exp(-beta * t)
    psi0 = _psi0(mu, t)
    terms0 = psi0[..., None, :, :]
    psi1 = eb * _psi0(beta + mu[..., None, :, :], t)
    w = g1 * terms0 + g2 * psi1
    if not derivatives:
        return RegionKernel(psi0, psi1, w)

    dpsid = _psi0_dz(beta + mu[..., None, :, :], t)
    d_mu = lam[..., None, :, None] * (g1 * _psi0_dz(mu, t)[..., None, :, :] + g2 * eb * dpsid)
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
