"""Closed-form solution of the irreversible two-tissue compartment system.

The model is the linear ODE pair

    d/dt C_fr = K1 * C_art(t) - (k2 + k3) * C_fr,   C_fr(0) = 0
    d/dt C_bd = k3 * C_fr,                          C_bd(0) = 0

with tissue concentration ``C_tis = C_fr + C_bd``.  For a polyexponential
arterial input ``C_art = sum_j lambda_j e^(mu_j t)`` the solution is

    C_tis = sum_j lambda_j (G1 psi0(mu_j, t) + G2 e^(-beta t) psi0(beta + mu_j, t))

with ``beta = k2 + k3``, ``G1 = K1 k3 / beta`` and ``G2 = K1 k2 / beta``.
:func:`region_kernel` is the one implementation of this closed form and of
its exact parameter derivatives, vectorized over regions.  It is a helper of
:func:`.forward.jacobian`, its one caller, which holds the error-state guard
for it: the forward operator and Jacobian are views of its arrays, and every
tissue curve the package writes comes from the forward operator.  The
numerical routes that the tests check it against (quadrature and RK4) and
the split into free and bound compartments live with the tests.

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

from dataclasses import dataclass

import numpy as np


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


# -- stable elementary pieces -------------------------------------------------


def _psi_pair(z, t):
    """``psi0(z, t) = (e^(z t) - 1) / z`` and its derivative with respect to
    ``z``, elementwise, from one ``z t`` product and one ``expm1`` of it.

    ``psi0`` equals ``t`` at ``z = 0``.  The derivative is
    ``t psi0 - t^2 phi2(z t)`` with ``phi2(u) = (e^u - 1 - u) / u^2``, which
    switches to its series ``1/2 + u/6 + u^2/24`` for ``|u| < 1e-4``; it
    equals ``t^2 / 2`` at ``z = 0``.  Both quotients run on every entry; their
    0/0 at ``z = 0`` and below the switch are then overwritten, so the caller
    holds an error-state guard that ignores invalid operations.
    """
    z = np.asarray(z, dtype=float)
    t = np.asarray(t, dtype=float)
    zt = z * t
    em = np.expm1(zt)
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
        index = tuple(np.argwhere(bad)[0])
        raise DomainError(
            f"k2 + k3 must be positive in every region "
            f"(region {index[-1] + 1}: {beta[index]})"
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


def region_kernel(lam, mu, rates, t):
    """The closed form and its parameter derivatives for ``n`` regions driven
    by a ``p``-term arterial input, on ``T`` time points: the three arrays
    ``(w, d_mu, d_rates)`` of the Jacobian.

    ``lam`` and ``mu`` are ``(..., p)`` arrays, ``rates`` an ``(..., n, 3)``
    array of rows ``(K1, k2, k3)`` and ``t`` a 1-d time grid; leading axes
    are a batch of independent parameter points and prefix every result.
    ``w = G1 psi0 + G2 psi1``, with ``psi0[j, l] = psi0(mu_j, t_l)`` and
    ``psi1[i, j, l] = e^(-beta_i t_l) psi0(beta_i + mu_j, t_l)``, holds the
    per-term tissue contributions and ``lam @ w`` the tissue curves
    ``(n, T)``; ``d_mu[i, j, l]`` is the derivative of ``lam @ w`` with
    respect to ``mu_j`` and ``d_rates[i, l]`` the derivatives with respect
    to ``(K1, k2, k3)`` of region ``i``.  Raises :class:`DomainError` naming
    the first region with ``k2 + k3 <= 0``.  The caller holds the
    error-state guard that ignores division, overflow and invalid
    operations (:func:`.forward.jacobian`, its one caller).
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
    terms0 = psi[..., :1, :, :]
    psi1 = eb * psi[..., 1:, :, :]
    w = g1 * terms0 + g2 * psi1
    dpsid = dpsi[..., 1:, :, :]
    d_mu = lam[..., None, :, None] * (g1 * dpsi[..., :1, :, :] + g2 * eb * dpsid)
    # the four weighted term sums behind the rate derivatives, one matmul
    # over a (..., n, 4, p, T) array filled slot by slot; the third slot is
    # not the second negated where both differences are zero (+0.0 each)
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
    return w, d_mu, d_rates

