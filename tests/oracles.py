"""Reference implementations that the tests compare the package against.

The free and bound compartments of the closed form of
:mod:`petident.kinetics`, from its elementary function ``psi0``, two
numerical routes to the tissue curves that share nothing with that closed
form (adaptive quadrature of the
variation-of-constants formula and a fixed-step RK4 integration of the
ODE pair), a damped Gauss-Newton minimizer of the Tikhonov functional,
which gives the consistency test a second estimator beside the IRGNM, the
region-diversity report decided one region triple at a time, and the map
that divides the model's two exact symmetries out of a parameter vector.  No
command of the package needs them, so they live with the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

import numpy as np
from scipy.integrate import quad

from petident.forward import MeasurementSet, ParamVector, forward_vector, jacobian, project_to_domain
from petident.kinetics import KineticParams, _check_clearance, _psi_pair
from petident.polyexp import EQ_TOL, DiversityReport, DiversityWitness, PolyExp


@dataclass(frozen=True)
class TissueCurves:
    """Free and bound compartment values (scalars or arrays over a time
    grid); the tissue value is their sum."""

    c_fr: float | np.ndarray
    c_bd: float | np.ndarray

    @property
    def c_tis(self) -> float | np.ndarray:
        return self.c_fr + self.c_bd


@np.errstate(over="ignore", invalid="ignore")
def tissue_curves(c_art: PolyExp, k: KineticParams, t):
    """Both compartments at scalar or array ``t``:
    ``C_fr = K1 * lam @ psi1`` and ``C_bd = G1 * lam @ (psi0 - psi1)``, with
    ``psi0[j] = psi0(mu_j, t)`` and ``psi1[j] = e^(-beta t) psi0(beta + mu_j, t)``."""
    _check_clearance(np.array([k.beta]))
    t = np.asarray(t, dtype=float)
    grid = np.atleast_1d(t)
    lam, mu = c_art.coefficients, c_art.exponents[:, None]
    psi0 = _psi_pair(mu, grid)[0]
    psi1 = np.exp(-k.beta * grid) * _psi_pair(k.beta + mu, grid)[0]
    fr = k.K1 * (lam @ psi1)
    bd = (k.K1 * k.k3 / k.beta) * (lam @ (psi0 - psi1))
    if t.ndim == 0:
        return TissueCurves(c_fr=float(fr[0]), c_bd=float(bd[0]))
    return TissueCurves(c_fr=fr, c_bd=bd)


def tissue_concentration_quadrature(
    c_art_values: Callable[[float], float],
    k: KineticParams,
    t: float,
) -> float:
    """Tissue value via adaptive quadrature of the variation-of-constants
    representation

        C_tis(t) = K1 k2/beta * e^(-beta t) * int_0^t e^(beta s) C_art(s) ds
                 + K1 k3/beta * int_0^t C_art(s) ds.

    Accepts any continuous arterial input, which makes it an oracle
    independent of the closed forms.  Both integrals are asked for a
    relative error of 1e-11.

    Raises
    ------
    DomainError
        If ``k2 + k3 <= 0``.
    RuntimeError
        If the quadrature does not reach the requested tolerance.
    """
    _check_clearance(np.array([k.beta]))
    t = float(t)
    if t == 0.0:
        return 0.0
    beta = k.beta

    def weighted(s):
        return math.exp(beta * (s - t)) * c_art_values(s)

    val1, err1 = quad(weighted, 0.0, t, epsabs=0.0, epsrel=1e-11, limit=400)
    val2, err2 = quad(c_art_values, 0.0, t, epsabs=0.0, epsrel=1e-11, limit=400)
    scale = max(abs(val1), abs(val2), 1e-300)
    if max(err1, err2) > 1e-6 * scale:
        raise RuntimeError(
            f"quadrature did not converge: errors ({err1:.2e}, {err2:.2e})"
        )
    return k.K1 * (k.k2 * val1 + k.k3 * val2) / beta


def integrate_compartments_rk4_grid(
    c_art_values: Callable[[float], float],
    k: KineticParams,
    t_grid,
    step: float,
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


def tikhonov_objective(
    x: ParamVector, x_bar: ParamVector, y_delta: MeasurementSet, alpha: float
) -> float:
    """Penalized misfit ``|F(x) - y|^2 + alpha * |x - x_bar|^2``.

    The parameter-space norm is the Euclidean norm of the flat vector (all
    blocks weighted equally).
    """
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    residual = forward_vector(x, y_delta) - y_delta.flat()
    penalty = x.flat - x_bar.flat
    return float(residual @ residual + alpha * (penalty @ penalty))


def solve_tikhonov(
    x_bar: ParamVector,
    y_delta: MeasurementSet,
    alpha: float,
) -> ParamVector:
    """Minimize ``|F(x) - y|^2 + alpha |x - x_bar|^2`` over the admissible box
    by damped Gauss-Newton on the stacked residual, starting from the anchor.

    Returns a stationary point (local solution); iteration ends when the
    accepted step is shorter than ``1e-10``, when no damping factor yields
    descent, or after 300 steps.  The box's rate floor is
    :data:`petident.forward.DEFAULT_EPSILON`.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    x = project_to_domain(x_bar)
    for _ in range(300):
        # the Gauss-Newton step of the stacked residual is the IRGNM step
        # anchored at x_bar
        J, value = jacobian(x, y_delta)
        gram = J.T @ J + alpha * np.eye(x.layout.dim)
        rhs = alpha * (x_bar.flat - x.flat) - J.T @ (value - y_delta.flat())
        step = np.linalg.solve(gram, rhs)
        current = tikhonov_objective(x, x_bar, y_delta, alpha)
        damping = 1.0
        accepted = None
        while damping >= 2.0 ** -30:
            candidate = project_to_domain(ParamVector(x.flat + damping * step, x.layout))
            if tikhonov_objective(candidate, x_bar, y_delta, alpha) < current:
                accepted = candidate
                break
            damping *= 0.5
        if accepted is None:
            return x
        moved = float(np.linalg.norm(accepted.flat - x.flat))
        x = accepted
        if moved < 1e-10:
            return x
    return x


def _triple_margin(mu0, mu, lam, k2, k3, regions):
    """Return the margin of the diversity clauses for one region triple.

    The margin is the minimum over all quantities required to be nonzero;
    a value at or below :data:`EQ_TOL` means the corresponding clause
    fails, and the name of the first failing clause is returned alongside.
    """
    quantities: list[float] = []
    k3s = [k3[i] for i in regions]
    betas = [k2[i] + k3[i] for i in regions]
    for a, b in combinations(range(3), 2):
        gap = abs(k3s[a] - k3s[b])
        if gap <= EQ_TOL:
            return None, "k3 not pairwise distinct"
        quantities.append(gap)
        gap = abs(betas[a] - betas[b])
        if gap <= EQ_TOL:
            return None, "k2+k3 not pairwise distinct"
        quantities.append(gap)
    for i, beta in zip(regions, betas):
        shift = abs(mu0 + k3[i])
        if shift <= EQ_TOL:
            return None, f"mu + k3 vanishes in region {i + 1}"
        quantities.append(shift)
        if abs(mu0 + beta) <= EQ_TOL:
            # Resonant region: the disjunction holds through its first branch.
            continue
        denom = beta + mu
        keep = np.abs(denom) > EQ_TOL
        total = float(np.sum(lam[keep] / denom[keep]))
        if abs(total) <= EQ_TOL:
            return None, f"coefficient sum vanishes in region {i + 1}"
        quantities.append(abs(total))
    return min(quantities), None


def region_diversity_report_by_triple(mu, lam, kinetics) -> DiversityReport:
    """:func:`petident.polyexp.region_diversity_report`, deciding the
    clauses of one region triple and one arterial exponent per call of
    :func:`_triple_margin`."""
    mu = np.asarray(mu, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if mu.size == 0 or lam.size != mu.size:
        raise ValueError("mu and lambda must be nonempty and of equal length")
    n = len(kinetics)
    if n < 3:
        return DiversityReport(
            satisfied=False, violations=(f"n < 3 (only {n} regions)",), margin=0.0
        )
    k2 = np.array([k.k2 for k in kinetics], dtype=float)
    k3 = np.array([k.k3 for k in kinetics], dtype=float)

    witnesses = []
    violations = []
    for j0, mu0 in enumerate(mu):
        best = None
        for triple in combinations(range(n), 3):
            margin, failure = _triple_margin(mu0, mu, lam, k2, k3, triple)
            if failure is not None:
                regions = tuple(r + 1 for r in triple)
                violations.append(f"exponent {j0 + 1}, regions {regions}: {failure}")
            elif best is None or margin > best.margin:
                best = DiversityWitness(j0, triple, margin)
        if best is None:
            return DiversityReport(
                satisfied=False,
                witnesses=tuple(witnesses),
                violations=tuple(violations),
                margin=0.0,
            )
        witnesses.append(best)
    return DiversityReport(
        satisfied=True,
        witnesses=tuple(witnesses),
        margin=min(w.margin for w in witnesses),
    )


def canonical(x: ParamVector) -> np.ndarray:
    """``x``'s flat vector with the forward map's two exact symmetries
    divided out, for comparison only: the arterial pairs
    ``(lambda_j, mu_j)`` sorted by ``mu``, and the plasma swap
    ``(A, xi1, xi2) -> (1 - A, xi2, xi1)`` applied where ``xi1 < xi2``
    (it leaves ``f = A e^(xi1 t) + (1 - A) e^(xi2 t)`` unchanged).  A batch
    ``x`` is mapped row by row."""
    layout = x.layout
    flat = x.flat.copy()
    order = np.argsort(x.mu, axis=-1, kind="stable")
    flat[..., : layout.p] = np.take_along_axis(x.lam, order, -1)
    flat[..., layout.p : 2 * layout.p] = np.take_along_axis(x.mu, order, -1)
    if layout.q_hat:
        A, xi1, xi2 = np.moveaxis(x.m, -1, 0)
        swap = xi1 < xi2
        flat[..., layout.m_slice] = np.stack(
            [np.where(swap, 1.0 - A, A), np.where(swap, xi2, xi1), np.where(swap, xi1, xi2)],
            axis=-1,
        )
    return flat
