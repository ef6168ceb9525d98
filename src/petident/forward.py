"""Forward measurement operator, its analytic Jacobian, the admissible-domain
projection, and the codec between structured parameters and the flat vector
the solver works on.

The unknown vector is laid out as

    x = (lambda_1..lambda_p, mu_1..mu_p, m_1..m_qhat, K1^1,k2^1,k3^1, ...,
         K1^n,k2^n,k3^n)

and maps to the measurement vector ``y = (F1(x), F2(x))``:

* ``F1``: the tissue concentration of every region at every tissue time
  point (regions are the slow index), computed from the closed-form solution
  of the compartment system driven by ``C_art(t) = sum_j lambda_j e^(mu_j t)``.
* ``F2``: the blood-data coupling at the blood sample times ``s_l``.  In
  ``full`` mode ``F2_l = C_bl(s_l) * f_m(s_l) - C_art(s_l)`` with measured
  total blood values ``C_bl``; in ``known_cart`` mode the blood values are
  direct measurements of ``C_art`` and ``F2_l = C_art_meas(s_l) - C_art(s_l)``
  (the plasma parameters ``m`` stay in the vector but do not enter).

The tissue block, its derivatives and its rounding scale all come from the
region-vectorized closed-form kernel :func:`.kinetics.region_kernel`, which
:func:`jacobian` calls under its own error-state guard; this module only
adds the blood block and places the kernel's arrays.  The
forward map, the Jacobian and the projection also take a batch of points:
``ParamVector.flat`` of shape ``(..., dim)`` gives results with the same
leading axes, each row bitwise equal to the single-point result.  All
entries and all partial derivatives are closed-form expressions in
exponentials, ``psi0(z,t) = (e^(zt)-1)/z`` and its derivative, so the
Jacobian is exact up to rounding and continuous across the resonant
configurations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from . import plasma
from .kinetics import KineticParams, region_kernel, term_sum

MODES = ("full", "known_cart")

#: Lower bound kept on every kinetic rate by the domain projection.
DEFAULT_EPSILON = 1e-3


@dataclass(frozen=True)
class ParamLayout:
    """Block sizes of the flat parameter vector."""

    p: int
    q_hat: int
    n: int

    # read about ten times per IRGNM trip, so each is worked out once
    @cached_property
    def dim(self) -> int:
        return 2 * self.p + self.q_hat + 3 * self.n

    @cached_property
    def m_slice(self) -> slice:
        return slice(2 * self.p, 2 * self.p + self.q_hat)

    @cached_property
    def kinetic_slice(self) -> slice:
        return slice(2 * self.p + self.q_hat, self.dim)

    def names(self) -> list[str]:
        """The components' names, in the order of the flat vector."""
        names = [f"lambda{j + 1}" for j in range(self.p)]
        names += [f"mu{j + 1}" for j in range(self.p)]
        names += [f"m{j + 1}" for j in range(self.q_hat)]
        for i in range(self.n):
            names += [f"K1_{i + 1}", f"k2_{i + 1}", f"k3_{i + 1}"]
        return names


@dataclass(frozen=True)
class ParamVector:
    """Flat parameter vector plus its layout descriptor.

    ``flat`` may carry leading batch axes, ``(..., dim)``; the block views
    then carry them too.
    """

    flat: np.ndarray
    layout: ParamLayout

    def __init__(self, flat, layout: ParamLayout):
        flat = np.asarray(flat, dtype=float)
        if flat.shape[-1:] != (layout.dim,):
            raise ValueError(
                f"flat vector has shape {flat.shape}, layout requires {layout.dim} "
                "entries in the last axis"
            )
        object.__setattr__(self, "flat", flat.copy())
        object.__setattr__(self, "layout", layout)

    @classmethod
    def _adopt(cls, flat: np.ndarray, layout: ParamLayout) -> "ParamVector":
        """``flat`` itself as a vector, unchecked and uncopied: a fresh array."""
        vector = object.__new__(cls)
        vector.__dict__.update(flat=flat, layout=layout)
        return vector

    @property
    def lam(self) -> np.ndarray:
        return self.flat[..., : self.layout.p]

    @property
    def mu(self) -> np.ndarray:
        return self.flat[..., self.layout.p : 2 * self.layout.p]

    @property
    def m(self) -> np.ndarray:
        return self.flat[..., self.layout.m_slice]

    @property
    def kinetic_block(self) -> np.ndarray:
        """Per-region rates as an (..., n, 3) array of rows (K1, k2, k3)."""
        return self.flat[..., self.layout.kinetic_slice].reshape(
            self.flat.shape[:-1] + (self.layout.n, 3)
        )


def pack(lam, mu, m, kinetics: Sequence[KineticParams]) -> ParamVector:
    """Assemble the flat vector from structured blocks."""
    lam = np.asarray(lam, dtype=float)
    mu = np.asarray(mu, dtype=float)
    m = np.asarray(m, dtype=float)
    if lam.shape != mu.shape or lam.ndim != 1:
        raise ValueError("lambda and mu must be 1-d arrays of equal length")
    layout = ParamLayout(p=lam.size, q_hat=m.size, n=len(kinetics))
    kin = np.array([[k.K1, k.k2, k.k3] for k in kinetics], dtype=float)
    flat = np.concatenate([lam, mu, m, kin.ravel()])
    return ParamVector(flat, layout)


@dataclass(frozen=True)
class MeasurementSet:
    """Measurement grids, blood data and (optionally) the measured data.

    With ``values`` unset this acts as the template that defines the
    forward operator (grids, blood values, mode); filled instances carry
    the solver's data vector ``values``, the row-major tissue block and then
    the blood block, with leading batch axes allowed, ``(..., n*T + q)``:
    one data set per run of a batch.  ``c_tis_block`` (``(..., n, T)``) and
    ``f2_block`` (``(..., q)``) are views of it.
    """

    t_grid: np.ndarray
    s_grid: np.ndarray
    c_bl_values: np.ndarray
    mode: str = "full"
    values: np.ndarray | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        object.__setattr__(self, "t_grid", np.asarray(self.t_grid, dtype=float))
        object.__setattr__(self, "s_grid", np.asarray(self.s_grid, dtype=float))
        object.__setattr__(
            self, "c_bl_values", np.asarray(self.c_bl_values, dtype=float)
        )
        if self.c_bl_values.shape != self.s_grid.shape:
            raise ValueError("c_bl_values and s_grid must have equal length")

    @property
    def n_times(self) -> int:
        return self.t_grid.size

    @property
    def q(self) -> int:
        return self.s_grid.size

    def flat(self) -> np.ndarray:
        """The stored data vector, not a copy: a caller copies before writing."""
        if self.values is None:
            raise ValueError("measurement data are not filled")
        return self.values

    @property
    def c_tis_block(self) -> np.ndarray:
        values = self.flat()
        tissue = values[..., : values.shape[-1] - self.q]
        return tissue.reshape(tissue.shape[:-1] + (-1, self.n_times))

    @property
    def f2_block(self) -> np.ndarray:
        values = self.flat()
        return values[..., values.shape[-1] - self.q :]

    def with_flat(self, values) -> "MeasurementSet":
        """This template filled with the data vector ``values``."""
        return replace(self, values=np.asarray(values, dtype=float))


def forward_vector(x: ParamVector, template: MeasurementSet) -> np.ndarray:
    """Flat forward value ``(F1(x), F2(x))`` of length ``n*T + q`` (with
    the leading axes of a batch ``x``): the value half of :func:`jacobian`."""
    return jacobian(x, template)[1]


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def jacobian(x: ParamVector, template: MeasurementSet):
    """Analytic Jacobian of the flat forward map, shape ``(n*T + q, dim)``
    (with the leading axes of a batch ``x``), and the forward vector
    computed from the same intermediates: ``(J, F(x))``.

    Blood rows have zero derivatives with respect to every kinetic rate; in
    ``known_cart`` mode the plasma columns vanish as well.
    """
    layout = x.layout
    p, n = layout.p, layout.n
    lam, mu = x.lam, x.mu
    lead = x.flat.shape[:-1]
    s = template.s_grid
    T = template.n_times
    nT = n * T
    w, d_mu, d_rates = region_kernel(lam, mu, x.kinetic_block, template.t_grid)

    J = np.zeros(lead + (nT + template.q, layout.dim))
    # tissue rows: region i owns rows i*T .. (i+1)*T and its three rate columns
    tissue = J[..., :nT, :].reshape(lead + (n, T, layout.dim))
    tissue[..., :p] = w.swapaxes(-1, -2)
    tissue[..., p : 2 * p] = d_mu.swapaxes(-1, -2)
    # the diagonal blocks of the rate columns, a writeable view of J
    blocks = tissue[..., layout.kinetic_slice].reshape(lead + (n, T, n, 3))
    np.einsum("...itic->...itc", blocks)[...] = d_rates

    # -e^(mu_j s_l), (..., p, q): negated once, for the blood rows that
    # subtract the arterial curve
    nes = -np.exp(mu[..., :, None] * s)
    J[..., nT:, :p] = nes.swapaxes(-1, -2)
    J[..., nT:, p : 2 * p] = (lam[..., :, None] * s * nes).swapaxes(-1, -2)
    measured = template.c_bl_values
    if template.mode == "full":
        fraction, d_fraction = plasma.value_and_jacobian(x.m, s)
        J[..., nT:, layout.m_slice] = (measured * d_fraction).swapaxes(-1, -2)
        measured = measured * fraction
    # the value: the tissue curves, then the blood data's arterial
    # concentration (C_bl f_m or C_art_meas) minus the arterial curve
    curves = term_sum(lam[..., None, None, :], w)
    blood = measured + term_sum(lam[..., None, :], nes)
    return J, np.concatenate([curves.reshape(lead + (-1,)), blood], axis=-1)


def project_to_domain(x: ParamVector, eps: float = DEFAULT_EPSILON,
                      plasma_model: str = "biexp") -> ParamVector:
    """Euclidean projection onto the admissible box: kinetic rates clamped to
    ``[eps, inf)``, plasma parameters onto their admissible set, arterial
    weights and exponents left free.  Idempotent and nonexpansive; a batch
    ``x`` is projected row by row.  ``plasma_model`` must name the
    biexponential family."""
    plasma.check_model(plasma_model)
    flat = x.flat.copy()  # the one copy, clamped in place
    rates = flat[..., x.layout.kinetic_slice]
    np.maximum(rates, eps, out=rates)
    if x.layout.q_hat:
        plasma.project_in_place(flat[..., x.layout.m_slice])
    return ParamVector._adopt(flat, x.layout)


@np.errstate(over="ignore", invalid="ignore")
def _forward_scale(x: ParamVector, template: MeasurementSet, J: np.ndarray) -> np.ndarray:
    """Magnitude of the intermediate sums behind every forward entry
    (the forward map with all additive pieces replaced by absolute values).
    Rounding in the forward value is proportional to this, not to the
    possibly cancellation-small value itself.

    The per-term tissue values and the blood exponentials are ``x``'s
    Jacobian ``J``'s lambda columns, copied into the kernel's contiguous
    ``(n, p, T)`` and ``(p, q)`` layouts so that the weighted sums round as
    they would on the kernel's own arrays."""
    p, n, T = x.layout.p, x.layout.n, template.n_times
    lam = np.abs(x.lam)
    w = np.ascontiguousarray(J[: n * T, :p].reshape(n, T, p).swapaxes(-1, -2))
    art = -(lam @ np.ascontiguousarray(J[n * T :, :p].T))
    blood = np.abs(template.c_bl_values)
    if template.mode == "full":
        blood = blood * plasma.magnitude(x.m, template.s_grid)
    return np.concatenate([(lam @ np.abs(w)).ravel(), blood + art])


@dataclass(frozen=True)
class JacobianCheck:
    """Result of :func:`finite_difference_check`.

    ``max_rel_dev`` is the largest relative deviation over entries that the
    difference quotient can resolve; ``n_noise_limited`` counts entries whose
    magnitude sits below the roundoff floor of the quotient (those cannot be
    certified by finite differences at the given step and are compared
    against the floor instead).  ``worst_entry`` is the entry of
    ``max_rel_dev``, or a failing entry when that one did not fail.
    """

    max_rel_dev: float
    worst_entry: tuple[int, int]
    n_noise_limited: int
    passed: bool


def finite_difference_check(
    x: ParamVector,
    template: MeasurementSet,
    rtol: float,
    corrupt_entry: tuple[int, int, float] | None = None,
) -> JacobianCheck:
    """Compare the analytic Jacobian against central finite differences with
    the step ``1e-6 (1 + |x_i|)`` in component ``i``.

    Entries whose quotient or analytic value exceeds ``1e-8`` in
    magnitude must agree to ``rtol`` relative, up to the per-entry roundoff
    floor of the central quotient, ``32 eps S(x) / 2h``, where ``S(x)`` is
    the magnitude of the intermediate sums behind each forward entry at
    ``x`` (:func:`_forward_scale`); in double precision the quotient carries
    that much noise regardless of the Jacobian's quality, so smaller
    deviations on tiny entries are not evidence of error.  A NaN in a
    resolvable entry makes ``max_rel_dev`` NaN, and any analytic entry that
    is not finite fails the check.

    ``J``, the shifted values and ``S(x)`` all come from one :func:`jacobian`
    call over ``x`` and its ``2·dim`` shifted points (the shifted points'
    matrices go unread).

    ``corrupt_entry = (row, col, amount)`` perturbs the analytic Jacobian
    before comparison; used to verify that the check has teeth.
    """
    dim = x.layout.dim
    h = 1e-6 * (1.0 + np.abs(x.flat))
    # one batch: x, then the 2*dim shifted points x + h_i e_i and x - h_i e_i
    points = np.tile(x.flat, (1 + 2 * dim, 1))
    diag = np.arange(dim)
    points[1 + diag, diag] += h
    points[1 + dim + diag, diag] -= h
    jacobians, values = jacobian(ParamVector._adopt(points, x.layout), template)
    J = jacobians[0]
    noise = (32.0 * np.finfo(float).eps * _forward_scale(x, template, J))[:, None] / (2.0 * h)
    if corrupt_entry is not None:
        row, col, amount = corrupt_entry
        J[row, col] += amount
    quotient = (values[1 : dim + 1] - values[dim + 1 :]).T / (2.0 * h)
    deviation = np.abs(J - quotient)
    # an entry the quotient misses but the analytic Jacobian shows counts too
    consider = (np.abs(quotient) > 1e-8) | (np.abs(J) > 1e-8)
    resolvable = consider & (rtol * np.abs(quotient) > noise)
    noise_limited = consider & ~resolvable
    rel = np.where(resolvable, deviation / np.where(resolvable, np.abs(quotient), 1.0), 0.0)
    # the negated comparisons fail a NaN deviation too
    failing = (
        ~np.isfinite(J)
        | ~(rel <= rtol)
        | noise_limited & ~(deviation <= noise + rtol * np.abs(quotient))
    )
    # the first largest deviation, columns taken in order; when that entry
    # passed but another failed, the first failing entry
    col, row = divmod(int(np.argmax(rel.T)), rel.shape[0])
    max_rel = float(rel[row, col])
    passed = not failing.any()
    if not (passed or failing[row, col]):
        col, row = divmod(int(np.argmax(failing.T)), rel.shape[0])
    return JacobianCheck(
        max_rel_dev=max_rel,
        worst_entry=(row, col),
        n_noise_limited=int(np.count_nonzero(noise_limited)),
        passed=passed,
    )


def numerical_rank(J: np.ndarray) -> tuple[int, float]:
    """The numerical rank of ``J``, its number of singular values above
    ``max(rows, cols) * eps * sigma_max`` (``np.linalg.matrix_rank``'s
    threshold), and ``sigma_min / sigma_max`` over those (0.0 at rank 0)."""
    sigma = np.linalg.svd(J, compute_uv=False)
    rank = int(np.count_nonzero(sigma > max(J.shape) * np.finfo(float).eps * sigma[0]))
    return rank, float(sigma[rank - 1] / sigma[0]) if rank else 0.0
