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
region-vectorized closed-form kernel :func:`.kinetics.region_kernel`; this
module only adds the blood block and places the kernel's arrays.  The
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
from functools import lru_cache
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

    @property
    def dim(self) -> int:
        return 2 * self.p + self.q_hat + 3 * self.n

    def kinetic_slice(self) -> slice:
        return slice(2 * self.p + self.q_hat, self.dim)

    def m_slice(self) -> slice:
        return slice(2 * self.p, 2 * self.p + self.q_hat)


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

    @property
    def lam(self) -> np.ndarray:
        return self.flat[..., : self.layout.p]

    @property
    def mu(self) -> np.ndarray:
        return self.flat[..., self.layout.p : 2 * self.layout.p]

    @property
    def m(self) -> np.ndarray:
        return self.flat[..., self.layout.m_slice()]

    @property
    def kinetic_block(self) -> np.ndarray:
        """Per-region rates as an (..., n, 3) array of rows (K1, k2, k3)."""
        return self.flat[..., self.layout.kinetic_slice()].reshape(
            self.flat.shape[:-1] + (self.layout.n, 3)
        )

    @property
    def kinetics(self) -> tuple[KineticParams, ...]:
        """Per-region rates of a single (unbatched) vector."""
        return tuple(KineticParams(*row) for row in self.kinetic_block)


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


def unpack(x: ParamVector):
    """Inverse of :func:`pack`: ``(lambda, mu, m, [KineticParams, ...])``."""
    return x.lam.copy(), x.mu.copy(), x.m.copy(), list(x.kinetics)


@dataclass(frozen=True)
class MeasurementSet:
    """Measurement grids, blood data and (optionally) measured blocks.

    With ``c_tis_block``/``f2_block`` unset this acts as the template that
    defines the forward operator (grids, blood values, mode);
    filled instances additionally carry data.  ``flat()`` concatenates the
    row-major tissue block and the blood block into the solver's data vector.
    The blocks may carry leading batch axes, ``(..., n, T)`` and
    ``(..., q)``: one data set per run of a batch.
    """

    t_grid: np.ndarray
    s_grid: np.ndarray
    c_bl_values: np.ndarray
    mode: str = "full"
    c_tis_block: np.ndarray | None = None
    f2_block: np.ndarray | None = None

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
        if self.c_tis_block is None or self.f2_block is None:
            raise ValueError("measurement blocks are not filled")
        tissue = np.asarray(self.c_tis_block)
        tissue = tissue.reshape(tissue.shape[:-2] + (-1,))
        return np.concatenate([tissue, self.f2_block], axis=-1)

    def with_blocks(self, c_tis_block, f2_block) -> "MeasurementSet":
        return replace(
            self,
            c_tis_block=np.asarray(c_tis_block, dtype=float),
            f2_block=np.asarray(f2_block, dtype=float),
        )


@np.errstate(over="ignore", invalid="ignore")
def forward_vector(x: ParamVector, template: MeasurementSet) -> np.ndarray:
    """Flat forward value ``(F1(x), F2(x))`` of length ``n*T + q`` (with
    the leading axes of a batch ``x``)."""
    kernel = region_kernel(x.lam, x.mu, x.kinetic_block, template.t_grid)
    measured = template.c_bl_values
    if template.mode == "full":
        measured = measured * plasma.value(x.m, template.s_grid)
    return _forward_value(x, kernel, _arterial_exponentials(x, template), measured)


def _arterial_exponentials(x: ParamVector, template: MeasurementSet):
    """``e^(mu_j s_l)`` at the blood sample times, shape ``(..., p, q)``."""
    return np.exp(x.mu[..., :, None] * template.s_grid)


def _forward_value(x, kernel, es, measured):
    """The flat forward value; ``measured`` is the arterial concentration the
    blood data give at the sample times (``C_bl f_m`` or ``C_art_meas``)."""
    tissue = term_sum(x.lam[..., None, None, :], kernel.w)
    blood = measured - term_sum(x.lam[..., None, :], es)
    return np.concatenate([tissue.reshape(tissue.shape[:-2] + (-1,)), blood], axis=-1)


def apply_forward(x: ParamVector, template: MeasurementSet) -> MeasurementSet:
    """Evaluate the forward operator, returning a filled measurement set."""
    y = forward_vector(x, template)
    nT = x.layout.n * template.n_times
    return template.with_blocks(
        y[:nT].reshape(x.layout.n, template.n_times), y[nT:]
    )


@np.errstate(over="ignore", invalid="ignore")
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
    kernel = region_kernel(lam, mu, x.kinetic_block, template.t_grid, derivatives=True)

    J = np.zeros(lead + (nT + template.q, layout.dim))
    # tissue rows: region i owns rows i*T .. (i+1)*T and its three rate columns
    tissue = J[..., :nT, :].reshape(lead + (n, T, layout.dim))
    tissue[..., :p] = kernel.w.swapaxes(-1, -2)
    tissue[..., p : 2 * p] = kernel.d_mu.swapaxes(-1, -2)
    rows, rate_cols = _rate_plan(n, T, layout.kinetic_slice().start)
    J[..., rows, rate_cols] = kernel.d_rates.reshape(lead + (nT, 3))

    es = _arterial_exponentials(x, template)
    J[..., nT:, :p] = -es.swapaxes(-1, -2)
    J[..., nT:, p : 2 * p] = -(lam[..., :, None] * s * es).swapaxes(-1, -2)
    measured = template.c_bl_values
    if template.mode == "full":
        fraction, d_fraction = plasma.value_and_jacobian(x.m, s)
        J[..., nT:, layout.m_slice()] = (measured * d_fraction).swapaxes(-1, -2)
        measured = measured * fraction
    return J, _forward_value(x, kernel, es, measured)


@lru_cache(maxsize=16)
def _rate_plan(n: int, T: int, start: int):
    """Index arrays ``(rows, cols)`` of the tissue rows' rate entries:
    row ``i*T + l`` holds the three rate columns of region ``i``, which
    start at ``start + 3 i``.  Cached per shape, hence read-only."""
    rows = np.arange(n * T)[:, None]
    cols = start + 3 * (rows // T) + np.arange(3)
    rows.flags.writeable = False
    cols.flags.writeable = False
    return rows, cols


def project_to_domain(x: ParamVector, eps: float = DEFAULT_EPSILON,
                      plasma_model: str = "biexp") -> ParamVector:
    """Euclidean projection onto the admissible box: kinetic rates clamped to
    ``[eps, inf)``, plasma parameters onto their admissible set, arterial
    weights and exponents left free.  Idempotent and nonexpansive; a batch
    ``x`` is projected row by row.  ``plasma_model`` must name the
    biexponential family."""
    plasma.check_model(plasma_model)
    projected = ParamVector(x.flat, x.layout)  # its own copy, clamped in place
    rates = projected.flat[..., x.layout.kinetic_slice()]
    np.maximum(rates, eps, out=rates)
    if x.layout.q_hat:
        projected.flat[..., x.layout.m_slice()] = plasma.project(x.m)
    return projected


@np.errstate(over="ignore", invalid="ignore")
def _forward_scale(x: ParamVector, template: MeasurementSet) -> np.ndarray:
    """Magnitude of the intermediate sums behind every forward entry
    (the forward map with all additive pieces replaced by absolute values).
    Rounding in the forward value is proportional to this, not to the
    possibly cancellation-small value itself."""
    lam, s = np.abs(x.lam), template.s_grid
    kernel = region_kernel(x.lam, x.mu, x.kinetic_block, template.t_grid)
    art = lam @ _arterial_exponentials(x, template)
    blood = np.abs(template.c_bl_values)
    if template.mode == "full":
        blood = blood * plasma.magnitude(x.m, s)
    return np.concatenate([(lam @ np.abs(kernel.w)).ravel(), blood + art])


@dataclass(frozen=True)
class JacobianCheck:
    """Result of :func:`finite_difference_check`.

    ``max_rel_dev`` is the largest relative deviation over entries that the
    difference quotient can resolve; ``n_noise_limited`` counts entries whose
    magnitude sits below the roundoff floor of the quotient (those cannot be
    certified by finite differences at the given step and are compared
    against the floor instead).
    """

    max_rel_dev: float
    worst_entry: tuple[int, int]
    n_checked: int
    n_noise_limited: int
    passed: bool


def finite_difference_check(
    x: ParamVector,
    template: MeasurementSet,
    step_scale: float = 1e-6,
    rtol: float = 1e-5,
    magnitude_floor: float = 1e-8,
    corrupt_entry: tuple[int, int, float] | None = None,
) -> JacobianCheck:
    """Compare the analytic Jacobian against central finite differences.

    Entries with magnitude above ``magnitude_floor`` must agree to ``rtol``
    relative, up to the per-entry roundoff floor of the central quotient
    (``~32 eps (|F(x+h)| + |F(x-h)|) / 2h``); in double precision the
    quotient carries that much noise regardless of the Jacobian's quality,
    so smaller deviations on tiny entries are not evidence of error.  A NaN
    in a resolvable entry makes ``max_rel_dev`` NaN and fails the check.

    ``corrupt_entry = (row, col, amount)`` perturbs the analytic Jacobian
    before comparison; used to verify that the check has teeth.
    """
    J, _ = jacobian(x, template)
    if corrupt_entry is not None:
        row, col, amount = corrupt_entry
        J[row, col] += amount
    dim = x.layout.dim
    h = step_scale * (1.0 + np.abs(x.flat))
    # one batch of the 2*dim shifted points: x + h_i e_i, then x - h_i e_i
    points = np.tile(x.flat, (2 * dim, 1))
    diag = np.arange(dim)
    points[diag, diag] += h
    points[dim + diag, diag] -= h
    values = forward_vector(ParamVector(points, x.layout), template)
    quotient = (values[:dim] - values[dim:]).T / (2.0 * h)
    noise = (32.0 * np.finfo(float).eps * _forward_scale(x, template))[:, None] / (2.0 * h)
    deviation = np.abs(J - quotient)
    consider = np.abs(quotient) > magnitude_floor
    resolvable = consider & (rtol * np.abs(quotient) > noise)
    noise_limited = consider & ~resolvable
    rel = np.where(resolvable, deviation / np.where(resolvable, np.abs(quotient), 1.0), 0.0)
    # the first largest deviation, columns taken in order
    col, row = divmod(int(np.argmax(rel.T)), rel.shape[0])
    max_rel = float(rel[row, col])
    return JacobianCheck(
        max_rel_dev=max_rel,
        worst_entry=(row, col),
        n_checked=int(np.count_nonzero(resolvable)),
        n_noise_limited=int(np.count_nonzero(noise_limited)),
        passed=bool(
            max_rel <= rtol
            and not np.any(noise_limited & (deviation > noise + rtol * np.abs(quotient)))
        ),
    )


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
