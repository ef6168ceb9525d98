"""Projected iteratively regularized Gauss-Newton (IRGNM) solver and an
augmented Gauss-Newton minimizer for the penalized least-squares objective.

One IRGNM step linearizes the forward map at the current iterate ``x_k`` and
solves

    (J_k^T J_k + alpha_k I) * step = J_k^T (y - F(x_k)) + alpha_k (x_0 - x_k)

followed by projection onto the admissible box.  The regularization weights
``alpha_k = a * exp(-b k)`` decay geometrically (ratio ``e^b``), so early
steps stay close to the initial guess and late steps approach plain
Gauss-Newton.  With noisy data the iteration stops at the first iterate
whose residual drops below ``tau * delta`` (discrepancy principle); without
a noise estimate it runs for a fixed number of iterations.

:func:`run_irgnm` is the one IRGNM loop.  It iterates a ``(B, dim)`` stack
of runs (the repetitions of a campaign cell; a lone run is a batch of one),
stops each run on its own and drops it from the stack, and evaluates the
forward map once per iteration: the Jacobian call that yields
``F(x_{k+1})`` for the residual also linearizes the next step.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, LinAlgWarning, get_lapack_funcs
from scipy.linalg import solve as linalg_solve

from .forward import (
    DEFAULT_EPSILON,
    MeasurementSet,
    ParamVector,
    forward_vector,
    jacobian,
    project_to_domain,
)


@dataclass(frozen=True)
class IrgnmSettings:
    """Solver configuration.

    ``a`` and ``b`` define the regularization schedule ``alpha_k = a e^(-bk)``
    (positive, ratio ``alpha_k / alpha_{k+1} = e^b`` between 1 and ``c_alpha``,
    decaying to zero).  ``tau > 1`` is the discrepancy factor,
    ``delta_estimate`` the noise-level estimate (0 disables the discrepancy
    stop), ``epsilon`` the kinetic-rate floor of the admissible box.
    """

    a: float = 800.0
    b: float = 0.2
    tau: float = 1.1
    epsilon: float = DEFAULT_EPSILON
    max_iter: int = 300
    delta_estimate: float = 0.0
    store_iterates: bool = False

    def __post_init__(self):
        if self.a <= 0 or self.b <= 0:
            raise ValueError("schedule parameters a and b must be positive")
        if self.tau <= 1:
            raise ValueError("discrepancy factor tau must exceed 1")
        if self.epsilon <= 0:
            raise ValueError("domain floor epsilon must be positive")
        if self.max_iter < 0:
            raise ValueError("max_iter must be nonnegative")
        if self.delta_estimate < 0:
            raise ValueError("delta_estimate must be nonnegative")

    @classmethod
    def for_noise(cls, delta_y: float, **overrides) -> "IrgnmSettings":
        """Defaults for data at noise level ``delta_y``: 300 iterations for
        noise-free data, 200 otherwise, with the noise level as discrepancy
        estimate.  Keyword arguments replace any field."""
        fields = dict(max_iter=300 if delta_y == 0 else 200, delta_estimate=delta_y)
        fields.update(overrides)
        return cls(**fields)

    def alpha(self, k: int) -> float:
        return self.a * math.exp(-self.b * k)

    @property
    def c_alpha(self) -> float:
        """Exact decay ratio ``alpha_k / alpha_{k+1}``."""
        return math.exp(self.b)


@dataclass
class RunRecord:
    """Trace of one solver run.

    ``residual_norms`` holds ``|F(x_k) - y|`` for ``k = 0 .. stop_iter`` (one
    entry more than the number of steps taken); ``rel_errors`` the matching
    ``|x_k - x_true| / |x_true|`` when the truth was supplied.  A run is
    ``diverged`` when no iterate after the initialization improved on it or
    when the run broke down numerically (``stop_reason = "failure"``: a
    residual that is not finite, or a step that cannot be computed, e.g.
    after an iterate wandered into overflow; ``failure`` says what broke
    down, and no usable terminal iterate exists then).
    ``rho_opt``/``rho_d`` are the percent improvements over the
    initialization at the best iterate and at the discrepancy stop, over the
    recorded part of the run.
    """

    residual_norms: np.ndarray
    stop_reason: str
    stop_iter: int
    final_x: ParamVector
    rel_errors: np.ndarray | None = None
    rho_opt: float | None = None
    rho_d: float | None = None
    diverged: bool | None = None
    iterates: list[ParamVector] | None = None
    failure: str | None = None


class StepFailure(RuntimeError):
    """Normal-equation solve failed; carries the regularization weight and a
    condition estimate of the offending matrix."""

    def __init__(self, alpha: float, cond: float):
        super().__init__(
            f"normal-equation solve failed at alpha={alpha:.3e} (cond~{cond:.3e})"
        )
        self.alpha = alpha
        self.cond = cond


#: The LAPACK Cholesky pair behind scipy's ``cho_factor``/``cho_solve``,
#: called directly: same results, without their per-call argument handling,
#: which costs more than the factorization of these small systems.
_POTRF, _POTRS = get_lapack_funcs(("potrf", "potrs"), dtype=np.float64)


def _solve_normal_equations(gram: np.ndarray, rhs: np.ndarray, alpha: float):
    if not (np.isfinite(gram).all() and np.isfinite(rhs).all()):
        raise StepFailure(alpha, float("inf"))
    factor, info = _POTRF(gram, lower=False, clean=False)
    if info == 0:
        return _POTRS(factor, rhs, lower=False)[0]
    try:
        # pivoted symmetric-indefinite fallback; conditioning warnings are
        # expected here, the caller accounts for breakdown separately
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LinAlgWarning)
            return linalg_solve(gram, rhs, assume_a="sym")
    except LinAlgError as exc:
        raise StepFailure(alpha, float(np.linalg.cond(gram))) from exc


def irgnm_step(
    x_k: ParamVector,
    x0: ParamVector,
    y_delta: MeasurementSet,
    alpha_k: float,
    epsilon: float = DEFAULT_EPSILON,
    linearization: tuple[np.ndarray, np.ndarray] | None = None,
):
    """One regularized Gauss-Newton step followed by the box projection.

    ``linearization`` is ``(J, F(x_k))`` as ``jacobian(x_k, y_delta,
    with_value=True)`` returns it; without it the step computes it.

    A single vector ``x_k`` returns the stepped vector and raises
    :class:`StepFailure` when the normal equations cannot be solved.  A
    batch (``x_k.flat`` and ``x0.flat`` of shape ``(B, dim)``, data blocks
    of ``y_delta`` with the same leading axis) solves each run's normal
    equations on its own and returns ``(stepped, failures)``:
    ``failures[b]`` is the :class:`StepFailure` of run ``b`` or ``None``, and
    the row of a failed run in ``stepped`` is not a step.
    """
    if alpha_k <= 0:
        raise ValueError("alpha_k must be positive")
    if linearization is None:
        linearization = jacobian(x_k, y_delta, with_value=True)
    J, value = linearization
    dim = x_k.layout.dim
    residual = y_delta.flat() - value
    with np.errstate(invalid="ignore", over="ignore"):
        # nonfinite products surface as StepFailure in the solve below; the
        # matmul forms give each run of a batch the products of a lone run
        # bit for bit
        Jt = J.swapaxes(-1, -2)
        gram = Jt @ J + alpha_k * np.eye(dim)
        rhs = (Jt @ residual[..., None])[..., 0] + alpha_k * (x0.flat - x_k.flat)
    steps = np.zeros(rhs.shape)
    rows = steps.reshape(-1, dim)
    failures: list[StepFailure | None] = []
    for b, (gram_b, rhs_b) in enumerate(zip(gram.reshape(-1, dim, dim), rhs.reshape(-1, dim))):
        try:
            rows[b] = _solve_normal_equations(gram_b, rhs_b, alpha_k)
            failures.append(None)
        except StepFailure as exc:
            failures.append(exc)
    single = x_k.flat.ndim == 1
    if single and failures[0] is not None:
        raise failures[0]
    stepped = project_to_domain(
        ParamVector(x_k.flat + steps, x_k.layout), epsilon, y_delta.plasma_model
    )
    return stepped if single else (stepped, failures)


def _take_rows(keep, x: ParamVector, anchor: ParamVector, y_delta: MeasurementSet):
    """Rows ``keep`` of a batch of iterates, their anchors and their data."""
    return (
        ParamVector(x.flat[keep], x.layout),
        ParamVector(anchor.flat[keep], anchor.layout),
        y_delta.with_blocks(y_delta.c_tis_block[keep], y_delta.f2_block[keep]),
    )


def run_irgnm(
    x0: ParamVector,
    y_delta: MeasurementSet,
    settings: IrgnmSettings = IrgnmSettings(),
    x_true: ParamVector | None = None,
):
    """Run the projected IRGNM iteration from ``x0`` on data ``y_delta``.

    With ``delta_estimate > 0`` a run stops at the first iterate whose
    residual is below ``tau * delta_estimate`` (including the initial
    guess), otherwise after ``max_iter`` iterations.  A run stops as
    ``failure`` at the first iterate whose residual is not finite, or whose
    step cannot be computed.  When ``x_true`` is given the relative-error
    trace and the improvement metrics are recorded.

    ``x0.flat`` of shape ``(B, dim)``, with the data blocks of ``y_delta``
    carrying the same leading axis, makes ``B`` independent runs in one loop
    and returns their ``B`` records; a single vector is a batch of one and
    returns its record.  Each trip of the loop takes one step of every run
    still going and evaluates their Jacobians and forward values in one
    call; the next step reuses that linearization.  A run so costs one
    forward evaluation at ``x0`` and one Jacobian per iteration.
    """
    single = x0.flat.ndim == 1
    if single:
        y_delta.flat()  # a template without data fails here
        x0 = ParamVector(x0.flat[None], x0.layout)
        y_delta = y_delta.with_blocks(y_delta.c_tis_block[None], y_delta.f2_block[None])
    if x0.flat.ndim != 2 or y_delta.flat().shape[:-1] != x0.flat.shape[:1]:
        raise ValueError(
            "a batch takes x0.flat of shape (B, dim) and data blocks with the same "
            "leading axis B"
        )
    layout = x0.layout
    x = project_to_domain(x0, settings.epsilon, y_delta.plasma_model)
    anchor = x
    threshold = settings.tau * settings.delta_estimate

    B = x.flat.shape[0]
    truth = x_true.flat if x_true is not None else None
    truth_norm = float(np.linalg.norm(truth)) if truth is not None else 0.0
    residuals: list[list[float]] = [[] for _ in range(B)]
    rel_errors = (
        [[] for _ in range(B)] if truth is not None and truth_norm > 0 else None
    )
    iterates = [[] for _ in range(B)] if settings.store_iterates else None
    # per run: (stop reason, stop iteration, final iterate, failure message)
    stops: list[tuple] = [()] * B

    active = np.arange(B)  # the runs still going, in the row order of x
    value = forward_vector(x, y_delta)
    J = None
    k = 0
    while True:
        residual_rows = value - y_delta.flat()
        going = []
        for i, b in enumerate(active):
            norm = float(np.linalg.norm(residual_rows[i]))
            residuals[b].append(norm)
            if rel_errors is not None:
                rel_errors[b].append(float(np.linalg.norm(x.flat[i] - truth)) / truth_norm)
            if iterates is not None:
                iterates[b].append(ParamVector(x.flat[i], layout))
            if not math.isfinite(norm):
                stops[b] = ("failure", k, x.flat[i], f"residual norm is {norm} at iteration {k}")
            elif settings.delta_estimate > 0 and norm <= threshold:
                stops[b] = ("discrepancy", k, x.flat[i], None)
            elif k >= settings.max_iter:
                stops[b] = ("max_iter", k, x.flat[i], None)
            else:
                going.append(i)
        if not going:
            break
        if len(going) < active.size:
            # finished runs leave the batch and cost nothing from here on
            active = active[going]
            x, anchor, y_delta = _take_rows(going, x, anchor, y_delta)
            value = value[going]
            J = J[going] if J is not None else None

        stepped, failures = irgnm_step(
            x, anchor, y_delta, settings.alpha(k), settings.epsilon,
            linearization=(J, value) if J is not None else None,
        )
        going = []
        for i, exc in enumerate(failures):
            if exc is None:
                going.append(i)
            else:
                # numerical breakdown (e.g. an iterate wandered into
                # overflow); close the record on the last iterate
                stops[active[i]] = ("failure", k, x.flat[i], str(exc))
        if not going:
            break
        if len(going) < active.size:
            active = active[going]
            stepped, anchor, y_delta = _take_rows(going, stepped, anchor, y_delta)
        x = stepped
        k += 1
        J, value = jacobian(x, y_delta, with_value=True)

    records = [
        _run_record(
            np.array(residuals[b]), *stops[b],
            ParamVector(x0.flat[b], layout), x_true,
            rel_errors[b] if rel_errors is not None else None,
            iterates[b] if iterates is not None else None,
        )
        for b in range(B)
    ]
    return records[0] if single else records


def _run_record(
    residuals, reason, k, final, failure, x0, x_true, rel_errors, iterates
) -> RunRecord:
    """The record of one finished run, with its divergence verdict."""
    record = RunRecord(
        residual_norms=residuals,
        stop_reason=reason,
        stop_iter=k,
        final_x=ParamVector(final, x0.layout),
        rel_errors=np.array(rel_errors) if rel_errors is not None else None,
        iterates=iterates,
        failure=failure,
    )
    if rel_errors is not None and rel_errors[0] > 0:
        improved = k >= 1 and min(rel_errors[1:]) < rel_errors[0]
        record.diverged = reason == "failure" or (k >= 1 and not improved)
        if k >= 1:
            record.rho_opt, record.rho_d = rho_metrics(record, x0, x_true)
    elif rel_errors is not None:
        record.diverged = reason == "failure"
    return record


def rho_metrics(
    record: RunRecord, x0: ParamVector, x_true: ParamVector
) -> tuple[float, float | None]:
    """Percent improvement over the initialization.

    ``rho_opt`` uses the best iterate after the initialization, ``rho_d`` the
    iterate at which the discrepancy principle stopped the run (absent when
    the run was not stopped by it, e.g. in noise-free runs).
    """
    err0 = float(np.linalg.norm(x0.flat - x_true.flat))
    if err0 == 0.0:
        raise ValueError("x0 equals x_true; improvement metrics are undefined")
    if record.rel_errors is not None:
        errors = record.rel_errors * float(np.linalg.norm(x_true.flat))
    elif record.iterates is not None:
        errors = np.array(
            [float(np.linalg.norm(it.flat - x_true.flat)) for it in record.iterates]
        )
    else:
        raise ValueError("record carries neither rel_errors nor iterates")
    rho_opt = 100.0 * (1.0 - errors[1:].min() / errors[0]) if errors.size > 1 else 0.0
    rho_d = (
        100.0 * (1.0 - errors[-1] / errors[0])
        if record.stop_reason == "discrepancy"
        else None
    )
    return float(rho_opt), rho_d


def solve_tikhonov(
    x_bar: ParamVector,
    y_delta: MeasurementSet,
    alpha: float,
    settings: IrgnmSettings = IrgnmSettings(),
    step_tol: float = 1e-10,
) -> ParamVector:
    """Minimize ``|F(x) - y|^2 + alpha |x - x_bar|^2`` over the admissible box
    by damped Gauss-Newton on the stacked residual, starting from the anchor.

    Returns a stationary point (local solution); iteration ends when the
    accepted step is shorter than ``step_tol``, when no damping factor
    yields descent, or at ``settings.max_iter``.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    x = project_to_domain(x_bar, settings.epsilon, y_delta.plasma_model)
    y = y_delta.flat()
    eye = np.eye(x.layout.dim)

    def objective(xv: ParamVector, value=None) -> float:
        res = (value if value is not None else forward_vector(xv, y_delta)) - y
        dev = xv.flat - x_bar.flat
        return float(res @ res + alpha * (dev @ dev))

    for _ in range(settings.max_iter):
        J, value = jacobian(x, y_delta, with_value=True)
        gram = J.T @ J + alpha * eye
        rhs = J.T @ (value - y) + alpha * (x.flat - x_bar.flat)
        step = -_solve_normal_equations(gram, rhs, alpha)
        current = objective(x, value)
        damping = 1.0
        accepted = None
        while damping >= 2.0 ** -30:
            candidate = project_to_domain(
                ParamVector(x.flat + damping * step, x.layout),
                settings.epsilon,
                y_delta.plasma_model,
            )
            if objective(candidate) < current:
                accepted = candidate
                break
            damping *= 0.5
        if accepted is None:
            return x
        moved = float(np.linalg.norm(accepted.flat - x.flat))
        x = accepted
        if moved < step_tol:
            return x
    return x
