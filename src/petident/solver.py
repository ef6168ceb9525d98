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
import numbers
import warnings
from dataclasses import dataclass
from functools import lru_cache

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
    tikhonov_objective,
)


def check_integer(name: str, value) -> None:
    """Raise ``ValueError`` unless ``value`` is an integer (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


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

    def __post_init__(self):
        check_integer("max_iter", self.max_iter)
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
    """Solve one system whose entries are all finite (callers check)."""
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


def _solve_systems(gram: np.ndarray, rhs: np.ndarray, alpha: float):
    """Solve a ``(B, dim, dim)`` stack of normal equations one system at a
    time, after one finiteness check of the whole stack.  Returns the
    ``(B, dim)`` solutions and per system the :class:`StepFailure` or
    ``None``; the row of a failed system is zero."""
    finite = np.isfinite(gram).all(axis=(-2, -1)) & np.isfinite(rhs).all(axis=-1)
    steps = np.zeros(rhs.shape)
    failures: list[StepFailure | None] = []
    for b, ok in enumerate(finite.tolist()):
        if not ok:
            failures.append(StepFailure(alpha, float("inf")))
            continue
        try:
            steps[b] = _solve_normal_equations(gram[b], rhs[b], alpha)
            failures.append(None)
        except StepFailure as exc:
            failures.append(exc)
    return steps, failures


@lru_cache(maxsize=16)
def _identity(dim: int) -> np.ndarray:
    """The ``dim x dim`` identity of the Gram matrices; cached per size,
    hence read-only."""
    eye = np.eye(dim)
    eye.flags.writeable = False
    return eye


def _residual_norm(r: np.ndarray) -> float:
    """``|r|`` as ``np.linalg.norm`` computes it, ``sqrt(r . r)``; when
    ``r . r`` overflows although every entry of ``r`` is finite, the
    overflow-safe ``math.hypot`` instead."""
    norm = math.sqrt(r.dot(r))
    if not math.isfinite(norm) and np.isfinite(r).all():
        return math.hypot(*r.tolist())
    return norm


def _regularized_steps(x_k, x0, y_delta, alpha_k, linearization):
    """The unprojected steps of the regularized normal equations
    ``(J^T J + alpha_k I) step = J^T (y - F(x_k)) + alpha_k (x0 - x_k)`` at
    the linearization ``(J, F(x_k))``, shaped like ``x_k.flat``, and the
    failures as :func:`_solve_systems` returns them."""
    J, value = linearization
    dim = x_k.layout.dim
    residual = y_delta.flat() - value
    with np.errstate(invalid="ignore", over="ignore"):
        # nonfinite products surface as StepFailure in the solve below; the
        # matmul forms give each run of a batch the products of a lone run
        # bit for bit
        Jt = J.swapaxes(-1, -2)
        gram = Jt @ J + alpha_k * _identity(dim)
        rhs = (Jt @ residual[..., None])[..., 0] + alpha_k * (x0.flat - x_k.flat)
    steps, failures = _solve_systems(
        gram.reshape(-1, dim, dim), rhs.reshape(-1, dim), alpha_k
    )
    return steps.reshape(rhs.shape), failures


def irgnm_step(
    x_k: ParamVector,
    x0: ParamVector,
    y_delta: MeasurementSet,
    alpha_k: float,
    epsilon: float = DEFAULT_EPSILON,
    linearization: tuple[np.ndarray, np.ndarray] | None = None,
):
    """One regularized Gauss-Newton step followed by the box projection.

    ``linearization`` is ``(J, F(x_k))`` as ``jacobian(x_k, y_delta)``
    returns it; without it the step computes it.

    ``x_k`` is a single vector or a batch (``x_k.flat`` and ``x0.flat`` of
    shape ``(B, dim)``, data blocks of ``y_delta`` with the same leading
    axis; a single vector is a batch of one).  Each run's normal equations
    are solved on their own.  Returns ``(stepped, failures)``:
    ``failures[b]`` is the :class:`StepFailure` of run ``b`` or ``None``
    (one entry for a single vector), and the row of a failed run in
    ``stepped`` is not a step.
    """
    if alpha_k <= 0:
        raise ValueError("alpha_k must be positive")
    if linearization is None:
        linearization = jacobian(x_k, y_delta)
    steps, failures = _regularized_steps(x_k, x0, y_delta, alpha_k, linearization)
    stepped = project_to_domain(ParamVector(x_k.flat + steps, x_k.layout), epsilon)
    return stepped, failures


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
    x = project_to_domain(x0, settings.epsilon)
    anchor = x
    threshold = settings.tau * settings.delta_estimate

    B = x.flat.shape[0]
    truth = x_true.flat if x_true is not None else None
    truth_norm = float(np.linalg.norm(truth)) if truth is not None else 0.0
    residuals: list[list[float]] = [[] for _ in range(B)]
    rel_errors = (
        [[] for _ in range(B)] if truth is not None and truth_norm > 0 else None
    )
    # per run: (stop reason, stop iteration, final iterate, failure message)
    stops: list[tuple] = [()] * B

    active = np.arange(B)  # the runs still going, in the row order of x
    data = y_delta.flat()  # rows follow x; sliced whenever runs leave
    value = forward_vector(x, y_delta)
    J = None
    k = 0
    while True:
        going = []
        # a non-finite residual stops its run as a failure, so the overflow and
        # invalid warnings of its norm add nothing; np.vecdot is r.dot(r)'s BLAS
        # dot per row, so only a non-finite square sum takes _residual_norm
        with np.errstate(over="ignore", invalid="ignore"):
            residual_rows = value - data
            norms = np.sqrt(np.vecdot(residual_rows, residual_rows)).tolist()
            for i, norm in enumerate(norms):
                if not math.isfinite(norm):
                    norms[i] = _residual_norm(residual_rows[i])
            if rel_errors is not None:
                errors = x.flat - truth
                errors = (np.sqrt(np.vecdot(errors, errors)) / truth_norm).tolist()
        for i, (b, norm) in enumerate(zip(active.tolist(), norms)):
            residuals[b].append(norm)
            if rel_errors is not None:
                rel_errors[b].append(errors[i])
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
            data, value = data[going], value[going]
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
            data = data[going]
        x = stepped
        k += 1
        J, value = jacobian(x, y_delta)

    records = [
        _run_record(
            np.array(residuals[b]), *stops[b],
            ParamVector(x0.flat[b], layout), x_true,
            rel_errors[b] if rel_errors is not None else None,
        )
        for b in range(B)
    ]
    return records[0] if single else records


def _run_record(
    residuals, reason, k, final, failure, x0, x_true, rel_errors
) -> RunRecord:
    """The record of one finished run, with its divergence verdict."""
    record = RunRecord(
        residual_norms=residuals,
        stop_reason=reason,
        stop_iter=k,
        final_x=ParamVector(final, x0.layout),
        rel_errors=np.array(rel_errors) if rel_errors is not None else None,
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
    if record.rel_errors is None:
        raise ValueError("record carries no rel_errors")
    errors = record.rel_errors * float(np.linalg.norm(x_true.flat))
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
    x = project_to_domain(x_bar, settings.epsilon)
    for _ in range(settings.max_iter):
        # the Gauss-Newton step of the stacked residual is the IRGNM step
        # anchored at x_bar
        step, [failure] = _regularized_steps(
            x, x_bar, y_delta, alpha, jacobian(x, y_delta)
        )
        if failure is not None:
            raise failure
        current = tikhonov_objective(x, x_bar, y_delta, alpha)
        damping = 1.0
        accepted = None
        while damping >= 2.0 ** -30:
            candidate = project_to_domain(
                ParamVector(x.flat + damping * step, x.layout), settings.epsilon
            )
            if tikhonov_objective(candidate, x_bar, y_delta, alpha) < current:
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
