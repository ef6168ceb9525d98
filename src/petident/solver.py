"""Projected iteratively regularized Gauss-Newton (IRGNM) solver.

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
``F(x_{k+1})`` for the residual also linearizes the next step.  A run of
``k`` iterations so makes ``k + 1`` Jacobian calls and one forward
evaluation, at its start, whatever its stop.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .forward import (
    DEFAULT_EPSILON,
    MeasurementSet,
    ParamVector,
    forward_vector,
    jacobian,
    project_to_domain,
)


def check_integer(name: str, value) -> None:
    """Raise ``ValueError`` unless ``value`` is an integer (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def is_finite(value) -> bool:
    """Whether ``value`` is finite; an integer too large for a float is not."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


@dataclass(frozen=True)
class IrgnmSettings:
    """Solver configuration.

    ``a`` and ``b`` define the regularization schedule ``alpha_k = a e^(-bk)``
    (positive, with the constant ratio ``alpha_k / alpha_{k+1} = e^b > 1``,
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
        for name in ("a", "b", "tau", "epsilon", "delta_estimate"):
            value = getattr(self, name)
            if not is_finite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, float(value))
        if self.a <= 0 or self.b <= 0:
            raise ValueError("schedule parameters a and b must be positive")
        if self.tau <= 1:
            raise ValueError("discrepancy factor tau must exceed 1")
        if self.epsilon <= 0:
            raise ValueError("domain floor epsilon must be positive")
        if self.max_iter < 0:
            raise ValueError("max_iter must be nonnegative")
        # the last step takes alpha_(max_iter - 1), which must not underflow
        try:
            last = self.alpha(self.max_iter - 1) if self.max_iter >= 1 else self.a
        except OverflowError:  # a max_iter beyond the float range
            last = 0.0
        if last == 0.0:
            raise ValueError(
                f"max_iter={self.max_iter} is too large for a={self.a!r}, b={self.b!r}: "
                "alpha_k = a e^(-b k) underflows to 0 before the last step"
            )
        if self.delta_estimate < 0:
            raise ValueError("delta_estimate must be nonnegative")

    @classmethod
    def for_noise(cls, delta_y: float, **overrides) -> "IrgnmSettings":
        """Defaults for data at noise level ``delta_y``: the field default
        of ``max_iter`` (300) for noise-free data, 200 iterations otherwise,
        with the noise level as discrepancy estimate.  Keyword arguments
        replace any field."""
        # on the class, cls.max_iter is that field default
        fields = dict(max_iter=cls.max_iter if delta_y == 0 else 200, delta_estimate=delta_y)
        fields.update(overrides)
        return cls(**fields)

    def alpha(self, k: int) -> float:
        return self.a * math.exp(-self.b * k)


@dataclass
class RunRecord:
    """Trace of one solver run.

    ``residual_norms`` holds ``|F(x_k) - y|`` for ``k = 0 .. stop_iter`` (one
    entry more than the number of steps taken); ``rel_errors`` the matching
    ``|x_k - x_true| / |x_true|`` when the truth was supplied.  A run is
    ``diverged`` when no iterate after the initialization improved on it or
    when the run broke down numerically (``stop_reason = "failure"``: a
    residual that is not finite, or a step that cannot be computed because
    its normal equations are not finite or numerically singular; ``failure``
    says what broke down and at which iteration, and no usable terminal
    iterate exists then).
    ``rho_opt``/``rho_d`` are the percent improvements in error over the
    initialization, the projected start, at the best later iterate and at a
    discrepancy stop; unset without the truth, from a start at it and
    before a first step.
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


#: LAPACK's Cholesky solve: the ``potrf`` + ``potrs`` pair behind scipy's
#: ``cho_factor``/``cho_solve`` in one call, without their per-call argument
#: handling, which costs more than the factorization of these small systems.
#: Loaded at the first solve, so importing this module does not load
#: ``scipy.linalg``.
_POSV = None


def _solve_systems(gram: np.ndarray, rhs: np.ndarray, alpha: float):
    """Solve a ``(B, dim, dim)`` stack of normal equations one system at a
    time by Cholesky, testing each for finiteness only when the stack's sum
    is not finite.  Returns the ``(B, dim)`` solutions and per system
    ``None`` or the failure text, which names the regularization weight and
    a condition estimate: a system that is not finite or whose factorization
    fails has failed, and its row is zero."""
    global _POSV
    if _POSV is None:  # an import statement per call costs about 2 % of a trip
        from scipy.linalg.lapack import dposv as _POSV

    stack_finite = math.isfinite(gram.sum() + rhs.sum())
    steps = np.zeros(rhs.shape)
    failures: list[str | None] = [None] * len(rhs)
    for b, (A, y) in enumerate(zip(gram, rhs)):
        if stack_finite or np.isfinite(A).all() and np.isfinite(y).all():
            _, step, info = _POSV(A, y, lower=False)
            if info == 0:
                steps[b] = step
                continue
            # J^T J + alpha I is SPD in exact arithmetic: A is numerically singular
            cond = float(np.linalg.cond(A))
        else:
            cond = math.inf
        failures[b] = f"normal-equation solve failed at alpha={alpha:.3e} (cond~{cond:.3e})"
    return steps, failures


def _residual_norm(r: np.ndarray) -> float:
    """``|r|`` as ``np.linalg.norm`` computes it, ``sqrt(r . r)``; when
    ``r . r`` overflows although every entry of ``r`` is finite, the
    overflow-safe ``math.hypot`` instead."""
    norm = math.sqrt(r.dot(r))
    if not math.isfinite(norm) and np.isfinite(r).all():
        return math.hypot(*r.tolist())
    return norm


# nonfinite products surface as failures, not as warnings
@np.errstate(invalid="ignore", over="ignore")
def irgnm_step(
    x_k: ParamVector,
    x0: ParamVector,
    J: np.ndarray,
    misfit: np.ndarray,
    alpha_k: float,
    epsilon: float,
):
    """One regularized Gauss-Newton step at the linearization of ``x_k``,
    the Jacobian ``J`` and the misfit ``F(x_k) - y``: the solution of
    ``(J^T J + alpha_k I) step = alpha_k (x0 - x_k) - J^T (F(x_k) - y)``,
    added to ``x_k`` and projected onto the box.

    ``x_k`` is a single vector or a batch (``x_k.flat`` and ``x0.flat`` of
    shape ``(B, dim)``, ``J`` and ``misfit`` with the same leading axis; a
    single vector is a batch of one).  Each run's normal equations are
    solved on their own.  Returns ``(stepped, failures)``: ``failures[b]``
    is the failure text of run ``b`` or ``None`` (one entry for a
    single vector), and the row of a failed run in ``stepped`` is not a
    step.
    """
    if alpha_k <= 0:
        raise ValueError("alpha_k must be positive")
    dim = x_k.layout.dim
    # the matmul forms give each run of a batch the products of a lone run
    # bit for bit
    Jt = J.swapaxes(-1, -2)
    gram = Jt @ J
    np.einsum("...ii->...i", gram)[...] += alpha_k
    rhs = alpha_k * (x0.flat - x_k.flat) - (Jt @ misfit[..., None])[..., 0]
    steps, failures = _solve_systems(gram.reshape(-1, dim, dim), rhs.reshape(-1, dim), alpha_k)
    # a fresh sum: project_to_domain's copy is its only one
    stepped = project_to_domain(
        ParamVector._adopt(x_k.flat + steps.reshape(rhs.shape), x_k.layout), epsilon
    )
    return stepped, failures


# a non-finite residual stops its run as a failure, so the overflow and
# invalid warnings of its norm and of its step add nothing
@np.errstate(over="ignore", invalid="ignore")
def run_irgnm(
    x0: ParamVector,
    y_delta: MeasurementSet,
    settings: IrgnmSettings,
    x_true: ParamVector | None = None,
):
    """Run the projected IRGNM iteration from ``x0`` on data ``y_delta``.

    With ``delta_estimate > 0`` a run stops at the first iterate whose
    residual is below ``tau * delta_estimate`` (including the initial
    guess), otherwise after ``max_iter`` iterations.  A run stops as
    ``failure`` at the first iterate whose residual is not finite, or whose
    step cannot be computed.  When ``x_true`` is given the relative-error
    trace and the improvement metrics are recorded.

    ``x0.flat`` of shape ``(B, dim)``, with the data vector of ``y_delta``
    carrying the same leading axis, makes ``B`` independent runs in one loop
    and returns their ``B`` records; a single vector is a batch of one and
    returns its record.  Each trip of the loop takes one step of every run
    still going and evaluates their Jacobians and forward values in one
    call, which the next step reuses.  A run of ``k`` iterations so costs
    ``k + 1`` Jacobians and one forward evaluation, at its start, whatever
    its stop; a forward evaluation is a Jacobian call whose matrix goes
    unread (:func:`.forward.forward_vector`).
    """
    single = x0.flat.ndim == 1
    data = y_delta.flat()  # rows follow x; sliced whenever runs leave
    if single:
        x0 = ParamVector(x0.flat[None], x0.layout)
        data = data[None]
    if x0.flat.ndim != 2 or data.shape[:-1] != x0.flat.shape[:1]:
        raise ValueError(
            "a batch takes x0.flat of shape (B, dim) and a data vector with the same "
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
    # per run e . e of each error e = x_k - x_true; the record takes sqrt / |x_true|
    error_squares = (
        [[] for _ in range(B)] if truth is not None and truth_norm > 0 else None
    )
    # per run: (stop reason, stop iteration, final iterate, failure message)
    stops: list[tuple] = [()] * B

    active = np.arange(B)  # the runs still going, in the row order of x
    value = forward_vector(x, y_delta)  # a call of its own for perfbench's spans (ROADMAP item 3)
    J, _ = jacobian(x, y_delta)
    k = 0
    while True:
        going = []
        # np.vecdot is r.dot(r)'s BLAS dot per row and math.sqrt rounds as
        # np.sqrt does, so only a non-finite square sum takes _residual_norm
        misfit = value - data
        norms = [
            math.sqrt(square) if square < math.inf else _residual_norm(misfit[i])
            for i, square in enumerate(np.vecdot(misfit, misfit).tolist())
        ]
        if error_squares is not None:
            errors = x.flat - truth
            squares = np.vecdot(errors, errors).tolist()
        for i, (b, norm) in enumerate(zip(active.tolist(), norms)):
            if stops[b]:  # its step failed on the last trip
                continue
            residuals[b].append(norm)
            if error_squares is not None:
                error_squares[b].append(squares[i])
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
            x = ParamVector._adopt(x.flat[going], layout)  # a list index copies
            anchor = ParamVector._adopt(anchor.flat[going], layout)
            data, misfit, J = data[going], misfit[going], J[going]

        stepped, failures = irgnm_step(x, anchor, J, misfit, settings.alpha(k), settings.epsilon)
        for i, failure in enumerate(failures):
            if failure is not None:
                # numerical breakdown (a system that is not finite or is
                # numerically singular); close the record on the last
                # iterate, and the next check passes the run by
                stops[active[i]] = ("failure", k, x.flat[i], f"{failure} at iteration {k}")
        x = stepped
        k += 1
        J, value = jacobian(x, y_delta)

    records = [
        _run_record(
            np.array(residuals[b]), *stops[b], layout, truth_norm,
            np.sqrt(error_squares[b]) / truth_norm if error_squares is not None else None,
        )
        for b in range(B)
    ]
    return records[0] if single else records


def _run_record(
    residuals, reason, k, final, failure, layout, truth_norm, rel_errors
) -> RunRecord:
    """One finished run's record, verdict and metrics (``truth_norm``: ``|x_true|``)."""
    record = RunRecord(
        residual_norms=residuals,
        stop_reason=reason,
        stop_iter=k,
        final_x=ParamVector(final, layout),
        rel_errors=rel_errors,
        failure=failure,
    )
    if rel_errors is not None and rel_errors[0] > 0:
        improved = k >= 1 and min(rel_errors[1:]) < rel_errors[0]
        record.diverged = reason == "failure" or (k >= 1 and not improved)
        if k >= 1:
            errors = rel_errors * truth_norm
            record.rho_opt = float(100.0 * (1.0 - errors[1:].min() / errors[0]))
            if reason == "discrepancy":
                record.rho_d = 100.0 * (1.0 - errors[-1] / errors[0])
    elif rel_errors is not None:
        record.diverged = reason == "failure"
    return record
