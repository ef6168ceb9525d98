"""The parent plasma fraction: the biexponential family.

The parent plasma fraction ``f`` relates the total blood activity to the
arterial plasma concentration of intact tracer via ``C_art = f * C_bl``.
It is parametrized as

    f(t) = A * e^(xi1 t) + (1 - A) * e^(xi2 t),
    m = (A, xi1, xi2) in [0, inf) x (-inf, 0]^2,

a family of identifiability degree q = 4 (four distinct sample points at
which ``lam * f - f~`` vanishes force ``lam = 1`` and ``f = f~``).  It
satisfies f(0) = 1 structurally.  Every function here accepts ``m`` with
leading batch axes, ``(..., 3)``, and prefixes its result with the same
axes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


def check_model(model_id: str) -> None:
    """Raise ``KeyError`` unless ``model_id`` names the biexponential family."""
    if model_id != "biexp":
        raise KeyError(f"unknown plasma-fraction family {model_id!r}")


@dataclass(frozen=True)
class PlasmaParams:
    """The family identifier plus its parameter vector ``m``."""

    model_id: str
    m: tuple[float, ...]

    def __init__(self, model_id: str, m: Sequence[float]):
        check_model(model_id)
        object.__setattr__(self, "model_id", model_id)
        object.__setattr__(self, "m", tuple(float(v) for v in m))


def plasma_fraction(params: PlasmaParams, t):
    """Evaluate ``f_m(t)`` for scalar or array ``t``."""
    t = np.asarray(t, dtype=float)
    vals = value_and_jacobian(params.m, np.atleast_1d(t))[0]
    return float(vals[0]) if t.ndim == 0 else vals


def value_and_jacobian(m, t):
    """``f_m`` on an array of times and its ``(3, len(t))`` partial
    derivatives with respect to ``m``, one row per parameter."""
    m = np.asarray(m, dtype=float)
    A = m[..., :1, None]
    weights = np.concatenate([A, 1.0 - A], axis=-2)  # (A, 1 - A)
    e = np.exp(m[..., 1:, None] * t)  # (e^(xi1 t), e^(xi2 t))
    terms = weights * e
    jac = np.empty(e.shape[:-2] + (3, e.shape[-1]))
    jac[..., 0, :] = e[..., 0, :] - e[..., 1, :]
    jac[..., 1:, :] = weights * t * e
    return terms[..., 0, :] + terms[..., 1, :], jac


def project_in_place(m: np.ndarray) -> None:
    """Euclidean projection of the float array ``m`` onto the admissible
    parameter set, written into ``m``."""
    A, xi = m[..., 0], m[..., 1:]
    A[A < 0.0] = 0.0
    xi[xi > 0.0] = 0.0


def magnitude(m, t):
    """Sum of the magnitudes of the two additive pieces of ``f_m(t)``, an
    upper bound on the rounding scale of its evaluation."""
    A, xi1, xi2 = (m[..., i, None] for i in range(3))
    return np.abs(A) * np.exp(xi1 * t) + np.abs(1.0 - A) * np.exp(xi2 * t)
