"""Parametrized parent-plasma-fraction families.

The parent plasma fraction ``f`` relates the total blood activity to the
arterial plasma concentration of intact tracer via ``C_art = f * C_bl``.
Families map a parameter vector ``m`` to a function ``f_m``; they register
here with their identifiability degree ``q`` (the number of distinct sample
points at which ``lam * f - f~`` vanishing forces ``lam = 1`` and
``f = f~`` within the family -- a contract the implementer asserts, since it
is not algorithmically verifiable for arbitrary families).

Only the biexponential family ships:

    f(t) = A * e^(xi1 t) + (1 - A) * e^(xi2 t),
    m = (A, xi1, xi2) in [0, inf) x (-inf, 0]^2,  degree q = 4.

It satisfies f(0) = 1 structurally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


@dataclass(frozen=True)
class PlasmaFamily:
    """A registered plasma-fraction family.

    ``value(m, t)`` evaluates ``f_m`` on an array of times,
    ``param_jacobian(m, t)`` returns the ``(len(t), n_params)`` matrix of
    partial derivatives with respect to ``m``, and ``project(m)`` is the
    Euclidean projection onto the admissible parameter set.  Each accepts
    ``m`` with leading batch axes, ``(..., n_params)``, and prefixes its
    result with the same axes.
    """

    model_id: str
    degree: int
    n_params: int
    value: Callable[[np.ndarray, np.ndarray], np.ndarray]
    param_jacobian: Callable[[np.ndarray, np.ndarray], np.ndarray]
    project: Callable[[np.ndarray], np.ndarray]
    #: Sum of the magnitudes of the additive pieces of ``value`` (an upper
    #: bound on intermediate rounding scales); defaults to ``|value|``.
    value_magnitude: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None

    def magnitude(self, m, t):
        if self.value_magnitude is not None:
            return self.value_magnitude(m, t)
        return np.abs(self.value(m, t))


@dataclass(frozen=True)
class PlasmaParams:
    """A family identifier plus its parameter vector ``m``."""

    model_id: str
    m: tuple[float, ...]

    def __init__(self, model_id: str, m: Sequence[float]):
        object.__setattr__(self, "model_id", model_id)
        object.__setattr__(self, "m", tuple(float(v) for v in m))


_FAMILIES: dict[str, PlasmaFamily] = {}


def register_family(family: PlasmaFamily) -> None:
    """Add a family to the registry (replacing any same-id entry)."""
    _FAMILIES[family.model_id] = family


def get_family(model_id: str) -> PlasmaFamily:
    try:
        return _FAMILIES[model_id]
    except KeyError:
        raise KeyError(f"unknown plasma-fraction family {model_id!r}") from None


def family_degree(model_id: str) -> int:
    """Identifiability degree ``q`` of a registered family."""
    return get_family(model_id).degree


def plasma_fraction(params: PlasmaParams, t):
    """Evaluate ``f_m(t)`` for scalar or array ``t``."""
    fam = get_family(params.model_id)
    t = np.asarray(t, dtype=float)
    vals = fam.value(np.asarray(params.m, dtype=float), np.atleast_1d(t))
    return float(vals[0]) if t.ndim == 0 else vals


# -- biexponential family ------------------------------------------------------


def _biexp_params(m):
    """``(A, xi1, xi2)``, each with a trailing axis to broadcast over times."""
    m = np.asarray(m, dtype=float)
    return m[..., 0, None], m[..., 1, None], m[..., 2, None]


def _biexp_value(m, t):
    A, xi1, xi2 = _biexp_params(m)
    return A * np.exp(xi1 * t) + (1.0 - A) * np.exp(xi2 * t)


def _biexp_jacobian(m, t):
    A, xi1, xi2 = _biexp_params(m)
    e1 = np.exp(xi1 * t)
    e2 = np.exp(xi2 * t)
    return np.stack((e1 - e2, A * t * e1, (1.0 - A) * t * e2), axis=-1)


def _biexp_project(m):
    out = np.array(m, dtype=float)
    A, xi = out[..., 0], out[..., 1:]
    A[A < 0.0] = 0.0
    xi[xi > 0.0] = 0.0
    return out


def _biexp_magnitude(m, t):
    A, xi1, xi2 = _biexp_params(m)
    return np.abs(A) * np.exp(xi1 * t) + np.abs(1.0 - A) * np.exp(xi2 * t)


BIEXP = PlasmaFamily(
    model_id="biexp",
    degree=4,
    n_params=3,
    value=_biexp_value,
    param_jacobian=_biexp_jacobian,
    project=_biexp_project,
    value_magnitude=_biexp_magnitude,
)
register_family(BIEXP)
