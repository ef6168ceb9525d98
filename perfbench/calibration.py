"""Machine-speed calibration that does not depend on petident.

The machine the benchmark runs on is shared: over tens of seconds its speed
for the same work drifts by 20-50 %, far more than the regressions the
benchmark must catch.  The calibration kernel is a fixed stand-in for one
solver iteration, written here so that no change to the package changes it:
a loop over three regions of small exponentials on a 3x25 grid filling a
100x18 Jacobian column by column, the Gram matrix and its Cholesky solve, a
clamp, a norm and a small frozen record.  Timed next to each call, it gives
the speed the machine ran at, and call times are reported in reference
seconds: seconds on a machine on which the kernel takes ``REFERENCE_S``.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

#: Kernel duration that defines the reference speed; close to its median on
#: the 2-vCPU x86_64 machine the benchmark was written on when that machine
#: ran at its fastest.
REFERENCE_S = 0.0015

_RNG = np.random.Generator(np.random.Philox(1))
_MU = -(_RNG.random(3) + 1.2)
_LAM = _RNG.random(3)
_BETA = _RNG.random(3) + 0.1
_T = np.linspace(0.0, 62.5, 25)
_R = _RNG.random(100)
_EYE = np.eye(18)


@dataclass(frozen=True)
class _Iterate:
    x: np.ndarray
    residual: float


def kernel(iterations: int = 20) -> float:
    """Run the kernel once and return its wall time in seconds."""
    start = time.perf_counter()
    x = np.ones(18)
    for _ in range(iterations):
        jac = np.zeros((100, 18))
        for i in range(3):
            rate = (_BETA[i] + _MU)[:, None]
            z = rate * _T[None, :]
            psi = np.where(np.abs(z) < 1e-4, _T * (1 + z / 2), np.expm1(z) / rate)
            jac[25 * i : 25 * (i + 1), :3] = psi.T
            jac[25 * i : 25 * (i + 1), 6 + 3 * i] = _LAM @ psi
        jac[75:, 3:6] = np.exp(np.outer(_T, _MU))
        gram = jac.T @ jac + 0.5 * _EYE
        step = cho_solve(cho_factor(gram), jac.T @ _R)
        x = np.maximum(x + 1e-3 * step, 1e-3)
        _Iterate(x.copy(), float(np.linalg.norm(_R - jac @ x)))
    return time.perf_counter() - start


def sample(repeats: int = 3) -> float:
    """Median kernel time over ``repeats`` back-to-back executions."""
    return statistics.median(kernel() for _ in range(repeats))
