"""The numeric platform the suite's exact pins were recorded on.

A bitwise pin follows the last bits of NumPy's SIMD loops (``np.exp``,
``np.expm1`` and ``np.log1p`` round differently under AVX-512 than under
AVX2) and of the OpenBLAS ``dgemm`` kernel that sums the Gram ``J^T J``.
So each pin holds on one platform only, named here as the NumPy version,
the highest CPU feature NumPy dispatches to and the OpenBLAS core.  A pin
that fails says where it was recorded and where it ran; on another platform
it is recorded anew, with that reason.  :data:`AVX2_PLATFORM` is the one
second platform that the portable check of ``test_output_bytes.py`` and the
Table 1 comparison of ``platform_table.py`` run under.
"""

import ctypes
from pathlib import Path

import numpy as np
from numpy._core import _multiarray_umath

#: where every exact pin of the suite was recorded
PINNED = "numpy 2.4.6, AVX512_SPR, OpenBLAS SkylakeX"

#: environment of a platform that rounds the exponentials and the Gram
#: differently from an AVX-512 machine, and that any AVX2 machine can run
AVX2_PLATFORM = {
    "OPENBLAS_CORETYPE": "Haswell",
    "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR",
}


def _openblas_core() -> str:
    """The core OpenBLAS picked for NumPy's own OpenBLAS (``numpy.libs``),
    or ``unknown`` where no library there names it."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return "unknown"


def numeric_platform() -> str:
    """``numpy VERSION, FEATURE, OpenBLAS CORE`` of this process, FEATURE
    the last dispatch target whose CPU feature is on (``baseline`` if none)."""
    features = _multiarray_umath.__cpu_features__
    dispatched = [name for name in _multiarray_umath.__cpu_dispatch__ if features.get(name)]
    feature = dispatched[-1] if dispatched else "baseline"
    return f"numpy {np.__version__}, {feature}, OpenBLAS {_openblas_core()}"


def pin_message() -> str:
    """The message of a pin that fails."""
    return f"pinned on {PINNED}; this platform is {numeric_platform()}"
