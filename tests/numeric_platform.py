"""The numeric platform of this process, and how to run under another.

A bitwise pin follows the last bits of NumPy's SIMD loops (``np.exp``,
``np.expm1`` and ``np.log1p`` round differently under AVX-512 than under
AVX2) and of the OpenBLAS ``dgemm`` kernel that sums the Gram ``J^T J``.
So each pin holds on one platform only, named by :func:`numeric_platform`
as the NumPy version, the highest CPU feature NumPy dispatches to and the
OpenBLAS core.  ``golden.json`` holds every pin with the platform it was
recorded on, and ``regold.py`` records them anew on this one.
:data:`AVX2_PLATFORM` is the one second platform that the portable check of
``test_output_bytes.py`` and the Table 1 comparison of ``platform_table.py``
run under, in a subprocess whose environment :func:`platform_env` gives.
"""

import ctypes
import os
from pathlib import Path

import numpy as np
from numpy._core import _multiarray_umath

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


def platform_env(platform: dict) -> dict:
    """This process's environment under ``platform``, with the package and
    the test tools on ``PYTHONPATH``."""
    env = dict(os.environ, **platform)
    root = Path(__file__).resolve().parent.parent
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(root / "tests")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env
