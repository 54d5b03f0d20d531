"""Kernel backend selection.

Imports the compiled kernels when available and falls back to the pure
Python ones otherwise.  Only the midpoint stepping loop has a compiled
twin; ``lee_series_tables`` is the pure kernel on both backends.  Set
``LANE_EMDEN_PURE=1`` in the environment to force the fallback (useful for
benchmarking and debugging).
"""

from __future__ import annotations

import os

from . import _kernels as _pure

FORCE_PURE_ENV = "LANE_EMDEN_PURE"

if os.environ.get(FORCE_PURE_ENV) == "1":
    kernels = _pure
    BACKEND = "pure"
else:
    try:
        from . import _ckernels as _compiled
    except ImportError:
        kernels = _pure
        BACKEND = "pure"
    else:
        kernels = _compiled
        BACKEND = "compiled"


def backend_name() -> str:
    """Name of the active kernel backend: ``"compiled"`` or ``"pure"``."""
    return BACKEND
