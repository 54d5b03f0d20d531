"""The names the benchmark harness reads: ``kernels`` and ``backend_name``.

The package has one implementation of each kernel, in
``lane_emden._kernels``, and calls it directly.  This module exists only
because ``perfbench/spans.py`` patches ``kernels.lee_series_tables`` and
``kernels.midpoint_steps`` through it and ``perfbench/run.py`` reports
``backend_name()``; it goes once the harness reads ``_kernels`` itself.
"""

from __future__ import annotations

from . import _kernels as kernels


def backend_name() -> str:
    """Always ``"pure"``: the kernels are plain Python."""
    return "pure"
