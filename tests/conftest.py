import os
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

# Make the shared golden-data module importable from any test file.
sys.path.insert(0, str(Path(__file__).parent))

settings.register_profile(
    "ci",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture
def child_env():
    """Build a minimal environment for a child Python process.

    The child sees only ``PATH``, a ``PYTHONPATH`` holding the directory
    of the ``lane_emden`` package this process imported (``src/`` or an
    installed copy), ``PYTHONDONTWRITEBYTECODE`` when this process has it,
    so a suite run without bytecode leaves none in ``src/`` either, and
    the extra variables passed in. Nothing else leaks in from the caller's
    environment.
    """
    import lane_emden

    package_parent = str(Path(lane_emden.__file__).resolve().parent.parent)

    def make(**extra):
        env = {
            "PATH": os.environ.get("PATH", os.defpath),
            "PYTHONPATH": package_parent,
        }
        no_bytecode = os.environ.get("PYTHONDONTWRITEBYTECODE")
        if no_bytecode is not None:
            env["PYTHONDONTWRITEBYTECODE"] = no_bytecode
        env.update(extra)
        return env

    return make
