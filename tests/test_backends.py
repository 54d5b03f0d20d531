"""Compiled and pure kernel backends must be interchangeable."""

import importlib

import pytest

from lane_emden import _backend
from lane_emden import _kernels as pure

compiled = None
try:
    compiled = importlib.import_module("lane_emden._ckernels")
except ImportError:
    pass

needs_compiled = pytest.mark.skipif(
    compiled is None, reason="compiled kernel extension not built"
)


def seed_state(n_value, dx, order=10):
    from lane_emden import seed_values

    xs, Fs, Hs = [0.0], [1.0], [0.0]
    for i in (1, 2, 3):
        f, h = seed_values(n_value, i * dx, order)
        xs.append(i * dx)
        Fs.append(f)
        Hs.append(h)
    return xs, Fs, Hs


class TestSelection:
    def test_backend_name_is_known(self):
        assert _backend.backend_name() in ("compiled", "pure")

    def test_kernels_module_has_contract(self):
        assert hasattr(_backend.kernels, "lee_series_tables")
        assert hasattr(_backend.kernels, "midpoint_steps")

    def test_series_kernel_is_pure(self):
        # only the stepping loop has a compiled twin
        assert _backend.kernels.lee_series_tables is pure.lee_series_tables

    def test_pure_always_importable(self):
        a_num, a_den, c_num, c_den = pure.lee_series_tables(4)
        assert a_num[4] == [0, 1]
        assert a_den[4] == 120

    def test_force_pure_env(self, child_env):
        import subprocess
        import sys

        code = (
            "from lane_emden._backend import backend_name;"
            "print(backend_name())"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=child_env(LANE_EMDEN_PURE="1"),
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "pure"


@needs_compiled
class TestCrossBackendIdentity:
    @pytest.mark.parametrize("n_value", [1.0, 1.5, 3.0])
    def test_midpoint_bitwise_identical(self, n_value):
        dx = 1e-3
        state_p = seed_state(n_value, dx)
        state_c = seed_state(n_value, dx)
        out_p = pure.midpoint_steps(n_value, dx, 50.0, *state_p)
        out_c = compiled.midpoint_steps(n_value, dx, 50.0, *state_c)
        assert out_p == out_c
        assert state_p == state_c

    def test_midpoint_xmax_path_identical(self):
        dx = 1e-2
        state_p = seed_state(5.0, dx)
        state_c = seed_state(5.0, dx)
        out_p = pure.midpoint_steps(5.0, dx, 10.0, *state_p)
        out_c = compiled.midpoint_steps(5.0, dx, 10.0, *state_c)
        assert out_p == out_c
        assert state_p == state_c
