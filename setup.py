import os

from setuptools import Extension, setup

# The compiled stepping kernel is an optional speedup; the package falls
# back to the pure-Python one in lane_emden._kernels when the build is
# skipped or fails.  Set LANE_EMDEN_NO_EXT=1 to skip the build entirely.
ext_modules = []
if os.environ.get("LANE_EMDEN_NO_EXT") != "1":
    try:
        from Cython.Build import cythonize
    except ImportError:
        cythonize = None
    if cythonize is not None:
        ext = Extension(
            "lane_emden._ckernels",
            ["src/lane_emden/_ckernels.pyx"],
            # -ffp-contract=off keeps the float stepping bit-compatible with
            # the pure-Python twin (no FMA contraction).
            extra_compile_args=["-O3", "-ffp-contract=off"],
            optional=True,
        )
        ext_modules = cythonize(
            [ext], compiler_directives={"language_level": "3"}
        )

setup(ext_modules=ext_modules)
