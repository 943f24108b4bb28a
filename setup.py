"""Build script: compiles the optional C ``smooth_scores`` core.

The library is a pure speedup, loaded with ctypes by ``pathpool.pooling``; if
no C compiler is found the build falls through and the package runs on the
pure-Python backend. ``-ffp-contract=off`` keeps floating-point results
bit-identical to Python's.
"""

import logging

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext

log = logging.getLogger("pathpool.setup")


class OptionalBuildExt(build_ext):
    """Treat extension build failures as non-fatal."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # compiler missing or broken
            log.warning("compiled core skipped: %s", exc)

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            log.warning("compiled core %s skipped: %s", ext.name, exc)


setup(
    ext_modules=[
        Extension(
            "pathpool.pooling._kernels_c",
            ["src/pathpool/pooling/_kernels_c.c"],
            extra_compile_args=["-ffp-contract=off"],
        )
    ],
    cmdclass={"build_ext": OptionalBuildExt},
)
