import ctypes
import functools
import os
import shutil
import subprocess

import numpy as np
import pytest

from streamrisk import _native
from streamrisk.asymptotics import clt_covariance_fast
from streamrisk.distributions import RiskOracle

# The vector widths the C sources compile to: the host's (8 doubles in
# _normal.c where the compiler targets AVX-512 F, DQ and VL, else 4 where it
# targets AVX2), the 4 doubles of AVX2 without AVX-512, and the 2 doubles of a
# target without AVX2.
WIDTHS = ("host", "4-double", "2-double")


@functools.cache
def targets_avx2(cc: str) -> bool:
    """Whether ``cc -march=native`` targets AVX2."""
    macros = subprocess.run([cc, "-march=native", "-dM", "-E", "-x", "c", os.devnull], capture_output=True, text=True,
                            timeout=120).stdout
    return "__AVX2__" in macros


def width_command(stem: str, output: str, width: str) -> list[str]:
    """_native's command that builds ``<stem>.c`` into ``output``, at ``width``:
    for 4 doubles, for the host with AVX-512 off (skipped where the compiler
    targets no AVX2 here); for 2 doubles, for the compiler's default target
    with __AVX2__ undefined."""
    command = _native.compile_command(stem, output)
    if shutil.which(command[0]) is None:
        pytest.skip(f"no C compiler {command[0]!r} here")
    if width == "4-double":
        if not targets_avx2(command[0]):
            pytest.skip(f"{command[0]!r} targets no AVX2 here")
        command.append("-mno-avx512f")
    elif width == "2-double":
        command = [arg for arg in command if arg != "-march=native"] + ["-U__AVX2__"]
    return command


def build_at_width(stem: str, directory, width: str) -> ctypes.CDLL:
    """The library of ``_native.LIBRARIES[stem]``, built in ``directory`` at ``width``."""
    output = str(directory / f"{stem}-{width}.so")
    subprocess.run(width_command(stem, output, width), check=True, capture_output=True, timeout=120)
    return _native.typed(stem, output)


def build_at_every_width(stem: str, directory) -> list[ctypes.CDLL]:
    """The library of ``_native.LIBRARIES[stem]`` at each of WIDTHS that the
    compiler targets here, the host's first (which skips the test where there
    is no compiler)."""
    cc = _native.compile_command(stem, "")[0]
    return [build_at_width(stem, directory, width) for width in WIDTHS if width != "4-double" or targets_avx2(cc)]


@pytest.fixture
def random_admissible():
    """``random_admissible(count, seed)``: ``count`` random (oracle, b1) pairs
    whose fast-regime covariance is admissible."""

    def draw(count, seed):
        rng = np.random.default_rng(seed)
        out = []
        while len(out) < count:
            alpha = rng.uniform(0.05, 0.95)
            theta = rng.uniform(0.1, 4.0)
            vartheta = theta * rng.uniform(1.01, 3.0)
            o = RiskOracle(
                alpha=alpha,
                theta_alpha=theta,
                vartheta_alpha=vartheta,
                density_at_quantile=rng.uniform(0.05, 2.0),
                v_alpha=rng.uniform(0.01, 10.0),
            )
            b1 = rng.uniform(0.51, 1.5)
            try:
                clt_covariance_fast(o, b1)
            except ValueError:
                continue
            out.append((o, b1))
        return out

    return draw
