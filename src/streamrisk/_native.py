"""Build and load the package's C sources through ``ctypes``.

Each library is compiled from its source next to this file with the
interpreter's C compiler, into a private directory per process: no cache to
invalidate or share.  The loaded library stays mapped after the directory is
removed.  The flags keep floating-point contraction off, and no flag lets
the compiler replace a libm call, so the compiled arithmetic rounds as the
Python reference it mirrors does.  The sources' vector-extension arithmetic
is IEEE per element, so these flags keep it bit-exact too.
"""

from __future__ import annotations

import ctypes
import os
import shlex
import subprocess
import sysconfig
import tempfile
from pathlib import Path


def build_library(stem: str) -> ctypes.CDLL:
    """Compile ``<stem>.c`` and load it; raises ``OSError`` or
    ``subprocess.SubprocessError`` (with the compiler's stderr) when the
    library cannot be built or loaded."""
    source = Path(__file__).with_name(f"{stem}.c")
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    with tempfile.TemporaryDirectory(ignore_cleanup_errors=True) as tmp:
        lib = os.path.join(tmp, f"{stem}.so")
        subprocess.run(
            [*cc, "-O2", "-ffp-contract=off", "-fPIC", "-shared", "-o", lib, str(source), "-lm"],
            check=True,
            capture_output=True,
            timeout=120,
        )
        return ctypes.CDLL(lib)
