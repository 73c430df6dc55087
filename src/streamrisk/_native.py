"""Build and load the package's C sources through ``ctypes``: :func:`load`.

Each library is compiled from its source next to this file with the
interpreter's C compiler, on the first :func:`load` of a process and never at
import, into a private directory: no cache to invalidate or share.  The loaded
library stays mapped after the directory is removed.  It is built for the
host's own instruction set (``-march=native``), so a library is never moved
to another machine, and the sources' shared ``_simd.h``, which a build also
reads (a cache key must hash it), picks the vector width from the ISA macros.
The flags keep floating-point contraction off, and no flag lets the compiler
replace a libm call (libm itself is the process's, as for the Python
reference), so the compiled arithmetic rounds as the Python reference it
mirrors does.  The sources' vector-extension arithmetic is IEEE per element,
so it gives the same bits at any width these flags select.  A call from one of
a library's functions to another binds to that function
(``-fno-semantic-interposition``), not to a libc function of the same name:
glibc exports ``advance`` too.

A library that cannot be built is reported by one ``RuntimeWarning`` per
process and read as None, and its caller runs its scalar Python reference
instead: the same values, more slowly.
"""

from __future__ import annotations

import ctypes
import os
import threading
import warnings
from pathlib import Path

_lock = threading.Lock()
_loaded: dict[str, ctypes.CDLL | None] = {}


def load(stem: str, fallback: str, **signatures) -> ctypes.CDLL | None:
    """The library built from ``<stem>.c``, or None when it cannot be built.

    It is built once per process, even when several threads ask at once.
    Each keyword names one of its functions and gives its ``argtypes`` (its
    ``restype`` is None); they are set when the library is built.  A failed
    build warns once, quoting the compiler's error and saying ``fallback``:
    what runs in the library's place."""
    with _lock:
        if stem not in _loaded:
            _loaded[stem] = _build(stem, fallback, signatures)
        return _loaded[stem]


def compile_command(stem: str, output: str) -> list[str]:
    """The compiler command that builds ``<stem>.c`` into ``output``."""
    import shlex
    import sysconfig

    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    source = Path(__file__).with_name(f"{stem}.c")
    return [*cc, "-O2", "-march=native", "-ffp-contract=off", "-fPIC", "-fno-semantic-interposition",
            "-shared", "-o", output, str(source), "-lm"]


def _build(stem: str, fallback: str, signatures: dict) -> ctypes.CDLL | None:
    # Imported here and in compile_command, so that a process that builds nothing
    # does not import them.
    import subprocess
    import tempfile

    try:
        with tempfile.TemporaryDirectory(ignore_cleanup_errors=True) as tmp:
            output = os.path.join(tmp, f"{stem}.so")
            subprocess.run(compile_command(stem, output), check=True, capture_output=True, timeout=120)
            library = ctypes.CDLL(output)
    except (OSError, subprocess.SubprocessError) as exc:
        # The compiler's own message is in its stderr, not in str(exc).
        detail = (getattr(exc, "stderr", None) or b"").decode(errors="replace").strip()[-2000:]
        warnings.warn(
            f"native library {stem} not built ({exc}{': ' + detail if detail else ''}); {fallback}",
            RuntimeWarning,
            stacklevel=3,
        )
        return None
    for name, argtypes in signatures.items():
        function = getattr(library, name)
        function.argtypes = argtypes
        function.restype = None
    return library
