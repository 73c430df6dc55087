"""Build and load the package's C sources through ``ctypes``: :func:`load`.

:data:`LIBRARIES` states each library once, by the stem of its source: the
C signature of each of its functions, which :func:`typed` alone sets, and
what runs in its place.  Callers ask for it by stem: ``load("_kernel")``.

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

# stem: (what runs in its place, {function: argtypes}); every restype is void.
# distributions loads _kernel (seed) and _normal; experiments loads _kernel
# (draw, step_table, advance).
_I64, _U64, _PTR, _DBL = ctypes.c_int64, ctypes.c_uint64, ctypes.c_void_p, ctypes.c_double
LIBRARIES: dict[str, tuple[str, dict[str, list]]] = {
    "_kernel": (
        "seeding each replicate through numpy's SeedSequence and folding the scalar reference "
        "estimators.step over it, tens of times more slowly",
        dict(
            seed=[_U64, _U64, _U64, _I64, _PTR],
            draw=[_I64, _I64, _PTR, _PTR],
            step_table=[_I64, _I64, _DBL, _DBL, _DBL, _DBL, _PTR, _I64],
            advance=[_I64, _I64, _PTR, _PTR, _I64, _DBL, _DBL, _PTR, _I64],
        ),
    ),
    "_normal": (
        "Gaussian draws go through the scalar reference _ndtri, about a microsecond each",
        dict(normal_quantile=[_I64, _PTR, _DBL, _DBL, _PTR]),  # x[i] = mean + sd * ndtri(u[i])
    ),
}


def load(stem: str) -> ctypes.CDLL | None:
    """The library of ``LIBRARIES[stem]``, built from ``<stem>.c``, or None
    when it cannot be built.

    It is built once per process, even when several threads ask at once.  A
    failed build warns once, quoting the compiler's error and saying what
    runs in the library's place."""
    with _lock:
        if stem not in _loaded:
            _loaded[stem] = _build(stem)
        return _loaded[stem]


def typed(stem: str, path: str) -> ctypes.CDLL:
    """The library at ``path``, built from ``<stem>.c``, with the argtypes and
    restype of each function that ``LIBRARIES[stem]`` names set."""
    library = ctypes.CDLL(path)
    for name, argtypes in LIBRARIES[stem][1].items():
        function = getattr(library, name)
        function.argtypes = argtypes
        function.restype = None
    return library


def compile_command(stem: str, output: str) -> list[str]:
    """The compiler command that builds ``<stem>.c`` into ``output``."""
    import shlex
    import sysconfig

    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    source = Path(__file__).with_name(f"{stem}.c")
    return [*cc, "-O2", "-march=native", "-ffp-contract=off", "-fPIC", "-fno-semantic-interposition",
            "-shared", "-o", output, str(source), "-lm"]


def _build(stem: str) -> ctypes.CDLL | None:
    # Imported here and in compile_command, so that a process that builds nothing
    # does not import them.
    import subprocess
    import tempfile

    try:
        with tempfile.TemporaryDirectory(ignore_cleanup_errors=True) as tmp:
            output = os.path.join(tmp, f"{stem}.so")
            subprocess.run(compile_command(stem, output), check=True, capture_output=True, timeout=120)
            return typed(stem, output)
    except (OSError, subprocess.SubprocessError) as exc:
        # The compiler's own message is in its stderr, not in str(exc).
        detail = (getattr(exc, "stderr", None) or b"").decode(errors="replace").strip()[-2000:]
        warnings.warn(
            f"native library {stem} not built ({exc}{': ' + detail if detail else ''}); {LIBRARIES[stem][0]}",
            RuntimeWarning,
            stacklevel=3,
        )
        return None
