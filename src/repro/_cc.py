"""The one C compiler loader behind the compiled drivers.

:mod:`repro.sim._cstep` (predictor kernels and Section-4 reductions)
and :mod:`repro.workloads._cgen` (the trace-generation event pass) each
hold a C source string.  :func:`load` turns such a string into a loaded
:mod:`ctypes` library with the *system* C compiler — no build system, no
installed extension, no new dependency:

* the shared object is built once into ``<cache>/ckernel``, named by the
  driver's stem and a hash of its source (edits rebuild automatically),
  and published with an atomic rename so concurrent processes never
  load a half-written file;
* ``REPRO_NO_CC=1`` vetoes the compiler outright — the way tests run the
  no-compiler platform, and an escape hatch where invoking ``cc`` is
  unwanted;
* any failure (no compiler on PATH, a failed build, an unloadable
  object, a driver's own self-test) is remembered per stem and reported
  by :func:`unavailable_reason`, which the drivers' callers put into
  their :mod:`repro.health` degradation events.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Callable, Dict, Optional

__all__ = ["load", "unavailable_reason"]

#: Per stem: the loaded library, or ``None`` once loading has failed.
_loaded: Dict[str, Optional[ctypes.CDLL]] = {}
_failures: Dict[str, str] = {}


def _vetoed() -> bool:
    return os.environ.get("REPRO_NO_CC", "").strip() not in ("", "0")


def _compile(so_path: Path, source: str) -> Optional[str]:
    """Build ``so_path`` from ``source``; the failure reason, or ``None``."""
    compiler = next((c for c in ("cc", "gcc", "clang") if shutil.which(c)), None)
    if compiler is None:
        return "no C compiler on PATH"
    so_path.parent.mkdir(parents=True, exist_ok=True)
    src = so_path.with_suffix(".c")
    src.write_text(source)
    with tempfile.NamedTemporaryFile(
        dir=so_path.parent, suffix=".so.tmp", delete=False
    ) as tmp:
        tmp_path = Path(tmp.name)
    try:
        proc = subprocess.run(
            [compiler, "-O2", "-shared", "-fPIC", "-o", str(tmp_path), str(src), "-lm"],
            capture_output=True,
            timeout=120,
        )
        if proc.returncode != 0:
            return "compiler invocation failed"
        os.replace(tmp_path, so_path)
        return None
    except (OSError, subprocess.SubprocessError):
        return "compiler invocation failed"
    finally:
        tmp_path.unlink(missing_ok=True)


def load(
    stem: str, source: str, prepare: Callable[[ctypes.CDLL], Optional[str]]
) -> Optional[ctypes.CDLL]:
    """The compiled library for ``source``, or ``None`` when it cannot run.

    ``prepare`` declares the library's ctypes signatures (and runs any
    self-test); it returns a failure reason to refuse the library, or
    ``None`` to accept it.  The outcome is remembered per ``stem`` for
    the life of the process, except that ``REPRO_NO_CC`` is re-read on
    every call.
    """
    if _vetoed():
        return None
    if stem in _loaded:
        return _loaded[stem]
    from repro.workloads.suite import default_cache_dir

    digest = hashlib.sha1(source.encode()).hexdigest()[:16]
    so_path = default_cache_dir() / "ckernel" / f"{stem}-{digest}.so"
    lib: Optional[ctypes.CDLL] = None
    failure = None if so_path.exists() else _compile(so_path, source)
    if failure is None:
        try:
            lib = ctypes.CDLL(str(so_path))
            failure = prepare(lib)
        except OSError as exc:  # pragma: no cover - environment-dependent
            failure = f"shared object failed to load: {exc}"
    if failure is not None:
        _failures[stem] = failure
        lib = None
    _loaded[stem] = lib
    return lib


def unavailable_reason(stem: str) -> Optional[str]:
    """Why ``stem``'s library cannot run, or ``None`` if it loaded."""
    if _vetoed():
        return "REPRO_NO_CC is set"
    if _loaded.get(stem) is not None:
        return None
    return _failures.get(stem, "compiled driver unavailable")
