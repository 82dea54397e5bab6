"""Build, cache and load the native timing kernel (``timing_kernel.c``).

The kernel is a CPython extension built with cffi in API mode: cffi
emits the C glue around the kernel source, one plain compiler
subprocess turns it into a shared object, and the result is cached
under::

    $XDG_CACHE_HOME/repro/native/<key>/_repro_timing_kernel<EXT_SUFFIX>

where ``$XDG_CACHE_HOME`` defaults to ``~/.cache`` and ``<key>`` is the
sha256 of the kernel source, its cffi declarations, the cffi version and
the interpreter's extension suffix.  A build goes to a private temporary
directory and is installed with an atomic rename, so concurrent
processes (pool workers) that race on a cold cache each install a
complete, identical file.  A warm load imports the cached extension and
runs no compiler; neither importing this module nor importing
:mod:`repro.fastsim` builds or loads anything.

Any failure -- cffi missing, no compiler, a compile error, a load error
-- raises :class:`NativeBuildError`, which
:func:`repro.fastsim.backend.simulate` contains as a ``native-build``
fallback to the reference simulator.  The outcome is remembered for the
life of the process, so a host without a compiler tries once.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import subprocess
import sys
import sysconfig
import tempfile
from pathlib import Path
from typing import Optional

#: Extension module name (the ``PyInit_`` symbol cffi emits).
MODULE = "_repro_timing_kernel"

#: The kernel's C interface, as cffi sees it.
CDEF = """
typedef struct tk_sim tk_sim;
tk_sim *tk_new(const int64_t *params, const int32_t *meta,
               const int32_t *uses);
void tk_free(tk_sim *sim);
void tk_set_batch(tk_sim *sim, const int32_t *idxs, int64_t nidx,
                  const int8_t *brs, const int64_t *mems,
                  const int64_t *anns, int64_t nann);
void tk_end_of_trace(tk_sim *sim);
int tk_run(tk_sim *sim);
void tk_results(const tk_sim *sim, int64_t *out);
"""

SOURCE = Path(__file__).with_name("timing_kernel.c")


class NativeBuildError(Exception):
    """The native kernel could not be built or loaded.

    Deliberately not a ``RuntimeError``: the fast backend treats those
    as program-semantic failures, and this one is not the program's.
    """


_KERNEL = None
_FAILURE: Optional[NativeBuildError] = None


def kernel():
    """The loaded kernel module (``.ffi``, ``.lib``), built on first use."""
    global _KERNEL, _FAILURE
    if _KERNEL is not None:
        return _KERNEL
    if _FAILURE is not None:
        raise _FAILURE
    try:
        _KERNEL = _load_or_build()
    except NativeBuildError as exc:
        _FAILURE = exc
        raise
    return _KERNEL


def cache_root() -> Path:
    """Directory holding one subdirectory per kernel build key."""
    base = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(base) / "repro" / "native"


def build_key(source: str, cffi_version: str) -> str:
    """sha256 over everything the built extension depends on."""
    import hashlib

    h = hashlib.sha256()
    for part in (source, CDEF, cffi_version,
                 sysconfig.get_config_var("EXT_SUFFIX") or ""):
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()


def compiler() -> list:
    """The C compiler command Python was built with, else ``cc``."""
    cc = (sysconfig.get_config_var("CC") or "").split()
    for cmd in (cc, ["cc"]):
        if cmd and shutil.which(cmd[0]):
            return cmd
    raise NativeBuildError("no C compiler found")


def _load_or_build():
    try:
        import _cffi_backend
    except ImportError as exc:
        raise NativeBuildError(f"cffi unavailable: {exc}") from exc
    try:
        source = SOURCE.read_text()
    except OSError as exc:
        raise NativeBuildError(f"kernel source unreadable: {exc}") from exc
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    target = (cache_root() / build_key(source, _cffi_backend.__version__)
              / (MODULE + suffix))
    if not target.is_file():
        build(source, target)
    return _load(target)


def build(source: str, target: Path) -> None:
    """Compile *source* into the extension *target* (atomic install)."""
    cc = compiler()
    try:
        import cffi

        ffi = cffi.FFI()
        ffi.cdef(CDEF)
        ffi.set_source(MODULE, source)
        target.parent.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=target.parent) as tmp:
            c_file = os.path.join(tmp, MODULE + ".c")
            so_file = os.path.join(tmp, target.name)
            with contextlib.redirect_stdout(io.StringIO()):
                ffi.emit_c_code(c_file)     # it announces the file
            flags = ["-shared", "-fPIC", "-O2"]
            if sys.platform == "darwin":
                flags += ["-undefined", "dynamic_lookup"]
            cmd = cc + flags + [
                "-I", sysconfig.get_paths()["include"],
                "-o", so_file, c_file]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode != 0:
                detail = (proc.stderr.strip().splitlines() or ["?"])[0]
                raise NativeBuildError(
                    f"compiler exited {proc.returncode}: {detail}")
            os.replace(so_file, target)
    except NativeBuildError:
        raise
    except Exception as exc:  # noqa: BLE001 - any build failure is contained
        raise NativeBuildError(
            f"build failed: {type(exc).__name__}: {exc}") from exc


def _load(path: Path):
    import importlib.machinery
    import importlib.util

    try:
        loader = importlib.machinery.ExtensionFileLoader(MODULE, str(path))
        spec = importlib.util.spec_from_file_location(
            MODULE, str(path), loader=loader)
        module = importlib.util.module_from_spec(spec)
        loader.exec_module(module)
    except Exception as exc:  # noqa: BLE001 - ImportError, OSError, ...
        raise NativeBuildError(
            f"load failed: {type(exc).__name__}: {exc}") from exc
    return module
