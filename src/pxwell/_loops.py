"""The compiled elementwise loops of `_loops.c`, built once per machine.

The C source ships beside this module.  On import it is compiled with the
C compiler `$CC` (default `cc`) into a shared library under
`$XDG_CACHE_HOME/pxwell` (default `~/.cache/pxwell`), named by the CRC-32
of the source and the compile command, and loaded through `ctypes`; a later
import finds the library and runs no compiler.  A build writes a temporary
file in the cache directory and renames it into place, so no process ever
sees a partly written library under the final name, and builds racing in
two processes each rename a whole one.  A build that fails raises
ImportError with the compiler's stderr: pxwell needs a C compiler on first
import, and there is no NumPy fallback.

`-ffp-contract=off` is part of every build: without it GCC contracts
v + f * b into a fused multiply-add wherever it emits x86-64-v3 or v4 code,
and Clang does within an expression, which would change the last bits of
the values the loops are bound to reproduce.  No fast-math flag is used.
"""

from __future__ import annotations

import ctypes
import os
import zlib
from pathlib import Path

import numpy as np

# private: only the grid kernel and the steppers call the loops
__all__: list[str] = []

_SOURCE = Path(__file__).with_name("_loops.c")
_FLAGS = ("-O3", "-ffp-contract=off")

_P = ctypes.c_void_p
_D = ctypes.c_double
_N = ctypes.c_long


class Axis(ctypes.Structure):
    """One axis of a face workspace, `axis_t` in `_loops.c`."""
    _fields_ = [("s", _N), ("wrap", _N), ("rel", _D), ("g", _P), ("f", _P)]


class Faces(ctypes.Structure):
    """A face workspace, `faces_t` in `_loops.c`: the addresses of its
    buffers, taken once."""
    _fields_ = [("n", _N), ("naxes", _N), ("scale", _D), ("x", _P), ("mag2", _P),
                ("axis", Axis * 2)]


_SIGNATURES = {
    "grad2": (_P, _D, _P, _P),
    "flux": (_P, _P, _P),
    "source_sign": (_N, _P, _P, _P),
    "source_add": (_N, _P, _P, _D),
    "step_start": (_N, _P, _P, _D, _D, _P, _P),
    "rkc2_inc": (_N, _P, _D, _P, _D, _P, _D, _P, _D, _P, _P),
    "rk4_acc": (_N, _P, _P, _D, _P, _D, _P),
    "rk4_last": (_N, _P, _P, _D, _P, _P),
}


def address(a: np.ndarray, n: int) -> int:
    """The address of `a`, checked to be a C-contiguous float64 buffer of n
    entries: a loop reads or writes n entries from it, whatever it is."""
    if a.dtype != np.float64 or a.size != n or not a.flags.c_contiguous:
        raise ValueError(f"a loop needs a contiguous float64 buffer of {n} entries, got "
                         f"{a.dtype} {a.shape}")
    return a.ctypes.data


def _cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base) / "pxwell"


def _build(source: bytes, flags: tuple[str, ...], directory: Path) -> Path:
    """The library compiled from `source` with `flags`, in `directory`:
    built there unless a library of the same source and command is there
    already."""
    command = [*(os.environ.get("CC") or "cc").split(), *flags,
               "-shared", "-fPIC", "-x", "c", "-"]
    key = zlib.crc32(" ".join(command).encode() + b"\0" + source)
    path = directory / f"_loops-{key:08x}.so"
    if path.exists():
        return path
    import subprocess
    import tempfile

    directory.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=".build-", suffix=".so", dir=directory)
    os.close(fd)
    failed = f"building {path.name} failed ({' '.join(command)})"
    try:
        done = subprocess.run([*command, "-o", tmp], input=source, capture_output=True)
        if done.returncode:
            raise ImportError(f"{failed}:\n" + done.stderr.decode(errors="replace"))
        os.replace(tmp, path)
    except OSError as exc:
        # no compiler under that name, or no rename
        raise ImportError(f"{failed}: {exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    return path


def _load(path: Path) -> ctypes.CDLL:
    """The library at `path`, each loop's argument types declared."""
    lib = ctypes.CDLL(str(path))
    for name, argtypes in _SIGNATURES.items():
        fn = getattr(lib, name)
        fn.argtypes, fn.restype = argtypes, None
    return lib


lib = _load(_build(_SOURCE.read_bytes(), _FLAGS, _cache_dir()))
