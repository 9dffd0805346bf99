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

# private: `grid` is the one module that calls the loops, the steppers'
# stages included (`grid._Kernel.step`)
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
    """A face workspace, `faces_t` in `_loops.c`: its grid's volumes and
    the addresses of its buffers, taken once."""
    _fields_ = [("n", _N), ("naxes", _N), ("scale", _D), ("vol", _D), ("omega", _D),
                ("x", _P), ("mag2", _P), ("axis", Axis * 2)]


class Stepper(ctypes.Structure):
    """A run's stepper, `stepper_t` in `_loops.c`: the addresses of its
    kernel's workspace and buffers and of three work buffers, set once per
    run, and the step under way, which `step_begin` sets."""
    _fields_ = [("faces", _P), ("d2", _D), ("q", _P), ("au", _P), ("w", _P), ("a", _P),
                ("d", _P), ("prev", _P), ("inc", _P), ("u", _P), ("f", _P), ("out", _P),
                ("weights", _P), ("dt", _D), ("s", _N)]


# each loop's argument types and its result: `rhs` returns the source's
# mean and `step_stage` whether a last stage's state is finite
_SIGNATURES = {
    "grad2": ((_P, _D, _P, _P), None),
    "rhs": ((_P, _P, _P, _P), _D),
    "step_begin": ((_P, _P, _P, _P, _D, _N, _P), None),
    "step_stage": ((_P, _N), _N),
}


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
    for name, (argtypes, restype) in _SIGNATURES.items():
        fn = getattr(lib, name)
        fn.argtypes, fn.restype = argtypes, restype
    return lib


lib = _load(_build(_SOURCE.read_bytes(), _FLAGS, _cache_dir()))
