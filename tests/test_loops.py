"""The compiled loops of `pxwell._loops` against the NumPy passes they
replace, and the loader that builds them.

Each loop is fed states, weights and slopes that mix random values with
+-0.0, +-inf, NaN, subnormals and +-1e300, on a 1D grid, a square one, one
whose second axis has weight (h_0 / h)^2 = 4 and a 3 x 5 one, and every
output must have the bits of the NumPy passes, in the order the kernel and
the steppers ran them, signed zeros included.  A NaN must sit where the
passes put one; its payload is not compared, since IEEE 754 leaves open
which NaN operand a sum of two propagates and compilers commute the
operands of a sum.

The loader's tests build into a temporary cache directory: a second build
of the same source runs no compiler, a changed source builds a new library
beside the old one, a failing compiler raises ImportError with its stderr,
and the library appears under its final name only whole.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest
from test_flat_kernel import GRIDS, _bits, _exponents, _fields

from pxwell import _loops, solver
from pxwell.grid import Grid, _Faces, _Kernel


SOURCE = _loops._SOURCE.read_bytes()


def _same(a, b):
    """Equal bits, or NaN in both."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan].view(np.int64), b[~nan].view(np.int64)))


SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e-310, -2.2e-308,
                    1e300, -1e300])

SPECIAL_GRIDS = {
    "1d-64": Grid((64,), (1.0,)),
    "16x16": Grid((16, 16), (1.0, 1.0)),
    "16x8": Grid((16, 8), (1.0, 0.25)),
    "3x5": Grid((3, 5), (1.0, 1.0)),
}


def _special(rng, n):
    """n values, about half of them drawn from SPECIAL, the rest normal."""
    v = rng.standard_normal(n)
    pick = rng.random(n) < 0.5
    v[pick] = rng.choice(SPECIAL, n)[pick]
    return v


def _address(a):
    return a.ctypes.data


def _numpy_grad2(faces, x):
    """The face differences and |grad u|^2 as the NumPy passes formed them."""
    n = faces.n
    mag2, tmp, gs = np.empty(n), np.empty(n), []
    for k, (s, rel, wrap, _, _) in enumerate(faces.axes):
        g, f = np.zeros(n + s), np.zeros(n + s)
        np.subtract(x[s:], x[:-s], g[s:n])
        if wrap:
            np.add(0.0, 0.0, g[::wrap])
        np.multiply(g[s:n], g[s:n], f[s:n])
        if k == 0:
            np.add(f[:-s], f[s:], mag2)
        else:
            np.add(f[:-s], f[s:], tmp)
            if rel != 1.0:
                np.multiply(tmp, rel, tmp)
            np.add(mag2, tmp, mag2)
        gs.append(g)
    np.multiply(mag2, faces.scale, mag2)
    return gs, mag2


def _numpy_flux(faces, w):
    """The face fluxes and the scaled divergence as the NumPy passes formed
    them, from the differences in the workspace."""
    n = faces.n
    div, tmp, fs = np.empty(n), np.empty(n), []
    for k, (s, rel, wrap, g, _) in enumerate(faces.axes):
        f = np.zeros(n + s)
        np.add(w[:-s], w[s:], f[s:n])
        np.multiply(f[s:n], g[s:n], f[s:n])
        if wrap:
            np.add(0.0, 0.0, f[::wrap])
        if k == 0:
            np.subtract(f[s:], f[:-s], div)
        else:
            np.subtract(f[s:], f[:-s], tmp)
            if rel != 1.0:
                np.multiply(tmp, rel, tmp)
            np.add(div, tmp, div)
        fs.append(f)
    return fs, np.multiply(div, faces.scale)


@pytest.mark.parametrize("name", list(SPECIAL_GRIDS))
def test_kernel_loops_give_the_numpy_passes_bits_on_special_values(name):
    faces = _Faces(SPECIAL_GRIDS[name])
    n = faces.n
    rng = np.random.default_rng(44)
    q, au, out = np.empty(n), np.empty(n), np.empty(n)
    with np.errstate(all="ignore"):
        for _ in range(4):
            x = _special(rng, n)
            faces.load(x)
            d2 = float(rng.choice([0.0, 1e-16, 5e-324]))
            faces.gradient(d2, _address(q), _address(au))
            gs, mag2 = _numpy_grad2(faces, x)
            assert _same(faces.mag2, mag2)
            assert all(_same(g, axis[3]) for g, axis in zip(gs, faces.axes))
            assert _same(q, np.add(mag2, d2)) and _same(au, np.abs(x))

            w = _special(rng, n)
            _loops.lib.flux(faces.address, _address(w), _address(out))
            fs, div = _numpy_flux(faces, w)
            assert _same(out, div)
            assert all(_same(f, axis[4]) for f, axis in zip(fs, faces.axes))

            a, sa = _special(rng, n), np.empty(n)
            _loops.lib.source_sign(n, _address(a), faces.plan.x, _address(sa))
            assert _same(sa, np.copysign(a, x))
            for m in (float(rng.standard_normal()), 0.0, -0.0, np.inf, np.nan, 1e300):
                # in place, on a copy of the divergence
                shifted = div.copy()
                _loops.lib.source_add(n, _address(shifted), _address(sa), m)
                assert _same(shifted, np.add(div, np.subtract(sa, m)))


@pytest.mark.parametrize("name", list(SPECIAL_GRIDS))
def test_stepper_loops_give_the_numpy_passes_bits_on_special_values(name):
    n = SPECIAL_GRIDS[name].cells[0] * SPECIAL_GRIDS[name].cells[-1]
    rng = np.random.default_rng(45)
    lib = _loops.lib
    with np.errstate(all="ignore"):
        for _ in range(4):
            u, f, k, d, prev = (_special(rng, n) for _ in range(5))
            a, b, mu, nu, c = rng.standard_normal(5)
            x, d_new = np.empty(n), np.empty(n)
            lib.step_start(n, _address(u), _address(f), c, b, _address(x), _address(d_new))
            assert _same(x, np.add(u, np.multiply(f, c))) and _same(d_new, np.multiply(f, b))

            inc = k.copy()
            lib.rkc2_inc(n, _address(inc), a, _address(f), b, _address(d), mu, _address(prev),
                         nu, _address(u), _address(x))
            ref = np.multiply(k, a)
            ref += np.multiply(f, b)
            ref += np.multiply(d, mu)
            ref += np.multiply(prev, nu)
            assert _same(inc, ref) and _same(x, np.add(u, ref))

            acc = d.copy()
            lib.rk4_acc(n, _address(acc), _address(k), b, _address(u), c, _address(x))
            assert _same(acc, np.add(d, np.multiply(k, b)))
            assert _same(x, np.add(u, np.multiply(k, c)))
            acc = d.copy()
            lib.rk4_last(n, _address(acc), _address(k), b, _address(u), _address(x))
            assert _same(acc, np.add(d, np.multiply(k, b))) and _same(x, np.add(u, acc))


def test_a_loop_takes_only_a_contiguous_float_buffer_of_its_size():
    # a loop reads or writes n entries through an address, so a buffer of
    # another size, dtype or layout is refused before any loop runs
    grid = GRIDS["square"]
    p, r = _exponents(grid, 1e-8)
    kernel = _Kernel(grid, p.values, 1e-8, r.values)
    n = kernel.faces.n
    for out in (np.empty(n - 1), np.empty(n, dtype=np.float32), np.empty(2 * n)[::2]):
        with pytest.raises(ValueError, match="contiguous float64 buffer"):
            kernel.stage(out)
    u = _fields(grid, np.random.default_rng(47))[1]
    J, rhs, G, S = kernel(u)
    with pytest.raises(ValueError, match="contiguous float64 buffer"):
        solver._rkc2_step(kernel, u, rhs, 1e-6, 2, solver._work(n), np.empty(n + 1))
    with pytest.raises(ValueError, match="contiguous float64 buffer"):
        solver._rk4_step(kernel, u, rhs, 1e-6, solver._work(n - 1), np.empty(n))


def _outputs(name):
    """Every output of the kernel and the steppers on the flat-kernel oracle
    states of one grid: J, G, S, the right-hand side and dt_E of each state,
    and an RKC2 and an RK4 step from it."""
    grid = GRIDS[name]
    p, r = _exponents(grid, 1e-8)
    kernel = _Kernel(grid, p.values, 1e-8, r.values)
    plain = _Kernel(grid, p.values, 1e-8)
    out = []
    for uv in _fields(grid, np.random.default_rng(46)):
        J, rhs, G, S = kernel(uv)
        dt_e = kernel.explicit_dt()
        out += [_bits([J, G, S, dt_e]), _bits(rhs), _bits(plain.rhs(uv))]
        if not np.isfinite(dt_e):
            continue
        work = solver._work(uv.size)
        out.append(_bits(solver._rkc2_step(kernel, uv, rhs, 3.0 * dt_e, 3, work,
                                           np.empty(uv.size))))
        out.append(_bits(solver._rk4_step(kernel, uv, rhs, dt_e, work, np.empty(uv.size))))
    return out


def test_every_clone_gives_the_same_bits(tmp_path, monkeypatch):
    # the library without target clones, the baseline instruction set
    # alone, gives the dispatched library's bits on every output
    baseline = _loops._load(_loops._build(SOURCE, _loops._FLAGS + ("-DLOOPS_NO_CLONES",),
                                          tmp_path))
    for name in GRIDS:
        dispatched = _outputs(name)
        monkeypatch.setattr(_loops, "lib", baseline)
        plain = _outputs(name)
        monkeypatch.undo()
        assert len(plain) == len(dispatched)
        assert all(np.array_equal(a, b) for a, b in zip(plain, dispatched))


def _libraries(directory):
    return sorted(p.name for p in directory.iterdir())


def _no_compiler(*args, **kwargs):
    raise AssertionError("a compiler ran")


def test_a_cached_library_runs_no_compiler(tmp_path, monkeypatch):
    path = _loops._build(SOURCE, _loops._FLAGS, tmp_path)
    monkeypatch.setattr(subprocess, "run", _no_compiler)
    assert _loops._build(SOURCE, _loops._FLAGS, tmp_path) == path
    assert _libraries(tmp_path) == [path.name]


def test_a_second_import_runs_no_compiler(tmp_path):
    # a fresh interpreter imports the kernel with an empty cache, then with
    # the library it built: only the first one loads subprocess
    probe = "import sys, pxwell.grid, pxwell.solver; print('subprocess' in sys.modules)"
    src = os.path.dirname(os.path.dirname(_loops.__file__))
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path),
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    runs = [subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                           text=True, check=True).stdout.split() for _ in range(2)]
    assert runs == [["True"], ["False"]]
    assert len(_libraries(tmp_path / "pxwell")) == 1


def test_a_changed_source_builds_beside_the_old_library(tmp_path):
    old = _loops._build(SOURCE, _loops._FLAGS, tmp_path)
    new = _loops._build(SOURCE + b"\n/* changed */\n", _loops._FLAGS, tmp_path)
    assert new != old and new.parent == old.parent
    assert _libraries(tmp_path) == sorted([old.name, new.name])


def test_a_failing_compiler_raises_import_error_with_its_stderr(tmp_path, monkeypatch):
    with pytest.raises(ImportError, match="deliberately broken source"):
        _loops._build(b"#error deliberately broken source\n", _loops._FLAGS, tmp_path)
    monkeypatch.setenv("CC", str(tmp_path / "no-such-cc"))
    with pytest.raises(ImportError, match="no-such-cc"):
        _loops._build(SOURCE, _loops._FLAGS, tmp_path)
    assert _libraries(tmp_path) == []


def test_no_partial_library_under_the_final_name(tmp_path, monkeypatch):
    # while the compiler writes, no library is under a final name: it writes
    # a temporary file, which is renamed whole or, on failure, removed
    run, seen = subprocess.run, []

    def compiler(command, **kwargs):
        seen.append((_libraries(tmp_path), command[-1]))
        return run(command, **kwargs)

    monkeypatch.setattr(subprocess, "run", compiler)
    path = _loops._build(SOURCE, _loops._FLAGS, tmp_path)
    with pytest.raises(ImportError):
        _loops._build(b"#error\n", _loops._FLAGS, tmp_path)
    (before, target), (_, failed_target) = seen
    assert before == [os.path.basename(target)] and path.name not in before
    assert os.path.dirname(target) == str(tmp_path)
    assert not os.path.exists(failed_target)
    assert _libraries(tmp_path) == [path.name]
