"""The compiled loops of `pxwell._loops` against the NumPy passes they
replace, and the loader that builds them.

Each loop is fed states, weights and slopes that mix random values with
+-0.0, +-inf, NaN, subnormals and +-1e300, on a 1D grid, a square one, one
whose second axis has weight (h_0 / h)^2 = 4 and a 3 x 5 one, and every
output must have the bits of the NumPy passes, in the order the kernel ran
them, signed zeros included.  The steppers' entry points, `step_begin` and
`step_stage`, are fed such states and slopes too, and every step must have
the bits of the expression-form steppers of `tests/oracles.py` on the same
kernel, with a finiteness flag that agrees with `np.isfinite`.  A NaN must
sit where the passes put one; its payload is not compared, since IEEE 754
leaves open which NaN operand a sum of two propagates and compilers commute
the operands of a sum.  The source's sum in `rhs` must have the bits of
`np.sum` on lengths that reach every branch of NumPy's pairwise sum, on
terms that a sum in another order rounds otherwise.  These cases run on the
loaded library and on one built without target clones; a kernel's and the
steppers' outputs must have the same bits from both.

The loader's tests build into a temporary cache directory: a second build
of the same source runs no compiler, a changed source builds a new library
beside the old one, a failing compiler raises ImportError with its stderr,
and the library appears under its final name only whole.
"""

from __future__ import annotations

import ctypes
import os
import re
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import step
from oracles import rk4_step, rkc2_step
from test_flat_kernel import GRIDS, _bits, _exponents, _fields

from pxwell import _loops, solver
from pxwell.grid import Grid, _aligned, _Faces, _Kernel


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


@pytest.fixture(scope="module", params=["dispatched", "baseline"])
def lib(request, tmp_path_factory):
    """The loaded library, and the one built without target clones, the
    baseline instruction set alone."""
    if request.param == "dispatched":
        return _loops.lib
    return _loops._load(_loops._build(SOURCE, _loops._FLAGS + ("-DLOOPS_NO_CLONES",),
                                      tmp_path_factory.mktemp("baseline")))


def _numpy_mean(faces, sa):
    """The source's mean as the NumPy passes formed it: vol sum / omega."""
    return faces.plan.vol * np.sum(sa) / faces.plan.omega


@pytest.mark.parametrize("name", list(SPECIAL_GRIDS))
def test_kernel_loops_give_the_numpy_passes_bits_on_special_values(lib, name):
    faces = _Faces(SPECIAL_GRIDS[name])
    n = faces.n
    rng = np.random.default_rng(44)
    q, au, out = np.empty(n), np.empty(n), np.empty(n)
    finite = SPECIAL[np.isfinite(SPECIAL)]
    with np.errstate(all="ignore"):
        for _ in range(4):
            x = _special(rng, n)
            faces.load(x)
            d2 = float(rng.choice([0.0, 1e-16, 5e-324]))
            gs, mag2 = _numpy_grad2(faces, x)
            # q and |u| together, each alone and neither, as the kernels
            # with and without the source, a ray and the gradient magnitude
            # ask for them
            for with_q, with_au in ((1, 1), (1, 0), (0, 1), (0, 0)):
                q.fill(7.0)
                au.fill(7.0)
                lib.grad2(faces.address, d2, _address(q) if with_q else None,
                          _address(au) if with_au else None)
                assert _same(faces.mag2, mag2)
                assert all(_same(g, axis[3]) for g, axis in zip(gs, faces.axes))
                assert _same(q, np.add(mag2, d2) if with_q else np.full(n, 7.0))
                assert _same(au, np.abs(x) if with_au else np.full(n, 7.0))

            w = _special(rng, n)
            assert lib.rhs(faces.address, _address(w), None, _address(out)) == 0.0
            fs, div = _numpy_flux(faces, w)
            assert _same(out, div)
            assert all(_same(f, axis[4]) for f, axis in zip(fs, faces.axes))

            # sources drawn from every special value, from the finite ones
            # and from the signed zeros alone, and 1e308 on the cells whose
            # state has no sign bit, so the mean is NaN, finite, zero or +inf
            for a in (_special(rng, n), np.where(rng.random(n) < 0.5, rng.choice(finite, n),
                                                 rng.standard_normal(n)),
                      rng.choice([0.0, -0.0], n), np.where(np.signbit(x), 0.0, 1e308)):
                m = lib.rhs(faces.address, _address(w), _address(a), _address(out))
                sa = np.copysign(a, x)
                assert _same(m, _numpy_mean(faces, sa))
                assert _same(out, np.add(div, np.subtract(sa, _numpy_mean(faces, sa))))


# lengths that reach every branch of NumPy's pairwise sum: under 8 terms,
# one block of 8 to 128 with and without a rest, and the splits above 128
SUM_LENGTHS = [1, 7, 8, 9, 127, 128, 129, 1023, 1024, 4095, 4096, 4097, 16384]


@pytest.mark.parametrize("n", SUM_LENGTHS)
def test_source_sum_takes_numpys_pairwise_order(lib, n):
    # the source's mean with a cell and a domain volume of 1 is its sum, which
    # must have the bits of np.sum on copysign(a, x).  The terms span 24
    # decades with mixed signs, so a sum in another order rounds otherwise:
    # on every length above 8 a sum from left to right misses np.sum's bits
    # on at least one draw.  A NumPy that sums in another order fails here
    one_cell = SimpleNamespace(cells=(n,), spacing=(1.0,), flat_neighbours=((1, 0),),
                               cell_volume=1.0, volume=1.0)
    faces = _Faces(one_cell)
    rng = np.random.default_rng(48)
    w, out = np.zeros(n), np.empty(n)
    in_order = []
    for _ in range(8):
        x = rng.standard_normal(n)
        a = np.abs(rng.standard_normal(n)) * 10.0 ** rng.integers(-12, 12, n)
        faces.load(x)
        lib.grad2(faces.address, 0.0, None, None)
        total = lib.rhs(faces.address, _address(w), _address(a), _address(out))
        sa = np.copysign(a, x)
        assert _same(total, np.sum(sa)), (
            f"numpy {np.__version__} summed {n} terms in another order than the "
            "pairwise sum of _loops.c; the seed-0 pins were measured under numpy 2.4.6")
        in_order.append(_same(total, _left_to_right(sa)))
    assert n <= 8 or not all(in_order)
    # every term -0.0: np.sum adds the pairwise sum to +0.0, so it is +0.0
    zero = np.zeros(n)
    faces.load(-np.ones(n))
    lib.grad2(faces.address, 0.0, None, None)
    total = lib.rhs(faces.address, _address(w), _address(zero), _address(out))
    assert _same(total, np.sum(np.full(n, -0.0))) and _same(total, 0.0)


def _left_to_right(v):
    total = 0.0
    for t in v.tolist():
        total += t
    return total


class _Flags:
    """A library whose `step_stage` logs every flag it returns."""

    def __init__(self, lib):
        self.lib, self.flags = lib, []

    def __getattr__(self, name):
        return getattr(self.lib, name)

    def step_stage(self, plan, j):
        self.flags.append(self.lib.step_stage(plan, j))
        return self.flags[-1]


def _stepped(lib, kernel, u, f, dt, s, work):
    """The state of one step from the flat u, whose right-hand side is f,
    through the kernel's `step` with `_loops.lib` set to lib, a `_Flags`:
    RKC2 with s stages, RK4 without; with the flag the step returned, the
    last stage's, which every inner stage returns as 1."""
    out, at = np.empty(u.size), kernel.address
    plan = kernel.stepper([at(b) for b in work])
    stages = s or 4
    lib.flags.clear()
    finite = kernel.step(plan, at(u), at(f), at(out), dt, stages,
                         solver._rkc2_weights(s)[2] if s else None)
    assert lib.flags[:-1] == [1] * (stages - 2) and len(lib.flags) == stages - 1
    assert finite is bool(lib.flags[-1])
    return out, finite


@pytest.mark.parametrize("name", list(SPECIAL_GRIDS))
def test_stepper_stages_give_the_expression_form_bits_on_special_values(lib, name,
                                                                         monkeypatch):
    # a step through the compiled stages has the bits of the expression-form
    # steppers of `tests/oracles.py` on the same kernel, a NaN where they put
    # one; its flag says whether its state is finite; and its last stage
    # leaves that state and its gradient in the kernel, so the kernel's
    # `finish` has the bits of a full evaluation of the state.  The oracles'
    # right-hand sides run on the same build
    lib = _Flags(lib)
    monkeypatch.setattr(_loops, "lib", lib)
    grid = SPECIAL_GRIDS[name]
    p, r = _exponents(grid, 1e-8)
    kernel = _Kernel(grid, p.values, 1e-8, r.values)
    kernel.offset
    n = kernel.n
    rng = np.random.default_rng(45)
    work = _aligned(n, 4)
    dest, ref = np.empty(n), np.empty(n)
    flags = set()
    with np.errstate(all="ignore"):
        for draw in range(6):
            # special values in about half the entries; finite ones; and
            # finite ones but one entry, a special value
            if draw % 3 == 0:
                u, f = _special(rng, n), _special(rng, n)
            else:
                u, f = 1e-2 * rng.standard_normal(n), rng.standard_normal(n)
                if draw % 3 == 2:
                    f[rng.integers(n)] = rng.choice(SPECIAL)
            dt = float(rng.choice([1e-7, 1e-3]))
            for s in (None, 2, 3, 9):
                out, finite = _stepped(lib, kernel, u, f, dt, s, work)
                assert finite == np.isfinite(out).all()
                flags.add(finite)
                assert _same(kernel.state, out)
                J, G, S = kernel.finish(_address(dest))
                assert _same([J, G, S], kernel.evaluate(out.copy(), _address(ref)))
                assert _same(dest, ref)
                uv, fv = u.reshape(grid.shape), f.reshape(grid.shape)
                expect = rk4_step(kernel, uv, fv, dt) if s is None else rkc2_step(kernel, uv, fv,
                                                                                  dt, s)
                assert _same(out, expect.reshape(-1))
    assert flags == {True, False}


def test_a_loop_takes_only_a_contiguous_float_buffer_of_its_size():
    # a loop reads or writes n entries through an address, so a buffer of
    # another size, dtype or layout is refused before any loop runs
    grid = GRIDS["square"]
    p, r = _exponents(grid, 1e-8)
    kernel = _Kernel(grid, p.values, 1e-8, r.values)
    n = kernel.faces.n
    for out in (np.empty(n - 1), np.empty(n, dtype=np.float32), np.empty(2 * n)[::2]):
        with pytest.raises(ValueError, match="contiguous float64 buffer"):
            kernel.address(out)
    # nor a read-only one, which a loop would write through
    frozen = np.zeros(n)
    frozen.flags.writeable = False
    for out in (frozen, np.frombuffer(bytes(8 * n))):
        with pytest.raises(ValueError, match="read-only"):
            kernel.address(out)
    u = _fields(grid, np.random.default_rng(47))[1]
    J, rhs, G, S = kernel(u)
    with pytest.raises(ValueError, match="contiguous float64 buffer"):
        step(kernel, u, rhs, 1e-6, 2, out=np.empty(n + 1))
    with pytest.raises(ValueError, match="contiguous float64 buffer"):
        step(kernel, u, rhs, 1e-6, work=_aligned(n - 1, 4))


@pytest.mark.parametrize("source", [True, False], ids=["source", "no-source"])
def test_a_kernel_refuses_an_output_over_its_state_or_buffers(source):
    # a stage reads the state, the face arrays and the kernel's buffers
    # after it has begun to write its output, so an output over any of them
    # would give a wrong right-hand side without a word: it is refused
    grid = GRIDS["12x9"]
    p, r = _exponents(grid, 1e-8)
    kernel = _Kernel(grid, p.values, 1e-8, r.values if source else None)
    faces, n = kernel.faces, kernel.n
    inside = [kernel.state, kernel.mag2, faces.tmp, kernel.q, kernel.w, kernel.expo,
              kernel.inv_p]
    inside += [a[:n] for _, _, _, g, f in faces.axes for a in (g, f)]
    if source:
        inside += [kernel.r1, kernel.inv_r, kernel.au, kernel.a]
    for out in inside:
        with pytest.raises(ValueError, match="must not share memory"):
            kernel.address(out)
    assert kernel.address(np.empty(n)) > 0


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
        work = _aligned(uv.size, 4)
        out.append(_bits(step(kernel, uv, rhs, 3.0 * dt_e, 3, work)))
        out.append(_bits(step(kernel, uv, rhs, dt_e, work=work)))
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


def _c_fields(source, name):
    """The field names of the struct typedef `name` in the C source, in
    their declaration order."""
    body = re.search(r"typedef struct \{([^{}]*)\} %s;" % name, source).group(1)
    body = re.sub(r"/\*.*?\*/", "", body, flags=re.S)
    return [re.search(r"(\w+)\s*(\[\w+\])?\s*$", part).group(1)
            for decl in body.split(";") if decl.strip() for part in decl.split(",")]


def test_the_structs_have_the_layout_of_their_c_declarations(tmp_path):
    # ctypes places each field of a struct by its own declaration, so a field
    # dropped or moved on one side only would misplace every later one
    # without an error: each struct's size and its fields' offsets, in
    # declaration order, are the C compiler's, read from a probe built on
    # `_loops.c` (the layout does not depend on the clones)
    structs = {"axis_t": _loops.Axis, "faces_t": _loops.Faces, "stepper_t": _loops.Stepper}
    text = SOURCE.decode()
    lines = [f'    printf("%zu", sizeof({name}));\n'
             + "".join(f'    printf(" %zu", offsetof({name}, {field}));\n'
                       for field in _c_fields(text, name))
             + '    printf("\\n");\n' for name in structs]
    probe = tmp_path / "layout.c"
    probe.write_text(f'#include "{_loops._SOURCE}"\n#include <stdio.h>\n\n'
                     "int main(void)\n{\n" + "".join(lines) + "    return 0;\n}\n")
    exe = tmp_path / "layout"
    cc = (os.environ.get("CC") or "cc").split()
    subprocess.run([*cc, "-DLOOPS_NO_CLONES", "-o", str(exe), str(probe), "-lm"], check=True)
    c_side = [list(map(int, line.split()))
              for line in subprocess.run([str(exe)], capture_output=True, text=True,
                                         check=True).stdout.splitlines()]
    ctypes_side = [[ctypes.sizeof(cls), *(getattr(cls, field).offset for field, _ in cls._fields_)]
                   for cls in structs.values()]
    assert c_side == ctypes_side


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
