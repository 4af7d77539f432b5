"""Import graph and source layout: the quadrature oracles stay off the
CLI's import path and no CLI run loads SciPy, only the oracles import it, the
shared argument ranges live in errors.py, the kinds of the config's choice
keys are decided only in config.py (no other module tests an absorption
law's class), only observers.py formats floats and writes and reads CSV
tables, grid.py holds the one memory budget and the one L^q norm reader,
solve reads its trace norms in one block reader, only grid's transform
pair reaches numpy.fft and importing the CLI loads none of it, and the
names the benchmark in perfbench/ uses stay where it finds them."""

import ast
import inspect
import os
import subprocess
import sys

import numpy as np
import pytest

import mixheat
import mixheat.cli
from mixheat import fractional, grid, observers, solver

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(mixheat.__file__)))


def _run_fresh(code: str) -> str:
    """Run code in a new interpreter that imports this checkout's mixheat."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def _loaded(names):
    """Code that prints the loaded modules named in names or under them."""
    return (f"print(sorted(m for m in sys.modules if any(m == n or m.startswith(n + '.')"
            f" for n in {names!r})))\n")


def test_cli_import_skips_quadrature_stack():
    # the CLI loads no scipy module at all: the closed form sums its own 2F1
    out = _run_fresh("import sys, mixheat.cli\n" + _loaded(["scipy", "mixheat.oracles"]))
    assert out.splitlines() == ["[]"]


@pytest.mark.parametrize("command", ["capacity", "solve"])
def test_cli_run_loads_no_scipy(tmp_path, command):
    # nor does a run; and solve's set operations skip the masked-array test
    # that would import numpy.ma (about 20 ms)
    config = tmp_path / "run.cfg"
    config.write_text("alpha = 1.0\ndim = 1\nhalf_width = 8.0\npoints = 16\n"
                      "capacity_points = 16384\ncapacity_radii = 8, 16\n")
    out = _run_fresh(
        "import sys, mixheat.cli\n"
        f"code = mixheat.cli.main([{command!r}, '--config', {str(config)!r},"
        f" '--out-dir', {str(tmp_path / 'out')!r}])\n"
        "print(code)\n" + _loaded(["scipy", "mixheat.oracles", "numpy.ma"]))
    assert out.splitlines()[-2:] == ["0", "[]"]


def test_cli_import_loads_no_numpy_fft():
    # the transform pair looks the pocketfft gufuncs up at call time, not at
    # import: numpy.fft loads (about 1 ms) only when a run transforms
    out = _run_fresh("import sys, mixheat.cli\n" + _loaded(["numpy.fft"]))
    assert out.splitlines() == ["[]"]


def test_oracle_resolves_lazily_from_package():
    out = _run_fresh(
        "import sys, mixheat\n"
        "print('mixheat.oracles' in sys.modules)\n"
        "print(repr(mixheat.mixed_kernel_quadrature(0, 0.5, 1e3)))\n"
        "print('mixheat.oracles' in sys.modules)\n")
    assert out.splitlines() == ["False", "6.366196959733575e-07", "True"]


def test_public_names_resolve():
    from mixheat import oracles

    for name in mixheat.__all__:
        assert getattr(mixheat, name) is not None, name
    for name in ("frac_laplacian_pointwise", "scaling_check",
                 "stable_kernel_quadrature", "mixed_kernel_quadrature"):
        assert name in mixheat.__all__
        assert getattr(mixheat, name) is getattr(oracles, name)


def test_dir_lists_public_names():
    assert set(mixheat.__all__) <= set(dir(mixheat))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        mixheat.no_such_name
    with pytest.raises(ImportError):
        from mixheat import no_such_name  # noqa: F401


# Parameters whose range errors.require holds: comparing one with a number
# anywhere else writes that range a second time.
_SHARED_RANGES = {"alpha", "beta", "p", "s"}


def _package_nodes(skip):
    """(file name, node) for every syntax node of the package's modules,
    except those named in skip."""
    package = os.path.dirname(os.path.abspath(mixheat.__file__))
    for name in sorted(os.listdir(package)):
        if name.endswith(".py") and name not in skip:
            with open(os.path.join(package, name)) as fh:
                tree = ast.parse(fh.read())
            for node in ast.walk(tree):
                yield name, node


def test_shared_ranges_are_written_only_in_errors():
    found = []
    for name, node in _package_nodes({"errors.py"}):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        names = {getattr(o, "id", getattr(o, "attr", None)) for o in operands}
        if names & _SHARED_RANGES and any(isinstance(o, ast.Constant)
                                          for o in operands):
            found.append(f"{name}:{node.lineno}: {ast.unparse(node)}")
    assert not found, "shared ranges outside errors.py:\n" + "\n".join(found)


def test_config_kinds_are_compared_only_in_config():
    """config.py maps each kind of a choice key onto its object: a kind
    compared, or an absorption law's class tested, anywhere else decides it
    a second time. Every other module asks a law through its interface."""
    from mixheat.config import _CHOICES

    kinds = {kind for allowed in _CHOICES.values() for kind in allowed}
    classes = {"PowerAbsorption", "TableAbsorption"}
    found = []
    for name, node in _package_nodes({"config.py"}):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
        elif (isinstance(node, ast.Call) and getattr(node.func, "id", None)
              in ("isinstance", "issubclass")):
            operands = node.args[1:]
        else:
            continue
        operands += [e for o in operands for e in getattr(o, "elts", [])]  # a tuple
        if any(isinstance(o, ast.Constant) and o.value in kinds
               or getattr(o, "id", getattr(o, "attr", None)) in classes for o in operands):
            found.append(f"{name}:{node.lineno}: {ast.unparse(node)}")
    assert not found, "config kinds decided outside config.py:\n" + "\n".join(found)


def test_only_observers_formats_floats_and_writes_csv():
    """observers owns the one float format, %.17g, and the one CSV table
    writer and reader: another module that spells the format or calls
    csv.writer states the byte-identical artifacts' contract a second time,
    and one that calls csv.reader checks a table's header and cells a second
    time. Docstrings may name the format (ast.walk reaches a docstring after
    its owner)."""
    docstrings, found = set(), []
    for name, node in _package_nodes({"observers.py"}):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            docstrings.add(id(node.body[0].value))
        elif (isinstance(node, ast.Constant) and "%.17g" in str(node.value)
              and id(node) not in docstrings
              or isinstance(node, ast.Attribute) and node.attr in ("writer", "reader")
              and getattr(node.value, "id", None) == "csv"):
            found.append(f"{name}:{node.lineno}: {ast.unparse(node)}")
    assert not found, ("float format or CSV writer or reader outside observers.py:\n"
                       + "\n".join(found))


# The one module that may import SciPy: the quadrature oracles.
_SCIPY_IMPORTERS = {"oracles.py"}


def test_only_oracles_import_scipy():
    found = []
    for name, node in _package_nodes(_SCIPY_IMPORTERS):
        if isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            continue
        if any(m == "scipy" or m.startswith("scipy.") for m in modules):
            found.append(f"{name}:{node.lineno}")
    assert not found, "scipy imported in:\n" + "\n".join(found)


# numpy.fft and the module of pocketfft gufuncs under its wrappers
_FFT_MODULES = {"fft", "_pocketfft", "_pocketfft_umath"}


def _transform_sites(tree, module):
    """({owner of each transform}, [line of each import of an FFT module])
    in tree. An FFT module is one whose dotted name has a part ending in
    "fft" (numpy.fft, mkl_fft, scipy.fft), or _pocketfft or its gufuncs,
    imported as a module or from one. A transform is any name reached
    through numpy.fft or its gufunc module, except the frequency tables
    fftfreq and rfftfreq: a call np.fft.rfft(u), or the lookup
    pfu = np.fft._pocketfft_umath before pfu.irfft(...). Its owner is the
    innermost function, module.name, or the module at its top level."""
    owners, imports = set(), []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                for a in child.names:
                    source = child.module if isinstance(child, ast.ImportFrom) else a.name
                    parts = (source or "").split(".")
                    if any(p.endswith("fft") for p in parts) or _FFT_MODULES & {*parts, a.name}:
                        imports.append(child.lineno)
                        break
            elif isinstance(child, ast.Attribute):
                chain, root = [], child  # a whole chain a.b.c, read once
                while isinstance(root, ast.Attribute):
                    chain.append(root.attr)
                    root = root.value
                chain.append(getattr(root, "id", ""))
                if _FFT_MODULES & set(chain) and not chain[0].endswith("freq"):
                    owners.add(owner)
                visit(root, owner)
            else:
                visit(child, f"{module}.{child.name}"
                      if isinstance(child, ast.FunctionDef) else owner)

    visit(tree, module)
    return owners, imports


def test_only_the_transform_pair_calls_numpy_fft():
    """grid._rfft and grid._irfft are the one spectral path: no other
    function, nor any module's top level, transforms through numpy.fft or
    the pocketfft gufuncs under it, and no module imports either by name."""
    callers, imports = set(), []
    for name, node in _package_nodes(set()):
        if isinstance(node, ast.Module):
            owners, lines = _transform_sites(node, name[:-3])
            callers |= owners
            imports += [f"{name}:{line}" for line in lines]
    assert not imports, "numpy.fft imported by name in:\n" + "\n".join(imports)
    assert callers == {"grid._rfft", "grid._irfft"}


@pytest.mark.parametrize("source,owners,lines", [
    ("def f(u):\n    return np.fft.rfft(u).real", {"m.f"}, []),
    ("def f(u):\n    pfu = np.fft._pocketfft_umath\n    return pfu.irfft(u, 1.0)",
     {"m.f"}, []),
    ("def f(u):\n    def g():\n        return np.fft.ifft(u)\n    return g", {"m.g"}, []),
    ("spectrum = np.fft.fft(u)", {"m"}, []),
    ("def f(n):\n    return 2 * np.pi * np.fft.rfftfreq(n)", set(), []),
    ("import numpy.fft", set(), [1]),
    ("from numpy import fft", set(), [1]),
    ("import numpy as np\nfrom numpy.fft import _pocketfft_umath as pfu", set(), [2]),
    ("from mkl_fft import rfft", set(), [1]),
    ("from pyfftw.interfaces.numpy_fft import rfft", set(), [1]),
    ("from .grid import _irfft, _rfft", set(), []),
], ids=["call", "gufunc-lookup", "nested", "top-level", "freq-table", "import",
        "import-from", "gufunc-import", "mkl-fft", "fft-suffix", "the-pair"])
def test_transform_check_sees_each_spelling(source, owners, lines):
    assert _transform_sites(ast.parse(source), "m") == (owners, lines)


def test_grid_holds_the_one_cut_path():
    """grid's cut path, beside the transform pair, is the one grid cut:
    _refine and the band helpers that decide a halving (_bands, _band_walk
    and _band_reduce, the one reader of band extrema). No other module
    defines any of them, nor any function whose name speaks of a band, nor
    spells the cut's tolerance; solver and kernels import what they use of
    it from grid."""
    cut_path = {"_refine", "_bands", "_band_walk", "_band_reduce"}
    defined, imported, tolerance = [], {}, []
    for name, node in _package_nodes(set()):
        if isinstance(node, ast.FunctionDef) and (node.name in cut_path
                                                  or "band" in node.name.lower()):
            defined.append(f"{name}:{node.name}")
        elif isinstance(node, ast.ImportFrom) and node.module == "grid":
            imported[name] = cut_path & {a.name for a in node.names}
        elif (name != "grid.py"
              and getattr(node, "id", getattr(node, "attr", None)) == "_CUT_TOL"):
            tolerance.append(f"{name}:{node.lineno}")
    assert [d for d in defined if not d.startswith("grid.py:")] == []
    assert sorted(d for d in defined if d.split(":")[1] in cut_path) == sorted(
        f"grid.py:{f}" for f in cut_path)
    assert imported["solver.py"] == {"_band_reduce", "_band_walk", "_refine"}
    assert imported["kernels.py"] == {"_band_reduce", "_band_walk"}
    assert not tolerance, "_CUT_TOL named outside grid.py:\n" + "\n".join(tolerance)


def test_grid_holds_the_one_memory_budget():
    """grid._MAX_BYTES is the one memory budget and grid._check_budget its
    one raise: no other module assigns the budget or spells its message, so
    solve's snapshot-and-trace check goes through grid too. The linear
    layers, kernels and fractional, take their check from grid and import
    nothing from the stepper."""
    message = "more than the memory budget"
    assigned, spelled, from_solver = [], [], []
    for name, node in _package_nodes(set()):
        targets = getattr(node, "targets", [getattr(node, "target", None)])
        if (isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
                and any(getattr(t, "id", None) == "_MAX_BYTES" for t in targets)):
            assigned.append(name)
        elif isinstance(node, ast.Constant) and message in str(node.value):
            spelled.append(name)
        elif name in ("kernels.py", "fractional.py") and (
                isinstance(node, ast.ImportFrom) and (
                    (node.module or "").endswith("solver")
                    or any(a.name == "solver" for a in node.names))
                or isinstance(node, ast.Import)
                and any(a.name.endswith("solver") for a in node.names)):
            from_solver.append(f"{name}:{node.lineno}")
    assert assigned == ["grid.py"]
    assert spelled == ["grid.py"]
    assert not from_solver, "the stepper imported in:\n" + "\n".join(from_solver)


def _np_call(node, names):
    """Whether node calls np.<name> (or np.add.<name>) for a name in names."""
    func = getattr(node, "func", None)
    return (isinstance(node, ast.Call) and isinstance(func, ast.Attribute)
            and func.attr in names
            and getattr(func.value, "id", getattr(func.value, "attr", None)) in ("np", "add"))


_POWERS = ("abs", "absolute", "square", "power")
# Functions whose sum of a power, set by name, is no norm: the capacity
# functional weighs |L phi|^(p/(p-1)) by phi^(-1/(p-1)) on a folded lattice.
_WEIGHTED_SUMS = {"capacity_integral"}


def _power_sums(tree):
    """(line, source) of each numpy sum in tree of an |v|, a square or a
    power of an array: one spelled in the sum's arguments, or a name that
    the same function set from np.abs, np.square or np.power (assigned, or
    as its out=), outside _WEIGHTED_SUMS."""
    found = set()
    for scope in [tree] + [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]:
        powered = set()
        # a name is a power only in its own function
        if scope is not tree and scope.name not in _WEIGHTED_SUMS:
            for node in ast.walk(scope):
                if isinstance(node, ast.Assign) and _np_call(node.value, _POWERS):
                    powered |= {getattr(t, "id", None) for t in node.targets}
                elif _np_call(node, _POWERS):
                    powered |= {getattr(k.value, "id", None)
                                for k in node.keywords if k.arg == "out"}
        for node in ast.walk(scope):
            if _np_call(node, ("sum", "reduce")) and any(
                    _np_call(inner, _POWERS)
                    or isinstance(inner, ast.BinOp) and isinstance(inner.op, ast.Pow)
                    or isinstance(inner, ast.Name) and inner.id in powered
                    for arg in node.args for inner in ast.walk(arg)):
                found.add((node.lineno, ast.unparse(node)))
    return sorted(found)


def test_grid_holds_the_one_lq_norm_reader():
    """grid._lq_norm is the one L^q norm: no other module defines a norm
    helper of its own or sums an |v|, a square or a power of an array, so
    the float-range guard lives in one copy. solver and kernels import the
    reader from grid."""
    helpers = {"_lq_norm", "_l2_norm", "_lq_from_power_sum", "_l1_l2_norms"}
    defined, imported, sums = [], {}, []
    for name, node in _package_nodes(set()):
        if isinstance(node, ast.FunctionDef) and node.name in helpers:
            defined.append(f"{name}:{node.name}")
        elif isinstance(node, ast.ImportFrom) and node.module == "grid":
            imported[name] = {a.name for a in node.names}
        elif isinstance(node, ast.Module) and name != "grid.py":
            sums += [f"{name}:{line}: {text}" for line, text in _power_sums(node)]
    assert defined == ["grid.py:_lq_norm"]
    assert "_lq_norm" in imported["solver.py"] & imported["kernels.py"]
    assert not sums, "a sum of powers outside grid.py:\n" + "\n".join(sums)


def test_solve_reads_the_trace_norms_in_its_block_reader():
    """solver.solve names _lq_norm once, in its block reader, which fills
    every trace row's linf and l2 on every grid: no second trace path."""
    solve = ast.parse(inspect.getsource(solver.solve)).body[0]

    def named(node):
        return [n for n in ast.walk(node) if isinstance(n, ast.Name) and n.id == "_lq_norm"]

    readers = [node.name for node in ast.walk(solve)
               if isinstance(node, ast.FunctionDef) and node is not solve and named(node)]
    assert len(named(solve)) == 1
    assert readers == ["read_block"]


@pytest.mark.parametrize("source,flagged", [
    # a stacked norm that squares into a name first, then sums it by rows
    ("def f(x):\n    w = np.square(x)\n    return np.add.reduce(w, axis=1)", True),
    ("def f(x, w):\n    np.power(x, 3.0, out=w)\n    return np.sum(w)", True),
    ("def f(x):\n    return np.add.reduce(np.abs(x) ** 3.0)", True),
    ("def f(x):\n    w = np.exp(x)\n    return np.sum(w)", False),
    ("def f(x):\n    w = np.square(x)\n\ndef g(w):\n    return np.sum(w)", False),
], ids=["assigned-square", "out-power", "inline", "not-a-power", "other-function"])
def test_lq_norm_reader_check_sees_a_power_by_name(source, flagged):
    assert bool(_power_sums(ast.parse(source))) == flagged


def test_names_the_benchmark_reaches_into(tmp_path):
    """perfbench/ drives mixheat through these names and signatures, and
    reads its trace columns and step count; moving one breaks it."""
    assert mixheat.MassTrace is observers.MassTrace is solver.MassTrace
    t = np.array([1.0, 2.0])
    path = str(tmp_path / "mass.csv")
    observers.write_mass_csv(trace=observers.MassTrace(
        times=t, taus=t, mass=t, absorbed=t, linf=t, l2=t), path=path)
    assert observers.read_mass_csv(path).times.tolist() == [1.0, 2.0]

    g = grid.GridSpec(1, 8.0, 16)
    u0 = grid.Field(g, np.exp(-g.axis_coords() ** 2))
    result = solver.solve(
        solver.ProblemSpec(alpha=1.0, beta=0.0, p=2.0,
                           absorption=solver.PowerAbsorption(1.0), initial=u0),
        solver.make_step_schedule(1.0, 2.0, 0.0, 1.0))
    assert result.total_steps == result.schedule.total_steps

    assert list(inspect.signature(fractional.capacity_integral).parameters)[3] == "grid"
    assert list(inspect.signature(grid.write_field).parameters)[:2] == ["f", "path"]
    assert list(inspect.signature(mixheat.cli.main).parameters) == ["argv"]
