"""Import graph and source layout: the quadrature oracles stay off the
CLI's import path, and the shared argument ranges live in errors.py."""

import ast
import os
import subprocess
import sys

import pytest

import mixheat

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


def test_cli_import_skips_quadrature_stack():
    out = _run_fresh(
        "import sys, mixheat.cli\n"
        "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize',"
        " 'mixheat.oracles') if m in sys.modules))\n"
        "print('scipy.special' in sys.modules)\n")
    assert out.splitlines() == ["[]", "True"]


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


def test_shared_ranges_are_written_only_in_errors():
    package = os.path.dirname(os.path.abspath(mixheat.__file__))
    found = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py") or name == "errors.py":
            continue
        with open(os.path.join(package, name)) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            names = {getattr(o, "id", getattr(o, "attr", None)) for o in operands}
            if names & _SHARED_RANGES and any(isinstance(o, ast.Constant)
                                              for o in operands):
                found.append(f"{name}:{node.lineno}: {ast.unparse(node)}")
    assert not found, "shared ranges outside errors.py:\n" + "\n".join(found)
