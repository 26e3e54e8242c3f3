"""The public surface: every module's __all__ resolves, and the README's
imports from the package top level are in its namespace."""

import ast
import importlib
import importlib.util
import os
import pathlib
import pkgutil
import re
import subprocess
import sys

import phasekit

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_every_all_entry_resolves():
    modules = [phasekit] + [importlib.import_module(f"phasekit.{info.name}")
                            for info in pkgutil.iter_modules(phasekit.__path__)]
    missing = [f"{module.__name__}.{name}" for module in modules
               for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


def test_readme_imports_are_in_the_namespace():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    names = [alias.name for block in blocks for node in ast.walk(ast.parse(block))
             if isinstance(node, ast.ImportFrom) and node.module == "phasekit"
             for alias in node.names]
    # a submodule such as `states` is imported as a module, not a re-export
    names = [name for name in names if importlib.util.find_spec(f"phasekit.{name}") is None]
    assert names and set(names) <= set(phasekit.__all__)


def test_the_cli_loads_no_scipy_linalg():
    # the spectral harness lifts numpy's 1D eigensolve and the dynamics use
    # numpy's eigh, so starting the CLI leaves scipy.linalg and
    # scipy.signal unloaded
    src = str(pathlib.Path(phasekit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    code = ("import sys, phasekit.cli; "
            "print([m for m in ('scipy.linalg', 'scipy.signal') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "[]"


#: The centred transform pair and numpy's shifts, and the functions that may still use them:
#: the pair itself and fourier_1d, the propagator's centred substitute (whose passes and shifts
#: the benchmark counts), and the wigner_direct oracle's half-shift matrices.
CENTRED = {"_centered_fft", "_centered_ifft", "fftshift", "ifftshift"}
CENTRED_HOLDERS = {"grid._centered_fft", "grid._centered_ifft", "grid.fourier_1d",
                   "metaplectic._Plan.substitute", "metaplectic._propagate_values",
                   "wigner._half_shifted", "wigner._half_shifted_upsample"}


def _centred_holders(node: ast.AST, scope: str):
    """The qualified scope of each name or attribute in CENTRED read under `node`."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _centred_holders(child, f"{scope}.{child.name}")
            continue
        if getattr(child, "id", None) in CENTRED or getattr(child, "attr", None) in CENTRED:
            yield scope
        yield from _centred_holders(child, scope)


def test_only_the_pinned_sites_use_the_centred_transform():
    package = pathlib.Path(phasekit.__file__).resolve().parent
    holders = {holder for path in sorted(package.glob("*.py"))
               for holder in _centred_holders(ast.parse(path.read_text()), path.stem)}
    extra = sorted(holders - CENTRED_HOLDERS)
    assert not extra, f"the centred transform is used in {', '.join(extra)}"
