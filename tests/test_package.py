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
