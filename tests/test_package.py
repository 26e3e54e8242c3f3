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
#: the pair itself and fourier_1d, and the propagator's centred substitute, whose passes and
#: shifts the benchmark counts.
CENTRED = {"_centered_fft", "_centered_ifft", "fftshift", "ifftshift"}
CENTRED_HOLDERS = {"grid._centered_fft", "grid._centered_ifft", "grid.fourier_1d",
                   "metaplectic._Plan.substitute", "metaplectic._propagate_values"}

#: numpy.fft's transforms; fftfreq and the shifts make no pass.
NUMPY_PASSES = {"fft", "ifft", "fftn", "ifftn", "fft2", "ifft2"}


def _package_trees():
    package = pathlib.Path(phasekit.__file__).resolve().parent
    return [(path.stem, ast.parse(path.read_text())) for path in sorted(package.glob("*.py"))]


def _scoped(node: ast.AST, scope: str):
    """Each node under `node`, with the qualified name of the function or class it is in."""
    for child in ast.iter_child_nodes(node):
        inner = (f"{scope}.{child.name}" if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else scope)
        yield inner, child
        yield from _scoped(child, inner)


def test_only_the_pinned_sites_use_the_centred_transform():
    holders = {scope for stem, tree in _package_trees() for scope, node in _scoped(tree, stem)
               if getattr(node, "id", None) in CENTRED or getattr(node, "attr", None) in CENTRED}
    extra = sorted(holders - CENTRED_HOLDERS)
    assert not extra, f"the centred transform is used in {', '.join(extra)}"


def _imported(tree: ast.Module) -> dict[str, str]:
    """Each name the module's absolute imports bind, with the dotted path it stands for."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                head = alias.name if alias.asname else alias.name.partition(".")[0]
                bound[alias.asname or head] = head
        elif isinstance(node, ast.ImportFrom) and not node.level:
            bound.update((alias.asname or alias.name, f"{node.module}.{alias.name}")
                         for alias in node.names)
    return bound


def _dotted(node: ast.AST, bound: dict[str, str]) -> str | None:
    """The dotted path a name or attribute chain reads, its head resolved by the imports."""
    if isinstance(node, ast.Attribute):
        head = _dotted(node.value, bound)
        return head and f"{head}.{node.attr}"
    return bound.get(node.id) if isinstance(node, ast.Name) else None


def test_only_the_pass_site_names_an_fft():
    # pass counts are taken at grid._fft_pass, so no other function may
    # reach scipy.fft or a numpy.fft transform, by any import or alias
    holders = set()
    for stem, tree in _package_trees():
        bound = _imported(tree)
        for scope, node in _scoped(tree, stem):
            path = _dotted(node, bound) or ""
            module, _, name = path.rpartition(".")
            if (path == "scipy.fft" or path.startswith("scipy.fft.")
                    or module == "numpy.fft" and name in NUMPY_PASSES):
                holders.add(scope)
    assert holders == {"grid._fft_pass"}
