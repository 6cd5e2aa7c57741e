"""Module layering: the kinematics layer reaches none of the layers built on
it, so its task-row layout cannot be reached through a circular import; no
module imports another inside a function; and the package root binds only
the motion library's names, so importing it loads no file, pipeline,
biosignal or survey layer."""

import ast
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import exoload

ABOVE_SKELETON = {"retarget", "dynamics", "io", "pipeline"}


def imported_exoload_modules(path: Path, where: str = "anywhere") -> set[str]:
    """Every exoload module a file imports, relative or absolute: ``where``
    is ``"anywhere"``, ``"module"`` (outside every function) or
    ``"function"`` (inside one)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    functions = [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    in_function = {id(node) for function in functions for node in ast.walk(function)}
    found = set()
    for node in ast.walk(tree):
        if where != "anywhere" and (id(node) in in_function) != (where == "function"):
            continue
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level == 0 and not base.startswith("exoload"):
                continue
            if node.level:
                base = "exoload." + base if base else "exoload"
            # ``from . import io`` and ``from exoload import io`` name modules
            names = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        for name in names:
            parts = name.split(".")
            if parts[0] == "exoload" and len(parts) > 1:
                found.add(parts[1])
    return found


def test_skeleton_imports_no_layer_above_it():
    path = Path(exoload.__file__).parent / "skeleton.py"
    imported = imported_exoload_modules(path)
    assert imported, "the parser found no exoload import in skeleton.py"
    assert not imported & ABOVE_SKELETON, sorted(imported & ABOVE_SKELETON)


def test_errors_imports_no_other_exoload_module():
    """The error types, the shared checks (``uniform_spacing``,
    ``JsonFields``) and the JSON file reader sit below every layer that
    reads a file, so that no import there can close a cycle."""
    path = Path(exoload.__file__).parent / "errors.py"
    assert "uniform_spacing" in path.read_text(encoding="utf-8")
    assert imported_exoload_modules(path) == set()


def test_settings_loaders_import_nothing_from_io():
    """The coefficient-table, solver-settings and exoskeleton-parameter
    loaders sit beside the types they read and take the JSON reader from
    ``errors``, so the file-format layer stays above them."""
    for name in ("anthropometry", "retarget", "dynamics"):
        assert "io" not in imported_exoload_modules(Path(exoload.__file__).parent / f"{name}.py"), name


def test_import_scan_sees_local_and_relative_imports(tmp_path):
    source = tmp_path / "module.py"
    source.write_text(
        "from .geometry import cross\n"
        "def f():\n"
        "    from .io import load_json_file\n"
        "    from . import pipeline\n"
        "    import exoload.dynamics\n"
        "    from exoload import retarget\n"
    )
    assert imported_exoload_modules(source) == {"geometry", "io", "pipeline", "dynamics", "retarget"}


def test_function_level_imports_only_break_cycles():
    """No module imports an exoload module inside a function: the layers
    import one another at module level without a cycle, so no import has to
    wait for a call."""
    paths = Path(exoload.__file__).parent.glob("*.py")
    local = {path.stem: imported_exoload_modules(path, "function") for path in paths}
    assert not any(local.values()), {name: sorted(targets) for name, targets in local.items() if targets}


def test_import_scan_tells_module_level_from_function_level(tmp_path):
    source = tmp_path / "module.py"
    source.write_text(
        "from .geometry import cross\n"
        "class C:\n"
        "    from . import posture\n"
        "    def method(self):\n"
        "        from .io import load_json_file\n"
    )
    assert imported_exoload_modules(source, "module") == {"geometry", "posture"}
    assert imported_exoload_modules(source, "function") == {"io"}


REPO = Path(exoload.__file__).resolve().parents[2]
LIBRARY_ONLY = {"io", "pipeline", "biosignals", "surveys", "cli"}


def names_imported_from_the_root(source: str) -> set[str]:
    """The names a source imports ``from exoload``, submodules left out."""
    package = Path(exoload.__file__).parent
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "exoload"
        for alias in node.names
        if not (package / f"{alias.name}.py").exists()
    }


def test_the_package_root_exports_what_is_imported_through_it():
    """The root binds exactly the names that README's Quick start and the
    benchmark import from it; every other name is imported from its module."""
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    quick_start = readme.split("## Quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    imported = names_imported_from_the_root(quick_start)
    for path in sorted((REPO / "bench").glob("*.py")):
        imported |= names_imported_from_the_root(path.read_text(encoding="utf-8"))
    exported = {n for n, v in vars(exoload).items() if not n.startswith("_") and not isinstance(v, ModuleType)}
    assert exported == imported, (sorted(exported - imported), sorted(imported - exported))


def test_import_scan_of_the_root_leaves_submodules_out():
    source = "from exoload import build_model, io\nfrom exoload.io import parse_motion_file\nimport exoload\n"
    assert names_imported_from_the_root(source) == {"build_model"}


def test_the_package_root_loads_no_file_pipeline_biosignal_or_survey_layer():
    code = "import sys, exoload; print(' '.join(m for m in sys.modules if m.startswith('exoload.')))"
    env = dict(os.environ, PYTHONPATH=str(Path(exoload.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    loaded = {name.split(".", 1)[1] for name in done.stdout.split()}
    assert "skeleton" in loaded and not loaded & LIBRARY_ONLY, sorted(loaded)
