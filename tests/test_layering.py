"""Module layering: the kinematics layer reaches none of the layers built on
it, so its task-row layout cannot be reached through a circular import, and
no module imports another inside a function."""

import ast
from pathlib import Path

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
