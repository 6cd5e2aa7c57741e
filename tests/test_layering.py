"""Module layering: the kinematics layer reaches none of the layers built on
it, so its task-row layout cannot be reached through a circular import, and
an import inside a function is there only to break a cycle."""

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
    """The error types and the shared checks (``uniform_spacing``,
    ``JsonFields``) sit below every layer that reads a file, so that no
    import there can close a cycle."""
    path = Path(exoload.__file__).parent / "errors.py"
    assert "uniform_spacing" in path.read_text(encoding="utf-8")
    assert imported_exoload_modules(path) == set()


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
    """An import inside a function is there to break an import cycle: the
    module it names reaches the importing module back through module-level
    imports. The package ``__init__``, which imports every layer, is left
    out of the graph."""
    paths = {p.stem: p for p in Path(exoload.__file__).parent.glob("*.py") if p.stem != "__init__"}
    eager = {name: imported_exoload_modules(path, "module") for name, path in paths.items()}
    local = {name: imported_exoload_modules(path, "function") for name, path in paths.items()}
    assert any(local.values()), "the scan found no function-level import"
    for name, targets in local.items():
        for target in targets:
            reached, frontier = set(), [target]
            while frontier:
                new = eager.get(frontier.pop(), set()) - reached
                reached |= new
                frontier += new
            assert name in reached, f"{name} imports {target} inside a function, but no cycle needs it"


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
