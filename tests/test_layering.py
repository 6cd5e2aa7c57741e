"""Module layering: the kinematics layer reaches none of the layers built on
it, so its task-row layout cannot be reached through a circular import."""

import ast
from pathlib import Path

import exoload

ABOVE_SKELETON = {"retarget", "dynamics", "io", "pipeline"}


def imported_exoload_modules(path: Path) -> set[str]:
    """Every exoload module a file imports, at module level or inside a
    function, relative or absolute."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
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
