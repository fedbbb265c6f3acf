"""Stand-ins for a linter's unused-import and export checks, stdlib only."""

import ast
from pathlib import Path

import boardstats

PACKAGE = Path(boardstats.__file__).parent


def unused_imports(source: str) -> list[str]:
    """The names an import binds that never appear as a name in the module,
    skipping ``__future__`` and lines marked ``noqa: F401``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "noqa: F401" in lines[node.end_lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in used]


def test_no_module_keeps_an_unused_import():
    found = {
        path.name: unused
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        and (unused := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert found == {}


def test_the_check_sees_an_unused_import():
    source = "from pathlib import Path\nimport numpy as np\nfrom os import sep  # noqa: F401\nnp.ones(1)\n"
    assert unused_imports(source) == ["Path (line 1)"]


def test_package_exports_are_sorted_and_resolve():
    assert boardstats.__all__ == sorted(boardstats.__all__)
    assert [name for name in boardstats.__all__ if not hasattr(boardstats, name)] == []
