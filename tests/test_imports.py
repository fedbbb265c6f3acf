"""Stand-ins for a linter's unused-import and export checks, and a guard
that one function formats every float, stdlib only."""

import ast
import string
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


def unused_private_names(sources: dict[str, str]) -> list[str]:
    """The private names (one leading underscore) that a module of
    ``sources`` defines at its top level, as a function, class or constant,
    or as a method of a top-level class, and that no module reads outside
    that definition: a function that only calls itself is unused too."""
    defined, read = [], []  # (name, module, definition node, where); (name, module, node)
    for module, source in sources.items():
        tree = ast.parse(source)
        nodes = [(node, "") for node in tree.body]
        nodes += [(item, f"{node.name}.") for node in tree.body if isinstance(node, ast.ClassDef)
                  for item in node.body if isinstance(item, ast.FunctionDef)]
        for node, owner in nodes:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined += [(name, module, node, f"{module}: {owner}{name} (line {node.lineno})")
                        for name in names if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.append((node.id, module, node))
            elif isinstance(node, ast.Attribute):
                read.append((node.attr, module, node))
            elif isinstance(node, ast.alias):
                read.append((node.name, module, node))
    unused = []
    for name, module, definition, where in defined:
        inside = {id(node) for node in ast.walk(definition)}
        if not any(seen == name and (owner != module or id(node) not in inside)
                   for seen, owner, node in read):
            unused.append(where)
    return unused


def test_no_module_keeps_an_unused_private_name():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert unused_private_names(sources) == []


def test_the_check_sees_an_unused_private_name():
    sources = {
        "a.py": "_LIMIT = 3\n_KEPT = 1\n_SPARE = 2\ndef _gone():\n    pass\n"
                "class _Box:\n    def _unused(self):\n        return self._used()\n"
                "    def _used(self):\n        return _LIMIT\n"
                "def _loop(n):\n    return _loop(n - 1)\n",
        "b.py": "from .a import _KEPT\nprint(_Box)\n",
    }
    assert unused_private_names(sources) == [
        "a.py: _SPARE (line 3)", "a.py: _gone (line 4)", "a.py: _loop (line 11)",
        "a.py: _Box._unused (line 7)",
    ]


def test_package_exports_are_sorted_and_resolve():
    assert boardstats.__all__ == sorted(boardstats.__all__)
    assert [name for name in boardstats.__all__ if not hasattr(boardstats, name)] == []


FLOAT_TYPES = tuple("eEfFgG%")


def float_formats(source: str, formatter: str = "fmt_float") -> list[int]:
    """The lines that give a float presentation type (e, f, g or %) outside
    the function named ``formatter``, in an f-string's format spec or in a
    ``str.format`` template."""
    tree = ast.parse(source)
    inside = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and fn.name == formatter
              for node in ast.walk(fn)}
    lines = set()
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.FormattedValue) and node.format_spec is not None:
            last = node.format_spec.values[-1:]
            specs = [last[0].value] if last and isinstance(last[0], ast.Constant) else []
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                specs = [spec for _, field, spec, _ in string.Formatter().parse(node.value)
                         if field is not None]
            except ValueError:  # a brace that is not a template's
                continue
        else:
            continue
        if any(spec.endswith(FLOAT_TYPES) for spec in specs):
            lines.add(node.lineno)
    return sorted(lines)


def test_one_function_formats_every_float():
    found = {
        path.name: lines
        for path in sorted(PACKAGE.glob("*.py"))
        if (lines := float_formats(path.read_text(encoding="utf-8")))
    }
    assert found == {}


def test_the_check_sees_a_float_format():
    source = (
        'def fmt_float(x, places):\n    return f"{x:.{places}f}"\n'
        'A = f"{1.5:.2f} {2:>4} {3:{4}}"\nB = "{:.3e}".format\nC = "{0:d} {1!r}".format\n'
        'D = f"{0.5:.1%}"\nE = "{"\nF = "{k}: {v:g}".format\n'
    )
    assert float_formats(source) == [3, 4, 6, 8]
