"""No module under ``src/repro`` imports a name it never uses.

A stdlib-``ast`` stand-in for a linter's unused-import rule.  A name
counts as used when the module loads it anywhere (an attribute chain
counts through its first name) or names it inside a string
annotation.  Package ``__init__`` modules are skipped: their imports
are the package's re-exports.
"""

import ast
import pathlib
from typing import Iterator, List, Set, Tuple

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


def _imported(tree: ast.AST) -> Iterator[Tuple[str, int]]:
    """Every ``(bound name, line)`` an import statement creates."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0],
                       node.lineno)
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _annotations(tree: ast.AST) -> Iterator[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.returns is not None):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _loaded_names(tree: ast.AST) -> Set[str]:
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name)
            and not isinstance(node.ctx, ast.Store)}


def _used(tree: ast.AST) -> Set[str]:
    used = _loaded_names(tree)
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value,
                                                             str):
                used |= _loaded_names(ast.parse(node.value, mode="eval"))
    return used


def unused_imports(source: str) -> List[Tuple[str, int]]:
    """``(name, line)`` for each imported name the source never uses."""
    tree = ast.parse(source)
    used = _used(tree)
    return sorted({(name, line) for name, line in _imported(tree)
                   if name not in used},
                  key=lambda item: (item[1], item[0]))


class TestScanner:
    def test_flags_an_unused_name(self):
        source = "from typing import List, Optional\nx: Optional[int]\n"
        assert unused_imports(source) == [("List", 1)]

    def test_function_level_import_is_scanned(self):
        source = "def f():\n    import json\n    return 1\n"
        assert unused_imports(source) == [("json", 2)]

    def test_dotted_import_and_string_annotation_count(self):
        source = ("from __future__ import annotations\n"
                  "import os.path\nimport queue\n"
                  "def f() -> None:\n"
                  "    q: 'queue.Queue[int]' = os.path.join('a')\n")
        assert unused_imports(source) == []


def test_no_module_imports_an_unused_name():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        for name, line in unused_imports(path.read_text(encoding="utf-8")):
            offenders.append(f"{path.relative_to(SRC.parent)}:{line}: "
                             f"{name}")
    assert offenders == [], "unused imports:\n" + "\n".join(offenders)
