"""The package imports nothing outside the standard library, as its empty
`dependencies` list in pyproject.toml promises."""

import ast
import pathlib
import sys

import schnyder_kit

PACKAGE = pathlib.Path(schnyder_kit.__file__).parent


def imported_modules(path):
    """Top-level names of the absolute imports in a source file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_the_package_imports_only_the_standard_library():
    sources = sorted(PACKAGE.rglob("*.py"))
    assert len(sources) >= 10
    allowed = set(sys.stdlib_module_names) | {PACKAGE.name}
    foreign = {(path.name, name) for path in sources
               for name in imported_modules(path) if name not in allowed}
    assert foreign == set()
