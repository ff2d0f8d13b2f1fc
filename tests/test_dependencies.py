"""The package imports nothing outside the standard library, as its empty
`dependencies` list in pyproject.toml promises, and defines nothing that it
does not use itself, apart from the paper's maps that only tests call."""

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


# paper maps that nothing in the package calls; the tests check each one
KEEP = {"lambda_star", "lambda_star_inverse", "chi_inverse", "dual_labelling",
        "is_even_labelling", "xi", "encode"}


def unused_definitions(sources):
    """Names of the functions, classes and methods defined in sources that
    no Name or Attribute node of sources mentions, dunders aside."""
    trees = [ast.parse(path.read_text(), filename=str(path))
             for path in sources]
    defined, named = set(), set()
    for node in (n for tree in trees for n in ast.walk(tree)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
    return {name for name in defined - named
            if not (name.startswith("__") and name.endswith("__"))}


def test_the_package_defines_only_what_it_uses():
    """Test-only helpers belong in tests/: every definition in the package
    is used by the package, or is one of the paper's maps in KEEP."""
    assert unused_definitions(sorted(PACKAGE.rglob("*.py"))) - KEEP == set()
