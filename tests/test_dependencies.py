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


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def mentioned(nodes):
    """The ids of the Name nodes and the attrs of the Attribute nodes in
    the trees of nodes."""
    named = set()
    for node in (n for tree in nodes for n in ast.walk(tree)):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
    return named


def unused_definitions(sources):
    """Names of the functions, classes and methods defined in sources that
    no Name or Attribute node of sources mentions, dunders aside."""
    trees = [parse(path) for path in sources]
    defined = {node.name for tree in trees for node in ast.walk(tree)
               if isinstance(node, DEFINITIONS)}
    return {name for name in defined - mentioned(trees)
            if not (name.startswith("__") and name.endswith("__"))}


def test_the_package_defines_only_what_it_uses():
    """Test-only helpers belong in tests/: every definition in the package
    is used by the package, or is one of the paper's maps in KEEP."""
    assert unused_definitions(sorted(PACKAGE.rglob("*.py"))) - KEEP == set()


def top_level_names(node):
    """The names that a module-level statement defines."""
    if isinstance(node, DEFINITIONS):
        return {node.name}
    if isinstance(node, ast.Assign):
        return {t.id for t in node.targets if isinstance(t, ast.Name)}
    return set()


def test_every_oracle_is_used_by_a_test():
    """An oracle that no test calls checks nothing: every top-level
    definition of tests/oracles.py is named by another test file or by
    another definition of oracles.py, not only inside its own body."""
    tests = pathlib.Path(__file__).parent
    oracles = tests / "oracles.py"
    body = parse(oracles).body
    defined = set().union(*map(top_level_names, body))
    named = mentioned(parse(path) for path in sorted(tests.rglob("*.py"))
                      if path != oracles)
    for node in body:
        named |= mentioned([node]) - top_level_names(node)
    assert defined - named == set()
