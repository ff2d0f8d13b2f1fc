"""The package imports nothing outside the standard library, as its empty
`dependencies` list in pyproject.toml promises, imports nothing that it
does not read, defines nothing that it does not use itself, apart from
the paper's maps that only tests call, and reads no environment
variable: its command line is its only configuration."""

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
        "is_even_labelling", "xi", "encode", "gamma", "psi", "phi_inverse",
        "straight_line_drawing"}


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


def unused_imports(path):
    """The names that module-level imports of a source file bind and that
    no Name node of the file reads (__future__ imports aside)."""
    tree = parse(path)
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
    return bound - {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def test_the_package_imports_only_what_it_uses():
    sources = sorted(PACKAGE.rglob("*.py"))
    unused = {(path.name, name) for path in sources
              for name in unused_imports(path)}
    assert unused == set()


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


ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(path):
    """The lines of a source file that read os.environ or os.getenv, or
    import either from os."""
    for node in ast.walk(parse(path)):
        if (isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT
                and isinstance(node.value, ast.Name) and node.value.id == "os"
                or isinstance(node, ast.ImportFrom) and node.module == "os"
                and any(a.name in ENVIRONMENT for a in node.names)):
            yield node.lineno


def test_the_package_reads_no_environment_variable():
    sources = sorted(PACKAGE.rglob("*.py"))
    reads = {(path.name, line) for path in sources
             for line in environment_reads(path)}
    assert reads == set()
