"""Every committed mutant still applies: its text occurs once in its file,
its replacement differs, and each test it names exists."""

import ast
import pathlib

import mutants

ROOT = pathlib.Path(__file__).resolve().parents[1]


def stale(entries):
    """(what, why) for each entry of a mutant list that no longer applies."""
    defined = {}
    out = []
    for m in entries:
        count = (ROOT / m.file).read_text().count(m.old)
        if count != 1:
            out.append((m.what, f"old text occurs {count} times in {m.file}"))
        if m.new == m.old:
            out.append((m.what, "new text equals old text"))
        if not m.kills:
            out.append((m.what, "names no test"))
        for test in m.kills:
            path, _, name = test.partition("::")
            if path not in defined:
                tree = ast.parse((ROOT / path).read_text()) \
                    if (ROOT / path).is_file() else ast.Module(body=[])
                defined[path] = {n.name for n in tree.body
                                 if isinstance(n, ast.FunctionDef)}
            if name not in defined[path]:
                out.append((m.what, f"no test {test}"))
    return out


def test_every_mutant_applies():
    assert len(mutants.MUTANTS) >= 30
    assert len({m.what for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
    assert stale(mutants.MUTANTS) == []

