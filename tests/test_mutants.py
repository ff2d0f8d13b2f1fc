"""Every committed mutant still applies: its text occurs once in its file,
its replacement differs, and each test it names exists.  And the runner
counts a mutant whose tests time out as detected, kills one whose tests
allocate without end, and runs only the mutants named by the words it is
given."""

import ast
import pathlib
import subprocess
import time

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


def test_a_timed_out_mutant_counts_as_detected(tmp_path, monkeypatch):
    """A mutant whose tests run over the time limit, say one that makes a
    walk loop forever, gets its own verdict and counts as detected, and
    its file is restored."""
    m = mutants.MUTANTS[0]
    (tmp_path / m.file).parent.mkdir(parents=True)
    (tmp_path / m.file).write_text(m.old)

    def hang(argv, timeout, **kwargs):
        raise subprocess.TimeoutExpired(argv, timeout)

    monkeypatch.setattr(subprocess, "run", hang)
    survivors = mutants.run(m, tmp_path)
    assert survivors is None and (tmp_path / m.file).read_text() == m.old
    assert mutants.verdict(survivors) == \
        (f"timed out after {mutants.TIMEOUT} s", True)
    assert mutants.verdict([]) == ("killed", True)
    assert mutants.verdict(list(m.kills))[1] is False


def test_a_mutant_whose_tests_allocate_without_end_is_killed(
        tmp_path, monkeypatch):
    """The tests of a mutant run with their address space capped, so a
    test that allocates without end fails with MemoryError within seconds
    and the mutant counts as killed.  (The test allocates zeroed blocks,
    which take address space but no memory until written.)"""
    m = mutants.Mutant("allocates without end", "src/hog.py", "n = 1",
                       "n = 2", ("tests/test_hog.py::test_hog",))
    hog = ("def test_hog():\n"
           "    blocks = []\n"
           "    while True:\n"
           "        blocks.append(bytes(1 << 20))\n")
    for name, text in ((m.file, m.old), ("tests/test_hog.py", hog)):
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(text)
    monkeypatch.setattr(mutants, "TIMEOUT", 60)
    start = time.monotonic()
    survivors = mutants.run(m, tmp_path)
    assert survivors == [] and time.monotonic() - start < 30
    assert (tmp_path / m.file).read_text() == m.old


def test_words_select_the_mutants_to_run():
    """With no word every mutant runs; with words, those whose `what`
    contains one of them, numbered as in the full run."""
    assert [m for _, m in mutants.select([])] == mutants.MUTANTS
    flow = mutants.select(["flow"])
    assert len(flow) == 6 and all("flow" in m.what for _, m in flow)
    assert all(mutants.MUTANTS[i - 1] is m for i, m in flow)
    both = mutants.select(["flow", "girth"])
    assert [m for _, m in both] == [m for m in mutants.MUTANTS
                                    if "flow" in m.what or "girth" in m.what]
    assert mutants.select(["no such mutant"]) == []
