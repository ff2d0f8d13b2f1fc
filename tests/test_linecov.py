"""Every entry of the line-coverage allowlist still applies: its text
occurs exactly once in its file and it gives a reason, and the list
allows fewer than 20 lines in all.  The coverage run itself,
python3 tests/linecov.py, is not part of tier-1."""

import linecov


def test_every_allowed_line_applies():
    for file, text, reason in linecov.ALLOWED:
        assert (linecov.ROOT / file).read_text().count(text) == 1, text
        assert reason.strip(), text
    allowed = linecov.allowed_lines()
    assert len(allowed) < 20
    executable = {file: linecov.executable_lines(linecov.ROOT / file)
                  for file, _ in allowed}
    assert all(line in executable[file] for file, line in allowed)
