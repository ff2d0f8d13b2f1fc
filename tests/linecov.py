"""Line coverage of src/schnyder_kit by tier-1, with the standard library.

    python3 tests/linecov.py

runs the tier-1 suite (python -m pytest -q --continue-on-collection-errors
from the repository root) in a child process that loads this file as a
pytest plugin (-p linecov).  Imported with LINECOV_OUT set, the module
starts a sys.settrace hook at once, before pytest imports the package, so
the lines that run at import time count too; the hook records every line
of src/schnyder_kit that runs in the child and its threads, and the child
writes them to LINECOV_OUT as it exits.  Lines that run only in the worker
processes of a --jobs run are not seen: each worker records into its own
memory and never writes it out.

The runner then compiles each source file, takes its executable lines from
the line tables of its code objects, and prints every one that never ran.
It exits 1 when such a line is not covered by an entry of ALLOWED, a
(file, text, reason) triple whose text occurs exactly once in the file and
covers the lines that occurrence spans; it also lists the allowed lines
that did run, since a test may start to reach them.  Coverage is reported
whatever the tests' verdicts: under the tracer a run takes several times
as long, so a test with a wall-clock gate may fail here and pass in
tier-1; the runner prints the suite's summary line and changes no gate.
It is not part of tier-1, which takes it no further than
tests/test_linecov.py's check that each ALLOWED entry still applies.
"""

import atexit
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import threading
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "schnyder_kit"

ALLOWED = [
    ("src/schnyder_kit/even.py",
     'raise EvenError("MincutTooSmall", f"transfer failed: {bad[:3]}")',
     "the pipeline's check of its own result; a doubled p/(p-1)-"
     "orientation always transfers, but the call is the duality.validate "
     "span that a traced draw must fire until validation moves to the "
     "public boundary"),
]


def allowed_lines():
    """{(file, line)} of the source lines that the ALLOWED entries cover."""
    out = set()
    for file, text, _ in ALLOWED:
        source = (ROOT / file).read_text()
        first = source[:source.index(text)].count("\n") + 1
        out.update((file, first + k) for k in range(text.count("\n") + 1))
    return out


def executable_lines(path):
    """The line numbers that the code objects compiled from path attribute
    instructions to."""
    lines = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


# -- the plugin, in the pytest child ----------------------------------------

def _start_tracing(out_path):
    prefix = str(PACKAGE) + os.sep
    ran = set()
    pid = os.getpid()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def global_(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            ran.add((frame.f_code.co_filename, frame.f_lineno))
            return local
        return None

    def write():
        if os.getpid() == pid:
            pathlib.Path(out_path).write_text(json.dumps(sorted(ran)))

    atexit.register(write)
    threading.settrace(global_)
    sys.settrace(global_)


if __name__ != "__main__" and os.environ.get("LINECOV_OUT"):
    _start_tracing(os.environ["LINECOV_OUT"])


# -- the runner ------------------------------------------------------------

def main():
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp) / "ran.json"
        env = dict(os.environ, LINECOV_OUT=str(out),
                   PYTHONPATH=f"{ROOT / 'src'}{os.pathsep}{ROOT / 'tests'}")
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q",
             "--continue-on-collection-errors", "-p", "linecov"],
            cwd=ROOT, env=env, capture_output=True, text=True)
        elapsed = time.monotonic() - start
        summary = (proc.stdout.strip().splitlines() or ["(no output)"])[-1]
        print(f"tier-1 under the tracer: {summary} ({elapsed:.0f} s)")
        if not out.exists():
            print(proc.stdout[-2000:], proc.stderr[-2000:], sep="\n")
            print("the child wrote no coverage")
            return 1
        ran = {(pathlib.Path(f).relative_to(ROOT).as_posix(), line)
               for f, line in json.loads(out.read_text())}
    executable = {(path.relative_to(ROOT).as_posix(), line)
                  for path in sorted(PACKAGE.rglob("*.py"))
                  for line in executable_lines(path)}
    never = sorted(executable - ran)
    allowed = allowed_lines()
    sources = {}

    def text(file, line):
        if file not in sources:
            sources[file] = (ROOT / file).read_text().splitlines()
        return sources[file][line - 1].strip()

    print(f"{len(executable)} executable lines in src/schnyder_kit, "
          f"{len(executable) - len(never)} ran, {len(never)} never ran "
          f"({len(allowed)} lines allowed)")
    for file, line in never:
        tag = "allowed" if (file, line) in allowed else "NEVER RAN"
        print(f"  {tag}: {file}:{line}: {text(file, line)}")
    for file, line in sorted(allowed & ran):
        print(f"  allowed but ran: {file}:{line}: {text(file, line)}")
    return 1 if any(x not in allowed for x in never) else 0


if __name__ == "__main__":
    sys.exit(main())
