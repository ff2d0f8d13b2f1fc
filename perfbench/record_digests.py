"""Record the lattice minimum of every orient-min catalogue host.

    python3 perfbench/record_digests.py

Writes perfbench/digests.json.  The minimum of the orientation lattice is
unique, so a correct change to the program leaves every digest as it is;
run this only when the catalogue itself changes.
"""

import io
import json
import sys
import tempfile
from pathlib import Path

import run
from checks import check_min_orientation, orientation_digest


def main():
    sys.path.insert(0, str(run.ROOT / "src"))
    cli = run.import_kit()
    digests = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as tmp:
        for i in range(run.OrientMin.CATALOGUE):
            path, doc = run.write_doc(
                Path(tmp) / "host.json",
                run.hosts.primal_document(run.catalogue_host(i)))
            out = io.StringIO()
            if cli.main(["lattice", path, "--d", "4", "min"], out=out) != 0:
                raise SystemExit(f"host {i}: {out.getvalue()}")
            text = out.getvalue()
            digest = orientation_digest(json.loads(text)["orientation"]["values"])
            problems = check_min_orientation(doc, text, digest)
            if problems:
                raise SystemExit(f"host {i}: {problems[:3]}")
            digests[str(i)] = digest
    with open(run.HERE / "digests.json", "w") as f:
        json.dump(digests, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
