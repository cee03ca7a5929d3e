"""A stdlib-only smoke run for interpreters without pytest, e.g. Python 3.10.

    python3.10 tests/smoke_py310.py

Builds and verifies Transversal(4) and Gdd(2, 3, 2), round-trips both
through dgr text, and compares the SHA-256 of the catalog_rows(500)
table with perfbench/golden.json, which it only reads.  Prints one line
per check and exits 1 if any check fails.  Its name does not start with
test_, so pytest does not collect it.
"""

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from dsrg import Digraph, Gdd, Transversal, build_digraph, expected_params, verify_dsrg  # noqa: E402
from dsrg.cli import catalog_rows, render_table  # noqa: E402


def checks():
    for spec in (Transversal(4), Gdd(2, 3, 2)):
        d = build_digraph(spec)
        yield f"{spec.name} {spec.describe()} verifies", verify_dsrg(d) == expected_params(spec)
        text = d.to_dgr()
        back = Digraph.from_dgr(text)
        yield f"{spec.name} {spec.describe()} dgr round trip", (back.rows == d.rows
                                                                and back.to_dgr() == text)
    golden = json.loads((ROOT / "perfbench" / "golden.json").read_text())["catalog"]["500"]
    table = render_table(catalog_rows(max_order=500))
    yield "catalog 500 table digest", hashlib.sha256(table.encode()).hexdigest() == golden["table"]


def main() -> int:
    print(f"Python {sys.version.split()[0]}")
    failed = 0
    for name, ok in checks():
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        failed += not ok
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
