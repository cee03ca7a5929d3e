"""Capture the golden SHA-256 digests the workloads check against.

    python3 perfbench/golden.py

Run from the repository root on a commit whose outputs are trusted; it
rewrites perfbench/golden.json.  Covers both the full and the toy size
of every workload.  Takes about a minute.
"""

from __future__ import annotations

import json
import sys

from checks import sha256
from run import GOLDEN, SRC
from workloads import HYPERPLANE_DESIGNS, PRIME_POWERS_TO_64


def capture() -> dict:
    sys.path.insert(0, str(SRC))
    import dsrg
    from dsrg import cli

    golden: dict = {"catalog": {}, "dgr": {}, "structures": {}, "canonical": {}}
    for max_order in (110, 500):
        rows = cli.catalog_rows(max_order=max_order)
        golden["catalog"][str(max_order)] = {"table": sha256(cli.render_table(rows)),
                                             "csv": sha256(cli.render_csv(rows))}
    for q in (3, 4, 7, 8):
        text = dsrg.build_digraph(dsrg.Transversal(q)).to_dgr()
        golden["dgr"][f"transversal-{q}"] = sha256(text)
    for q in PRIME_POWERS_TO_64:
        golden["structures"][f"plane-{q}"] = sha256(dsrg.to_json(dsrg.build_affine_plane(q)))
    for q, n in HYPERPLANE_DESIGNS + ((2, 4), (3, 3)):
        s = dsrg.build_hyperplane_design(q, n)
        golden["structures"][f"hyperplane-{q}-{n}"] = sha256(dsrg.to_json(s))
    for q, l in ((1, 4), (2, 3)):
        text, _ = dsrg.canonical_form(dsrg.build_digraph(dsrg.Partition(q, l)))
        golden["canonical"][f"partition-{q}-{l}"] = sha256(text)
    return golden


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
