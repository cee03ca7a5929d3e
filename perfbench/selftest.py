"""Self-test of the benchmark: every workload at toy size, and every check
shown to fail on a corrupted input.

    python3 perfbench/selftest.py

Run from the repository root; takes about ten seconds and exits 1 if any
expectation fails.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys

import checks
import run
import workloads
from tracer import Tracer, metric_specs

SEED = 7


class SelfTest:
    def __init__(self):
        self.failed = 0

    def expect(self, what: str, ok: bool, detail: str = ""):
        print(f"{'ok  ' if ok else 'FAIL'} {what}" + (f": {detail}" if detail and not ok else ""))
        self.failed += not ok

    def failures(self, ops) -> list[str]:
        return run.measure(ops, 0).failures


def corrupt(digest: str) -> str:
    return ("0" if digest[0] != "0" else "1") + digest[1:]


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import dsrg as lib

    t = SelfTest()
    golden = run.load_golden()

    for name in workloads.WORKLOADS:
        ops = workloads.make(name, SEED, golden, toy=True)
        got = t.failures(ops)
        t.expect(f"{name}: {len(ops)} toy ops pass", not got, "; ".join(got[:3]))
        tracer = Tracer()
        tracer.install()
        try:
            run.measure(ops, 0, tracer)
        finally:
            tracer.uninstall()
        summary = tracer.summary()
        t.expect(f"{name}: traced, layer spans cover "
                 f"{summary['trace.coverage.ratio']:.1%} of op time",
                 summary["trace.coverage.ratio"] >= 0.9)
        missing = {n for n, _, _ in metric_specs()} - set(summary) - {"trace.overhead.ratio"}
        t.expect(f"{name}: traced run gives every per-layer metric", not missing, str(missing))
    t.expect("tracer restored every wrapped name",
             lib.verify_dsrg.__module__ == "dsrg.digraph"
             and not hasattr(lib.verify_dsrg, "__wrapped__"))

    # a corrupted golden digest must fail exactly the ops that use it
    bad = copy.deepcopy(golden)
    bad["catalog"]["110"]["table"] = corrupt(bad["catalog"]["110"]["table"])
    bad["dgr"]["transversal-3"] = corrupt(bad["dgr"]["transversal-3"])
    bad["structures"]["plane-2"] = corrupt(bad["structures"]["plane-2"])
    bad["canonical"]["partition-1-4"] = corrupt(bad["canonical"]["partition-1-4"])
    for name, expected in (("catalog-500", 1), ("build-large", 1),
                           ("structures", 1), ("iso-pairs", 2)):
        got = t.failures(workloads.make(name, SEED, bad, toy=True))
        t.expect(f"{name}: corrupted golden fails {expected} op(s)", len(got) == expected,
                 f"{len(got)} failed: {got}")

    # verify-reject: an accepted graph and bogus witnesses are failures
    base = lib.build_digraph(lib.Gdd(2, 3))
    t.expect("certifier finds no proof on a real DSRG",
             checks.certify_not_dsrg(base.rows, (0, 1)) is None)
    got = t.failures([workloads.reject_op(lib, "unmutated gdd(2,3)", base)])
    t.expect("verify-reject: an accepted graph counts as a failure", len(got) == 1, str(got))
    swapped = checks.swap_arcs(base.rows, 0, *_swap_partners(base.rows))
    lam_ref = checks.first_entry(swapped, "lambda")
    t_same = next(v for v in range(1, base.n)
                  if checks.walks2(swapped, v, v) == checks.walks2(swapped, 0, 0))
    bogus = [lib.NotRegularError(5, "out-degree 9 != 6"),
             lib.NonConstantError("lambda", lam_ref, "entry 9 != 2"),
             lib.NonConstantError("mu", lam_ref, "entry 9 != 2"),
             lib.NonConstantError("t", t_same, "diagonal entry 9 != 3"),
             lib.DegenerateError("graph is empty")]
    for outcome in bogus:
        reason = checks.confirm_rejection(swapped, outcome, lib.NotRegularError,
                                          lib.NonConstantError)
        t.expect(f"verify-reject: bogus {outcome!r} is caught", reason is not None)
    try:
        lib.verify_dsrg(lib.Digraph(base.n, tuple(swapped)))
        real = None
    except lib.DsrgError as exc:
        real = exc
    t.expect("verify-reject: the library's own witness is confirmed",
             real is not None and checks.confirm_rejection(
                 swapped, real, lib.NotRegularError, lib.NonConstantError) is None)

    # iso-pairs: wrong statuses and wrong mappings are failures
    moved = lib.apply_mapping(base, list(range(1, base.n)) + [0])
    pos = workloads.iso_op(lib, "pos", base, moved, True)
    neg = workloads.iso_op(lib, "neg", base, moved, False)
    identity = tuple(range(base.n))
    for op, result, what in (
            (pos, lib.IsoResult(lib.ISOMORPHIC, identity, 1), "a wrong mapping"),
            (pos, lib.IsoResult(lib.NOT_ISOMORPHIC, None, 1), "a missed isomorphism"),
            (pos, lib.IsoResult(lib.BUDGET_EXCEEDED, None, 1), "budget exceeded"),
            (neg, lib.IsoResult(lib.ISOMORPHIC, identity, 1), "a false isomorphism")):
        t.expect(f"iso-pairs: {what} is caught", op.check(result) is not None)
    small = lib.build_digraph(lib.Partition(1, 4))
    canon = workloads.canonical_op(lib, "canon", small,
                                   golden["canonical"]["partition-1-4"])
    text, perm = lib.canonical_form(small)
    t.expect("iso-pairs: the canonical check accepts the library's labelling",
             canon.check((text, perm)) is None)
    wrong = next(p for p in (perm[i:] + perm[:i] for i in range(1, small.n))
                 if checks.adjacency_string(lib.apply_mapping(small, p).rows, small.n) != text)
    t.expect("iso-pairs: a labelling that does not give the string is caught",
             canon.check((text, wrong)) is not None)

    # structures: wrong parameters are failures even with a right digest
    plane = lib.build_affine_plane(3)
    t.expect("structures: wrong pg parameters are caught",
             workloads.pg_op(lib, 4, plane).check(lib.verify_pg(plane)) is not None)

    # the benchmark refuses to run without the library source
    bare = run.ROOT / ".perfbench-out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH_DIR, bare / run.BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    command = json.loads((bare / "BENCHMARK.json").read_text())["command"]
    done = subprocess.run([sys.executable, *command[1:], "--workload", "catalog-500",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare)
    t.expect("without the library source the run fails and prints no result",
             done.returncode != 0 and '"correct"' not in done.stdout)

    print(f"{t.failed} failed")
    return 1 if t.failed else 0


def _swap_partners(rows) -> tuple[int, int, int]:
    """b, c, d with 0->b, c->d arcs and 0->d, c->b non-arcs, all distinct."""
    for b in checks.bits(rows[0]):
        for c in range(1, len(rows)):
            for d in checks.bits(rows[c]):
                if (len({0, b, c, d}) == 4 and not (rows[0] >> d) & 1
                        and not (rows[c] >> b) & 1):
                    return b, c, d
    raise AssertionError("no swap")


if __name__ == "__main__":
    sys.exit(main())
