"""A stdlib-only smoke run for interpreters without pytest, e.g. Python 3.10.

    python3.10 tests/smoke_py310.py

Builds and verifies Transversal(4) and Gdd(2, 3, 2), round-trips both
through dgr text, parses the CRLF variant of the second to its rows,
refuses its form-feed-separated variant at line 1 like oracles.py's
reference_from_dgr, checks the duality mapping of the bundled 36-vertex
fixture (forward graph, transposed backward graph, dual structure),
finds and checks an isomorphism from gdd(2,3) to a relabelled copy
and one between the Duval multiples ap-pencils(3,3) x 9 and
transversal(3) x 9 (n=486) in at most 3 class-structure nodes,
rejects a degree-keeping swap mutant of gdd(2,3) with the error class,
witness and message of tests/oracles.py's reference_verify_dsrg,
verifies transversal(7) (49 row classes, so rows of A^2 are reached by
differences) and rejects a swap mutant of it like that reference,
counts the kernels of transversal(7)'s proof (one row summed fresh, 48
reached by differences that move 2 or 14 counts), checks that
feasibility accepts exactly the tuples of oracles.py's small_digraphs
at v <= 4 and refutes (8, 5, 4, 3, 3) by its complement,
subtracts one plane stack from another with a borrow that runs to the
top plane,
checks the row-class index of the Duval multiple gdd(2,3) x 3 against
oracles.py's per-vertex brute_row_classes, checks that transversal(3),
that multiple and transversal(3) read back from dgr text, each built
from the runs its builder laid out (Digraph._from_runs), equal the same
rows given to Digraph(n, rows), index included, checks the canonical form of
gdd(2,2) x 2, whose twins seed the search's orbit forest, against
oracles.py's unpruned reference_canonical_form, checks make_field's
tables for q = 9, 64, 243, 256 against oracles.py's exp/log
reference_mul_inv_tables, rejects two group-divisible mutants of
gdd(2,3) like oracles.py's pair-dict reference_verify_gdd, checks
verify_pg on AG(2,5) and its two-class restriction and verify_2design on
AG(3,3) and the one-factorization of K6 against oracles.py's pair-by-pair
reference_verify_pg and reference_verify_2design, and so on every
structure on at most 3 points (structuregen.py's block_lists), rejects
the four triples of 4 points, whose pairs each lie on two lines, at
axiom 2 with the reference's witness, runs verify_pg on the affine
planes of order 2-9 and rejects the grid beside the dual of K4 at axiom
3 like the reference, refuses a NaN point as not an int, round-trips
the affine plane of order 17 (289 points, with parallel classes)
through JSON byte for byte, checks catalog_instances(500) against oracles.py's written-out
reference_catalog_instances, refuses a float row alike through
Digraph(n, rows) and Digraph._from_runs, a bool vertex count, a float
DsrgParams entry and a feasibility entry of 5001 digits (TooLargeError),
and compares the SHA-256s of the
catalog_rows(500) table, of the
canonical forms of partition(1,4) and partition(2,3), and of the to_json of the
affine plane of order 64 and the hyperplane designs AG(5,4) and
AG(3,16) with perfbench/golden.json, which it only reads.  Prints one line per check
and exits 1 if any check fails.  Its name does not start with test_, so
pytest does not collect it; test_smoke_py310.py runs its checks instead.
"""

import hashlib
import json
import random
import sys
from itertools import product
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

import dsrg.digraph  # noqa: E402
from dsrg import (ISOMORPHIC, ApPencils, Digraph, DsrgError, DsrgParams, FormatError,  # noqa: E402
                  Gdd, IncidenceStructure, Partition, TooLargeError, Transversal, apply_mapping,
                  are_isomorphic,
                  build_affine_plane, build_digraph, build_gdd, build_hyperplane_design,
                  bundled_iso_fixture, canonical_form, duval_multiple, expected_params,
                  feasibility, from_json, make_field, restrict_parallel_classes, to_json,
                  verify_2design, verify_dsrg, verify_gdd, verify_mapping, verify_pg)
from dsrg.cli import catalog_rows, render_table  # noqa: E402
from dsrg.families import catalog_instances  # noqa: E402
from dsrg.planes import _sub_planes  # noqa: E402
from oracles import (brute_row_classes, reference_canonical_form,  # noqa: E402
                     reference_catalog_instances, reference_from_dgr, reference_mul_inv_tables, reference_verify_2design, reference_verify_dsrg,
                     reference_verify_gdd, reference_verify_pg, small_digraphs)
from structuregen import block_lists  # noqa: E402

# all pairs of 6 points, resolved by a one-factorization of K6
K6_PAIRS = IncidenceStructure(6, (
    (0, 1), (2, 3), (4, 5), (0, 2), (1, 4), (3, 5), (0, 3), (1, 5), (2, 4),
    (0, 4), (1, 3), (2, 5), (0, 5), (1, 2), (3, 4)),
    parallel_classes=tuple(tuple(range(i, i + 3)) for i in range(0, 15, 3)))


def _rejection(verify, d):
    try:
        verify(d)
    except DsrgError as exc:
        return type(exc), vars(exc), str(exc)
    return None


def _outcome(verify, s):
    """verify(s), or the rejection's class, fields and message."""
    try:
        return verify(s)
    except DsrgError as exc:
        return type(exc), vars(exc), str(exc)


def _refusal(build):
    """The class and message of the exception build() raises, or None."""
    try:
        build()
    except Exception as exc:
        return type(exc), str(exc)
    return None


def _swap_mutant(d):
    """a->b, c->e become a->e, c->b, for the first such a, c, b, e with a
    from the second half: every in- and out-degree stays."""
    rows = d.rows
    for a, c in product(range(d.n // 2, d.n), range(d.n)):
        for b, e in product(range(d.n), repeat=2):
            if (len({a, b, c, e}) == 4 and (rows[a] >> b) & 1 and (rows[c] >> e) & 1
                    and not (rows[a] >> e) & 1 and not (rows[c] >> b) & 1):
                out = list(rows)
                out[a] ^= (1 << b) | (1 << e)
                out[c] ^= (1 << b) | (1 << e)
                return Digraph(d.n, tuple(out))
    raise AssertionError("no swap")


def _kernel_calls(d):
    """verify_dsrg(d) with its two by-class kernels watched: the last
    argument of each call, the counts of each row summed fresh and the
    moved classes of each difference."""
    calls = {"_square_row_by_class": [], "_square_row_by_difference": []}
    real = {name: getattr(dsrg.digraph, name) for name in calls}

    def watched(name):
        def kernel(*args):
            calls[name].append(args[-1])
            return real[name](*args)
        return kernel
    for name in calls:
        setattr(dsrg.digraph, name, watched(name))
    try:
        verify_dsrg(d)
    finally:
        for name in calls:
            setattr(dsrg.digraph, name, real[name])
    return calls.values()


def checks():
    for spec in (Transversal(4), Gdd(2, 3, 2)):
        d = build_digraph(spec)
        yield f"{spec.name} {spec.describe()} verifies", verify_dsrg(d) == expected_params(spec)
        text = d.to_dgr()
        back = Digraph.from_dgr(text)
        yield f"{spec.name} {spec.describe()} dgr round trip", (back.rows == d.rows
                                                                and back.to_dgr() == text)
    yield "a CRLF dgr text parses to the rows of its LF text", (
        Digraph.from_dgr(text.replace("\n", "\r\n")).rows == d.rows)
    feed = text.replace("\n", "\f")
    got = _outcome(Digraph.from_dgr, feed)
    yield "a form-feed-separated dgr text is refused at line 1 like the reference", (
        got[0] is FormatError and got[1] == {"line": 1}
        and got == _outcome(reference_from_dgr, feed))
    failed = feasibility(8, 5, 4, 3, 3).first_failure()
    yield "feasibility(8, 5, 4, 3, 3) fails complement", (
        failed is not None and failed.name == "complement")
    yield "36-vertex fixture duality mapping verifies", verify_mapping(*bundled_iso_fixture())
    gdd = build_digraph(Gdd(2, 3))
    perm = list(range(gdd.n))
    random.Random(1).shuffle(perm)
    copy = apply_mapping(gdd, perm)
    result = are_isomorphic(gdd, copy)
    yield "gdd l=2;q=3 isomorphic to a relabelled copy", (
        result.status == ISOMORPHIC and verify_mapping(gdd, copy, result.mapping))
    pencils, transversal = (duval_multiple(build_digraph(spec), 9)
                            for spec in (ApPencils(3, 3), Transversal(3)))
    result = are_isomorphic(pencils, transversal)
    yield "ap-pencils q=3;l=3;m=9 isomorphic to transversal q=3;m=9 in <= 3 nodes", (
        result.status == ISOMORPHIC and verify_mapping(pencils, transversal, result.mapping)
        and result.nodes <= 3)
    mutant = _swap_mutant(gdd)
    got = _rejection(verify_dsrg, mutant)
    yield "gdd l=2;q=3 swap mutant rejected like the reference", (
        got is not None and got == _rejection(reference_verify_dsrg, mutant))
    transversal = build_digraph(Transversal(7))
    mutant = _swap_mutant(transversal)
    yield "transversal q=7 and a swap mutant verify like the reference", (
        _rejection(verify_dsrg, mutant) is not None
        and all(_outcome(verify_dsrg, g) == _outcome(reference_verify_dsrg, g)
                for g in (transversal, mutant)))
    fresh, moved = _kernel_calls(transversal)
    yield "transversal q=7 sums 1 row fresh and reaches 48 by differences", (
        len(fresh) == 1 and sorted(map(len, moved)) == [2] * 42 + [14] * 6)
    occur = {got.tuple() for v in (3, 4) for d in small_digraphs(v)
             for got in [_outcome(verify_dsrg, d)] if isinstance(got, DsrgParams)}
    accepted = {(v, k, t, lam, mu) for v in (3, 4) for k in range(1, v - 1)
                for t, lam, mu in product(range(v), repeat=3) if feasibility(v, k, t, lam, mu).ok}
    yield "feasibility at v <= 4 accepts exactly the tuples that occur", (
        accepted == occur == {(3, 1, 0, 0, 1), (4, 1, 1, 0, 0), (4, 2, 2, 0, 2)})
    acc = [0] * 6 + [0xFF]            # 64 in each of 8 columns
    _sub_planes(acc, [0x0F, 0xF0])    # minus 1 in columns 0-3, minus 2 in columns 4-7
    yield "_sub_planes borrows up to the top plane and drops it", acc == [0x0F] + [0xFF] * 5
    multiple = duval_multiple(gdd, 3)
    yield "gdd l=2;q=3 x 3 row-class index matches a per-vertex grouping", (
        (multiple.distinct, multiple.row_class, multiple.members) == brute_row_classes(multiple))
    t3 = build_digraph(Transversal(3))
    for name, d in (("transversal q=3", t3), ("gdd l=2;q=3 x 3", multiple),
                    ("transversal q=3 dgr round trip", Digraph.from_dgr(t3.to_dgr()))):
        searched = Digraph(d.n, d.rows, labels=d.labels)
        yield f"{name} built from runs equals the tuple constructor", (
            d == searched and hash(d) == hash(searched)
            and (d.distinct, d.row_class, d.members)
            == (searched.distinct, searched.row_class, searched.members) == brute_row_classes(d))
    twins = build_digraph(Gdd(2, 2, 2))
    yield "gdd l=2;q=2;m=2 canonical form equals the reference", (
        canonical_form(twins) == reference_canonical_form(twins))
    fields = [make_field(q) for q in (9, 64, 243, 256)]
    yield "make_field 9, 64, 243, 256 tables equal the exp/log reference", all(
        (f.modulus_poly, f.mul_table, f.inv_table) == reference_mul_inv_tables(f.p, f.e)
        for f in fields)
    # gdd(2,3)'s last block (2, 5) replaced by the same-group pair (1, 2), or dropped
    blocks = build_gdd(2, 3).blocks
    groups = ((0, 1, 2), (3, 4, 5))
    mutants = [IncidenceStructure(6, blocks[:-1] + ((1, 2),), groups=groups),
               IncidenceStructure(6, blocks[:-1], groups=groups)]
    yield "gdd(2,3) group-divisible mutants rejected like the reference", all(
        _rejection(verify_gdd, m) is not None
        and _rejection(verify_gdd, m) == _rejection(reference_verify_gdd, m) for m in mutants)
    yield "a NaN point is refused as not an int", (
        _refusal(lambda: IncidenceStructure(3, ((float("nan"), 1), (0, 2))))
        == (TypeError, "block 0 holds nan, which is not an int"))
    plane = build_affine_plane(5)
    for name, s in (("AG(2,5)", plane), ("AG(2,5) l=2", restrict_parallel_classes(plane, 2))):
        yield f"verify_pg {name} equals the reference", (
            _outcome(verify_pg, s) == _outcome(reference_verify_pg, s))
    for name, s in (("AG(3,3)", build_hyperplane_design(3, 3)), ("K6 pairs", K6_PAIRS)):
        yield f"verify_2design {name} equals the reference", (
            _outcome(verify_2design, s) == _outcome(reference_verify_2design, s))
    small = [IncidenceStructure(v, blocks) for v in (1, 2, 3) for blocks in block_lists(v)]
    pairs = ((verify_pg, reference_verify_pg), (verify_2design, reference_verify_2design))
    yield "verify_pg, verify_2design equal the references on the 135 structures on <= 3 points", (
        len(small) == 135 and all(_outcome(verify, s) == _outcome(reference, s)
                                  for s in small for verify, reference in pairs))
    triples = IncidenceStructure(4, ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)))
    got = _outcome(verify_pg, triples)
    yield "verify_pg rejects the four triples of 4 points at axiom 2 like the reference", (
        got == _outcome(reference_verify_pg, triples) and got[1] == {"axiom": 2, "witness": (0, 1)})
    yield "verify_pg AG(2,q), q = 2, 3, 4, 5, 7, 8, 9, gives (q, q+1, q)", all(
        verify_pg(build_affine_plane(q)) == (q, q + 1, q) for q in (2, 3, 4, 5, 7, 8, 9))
    # the 3x3 grid (tau 1) beside the dual of K4 (tau 2): axiom 3 fails at (0, 6)
    grid_k4 = IncidenceStructure(15, (
        (0, 1, 2), (0, 3, 6), (1, 4, 7), (2, 5, 8), (3, 4, 5), (6, 7, 8),
        (9, 10, 11), (9, 12, 13), (10, 12, 14), (11, 13, 14)))
    got = _outcome(verify_pg, grid_k4)
    yield "verify_pg rejects the grid beside the dual K4 at axiom 3 like the reference", (
        got == _outcome(reference_verify_pg, grid_k4) and got[1] == {"axiom": 3, "witness": (0, 6)})
    text = to_json(build_affine_plane(17))
    yield "plane-17 (289 points, classed) JSON round trip", to_json(from_json(text)) == text
    golden = json.loads((ROOT / "perfbench" / "golden.json").read_text())
    for q, l in ((1, 4), (2, 3)):
        text, _ = canonical_form(build_digraph(Partition(q, l)))
        yield f"partition q={q};l={l} canonical form digest", (
            hashlib.sha256(text.encode()).hexdigest() == golden["canonical"][f"partition-{q}-{l}"])
    for key, structure in (("plane-64", lambda: build_affine_plane(64)),
                           ("hyperplane-4-5", lambda: build_hyperplane_design(4, 5)),
                           ("hyperplane-16-3", lambda: build_hyperplane_design(16, 3))):
        text = to_json(structure())
        yield f"{key} to_json digest", (
            hashlib.sha256(text.encode()).hexdigest() == golden["structures"][key])
    yield "catalog_instances(500) equals the written-out grid", (
        catalog_instances(500) == reference_catalog_instances(500))
    float_row = (TypeError, "row 1 is 2.0, not an int")
    yield "a float row is refused alike by Digraph(n, rows) and Digraph._from_runs", (
        _refusal(lambda: Digraph(3, (2, 2.0, 0))) == float_row
        == _refusal(lambda: Digraph._from_runs(3, (2, 2.0, 0), (1, 1, 1))))
    yield "Digraph(True, (0,)) is refused: a bool is no vertex count", (
        _refusal(lambda: Digraph(True, (0,))) == (TypeError, "vertex count True is not an int"))
    yield "DsrgParams(36.0, 12, 5, 2, 5) is refused", (
        _refusal(lambda: DsrgParams(36.0, 12, 5, 2, 5)) == (TypeError, "v = 36.0 is not an int"))
    yield "feasibility(10**5000, 3, 1, 0, 0) raises TooLargeError", (
        _refusal(lambda: feasibility(10 ** 5000, 3, 1, 0, 0))
        == (TooLargeError, "v has 16610 bits; entries must be below 10**1000 in absolute value"))
    table = render_table(catalog_rows(max_order=500))
    yield "catalog 500 table digest", (
        hashlib.sha256(table.encode()).hexdigest() == golden["catalog"]["500"]["table"])


def main() -> int:
    print(f"Python {sys.version.split()[0]}")
    failed = 0
    for name, ok in checks():
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        failed += not ok
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
