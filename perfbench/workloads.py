"""The benchmark workloads: inputs made from a seed, timed ops, checks.

`make(name, seed, golden, toy)` imports the library, generates the
workload's inputs and returns the ops of one pass.  An op's `call` is
one public call chain; it reaches the library through module
attributes at call time, so the tracer's wrappers see every call.  Its
`check` returns None for a correct output, else a one-line reason.
`toy=True` gives the same workload at a size that runs in about a
second, for the self-test.
"""

from __future__ import annotations

import importlib
import random
from dataclasses import dataclass
from typing import Any, Callable

import checks


@dataclass(frozen=True)
class Op:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]


def _lib():
    return importlib.import_module("dsrg"), importlib.import_module("dsrg.cli")


def _digest_check(what: str, text: str, want: str | None) -> str | None:
    if want is None:
        return f"no golden digest for {what}"
    return None if checks.sha256(text) == want else f"{what} digest differs from golden"


# ---------------------------------------------------------------------------
# catalog-500: the headline `dsrg catalog` command
# ---------------------------------------------------------------------------

def catalog_op(cli, max_order: int, golden: dict) -> Op:
    want = golden["catalog"].get(str(max_order), {})

    def call():
        rows = cli.catalog_rows(max_order=max_order)
        return cli.render_table(rows), cli.render_csv(rows)

    def check(out):
        table, csv = out
        return (_digest_check("table", table, want.get("table"))
                or _digest_check("csv", csv, want.get("csv")))

    return Op(f"catalog max_order={max_order}", call, check)


def _catalog(seed, golden, toy):
    _, cli = _lib()
    return [catalog_op(cli, 110 if toy else 500, golden)]


# ---------------------------------------------------------------------------
# build-large: `dsrg build --out` then `dsrg verify` on the largest graphs
# ---------------------------------------------------------------------------

def _transversal_params(q: int) -> tuple[int, ...]:
    return (q ** 3 * (q - 1), q * q * (q - 1), q * q - q + 1, (q - 1) ** 2, q * q - q + 1)


def build_verify_op(lib, q: int, golden: dict) -> Op:
    def call():
        d = lib.build_digraph(lib.Transversal(q))
        text = d.to_dgr()
        parsed = lib.Digraph.from_dgr(text)
        return d, text, parsed, lib.verify_dsrg(parsed)

    def check(out):
        d, text, parsed, got = out
        found = (got.v, got.k, got.t, got.lam, got.mu)
        if found != _transversal_params(q):
            return f"verified {found}, closed form {_transversal_params(q)}"
        if parsed.rows != d.rows:
            return "dgr round trip changed the graph"
        return _digest_check("dgr text", text, golden["dgr"].get(f"transversal-{q}"))

    return Op(f"build+io+verify transversal q={q}", call, check)


def _build_large(seed, golden, toy):
    lib, _ = _lib()
    return [build_verify_op(lib, q, golden) for q in ((3, 4) if toy else (7, 8))]


# ---------------------------------------------------------------------------
# verify-reject: the verifier on certified non-DSRG mutants
# ---------------------------------------------------------------------------

def reject_op(lib, name: str, mutant) -> Op:
    def call():
        try:
            return lib.verify_dsrg(mutant)
        except lib.DsrgError as exc:
            return exc

    def check(outcome):
        return checks.confirm_rejection(mutant.rows, outcome,
                                        lib.NotRegularError, lib.NonConstantError)

    return Op(name, call, check)


SWAP_CANDIDATES = 256
SWAP_DEPTHS = (0.03, 0.07, 0.12)   # as shares of n; every base reaches 0.12


def _flips(rows, rng: random.Random, count: int):
    """`count` seeded single-arc flips; each changes one out-degree."""
    out = []
    while len(out) < count:
        u, w = rng.sample(range(len(rows)), 2)
        mutated = checks.flip_arc(rows, u, w)
        if checks.certify_not_dsrg(mutated, (u,)):
            out.append((mutated, f"flip {u}->{w}"))
    return out


def _swap_profile(rows, mutated, a: int, b: int, c: int, d: int) -> tuple[bool, int]:
    """Where a row-major A^2 scan first meets the swap's change.

    Returns whether a diagonal entry changes (only those of 0, a, b, c, d
    can) and the first row with a changed off-diagonal entry: a, c, or
    a row with an arc into exactly one of them.
    """
    diagonal = {checks.walks2(mutated, u, u) for u in (0, a, b, c, d)}
    depth = next(x for x in range(len(rows))
                 if x in (a, c) or ((rows[x] >> a) ^ (rows[x] >> c)) & 1)
    return len(diagonal) > 1, depth


def _swaps(rows, rng: random.Random):
    """Certified degree-keeping double swaps at fixed scan positions.

    How far a row-major verifier scans before it meets a swap's change
    sets the rejection cost.  Single seeded draws made a pass vary by
    20% from seed to seed.  So one swap changes the diagonal of A^2, and
    each of the others is the seeded candidate whose first changed row
    is closest to its SWAP_DEPTHS share of n.
    """
    n = len(rows)
    candidates = []
    while len(candidates) < SWAP_CANDIDATES:
        a, c = rng.sample(range(n), 2)
        b = rng.choice(checks.bits(rows[a]))
        d = rng.choice(checks.bits(rows[c]))
        if len({a, b, c, d}) == 4 and not (rows[a] >> d) & 1 and not (rows[c] >> b) & 1:
            mutated = checks.swap_arcs(rows, a, b, c, d)
            on_diagonal, depth = _swap_profile(rows, mutated, a, b, c, d)
            candidates.append((on_diagonal, depth, mutated, f"swap {a}->{b},{c}->{d}", (a, c)))
    keys = [lambda x: not x[0]]
    keys += [lambda x, share=share: (x[0], abs(x[1] - share * n)) for share in SWAP_DEPTHS]
    out = []
    for key in keys:
        # the best-placed candidate that can be certified
        for on_diagonal, depth, mutated, label, touched in sorted(candidates, key=key):
            if checks.certify_not_dsrg(mutated, touched):
                where = "diagonal" if on_diagonal else f"row {depth}"
                out.append((mutated, f"{label} at {where}"))
                break
    return out


def _verify_reject(seed, golden, toy):
    lib, _ = _lib()
    if toy:
        bases = [lib.Gdd(2, 3), lib.Gdd(2, 4)]
    else:
        # catalog graphs from n=200 to n=896, spread so that the op
        # latencies have no gap at their median
        bases = [lib.Gdd(2, 5), lib.ApPencils(5, 3), lib.Gdd(2, 6), lib.ApPencils(5, 4),
                 lib.Transversal(5), lib.Gdd(3, 4), lib.Gdd(2, 7), lib.ApPencils(7, 3),
                 lib.Gdd(2, 8)]
    rng = random.Random(seed)
    ops = []
    for spec in bases:
        base = lib.build_digraph(spec)
        for rows, label in _flips(base.rows, rng, 2) + _swaps(base.rows, rng):
            ops.append(reject_op(lib, f"{spec.name} {spec.describe()} {label}",
                                 lib.Digraph(base.n, tuple(rows))))
    return ops


# ---------------------------------------------------------------------------
# iso-pairs: the isomorphism search and canonical labelling
# ---------------------------------------------------------------------------

def iso_op(lib, name: str, d1, d2, expect_iso: bool) -> Op:
    def call():
        return lib.are_isomorphic(d1, d2)

    def check(result):
        if result.status == lib.BUDGET_EXCEEDED:
            return f"budget exceeded after {result.nodes} nodes"
        if not expect_iso:
            return None if result.status == lib.NOT_ISOMORPHIC else f"status {result.status}"
        if result.status != lib.ISOMORPHIC:
            return f"status {result.status} on a relabelled pair"
        if not lib.verify_mapping(d1, d2, result.mapping):
            return "returned mapping is not an isomorphism"
        return None

    return Op(name, call, check)


def canonical_op(lib, name: str, d, want: str | None) -> Op:
    def call():
        return lib.canonical_form(d)

    def check(out):
        text, perm = out
        if checks.adjacency_string(lib.apply_mapping(d, perm).rows, d.n) != text:
            return "apply_mapping with the returned labelling does not give the string"
        return _digest_check("canonical string", text, want)

    return Op(name, call, check)


def _relabel(lib, d, rng: random.Random):
    perm = list(range(d.n))
    rng.shuffle(perm)
    return lib.apply_mapping(d, perm)


def _iso_pairs(seed, golden, toy):
    lib, _ = _lib()
    rng = random.Random(seed)
    copies = 1 if toy else 4
    d1, d2, _ = lib.bundled_iso_fixture()
    ops = [iso_op(lib, "bundled 36-vertex fixture", d1, d2, True)]
    for spec in ([lib.Gdd(2, 3)] if toy else [lib.Gdd(2, 3), lib.Gdd(2, 4), lib.Transversal(3)]):
        base = lib.build_digraph(spec)
        for i in range(copies):
            ops.append(iso_op(lib, f"{spec.name} {spec.describe()} relabelled #{i}",
                              base, _relabel(lib, base, rng), True))
    negatives = [(f"gdd l=2;q={q} forward vs backward",
                  lib.build_antiflag_forward(lib.build_gdd(2, q)),
                  lib.build_antiflag_backward(lib.build_gdd(2, q)))
                 for q in ((3,) if toy else (3, 4))]
    negatives.append(("K33 forward vs grid forward",
                      lib.build_antiflag_forward(lib.k33_edge_structure()),
                      lib.build_antiflag_forward(lib.grid_two_pencil_structure())))
    for name, a, b in negatives:
        if checks.out_intersection_profile(a.rows) == checks.out_intersection_profile(b.rows):
            raise AssertionError(f"{name}: no certificate of non-isomorphism")
        ops.append(iso_op(lib, name, a, b, False))
    for q, l in ([(1, 4)] if toy else [(1, 4), (2, 3)]):
        base = lib.build_digraph(lib.Partition(q, l))
        want = golden["canonical"].get(f"partition-{q}-{l}")
        ops.append(canonical_op(lib, f"canonical partition q={q};l={l}", base, want))
        for i in range(copies):
            ops.append(canonical_op(lib, f"canonical partition q={q};l={l} relabelled #{i}",
                                    _relabel(lib, base, rng), want))
    return ops


# ---------------------------------------------------------------------------
# structures: finite fields and incidence structures
# ---------------------------------------------------------------------------

PRIME_POWERS_TO_64 = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32,
                      37, 41, 43, 47, 49, 53, 59, 61, 64)
HYPERPLANE_DESIGNS = ((4, 5), (7, 4), (8, 4), (16, 3))


def ag_design(q: int, n: int) -> tuple[int, ...]:
    """(v, b, k, r, lambda, s, m) of the hyperplanes of AG(n, q); n=2 is the plane."""
    directions = (q ** n - 1) // (q - 1)
    return (q ** n, q * directions, q ** (n - 1), directions,
            (q ** (n - 1) - 1) // (q - 1), q, q ** (n - 2))


def structure_op(lib, q: int, n: int, golden: dict) -> Op:
    v, b, k, _, _, _, _ = ag_design(q, n)
    key = f"plane-{q}" if n == 2 else f"hyperplane-{q}-{n}"

    def call():
        return lib.build_affine_plane(q) if n == 2 else lib.build_hyperplane_design(q, n)

    def check(s):
        shape = (s.num_points, len(s.blocks), {len(blk) for blk in s.blocks},
                 len(s.parallel_classes))
        if shape != (v, b, {k}, b // q):
            return f"points, blocks, block sizes, classes = {shape}"
        return _digest_check("to_json", lib.to_json(s), golden["structures"].get(key))

    return Op(f"build {key}", call, check)


def pg_op(lib, q: int, plane) -> Op:
    def check(got):
        return None if tuple(got) == (q, q + 1, q) else f"pg parameters {tuple(got)}"

    return Op(f"verify_pg plane-{q}", lambda: lib.verify_pg(plane), check)


def design_op(lib, q: int, n: int, s) -> Op:
    def check(got):
        found = (got.v_pts, got.b_blocks, got.k_blocksize, got.r_replication,
                 got.lambda_pair, got.s, got.m_int)
        return None if found == ag_design(q, n) else f"design parameters {found}"

    return Op(f"verify_2design AG({n},{q})", lambda: lib.verify_2design(s), check)


def _structures(seed, golden, toy):
    lib, _ = _lib()
    planes = tuple(q for q in PRIME_POWERS_TO_64 if q <= 8) if toy else PRIME_POWERS_TO_64
    hyper = ((2, 4), (3, 3)) if toy else HYPERPLANE_DESIGNS
    verified = tuple(q for q in planes if q <= (4 if toy else 16))
    design = (3, 3) if toy else (4, 4)
    ops = [structure_op(lib, q, 2, golden) for q in planes]
    ops += [structure_op(lib, q, n, golden) for q, n in hyper]
    for q in verified:
        plane = lib.build_affine_plane(q)
        ops += [pg_op(lib, q, plane), design_op(lib, q, 2, plane)]
    ops.append(design_op(lib, *design, lib.build_hyperplane_design(*design)))
    return ops


WORKLOADS = {
    "catalog-500": _catalog,
    "build-large": _build_large,
    "verify-reject": _verify_reject,
    "iso-pairs": _iso_pairs,
    "structures": _structures,
}


def make(name: str, seed: int, golden: dict, toy: bool = False) -> list[Op]:
    return WORKLOADS[name](seed, golden, toy)
