"""The bit-sliced verify_dsrg against the popcount reference verifier.

Accepted graphs must give equal parameters.  On mutants both verifiers
must reject with the same error class, degree witnesses must name the
same vertex, and every witness of the bit-sliced verifier must survive
an independent recount.  It may differ from the reference's A^2
witness: this verifier checks t row by row, the reference checks the
whole diagonal first.
"""

import random

import pytest

from dsrg import (
    Digraph,
    DsrgError,
    DsrgParams,
    NotRegularError,
    PartitionSpiked,
    build_antiflag_backward_loopy,
    build_digraph,
    build_fano,
    duval_multiple,
    verify_dsrg,
)
from dsrg.families import catalog_instances
from oracles import dense, popcount_verify_dsrg, witness_problem

MAX_ORDER = 110
MULTIPLES = 13
SEED = 20100


def _instances():
    """(name, builder) of every catalog instance plus two t != mu graphs."""
    out = [(f"{spec.name} {spec.describe()}", lambda spec=spec: build_digraph(spec))
           for spec, formula_only in catalog_instances(MAX_ORDER) if not formula_only]
    out.append(("partition-spiked q=6;l=8 (all out-rows distinct)",
                lambda: build_digraph(PartitionSpiked(6, 8))))
    out.append(("backward-loopy fano", lambda: build_antiflag_backward_loopy(build_fano())))
    return out


INSTANCES = _instances()


def _graphs(build):
    """The instance and, where t = mu, its catalog multiples."""
    d = build()
    out = [(1, d)]
    base = popcount_verify_dsrg(d)
    if base.t == base.mu:
        m = 2
        while m <= MULTIPLES and m * d.n <= MAX_ORDER:
            out.append((m, duval_multiple(d, m)))
            m += 1
    return out


def _outcome(verify, d):
    try:
        return verify(d)
    except DsrgError as exc:
        return exc


def _mutants(rows, rng):
    """Seeded one-arc flips, arc redirects and degree-keeping swaps.

    A flip changes one out-degree; a redirect u->w to u->w' keeps every
    out-degree and changes two in-degrees; a swap of a->b, c->d to
    a->d, c->b keeps every degree.  One swap starts in a row that other
    vertices share, where a memo keyed on the wrong thing would reuse a
    stale row of A^2.
    """
    n = len(rows)
    out = []
    for _ in range(3):
        u, w = rng.sample(range(n), 2)
        out.append((f"flip {u}->{w}", _flip(rows, (u, w))))
    for _ in range(2):
        u = rng.randrange(n)
        w = rng.choice(_bits(rows[u]))
        w2 = rng.choice([x for x in range(n) if x != u and not (rows[u] >> x) & 1])
        out.append((f"redirect {u}->{w} to {w2}", _flip(rows, (u, w), (u, w2))))
    shared = [a for a in range(n) if rows.count(rows[a]) > 1]
    starts = [rng.choice(shared)] if shared else []
    starts += [rng.randrange(n) for _ in range(3)]
    for a in starts:
        swap = _swap_partners(rows, a, rng)
        if swap:
            b, c, d = swap
            out.append((f"swap {a}->{b},{c}->{d}", _flip(rows, (a, b), (a, d), (c, d), (c, b))))
    return out


def _flip(rows, *arcs):
    out = list(rows)
    for u, w in arcs:
        out[u] ^= 1 << w
    return tuple(out)


def _bits(mask):
    return [v for v in range(mask.bit_length()) if (mask >> v) & 1]


def _swap_partners(rows, a, rng):
    """b, c, d with a->b, c->d arcs and a->d, c->b non-arcs, all distinct."""
    n = len(rows)
    for _ in range(200):
        c = rng.randrange(n)
        b = rng.choice(_bits(rows[a]))
        d = rng.choice(_bits(rows[c]))
        if len({a, b, c, d}) == 4 and not (rows[a] >> d) & 1 and not (rows[c] >> b) & 1:
            return b, c, d
    return None


@pytest.mark.parametrize("name,build", INSTANCES, ids=[name for name, _ in INSTANCES])
def test_accepts_like_the_reference(name, build):
    for m, d in _graphs(build):
        want = popcount_verify_dsrg(d)
        assert verify_dsrg(d) == want, f"{name} m={m}"


@pytest.mark.parametrize("name,build", INSTANCES, ids=[name for name, _ in INSTANCES])
def test_mutants_rejected_like_the_reference(name, build):
    rng = random.Random(f"{SEED} {name}")
    for m, d in _graphs(build):
        verify_dsrg(d)
        for label, rows in _mutants(d.rows, rng):
            mutant = Digraph(d.n, rows)
            where = f"{name} m={m} {label}"
            want = _outcome(popcount_verify_dsrg, mutant)
            got = _outcome(verify_dsrg, mutant)
            if isinstance(want, DsrgParams):
                assert got == want, where
                continue
            assert type(got) is type(want), f"{where}: {got!r} vs reference {want!r}"
            if isinstance(want, NotRegularError):
                assert got.vertex == want.vertex, where
            problem = witness_problem(dense(mutant), got)
            assert problem is None, f"{where}: {problem}"
