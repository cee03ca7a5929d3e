"""verify_dsrg against the two reference verifiers in oracles.

Against the popcount verifier: accepted graphs must give equal
parameters.  On mutants both verifiers must reject with the same error
class, degree witnesses must name the same vertex, and every witness of
verify_dsrg must survive an independent recount.  It may differ from the
popcount verifier's A^2 witness: verify_dsrg checks t row by row, the
popcount verifier checks the whole diagonal first.

Against reference_verify_dsrg, the first bit-sliced verifier, which adds
one out-row per out-neighbour and checks vertex by vertex: every outcome
must be identical, the same parameters or the same error class, witness
fields and message.  verify_dsrg checks class by class, so the cases
where the first failing vertex is not the first member of its class, or
lies in a later class than another failing vertex, are pinned here.  The
plane-stack helpers of the out-row-class kernel are checked against
plain per-column integer sums.
"""

import random
from collections import Counter

import pytest

import dsrg.digraph

from dsrg import (
    ApPencils,
    Digraph,
    DsrgError,
    DsrgParams,
    Gdd,
    NonConstantError,
    NotRegularError,
    PartitionSpiked,
    Transversal,
    build_antiflag_backward_loopy,
    build_digraph,
    build_fano,
    duval_multiple,
    expected_params,
    verify_dsrg,
)
from dsrg.families import catalog_instances
from dsrg.planes import _add_planes, _add_times, _sub_planes, _weighted_sum
from oracles import (dense, popcount_verify_dsrg, reference_verify_dsrg, small_digraphs, walks2,
                     witness_problem)

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


def _same_as_reference(d, got, where):
    """got must equal reference_verify_dsrg's outcome on d exactly."""
    want = _outcome(reference_verify_dsrg, d)
    if isinstance(want, DsrgParams):
        assert got == want, where
        return
    assert type(got) is type(want), f"{where}: {got!r} vs reference {want!r}"
    assert vars(got) == vars(want), where
    assert str(got) == str(want), where


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
        got = verify_dsrg(d)
        assert got == want, f"{name} m={m}"
        _same_as_reference(d, got, f"{name} m={m}")


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
            _same_as_reference(mutant, got, where)
            if isinstance(want, DsrgParams):
                assert got == want, where
                continue
            assert type(got) is type(want), f"{where}: {got!r} vs reference {want!r}"
            if isinstance(want, NotRegularError):
                assert got.vertex == want.vertex, where
            problem = witness_problem(dense(mutant), got)
            assert problem is None, f"{where}: {problem}"


# -- the class-order witness -------------------------------------------------

# Two 2-regular digraphs on 7 vertices, found by exhaustive search.  Row 0
# reads t = 0 and mu = 1.  Two vertices with one out-row share their row
# of A^2, where the diagonal of each is a non-edge column of the other, so
# with t != mu at most one of them passes.
LATER_MEMBER = (6, 48, 72, 48, 5, 72, 3)   # classes {0} {1,3} {2,5} {4} {6}
LATER_CLASS = (6, 96, 24, 6, 65, 24, 33)   # classes {0,3} {1} {2,5} {4} {6}


def _rejected_at(rows):
    """The graph, its adjacency matrix and verify_dsrg's rejection, which
    must equal the reference's and name a real break."""
    d = Digraph(len(rows), rows)
    adj = dense(d)
    got = _outcome(verify_dsrg, d)
    assert isinstance(got, NonConstantError), got
    _same_as_reference(d, got, f"rows {rows}")
    assert witness_problem(adj, got) is None
    return d, adj, got


def test_witness_is_a_later_member_of_an_earlier_class():
    """Vertex 3 fails first, in class 1, after class 2 has started at vertex 2."""
    d, _, got = _rejected_at(LATER_MEMBER)
    assert d.row_class[:4] == (0, 1, 2, 1)
    assert got.witness == (3, 1)


def test_witness_in_a_later_class_beats_a_later_member_of_an_earlier_one():
    """Vertex 3, class 0's second member, fails, but vertex 1 of class 1 fails first."""
    d, adj, got = _rejected_at(LATER_CLASS)
    assert d.row_class[:4] == (0, 1, 2, 0)
    assert got.witness[0] == 1
    # vertex 3 fails at column 0, a non-edge holding vertex 0's diagonal t = 0, not mu = 1
    assert not adj[3][0] and walks2(adj, 3, 0) == walks2(adj, 0, 0) == 0
    assert walks2(adj, 0, 3) == 1


def _blow_up_rows(rows, m):
    """The rows of A tensor J_m, vertex u becoming u*m .. u*m + m - 1."""
    block = (1 << m) - 1
    spread = [sum(block << (v * m) for v in _bits(r)) for r in rows]
    return [spread[u // m] for u in range(len(rows) * m)]


def test_random_twin_graphs_like_the_reference():
    """Degree-regular graphs with repeated out-rows: a relabelled circulant
    blown up by m, then up to two degree-keeping swaps."""
    rng = random.Random(f"{SEED} twins")
    outcomes = set()
    for trial in range(150):
        n0 = rng.randrange(3, 8)
        perm = rng.sample(range(n0), n0)
        base = [0] * n0
        for shift in rng.sample(range(1, n0), rng.randrange(1, n0 - 1)):
            for u in range(n0):
                base[perm[u]] |= 1 << perm[(u + shift) % n0]
        rows = _blow_up_rows(base, rng.randrange(1, 4))
        for _ in range(rng.randrange(3)):
            a = rng.randrange(len(rows))
            swap = _swap_partners(rows, a, rng)
            if swap:
                b, c, d = swap
                rows = list(_flip(rows, (a, b), (a, d), (c, d), (c, b)))
        graph = Digraph(len(rows), tuple(rows))
        got = _outcome(verify_dsrg, graph)
        _same_as_reference(graph, got, f"trial {trial}")
        outcomes.add(type(got).__name__)
    assert {"DsrgParams", "NonConstantError"} <= outcomes


# the catalog-500 bases whose multiples reach the catalog's m = 13
REACH_13 = [(f"{spec.name} {spec.describe()}", spec)
            for spec, formula_only in catalog_instances(500) if not formula_only
            for p in [expected_params(spec)] if p.t == p.mu and MULTIPLES * p.v <= 500]


@pytest.mark.parametrize("name,spec", REACH_13, ids=[name for name, _ in REACH_13])
def test_catalog_multiples_up_to_13_like_the_reference(name, spec):
    """Every catalog multiple m = 2..13 of the base, and its mutants:
    classes of m times the base class sizes."""
    d = build_digraph(spec)
    rng = random.Random(f"{SEED} multiples {name}")
    for m in range(2, MULTIPLES + 1):
        multiple = duval_multiple(d, m)
        got = verify_dsrg(multiple)
        assert got == expected_params(spec).scaled(m)
        _same_as_reference(multiple, got, f"{name} m={m}")
        for label, rows in _mutants(multiple.rows, rng):
            mutant = Digraph(multiple.n, rows)
            _same_as_reference(mutant, _outcome(verify_dsrg, mutant), f"{name} m={m} {label}")


@pytest.mark.parametrize("spec", [Transversal(3), Gdd(2, 5)], ids=["transversal 3", "gdd 2 5"])
def test_flips_and_swaps_like_the_reference(spec):
    """Five rounds of seeded flips, redirects and swaps; each witness is recounted."""
    d = build_digraph(spec)
    rng = random.Random(f"{SEED} mutants {spec.describe()}")
    seen = set()
    for _ in range(5):
        for label, rows in _mutants(d.rows, rng):
            mutant = Digraph(d.n, rows)
            got = _outcome(verify_dsrg, mutant)
            _same_as_reference(mutant, got, f"{spec.describe()} {label}")
            assert witness_problem(dense(mutant), got) is None, label
            seen.add(type(got).__name__)
    assert {"NotRegularError", "NonConstantError"} <= seen


def test_both_kernels_run(monkeypatch):
    """D <= k sums by out-row class, D > k by out-neighbour, where D is
    the number of distinct out-rows; from D = 32 on, a by-class row after
    the first is the previous class's row plus a difference when that has
    no more terms than the fresh sum."""
    calls = {"_square_row": 0, "_square_row_by_class": 0, "_square_row_by_difference": 0}
    moved = []   # how many counts each difference row moved
    for name in calls:
        kernel = getattr(dsrg.digraph, name)

        def counted(*args, name=name, kernel=kernel):
            calls[name] += 1
            if name == "_square_row_by_difference":
                moved.append(len(args[-1]))
            return kernel(*args)
        monkeypatch.setattr(dsrg.digraph, name, counted)

    # partition-spiked and backward rules: every out-row distinct
    spiked = build_digraph(PartitionSpiked(6, 8))   # n = 336 > k = 83
    fano = build_antiflag_backward_loopy(build_fano())
    for d in (spiked, fano):
        assert len(set(d.rows)) == d.n > d.rows[0].bit_count()
        verify_dsrg(d)
    assert calls == {"_square_row": spiked.n + fano.n, "_square_row_by_class": 0,
                     "_square_row_by_difference": 0}

    # forward rule: the out-row depends on the point alone
    gdd = build_digraph(Gdd(2, 3))
    multiple = duval_multiple(gdd, 3)
    calls.update(_square_row=0, _square_row_by_class=0)
    for d in (gdd, multiple):
        assert len(set(d.rows)) <= d.rows[0].bit_count()
        verify_dsrg(d)
    assert calls == {"_square_row": 0, "_square_row_by_class": 2 * len(set(gdd.rows)),
                     "_square_row_by_difference": 0}

    # transversal q=7, D = 49: two points of one group differ in two class
    # counts, and the 6 classes that start a group move 14 of the 48 counts
    # they meet; each is fewer than the nonzero counts, so every class after
    # the first takes the difference
    transversal = build_digraph(Transversal(7))
    calls.update(_square_row_by_class=0)
    assert verify_dsrg(transversal) == expected_params(Transversal(7))
    assert calls == {"_square_row": 0, "_square_row_by_class": 1, "_square_row_by_difference": 48}
    assert sorted(moved) == [2] * 42 + [14] * 6

    # so does every later class of transversal q=8 and of ap-pencils q=8;l=5,
    # which moves 32-34 of its 63 counts at each step
    for spec in (Transversal(8), ApPencils(8, 5)):
        d = build_digraph(spec)
        calls.update(_square_row_by_class=0, _square_row_by_difference=0)
        assert verify_dsrg(d) == expected_params(spec)
        assert len(d.distinct) == 64
        assert calls == {"_square_row": 0, "_square_row_by_class": 1,
                         "_square_row_by_difference": 63}, spec

    # no by-class graph of the catalog has 32 classes, so none takes the difference
    calls.update(_square_row_by_class=0, _square_row_by_difference=0)
    for spec, formula_only in catalog_instances(500):
        if not formula_only:
            d = build_digraph(spec)
            verify_dsrg(d)
            assert len(d.distinct) < 32 or len(d.distinct) > d.rows[0].bit_count(), spec
    assert calls["_square_row_by_class"] > 0
    assert calls["_square_row_by_difference"] == 0


# -- the difference kernel ---------------------------------------------------

@pytest.fixture
def differences_everywhere(monkeypatch):
    """verify_dsrg tries the difference on every by-class graph, whatever its D."""
    monkeypatch.setattr(dsrg.digraph, "_DIFFERENCE_MIN_CLASSES", 0)


@pytest.mark.parametrize("name,build", INSTANCES, ids=[name for name, _ in INSTANCES])
def test_accepts_like_the_reference_by_differences(name, build, differences_everywhere):
    test_accepts_like_the_reference(name, build)


@pytest.mark.parametrize("name,build", INSTANCES, ids=[name for name, _ in INSTANCES])
def test_mutants_rejected_like_the_reference_by_differences(name, build, differences_everywhere):
    test_mutants_rejected_like_the_reference(name, build)


@pytest.mark.parametrize("name,spec", REACH_13, ids=[name for name, _ in REACH_13])
def test_catalog_multiples_up_to_13_like_the_reference_by_differences(
        name, spec, differences_everywhere):
    test_catalog_multiples_up_to_13_like_the_reference(name, spec)


@pytest.mark.parametrize("spec", [Transversal(3), Gdd(2, 5)], ids=["transversal 3", "gdd 2 5"])
def test_flips_and_swaps_like_the_reference_by_differences(spec, differences_everywhere):
    test_flips_and_swaps_like_the_reference(spec)


@pytest.mark.parametrize("threshold", [dsrg.digraph._DIFFERENCE_MIN_CLASSES, 0])
def test_small_digraphs_like_the_reference(threshold, monkeypatch):
    """Every out-regular digraph with 3 <= v <= 5 and 0 < k < v-1, up to
    relabelling (small_digraphs), at the shipped threshold and with the
    difference tried at every class."""
    monkeypatch.setattr(dsrg.digraph, "_DIFFERENCE_MIN_CLASSES", threshold)
    seen = Counter()
    for v in range(3, 6):
        for d in small_digraphs(v):
            got = _outcome(verify_dsrg, d)
            _same_as_reference(d, got, d.rows)
            seen[type(got).__name__] += 1
    assert seen == {"DsrgParams": 5, "NonConstantError": 60, "NotRegularError": 1801}


def test_small_digraphs_of_order_6_reach_the_difference_kernel(differences_everywhere,
                                                                monkeypatch):
    """The v = 6 graphs of small_digraphs that take the by-class path
    (D <= k), with the difference tried at every class.  Of the four
    that are DSRGs, the three labellings of K_{2,2,2} reach classes 1 and
    2 by differences (K_{3,3} sums its second class fresh), so a
    difference taken from a stale row is caught here."""
    differences = []
    kernel = dsrg.digraph._square_row_by_difference

    def counted(*args):
        differences.append(args)
        return kernel(*args)
    monkeypatch.setattr(dsrg.digraph, "_square_row_by_difference", counted)
    seen = Counter()
    for d in small_digraphs(6):
        if len(d.distinct) <= d.rows[0].bit_count():
            got = _outcome(verify_dsrg, d)
            _same_as_reference(d, got, d.rows)
            seen[type(got).__name__] += 1
    assert seen == {"DsrgParams": 4, "NotRegularError": 564}
    assert len(differences) == 6


def _same_block_swap(d, rng):
    """a->b, c->e become a->e, c->b, for anti-flags a, c of one block in
    the second half.  A vertex points at a iff it points at c, so only a
    and c get a new row of A^2, and the first failing vertex is late."""
    half = d.n // 2
    while True:
        a = rng.randrange(half, d.n)
        c = rng.choice([v for v in range(half, d.n)
                        if v != a and d.labels[v].block == d.labels[a].block])
        b = rng.choice([v for v in _bits(d.rows[a]) if not (d.rows[c] >> v) & 1 and v != c])
        e = rng.choice([v for v in _bits(d.rows[c]) if not (d.rows[a] >> v) & 1 and v != a])
        if d.rows[b] != d.rows[e]:
            return a, b, c, e


def test_transversal_7_and_same_block_swaps_like_the_reference(monkeypatch):
    """At the shipped threshold: transversal q=7 (D = 49) and three seeded
    degree-keeping swaps on it, each rejected at a vertex past the middle
    whose row of A^2 the walk reached by differences."""
    d = build_digraph(Transversal(7))
    assert len(d.distinct) >= dsrg.digraph._DIFFERENCE_MIN_CLASSES
    _same_as_reference(d, verify_dsrg(d), "transversal 7")
    differences = []
    kernel = dsrg.digraph._square_row_by_difference

    def counted(*args):
        differences.append(args)
        return kernel(*args)
    monkeypatch.setattr(dsrg.digraph, "_square_row_by_difference", counted)
    rng = random.Random(f"{SEED} transversal 7")
    for _ in range(3):
        a, b, c, e = _same_block_swap(d, rng)
        mutant = Digraph(d.n, _flip(d.rows, (a, b), (a, e), (c, e), (c, b)))
        differences.clear()
        got = _outcome(verify_dsrg, mutant)
        _same_as_reference(mutant, got, f"transversal 7 swap {a}->{b},{c}->{e}")
        assert isinstance(got, NonConstantError) and got.witness[0] == min(a, c)
        assert len(differences) > 20


def test_class_squares_are_the_rows_of_a_squared():
    """Every row the class walk yields equals the one-add-per-out-neighbour
    sum, also after the walk has gone on past it: a later difference
    must not change a row that is held as a witness."""
    d = build_digraph(Transversal(7))
    rng = random.Random(f"{SEED} class squares")
    a, b, c, e = _same_block_swap(d, rng)
    for g in (d, Digraph(d.n, _flip(d.rows, (a, b), (a, e), (c, e), (c, b)))):
        squares = list(dsrg.digraph._class_squares(g.distinct, g.members))
        assert squares == [dsrg.digraph._square_row(g.rows, row) for row in g.distinct]


# -- the plane-stack helpers -------------------------------------------------

WIDTH = 61   # columns per test vector


def _planes_of(values):
    """Bit planes of a list of per-column counts."""
    top = max(values, default=0).bit_length()
    return [sum(((v >> i) & 1) << w for w, v in enumerate(values)) for i in range(top)]


def _columns_of(planes):
    """Per-column counts held in bit planes."""
    return [sum(((p >> w) & 1) << i for i, p in enumerate(planes)) for w in range(WIDTH)]


def _random_vector(rng, density=0.5):
    return sum(1 << w for w in range(WIDTH) if rng.random() < density)


def _column_sum(terms):
    return [sum(c * ((x >> w) & 1) for c, x in terms) for w in range(WIDTH)]


COUNTS = [1, 2, 3, 4, 7, 8, 64, 255, 256, 1000, 2**12 - 1, 2**12]


@pytest.mark.parametrize("c", COUNTS)
def test_add_times_matches_column_sums(c):
    rng = random.Random(f"{SEED} times {c}")
    for start in ([], [rng.randrange(2**13) for _ in range(WIDTH)]):
        xs = [_random_vector(rng) for _ in range(rng.randrange(1, 20))]
        stack = _weighted_sum([(1, x) for x in xs])
        assert _columns_of(stack) == _column_sum([(1, x) for x in xs])
        acc = _planes_of(start) if start else []
        _add_times(acc, stack, c)
        base = start or [0] * WIDTH
        want = [b + c * s for b, s in zip(base, _column_sum([(1, x) for x in xs]))]
        assert _columns_of(acc) == want


def test_add_planes_carries_past_the_top_plane():
    """All ones plus all ones, shifted: the carry runs above both stacks."""
    ones = (1 << WIDTH) - 1
    for shift in range(4):
        for width in range(1, 5):
            top = [ones] * width   # every column holds 2**width - 1
            acc = list(top)
            _add_planes(acc, top, shift)
            want = (2**width - 1) * (1 + 2**shift)
            assert _columns_of(acc) == [want] * WIDTH, (shift, width)
            assert len(acc) == want.bit_length()


def test_add_planes_into_an_empty_accumulator():
    rng = random.Random(f"{SEED} empty")
    for shift in range(3):
        values = [rng.randrange(2**9) for _ in range(WIDTH)]
        acc: list[int] = []
        _add_planes(acc, _planes_of(values), shift)
        assert _columns_of(acc) == [v << shift for v in values]
    acc = []
    _add_planes(acc, [], 2)
    assert _columns_of(acc) == [0] * WIDTH


def test_sub_planes_matches_column_differences():
    rng = random.Random(f"{SEED} sub")
    for trial in range(60):
        top = 2 ** rng.randrange(1, 14)
        big = [rng.randrange(top) for _ in range(WIDTH)]
        small = [rng.randrange(v + 1) for v in big]
        acc = _planes_of(big)
        _sub_planes(acc, _planes_of(small))
        assert _columns_of(acc) == [x - y for x, y in zip(big, small)], trial
        assert acc == _planes_of([x - y for x, y in zip(big, small)]), trial


def test_sub_planes_borrows_past_the_top_plane():
    """2**width minus 1 in every column: the borrow runs from plane 0 up
    to plane width, above the subtrahend's top plane, which it clears."""
    ones = (1 << WIDTH) - 1
    for width in range(1, 6):
        for low in range(1, width + 1):
            acc = [0] * width + [ones]
            _sub_planes(acc, [ones] * low)   # 2**low - 1
            want = 2**width - 2**low + 1
            assert _columns_of(acc) == [want] * WIDTH, (width, low)
            assert len(acc) == want.bit_length()


def test_sub_planes_to_zero_in_every_column():
    rng = random.Random(f"{SEED} sub zero")
    values = [rng.randrange(2**9) for _ in range(WIDTH)]
    acc = _planes_of(values)
    _sub_planes(acc, _planes_of(values))
    assert acc == []
    acc = []
    _sub_planes(acc, [])
    assert acc == []


def test_weighted_sum_matches_column_sums():
    rng = random.Random(f"{SEED} weighted")
    for trial in range(40):
        # few distinct counts, so several vectors share one stack
        counts = rng.sample(COUNTS + [0], rng.randrange(1, 5))
        terms = [(rng.choice(counts), _random_vector(rng, rng.random()))
                 for _ in range(rng.randrange(1, 30))]
        assert _columns_of(_weighted_sum(terms)) == _column_sum(terms), trial
    assert _weighted_sum([]) == []
    assert _weighted_sum([(0, (1 << WIDTH) - 1)]) == []
