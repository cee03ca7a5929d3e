import hashlib
import json
import random
import sys
from collections import Counter
from itertools import combinations
from pathlib import Path
from struct import Struct
from types import SimpleNamespace

import pytest

from dsrg import (
    BUDGET_EXCEEDED,
    DEFAULT_NODE_BUDGET,
    Digraph,
    IsoResult,
    ISOMORPHIC,
    NOT_ISOMORPHIC,
    OutOfBudgetError,
    SizeMismatchError,
    apply_mapping,
    are_isomorphic,
    build_antiflag_backward,
    build_antiflag_forward,
    build_digraph,
    build_gdd,
    bundled_iso_fixture,
    canonical_form,
    duval_multiple,
    expected_params,
    grid_two_pencil_structure,
    k33_edge_structure,
    verify_dsrg,
    verify_mapping,
)
from dsrg import iso
from dsrg.digraph import _blow_up
from dsrg.families import (AffineResolvable, ApPencils, Gdd, Partition, PartitionSpiked,
                           Transversal, catalog_instances)
from dsrg.iso import _Neighborhoods, _refine

import oracles
from oracles import reference_are_isomorphic, reference_canonical_form, reference_color_tuple

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
GOLDEN = PERFBENCH / "golden.json"
sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402

SIX_CYCLE = Digraph(6, tuple(1 << ((u + 1) % 6) for u in range(6)))
TWO_TRIANGLES = Digraph(6, (2, 4, 1, 16, 32, 8))


def shuffled_copy(d, seed):
    rng = random.Random(seed)
    perm = list(range(d.n))
    rng.shuffle(perm)
    return apply_mapping(d, perm), perm


# ---------------------------------------------------------------------------
# verify_mapping
# ---------------------------------------------------------------------------

def test_identity_mapping():
    d = build_antiflag_forward(build_gdd(2, 2))
    assert verify_mapping(d, d, list(range(d.n)))


def test_explicit_shuffle_mapping():
    d = build_antiflag_forward(build_gdd(2, 3))
    copy, perm = shuffled_copy(d, 11)
    assert verify_mapping(d, copy, perm)


def test_some_transposition_breaks_a_nonsymmetric_graph():
    d = build_antiflag_forward(build_gdd(2, 3))
    # t < k, so some edge is one-way; swapping its endpoints breaks the identity
    u, w = next((u, w) for u in range(d.n) for w in range(d.n)
                if (d.rows[u] >> w) & 1 and not (d.rows[w] >> u) & 1)
    perm = list(range(d.n))
    perm[u], perm[w] = perm[w], perm[u]
    assert not verify_mapping(d, d, perm)


def test_every_vertex_of_a_row_class_is_checked():
    d = build_antiflag_forward(build_gdd(2, 3))   # the out-row depends on the point
    first = {}
    for u, row in enumerate(d.rows):
        first.setdefault(row, u)
    # two later vertices of different classes that every class's first row
    # treats alike: checking the first vertex of each class would pass the swap
    u, w = next((u, w) for u in range(d.n) for w in range(u + 1, d.n)
                if d.rows[u] != d.rows[w] and u not in first.values()
                and w not in first.values()
                and all((d.rows[r] >> u) & 1 == (d.rows[r] >> w) & 1 for r in first.values()))
    perm = list(range(d.n))
    perm[u], perm[w] = w, u
    assert all(sum(1 << perm[v] for v in range(d.n) if (d.rows[r] >> v) & 1) == d.rows[perm[r]]
               for r in first.values())
    assert not verify_mapping(d, d, perm)
    # apply_mapping by its definition: u -> v is an edge iff perm[u] -> perm[v] is
    image = apply_mapping(d, perm)
    assert all((image.rows[perm[a]] >> perm[b]) & 1 == (d.rows[a] >> b) & 1
               for a in range(d.n) for b in range(d.n))


def test_size_mismatch_and_bad_permutation():
    d1 = build_antiflag_forward(build_gdd(2, 2))
    d2 = build_antiflag_forward(build_gdd(2, 3))
    with pytest.raises(SizeMismatchError):
        verify_mapping(d1, d2, list(range(d1.n)))
    with pytest.raises(ValueError):
        verify_mapping(d1, d1, [0] * d1.n)


def test_apply_mapping_refuses_a_non_permutation_before_any_work(monkeypatch):
    d = build_digraph(Gdd(2, 3))
    repeated = list(range(d.n))
    repeated[1] = repeated[0]

    def relabel(*args):
        raise AssertionError("apply_mapping relabelled before checking the mapping")

    monkeypatch.setattr(iso, "_images", relabel)
    for perm in (repeated, list(range(1, d.n + 1))):
        with pytest.raises(ValueError, match="^mapping is not a permutation$"):
            apply_mapping(d, perm)
    for perm in (list(range(d.n - 1)), list(range(d.n + 1))):
        with pytest.raises(SizeMismatchError):
            apply_mapping(d, perm)
    floats = [float(v) if v == 5 else v for v in range(d.n)]   # 5.0 sorts equal to 5
    for check in (apply_mapping, lambda d, perm: verify_mapping(d, d, perm)):
        with pytest.raises(TypeError, match=r"^mapping entry 5 is 5\.0, not an int$"):
            check(d, floats)


def test_bundled_fixture_passes():
    d1, d2, perm = bundled_iso_fixture()
    assert d1.n == d2.n == 36
    assert verify_dsrg(d1).tuple() == (36, 12, 5, 2, 5)
    assert verify_dsrg(d2).tuple() == (36, 12, 5, 2, 5)
    assert verify_mapping(d1, d2, perm)


# ---------------------------------------------------------------------------
# are_isomorphic
# ---------------------------------------------------------------------------

def test_finds_mapping_to_shuffled_copy():
    for spec, seed in [(Gdd(2, 2), 1), (Partition(2, 3), 2), (Gdd(2, 3), 3)]:
        d = build_digraph(spec)
        copy, _ = shuffled_copy(d, seed)
        result = are_isomorphic(d, copy)
        assert result.status == ISOMORPHIC
        assert verify_mapping(d, copy, result.mapping)


def test_fixture_pair_found_by_search():
    d1, d2, _ = bundled_iso_fixture()
    result = are_isomorphic(d1, d2)
    assert result.status == ISOMORPHIC
    assert verify_mapping(d1, d2, result.mapping)


def test_degree_mismatch_is_immediate():
    a = build_digraph(Partition(2, 3))          # (12, 4, 2, 0, 2)
    b = build_digraph(PartitionSpiked(2, 3))    # (12, 7, 5, 4, 4)
    result = are_isomorphic(a, b)
    assert result.status == NOT_ISOMORPHIC
    assert result.nodes == 0                    # pruned by edge count


def test_same_parameters_different_graphs():
    """The forward graphs on dual structures are converse but not isomorphic."""
    d1 = build_antiflag_forward(build_gdd(2, 3))
    d2 = build_antiflag_forward(grid_two_pencil_structure())
    assert verify_dsrg(d1) == verify_dsrg(d2)
    assert are_isomorphic(d1, d2).status == NOT_ISOMORPHIC
    assert are_isomorphic(d1, d1.transpose()).status == NOT_ISOMORPHIC
    assert are_isomorphic(d1, d2.transpose()).status == ISOMORPHIC
    assert d2.transpose() == build_antiflag_backward(grid_two_pencil_structure())


def test_budget_exceeded_is_reported():
    d1, d2, _ = bundled_iso_fixture()
    result = are_isomorphic(d1, d2, budget=1)
    assert result.status == BUDGET_EXCEEDED
    assert result.mapping is None


def test_canonical_form_out_of_budget_raises():
    with pytest.raises(OutOfBudgetError, match="^canonical labeling exceeded 0 nodes$"):
        canonical_form(build_antiflag_forward(build_gdd(2, 2)), budget=0)


def test_different_sizes():
    a = build_antiflag_forward(build_gdd(2, 2))
    b = build_antiflag_forward(build_gdd(2, 3))
    assert are_isomorphic(a, b).status == NOT_ISOMORPHIC


# ---------------------------------------------------------------------------
# refinement and canonical forms
# ---------------------------------------------------------------------------

def test_refinement_fixpoint_is_equitable():
    d = build_antiflag_forward(build_gdd(2, 3))
    g = _Neighborhoods(d)
    colors = [0] * d.n
    colors[0] = 1  # individualize one vertex, then refine to a fixpoint
    (colors,), _ = _refine([g], [colors], dist2=False)
    classes = sorted(set(colors))
    for c1 in classes:
        members = [v for v in range(d.n) if colors[v] == c1]
        for c2 in classes:
            out_counts = {sum(1 for w in g.out[g.out_class[v]] if colors[w] == c2)
                          for v in members}
            in_counts = {sum(1 for w in g.inn[g.in_class[v]] if colors[w] == c2)
                         for v in members}
            assert len(out_counts) == 1 and len(in_counts) == 1


def test_canonical_form_invariance():
    for spec, seed in [(Gdd(2, 2), 5), (Partition(2, 3), 6), (ApPencils(2, 3), 7)]:
        d = build_digraph(spec)
        copy, _ = shuffled_copy(d, seed)
        s1, perm1 = canonical_form(d)
        s2, perm2 = canonical_form(copy)
        assert s1 == s2
        # the canonical string is reachable by the returned relabeling
        relabeled = apply_mapping(d, perm1)
        flat = "".join("1" if (relabeled.rows[u] >> v) & 1 else "0"
                       for u in range(d.n) for v in range(d.n))
        assert flat == s1


def test_canonical_form_separates_non_isomorphic():
    a = build_digraph(Partition(2, 3))
    b = build_digraph(PartitionSpiked(2, 3))
    assert canonical_form(a)[0] != canonical_form(b)[0]
    # same order, same in/out degrees: one 6-cycle vs two 3-cycles
    assert canonical_form(SIX_CYCLE)[0] != canonical_form(TWO_TRIANGLES)[0]


def flat(d):
    return "".join(format(row, f"0{d.n}b")[::-1] for row in d.rows)


def test_canonical_digests_match_the_benchmark_golden():
    golden = json.loads(GOLDEN.read_text())["canonical"]
    for q, l in ((1, 4), (2, 3)):
        text, _ = canonical_form(build_digraph(Partition(q, l)))
        assert hashlib.sha256(text.encode()).hexdigest() == golden[f"partition-{q}-{l}"]


def test_canonical_form_partition_2_4_within_default_budget():
    d = build_digraph(Partition(2, 4))
    text, perm = canonical_form(d)
    assert flat(apply_mapping(d, perm)) == text
    for seed in (1, 2, 3):
        copy, _ = shuffled_copy(d, seed)
        copy_text, copy_perm = canonical_form(copy)
        assert copy_text == text
        assert flat(apply_mapping(copy, copy_perm)) == text


# sha256 of repr(canonical_form(d)), the string and the labelling,
# captured from the search that pruned by leaf automorphisms alone:
# twin pruning must not move them
CANONICAL_PINS = {
    "partition(2,4)": (Partition(2, 4),
                       "cc1550d4809fec79b7f39d40f15176c7c7f0d5db7e1cc9d60b0cd53933ffd5d3"),
    "partition(3,3)": (Partition(3, 3),
                       "1ad51ad43c2d5a67ecfc4489648ca73505821c5c04ef8360a10f77623d0085eb"),
    "gdd(2,2);m=3": (Gdd(2, 2, 3),
                     "cd991436ffd82814dbb7df76f71fffa8d91abdb5a1d48d7425867ca611f7c769"),
    "affine-resolvable(2,2,3)": (AffineResolvable(2, 2, 3),
                                 "f099cca2b37cdcc2f2c56bdad820d1764f6100fcf18f15a6b57be964d0c1ca1b"),
}


@pytest.mark.parametrize("name", CANONICAL_PINS)
def test_canonical_form_of_twin_graphs_is_pinned(name):
    spec, digest = CANONICAL_PINS[name]
    out = canonical_form(build_digraph(spec))
    assert hashlib.sha256(repr(out).encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# the search engine against the reference searches in tests/oracles.py
# ---------------------------------------------------------------------------

CANONICAL_GRAPHS = {
    "gdd(2,2)": lambda: build_digraph(Gdd(2, 2)),
    "partition(1,4)": lambda: build_digraph(Partition(1, 4)),
    "partition(2,3)": lambda: build_digraph(Partition(2, 3)),
    "ap-pencils(2,3)": lambda: build_digraph(ApPencils(2, 3)),
    "six-cycle": lambda: SIX_CYCLE,
    "two-triangles": lambda: TWO_TRIANGLES,
}


@pytest.mark.parametrize("name", CANONICAL_GRAPHS)
def test_canonical_form_equals_reference(name):
    d = CANONICAL_GRAPHS[name]()
    for g in [d] + [shuffled_copy(d, seed)[0] for seed in range(1, 6)]:
        assert canonical_form(g) == reference_canonical_form(g)


# graphs with twin classes of size 2, which seed the orbit forest;
# partition(2,3) has them too and is among CANONICAL_GRAPHS
TWIN_GRAPHS = {
    "affine-resolvable(2,2,2)": AffineResolvable(2, 2, 2),
    "gdd(2,2);m=2": Gdd(2, 2, 2),
}


@pytest.mark.parametrize("name", TWIN_GRAPHS)
def test_canonical_form_with_twins_equals_reference(name):
    d = build_digraph(TWIN_GRAPHS[name])
    for g in [d] + [shuffled_copy(d, seed)[0] for seed in (1, 2)]:
        assert canonical_form(g) == reference_canonical_form(g)


def in_star(n):
    """Every vertex points at 0, and 0 at 1: out-degree 1, in-degree n - 1 at 0."""
    return Digraph(n, (2,) + (1,) * (n - 1))


REFINED = {
    "gdd(2,4)": lambda: build_digraph(Gdd(2, 4)),
    "partition-spiked(2,4)": lambda: build_digraph(PartitionSpiked(2, 4)),
    "in-star(300)": lambda: in_star(300),
    # out- and in-classes that differ and are not runs of consecutive vertices
    "gdd(2,2);m=3": lambda: build_digraph(Gdd(2, 2, 3)),
    "transversal 3 relabelled": lambda: shuffled_copy(build_digraph(Transversal(3)), 5)[0],
    "gdd(2,3) converse": lambda: build_digraph(Gdd(2, 3)).transpose(),
    "random(30), rows all distinct": lambda: random_digraph(30, 8),
}


@pytest.mark.parametrize("name", REFINED)
def test_refinement_numbers_colors_like_the_reference(name):
    """Histogram signatures give the colors of the reference's sorted tuples.

    gdd(2,4) has out-degree 24, so a 2-walk count (up to 576) needs
    2-byte histogram fields; the in-star counts up to 299 in-neighbors
    of one color with out-degree 1.  Pairs are refined jointly.
    """
    d = REFINED[name]()
    if name.startswith("random"):
        assert len(d.distinct) == len(d.transpose().distinct) == d.n
    copy, _ = shuffled_copy(d, 9)
    rng = random.Random(4)
    for ncolors in (1, 2, 3, 7):
        for dist2 in (False, True):
            colorings = [[rng.randrange(ncolors) for _ in range(d.n)] for _ in range(2)]
            for graphs in ([d], [d, copy]):
                ours, rounds = _refine([_Neighborhoods(g) for g in graphs],
                                       colorings[:len(graphs)], dist2)
                ref = oracles._refine([oracles._Neighborhoods(g) for g in graphs],
                                      colorings[:len(graphs)], dist2)
                assert ours == ref and rounds >= 1


def _pack(counts, size):
    return sum(c << (8 * size * i) for i, c in enumerate(counts))


def _histogram_sets(rng, size):
    """Seeded sets of distinct count vectors for fields of size bytes.

    Counts come from 0, 1, 2, the field maximum and one below it, and a
    random value, so totals are unequal and zeros sit before the last
    color.  Each vector brings a prefix relative (its last count lowered,
    possibly to zero) and an extension (one more later color), and every
    set holds the empty histogram.
    """
    most = (1 << (8 * size)) - 1
    for _ in range(250):
        ncolors = rng.randint(1, 6)
        vectors = {(0,) * ncolors}
        for _ in range(rng.randint(1, 13)):
            pool = (0, 0, 1, 2, most - 1, most, rng.randrange(most + 1))
            counts = [rng.choice(pool) for _ in range(ncolors)]
            vectors.add(tuple(counts))
            present = [c for c, a in enumerate(counts) if a]
            if present:
                last = present[-1]
                counts[last] = rng.randrange(counts[last])
                vectors.add(tuple(counts))
                if last + 1 < ncolors:
                    counts[rng.randrange(last + 1, ncolors)] = rng.choice((1, most))
                    vectors.add(tuple(counts))
        yield ncolors, vectors


@pytest.mark.parametrize("size, code", iso._FIELDS)
def test_histogram_key_orders_as_the_sorted_color_tuples(size, code):
    """The key orders histograms as reference_color_tuple does, for every
    field width the refinement can pick.

    The tuple order depends on the counts only through their order and
    which are zero, so the reference sorts the histograms with each count
    replaced by its rank among the set's counts (0 stays 0): wide fields
    at their maximum cannot be expanded.  On 1-byte fields the raw
    expansion is checked to give the same order.
    """
    rng = random.Random(size)
    for ncolors, vectors in _histogram_sets(rng, size):
        fields = Struct(f"<{ncolors}{code}")
        key = iso._histogram_key(ncolors, size, code)
        rank = {a: r for r, a in enumerate(sorted({0}.union(*vectors)))}
        want = sorted(vectors, key=lambda v: reference_color_tuple(
            _pack([rank[a] for a in v], size), fields))
        if size == 1:
            assert want == sorted(vectors, key=lambda v: reference_color_tuple(
                _pack(v, size), fields))
        histograms = [_pack(v, size) for v in vectors]
        rng.shuffle(histograms)
        assert sorted(histograms, key=key) == [_pack(v, size) for v in want]
        assert len(set(map(key, histograms))) == len(histograms)
    assert key(0) == ()


def _count_nodes(monkeypatch, module, run):
    """Tree nodes of one search: every node refines exactly once."""
    calls = []
    refine = module._refine

    def counted(*args, **kwargs):
        calls.append(1)
        return refine(*args, **kwargs)

    monkeypatch.setattr(module, "_refine", counted)
    run()
    return len(calls)


def test_automorphism_pruning_cuts_the_canonical_tree(monkeypatch):
    d = build_digraph(Partition(2, 3))
    new = _count_nodes(monkeypatch, iso, lambda: canonical_form(d))
    old = _count_nodes(monkeypatch, oracles, lambda: reference_canonical_form(d))
    assert old == 757
    assert new < old // 10


# canonical_form tree nodes: pruning must skip exactly these branches
CANONICAL_NODES = {
    "gdd(2,2)": (lambda: build_digraph(Gdd(2, 2)), 5),
    "gdd(2,2);m=2": (lambda: build_digraph(Gdd(2, 2, 2)), 33),
    "partition(1,4)": (lambda: build_digraph(Partition(1, 4)), 9),
    "partition(2,3)": (lambda: build_digraph(Partition(2, 3)), 19),
    "ap-pencils(2,3)": (lambda: build_digraph(ApPencils(2, 3)), 10),
}


@pytest.mark.parametrize("name", CANONICAL_NODES)
def test_canonical_node_counts_are_pinned(monkeypatch, name):
    make, nodes = CANONICAL_NODES[name]
    d = make()
    assert _count_nodes(monkeypatch, iso, lambda: canonical_form(d)) == nodes


def canonical_search(g):
    """The pruning search of canonical_form over g, no node expanded yet."""
    return iso._CanonicalSearch([g], DEFAULT_NODE_BUDGET, leaf=None)


def twin_graph(n, classes):
    """A stand-in for a graph on n vertices whose twin classes are classes,
    vertices listed in none being twin-free: only the twin keys are read."""
    out_class = list(range(n, 2 * n))
    for i, members in enumerate(classes):
        for v in members:
            out_class[v] = i
    return SimpleNamespace(out_class=out_class, in_class=[0] * n)


def explore(search, cell, path, found=None):
    """The vertices branched on below one node, driving branches(cell,
    path) as the search does: exploring u appends found[u], the leaf
    automorphisms its subtree turns up."""
    taken = []
    for u in search.branches(cell, path):
        taken.append(u)
        search.automorphisms.extend((found or {}).get(u, ()))
    return taken


def transpositions(n, classes):
    """Every transposition of two members of one class."""
    out = []
    for members in classes:
        for u, v in combinations(members, 2):
            perm = list(range(n))
            perm[u], perm[v] = v, u
            out.append(tuple(perm))
    return out


def test_pruning_uses_only_automorphisms_that_fix_the_path():
    rotate_both = (1, 2, 0, 4, 5, 3)        # automorphisms of TWO_TRIANGLES
    rotate_second = (0, 1, 2, 4, 5, 3)
    autos = [rotate_both, rotate_second]
    assert all(verify_mapping(TWO_TRIANGLES, TWO_TRIANGLES, a) for a in autos)

    def taken(cell, path):
        search = canonical_search(_Neighborhoods(TWO_TRIANGLES))     # twin-free
        search.automorphisms.extend(autos)
        return explore(search, cell, path)

    assert taken([0, 1, 2, 3, 4, 5], ()) == [0, 3]
    assert taken([3, 4, 5], (0,)) == [3]
    assert taken([1, 2], (0,)) == [1, 2]    # rotate_both moves 0
    assert taken([4, 5], (0, 3)) == [4, 5]


def test_twin_forest_roots_each_class_at_its_least_vertex_off_the_path():
    """Twins off the path share one orbit rooted at its least member, so
    only that member is explored, even where a path vertex was the least."""
    n, classes = 9, [(0, 2, 5, 7), (1, 6), (3,)]
    g = twin_graph(n, classes)

    def taken(path, found=None):
        cell = [v for v in range(n) if v not in path]
        return explore(canonical_search(g), cell, path, found)

    assert taken(()) == [0, 1, 3, 4, 8]
    assert taken((0,)) == [1, 2, 3, 4, 8]
    assert taken((5, 0, 2)) == [1, 3, 4, 7, 8]
    assert taken((2, 6)) == [0, 1, 3, 4, 8]
    assert explore(canonical_search(g), [2, 5, 7], (0,)) == [2]
    # an automorphism fixing the path merges on top: {1} joins {4, 8},
    # whether it is known before the node or found below a branch of it
    rotate = (0, 4, 2, 3, 8, 5, 6, 7, 1)
    assert taken((6,)) == [0, 1, 3, 4, 8]
    search = canonical_search(g)
    search.automorphisms.append(rotate)
    assert explore(search, [0, 1, 2, 3, 4, 5, 7, 8], (6,)) == [0, 1, 3]
    assert taken((6,), {1: [rotate]}) == [0, 1, 3]
    assert taken((6,), {4: [rotate]}) == [0, 1, 3, 4]
    assert taken((6,), {8: [rotate]}) == [0, 1, 3, 4, 8]


def random_automorphism(rng, n, cell, path):
    """A permutation that fixes path and permutes cell within itself, as
    the search guarantees of every automorphism that fixes the path (it
    keeps the refined colors), or, 3 times in 10 when there is a path,
    any permutation that moves a path vertex."""
    perm = list(range(n))
    if path and rng.random() < 0.3:
        while all(perm[x] == x for x in path):
            rng.shuffle(perm)
    else:
        cycle = rng.sample(cell, min(len(cell), rng.randrange(2, 4)))
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            perm[a] = b
    return tuple(perm)


@pytest.mark.parametrize("seed", range(20))
def test_incremental_orbits_equal_the_orbits_rebuilt_from_scratch(seed):
    """Merging only the automorphisms added since the last look skips
    exactly the cell vertices whose orbit, rebuilt from scratch from all
    of them and the twin transpositions, holds an explored vertex.

    The cell is the off-path members of some twin classes, as the search
    guarantees: twins off the path share a color.  Automorphisms are
    known before the node and found below its branches."""
    rng = random.Random(seed)
    n = rng.randrange(2, 30)
    path = tuple(rng.sample(range(n), rng.randrange(min(n, 4))))
    classes = [sorted(c) for c in _random_partition(rng, n)]
    cell = sorted(v for c in classes if rng.random() < 0.7 for v in c if v not in path)
    search = canonical_search(twin_graph(n, classes))
    twins = transpositions(n, classes)
    search.automorphisms.extend(random_automorphism(rng, n, cell, path)
                                for _ in range(rng.randrange(3)))
    explored, looked = [], 0

    def assert_skipped(upto):
        roots = oracles.reference_orbits(n, twins + search.automorphisms, path)
        explored_roots = {roots[x] for x in explored}
        assert all(roots[w] in explored_roots for w in cell[looked:upto])
        return roots, explored_roots

    for u in search.branches(cell, path):
        at = cell.index(u)
        roots, explored_roots = assert_skipped(at)
        assert roots[u] not in explored_roots
        explored.append(u)
        looked = at + 1
        for _ in range(rng.randrange(3)):       # some subtrees find nothing
            search.automorphisms.append(random_automorphism(rng, n, cell, path))
    assert_skipped(len(cell))


def _random_partition(rng, n):
    """n vertices in classes of sizes 1 to 4; a class need not be a run."""
    order = list(range(n))
    rng.shuffle(order)
    classes = []
    while order:
        size = rng.randrange(1, 5)
        classes.append(order[:size])
        del order[:size]
    return classes


def _twin_classes(d):
    """Classes of the vertices with one out-row and one in-column."""
    t = d.transpose()
    classes = {}
    for v in range(d.n):
        classes.setdefault((d.rows[v], t.rows[v]), []).append(v)
    return sorted(classes.values())


def _catalog_110_with_multiples():
    for spec, formula_only in catalog_instances(110):
        if not formula_only:
            d = build_digraph(spec)
            for m in (1, 2, 3):
                yield f"{spec.name} {spec.describe()};m={m}", d if m == 1 else _blow_up(d, m)


def test_every_twin_transposition_is_an_automorphism():
    """The twin keys group exactly the vertices with equal out-rows and
    equal in-columns, swapping any two of them is an automorphism, and
    with every vertex in the cell the search explores only the least of
    each class, on every buildable catalog-110 graph and its multiples
    m = 2, 3."""
    with_twins = 0
    for name, d in _catalog_110_with_multiples():
        search = canonical_search(_Neighborhoods(d))
        groups = {}
        for v, key in enumerate(search.twin_key):
            groups.setdefault(key, []).append(v)
        classes = sorted(groups.values())
        assert classes == _twin_classes(d), name
        assert list(search.branches(list(range(d.n)), ())) == sorted(c[0] for c in classes)
        for swap in transpositions(d.n, classes):
            assert verify_mapping(d, d, swap), name
        with_twins += any(len(c) > 1 for c in classes)
    assert with_twins > 0


def _fwd_bwd(s):
    return build_antiflag_forward(s), build_antiflag_backward(s)


def iso_pairs():
    d1, d2, _ = bundled_iso_fixture()
    gdd23 = build_antiflag_forward(build_gdd(2, 3))
    grid = build_antiflag_forward(grid_two_pencil_structure())
    pairs = {}
    for spec, seed in [(Gdd(2, 2), 1), (Partition(2, 3), 2), (Gdd(2, 3), 3)]:
        d = build_digraph(spec)
        pairs[f"{spec.name} {spec.describe()} shuffled"] = (d, shuffled_copy(d, seed)[0], None)
    pairs.update({
        "fixture": (d1, d2, None),
        "fixture budget 1": (d1, d2, 1),
        "partition vs spiked": (build_digraph(Partition(2, 3)),
                                build_digraph(PartitionSpiked(2, 3)), None),
        "gdd(2,3) forward vs grid forward": (gdd23, grid, None),
        "gdd(2,3) forward vs its converse": (gdd23, gdd23.transpose(), None),
        "gdd(2,3) forward vs grid converse": (gdd23, grid.transpose(), None),
        "different sizes": (build_antiflag_forward(build_gdd(2, 2)), gdd23, None),
        "gdd(2,3) forward vs backward": (*_fwd_bwd(build_gdd(2, 3)), None),
        "K33 forward vs grid forward": (build_antiflag_forward(k33_edge_structure()), grid, None),
        "six-cycle vs two triangles": (SIX_CYCLE, TWO_TRIANGLES, None),
    })
    return pairs


@pytest.mark.parametrize("name", iso_pairs())
def test_are_isomorphic_status_equals_reference(name):
    a, b, budget = iso_pairs()[name]
    budget = DEFAULT_NODE_BUDGET if budget is None else budget
    result = are_isomorphic(a, b, budget=budget)
    assert result.status == reference_are_isomorphic(a, b, budget=budget).status
    if result.status == ISOMORPHIC:
        assert verify_mapping(a, b, result.mapping)
    else:
        assert result.mapping is None


def random_digraph(n, seed):
    rng = random.Random(seed)
    return Digraph(n, tuple(sum(1 << v for v in range(n) if v != u and rng.random() < 0.3)
                            for u in range(n)))


@pytest.mark.parametrize("seed", range(6))
def test_random_digraphs_against_reference(seed):
    """Irregular graphs, whose intersection multisets differ from vertex to vertex."""
    d = random_digraph(10 + seed, seed)
    copy, _ = shuffled_copy(d, seed)
    result = are_isomorphic(d, copy)
    assert result.status == ISOMORPHIC
    assert verify_mapping(d, copy, result.mapping)
    # move one arc of vertex 0: same size, same arc count
    rows = list(copy.rows)
    v = next(v for v in range(1, d.n) if (rows[0] >> v) & 1)
    w = next(w for w in range(1, d.n) if not (rows[0] >> w) & 1)
    rows[0] ^= (1 << v) | (1 << w)
    moved = Digraph(d.n, tuple(rows))
    assert are_isomorphic(d, moved).status == reference_are_isomorphic(d, moved).status
    assert canonical_form(copy) == reference_canonical_form(copy)


def repeated_rows_digraph(rng, n):
    """A seeded loopless digraph whose vertices share out-rows: each of up
    to n row classes gets one random row that avoids its own members."""
    classes = [rng.randrange(rng.randint(1, n)) for _ in range(n)]
    density = rng.random()
    row_of = {c: sum(1 << v for v in range(n) if classes[v] != c and rng.random() < density)
              for c in set(classes)}
    return Digraph(n, tuple(map(row_of.__getitem__, classes)))


def move_one_arc(rng, d):
    """d with one arc u -> v moved to u -> w, or d itself if no vertex has
    both an arc and a non-arc."""
    rows = list(d.rows)
    movable = [u for u in range(d.n) if 0 < rows[u].bit_count() < d.n - 1]
    if not movable:
        return d
    u = rng.choice(movable)
    v = rng.choice([v for v in range(d.n) if (rows[u] >> v) & 1])
    w = rng.choice([w for w in range(d.n) if w != u and not (rows[u] >> w) & 1])
    rows[u] ^= (1 << v) | (1 << w)
    return Digraph(d.n, tuple(rows))


def assert_like_the_reference(a, b):
    result = are_isomorphic(a, b)
    assert result.status == reference_are_isomorphic(a, b).status
    if result.status == ISOMORPHIC:
        assert verify_mapping(a, b, result.mapping)
    else:
        assert result.mapping is None
    return result.status


def test_small_digraphs_against_their_relabelling_and_the_reference():
    """Every graph of oracles.small_digraphs for v = 3, 4, 5 (1,866): against
    a seeded relabelling it is ISOMORPHIC with a verified mapping, and
    against the next graph of its order (the last against the first) it
    has the reference's status, with a verified mapping when isomorphic."""
    isomorphic = 0
    for v in (3, 4, 5):
        graphs = list(oracles.small_digraphs(v))
        rng = random.Random(f"small digraphs {v}")
        for d, after in zip(graphs, graphs[1:] + graphs[:1]):
            perm = list(range(v))
            rng.shuffle(perm)
            copy = apply_mapping(d, perm)
            result = are_isomorphic(d, copy)
            assert result.status == ISOMORPHIC and verify_mapping(d, copy, result.mapping), d
            isomorphic += assert_like_the_reference(d, after) == ISOMORPHIC
    assert isomorphic == 129


def out_neighbors(d):
    """The out-neighbors of each out-row class of d."""
    return list(map(iso._bits, d.distinct))


def profile(d):
    return iso._intersection_profile(d)


CLASS_GRAPHS = {
    "gdd(2,3)": lambda: build_digraph(Gdd(2, 3)),
    "gdd(2,2);m=3": lambda: build_digraph(Gdd(2, 2, 3)),
    "partition(2,3)": lambda: build_digraph(Partition(2, 3)),
    "transversal 3 relabelled": lambda: shuffled_copy(build_digraph(Transversal(3)), 5)[0],
    "repeated rows x 3": lambda: _blow_up(repeated_rows_digraph(random.Random(7), 9), 3),
    "in-star(12)": lambda: in_star(12),
}


@pytest.mark.parametrize("name", CLASS_GRAPHS)
def test_class_structure_holds_the_incidence_and_the_cell_sizes(name):
    """Node r per out-row class and D + c per in-column class; out[r] holds
    each class c with an arc from class r into it once, and out[D + c] each
    row class r once per vertex of cell (r, c); inn is the converse.
    Checked against B and N read vertex by vertex."""
    d = CLASS_GRAPHS[name]()
    t = d.transpose()
    rows = len(d.distinct)
    g = _Neighborhoods.of_classes(d, t, out_neighbors(d))
    assert len(g.out) == len(g.inn) == rows + len(t.distinct)
    arcs = Counter()
    for u in range(d.n):
        for v in range(d.n):
            if (d.rows[u] >> v) & 1:
                arcs[d.row_class[u], rows + t.row_class[v]] = 1
        arcs[rows + t.row_class[u], d.row_class[u]] += 1
    assert Counter((x, y) for x, ys in enumerate(g.out) for y in ys) == arcs
    assert Counter((x, y) for y, xs in enumerate(g.inn) for x in xs) == arcs
    assert g.walk == g.out and list(g.out_class) == list(g.in_class) == list(range(len(g.out)))


def test_intersection_profile_equals_the_per_arc_definition():
    """One popcount per pair of out-row classes gives the tuple of one
    popcount per arc, on every buildable catalog-110 graph with its
    multiples m = 2, 3 and on 60 seeded digraphs with repeated rows."""
    rng = random.Random("intersection profile")
    graphs = [d for _, d in _catalog_110_with_multiples()]
    graphs += [repeated_rows_digraph(rng, rng.randint(1, 16)) for _ in range(60)]
    for d in graphs:
        assert profile(d) == oracles.reference_intersection_profile(d)


@pytest.mark.parametrize("seed", range(10))
def test_class_search_equals_the_reference_on_random_pairs(seed):
    """Per seed, 20 digraphs with repeated rows (n = 1..12) against a
    relabelled copy of themselves or of a one-arc-moved copy, then 5
    _blow_up copies (m = 1..4, so twins) against a relabelled copy of the
    same or the moved base blown up alike."""
    rng = random.Random(f"class search {seed}")
    seen = Counter()
    for i in range(25):
        d = repeated_rows_digraph(rng, rng.randint(1, 12 if i < 20 else 7))
        other = move_one_arc(rng, d) if rng.random() < 0.5 else d
        m = 1 if i < 20 else rng.randint(1, 4)
        a, b = _blow_up(d, m), _blow_up(other, m)
        seen[assert_like_the_reference(a, shuffled_copy(b, seed * 100 + i)[0])] += 1
    assert seen[ISOMORPHIC] > 0


@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_empty_and_complete_graphs(n):
    """The empty graph has one row and one column class (D = C = 1), the
    complete graph one per vertex (D = C = n)."""
    empty = Digraph(n, (0,) * n)
    complete = Digraph(n, tuple(((1 << n) - 1) ^ (1 << u) for u in range(n)))
    for d, classes in ((empty, 1), (complete, n)):
        assert len(d.distinct) == len(d.transpose().distinct) == classes
        assert assert_like_the_reference(d, shuffled_copy(d, n)[0]) == ISOMORPHIC
    assert are_isomorphic(empty, complete).status == (ISOMORPHIC if n == 1 else NOT_ISOMORPHIC)


# Duval multiples of different base graphs with one parameter set:
# (base, m) twice, then the class-structure nodes of the search
DUVAL_PAIRS = {
    "transversal q=2;m=62 vs affine-resolvable m=2;s=2;l=2;m=31":
        ((Transversal(2), 62), (AffineResolvable(2, 2, 2), 31), 2),
    "ap-pencils q=3;l=3;m=9 vs transversal q=3;m=9":
        ((ApPencils(3, 3), 9), (Transversal(3), 9), 3),
}


@pytest.mark.parametrize("name", DUVAL_PAIRS)
def test_duval_multiple_pairs_take_a_few_class_nodes(name):
    """n = 496 and 486: the vertex search took 489 and 433 nodes."""
    (spec1, m1), (spec2, m2), nodes = DUVAL_PAIRS[name]
    a, b = _blow_up(build_digraph(spec1), m1), _blow_up(build_digraph(spec2), m2)
    result = are_isomorphic(a, b)
    assert result.status == ISOMORPHIC
    assert verify_mapping(a, b, result.mapping)
    assert result.nodes == nodes


def cycles(*lengths):
    """Disjoint directed cycles of the given lengths, numbered in order."""
    rows, start = [], 0
    for k in lengths:
        rows += [1 << (start + (i + 1) % k) for i in range(k)]
        start += k
    return Digraph(start, tuple(rows))


def record_tuples(monkeypatch):
    """Every (tuple of d1, tuple of d2) branched on by are_isomorphic, with
    the number of d2 nodes on the path to the node (0 at the root),
    appended to the returned list."""
    seen = []
    tuples = iso._Search.tuples

    def recorded(self, colorings, counts, target, path):
        for pair in tuples(self, colorings, counts, target, path):
            seen.append((len(path), pair))
            yield pair

    monkeypatch.setattr(iso._Search, "tuples", recorded)
    return seen


def nonempty_cells(d):
    """The (row node, column node) of each vertex of d in its class structure."""
    rows = len(d.distinct)
    return {(r, rows + c) for r, c in zip(d.row_class, d.transpose().row_class)}


def test_every_pair_level_branch_is_a_nonempty_cell(monkeypatch):
    """Each level fixes a row node and a column node that share a vertex,
    in d1 and in every branch of d2, read off the vertices; over the
    isomorphic iso_pairs(), the Duval pairs, a pair of cycle unions and
    seeded repeated-row pairs."""
    pairs = [(a, b) for a, b, budget in iso_pairs().values() if budget is None]
    pairs += [(_blow_up(build_digraph(s1), m1), _blow_up(build_digraph(s2), m2))
              for (s1, m1), (s2, m2), _ in DUVAL_PAIRS.values()]
    pairs.append((cycles(3, 4), cycles(4, 3)))
    rng = random.Random("pair level")
    for i in range(40):
        d = repeated_rows_digraph(rng, rng.randint(2, 12))
        pairs.append((d, shuffled_copy(d, i)[0]))
    seen = record_tuples(monkeypatch)
    pairs_checked = 0
    for a, b in pairs:
        seen.clear()
        are_isomorphic(a, b)
        cells_a, cells_b = nonempty_cells(a), nonempty_cells(b)
        for _, (fixed, branch) in seen:
            assert len(fixed) == len(branch)
            if len(fixed) == 2:
                assert fixed in cells_a or fixed[::-1] in cells_a
                assert branch in cells_b or branch[::-1] in cells_b
                pairs_checked += 1
    assert pairs_checked >= 20


def test_a_failed_first_candidate_backtracks_to_a_verified_mapping(monkeypatch):
    """A 3-cycle and a 4-cycle against a 4-cycle and a 3-cycle: the root
    fixes vertex 0's cell in the 3-cycle of d1, and the first candidates
    of d2 are the cells of its 4-cycle, which refinement refutes."""
    a, b = cycles(3, 4), cycles(4, 3)
    seen = record_tuples(monkeypatch)
    result = are_isomorphic(a, b)
    assert result.status == ISOMORPHIC
    assert verify_mapping(a, b, result.mapping)
    root = [branch for on_path, (_, branch) in seen if on_path == 0]
    # cells are row node v, column node 7 + v for vertex v of b
    assert root == [(v, 7 + v) for v in range(5)]
    assert result.mapping[0] in (4, 5, 6)
    assert (result.nodes, result.depth) == (7, 2)


def test_the_one_node_fallback_is_the_one_node_search(monkeypatch):
    """With no cell partners every level individualizes one node: the
    6-cycle is still refuted against two triangles, and the fixture
    takes the counters of a one-node-per-level search (5 nodes, 8
    rounds, depth 4) with a verified mapping."""
    of_classes = _Neighborhoods.of_classes.__func__

    def no_partners(cls, d, t, nbrs):
        g = of_classes(cls, d, t, nbrs)
        g.cells = [[] for _ in g.cells]
        return g

    monkeypatch.setattr(_Neighborhoods, "of_classes", classmethod(no_partners))
    seen = record_tuples(monkeypatch)
    for a, b in ((SIX_CYCLE, TWO_TRIANGLES), (TWO_TRIANGLES, SIX_CYCLE)):
        result = are_isomorphic(a, b)
        assert (result.status, result.nodes, result.rounds, result.depth) == \
            (NOT_ISOMORPHIC, 7, 13, 1)
    d1, d2, _ = bundled_iso_fixture()
    result = are_isomorphic(d1, d2)
    assert result.status == ISOMORPHIC and verify_mapping(d1, d2, result.mapping)
    assert (result.nodes, result.rounds, result.depth) == (5, 8, 4)
    assert seen and all(len(fixed) == len(branch) == 1 for _, (fixed, branch) in seen)


# (n, rows, degree-keeping swap mutant of rows, relabelling of the mutant):
# each search reaches a discrete leaf that one more refinement round would
# refute, so verify_mapping now decides it
REFUTABLE_LEAVES = [
    (5, (4, 4, 18, 1, 4), (4, 4, 18, 4, 1), (3, 2, 4, 1, 0)),
    (6, (34, 4, 32, 2, 4, 1), (34, 1, 32, 2, 4, 4), (1, 3, 4, 2, 5, 0)),
    (7, (34, 8, 16, 0, 6, 30, 16), (34, 16, 8, 0, 6, 30, 16), (5, 6, 2, 3, 4, 1, 0)),
]


@pytest.mark.parametrize("n, rows, mutant, perm", REFUTABLE_LEAVES)
def test_a_leaf_the_skipped_round_would_refute_keeps_its_verdict(monkeypatch, n, rows,
                                                                  mutant, perm):
    """_refine stops at the round that makes the coloring discrete; the
    round after it, which the search ran before, is put back here."""
    a, b = Digraph(n, rows), apply_mapping(Digraph(n, mutant), perm)
    result = are_isomorphic(a, b)
    refuted = []

    def one_more_round(graphs, colorings, dist2):
        out, rounds = _refine(graphs, colorings, dist2)
        if out is not None and len(set(colorings[0])) < len(out[0]) == len(set(out[0])):
            out, _ = _refine(graphs, out, dist2)
            refuted.append(out is None)
            rounds += 1
        return out, rounds

    monkeypatch.setattr(iso, "_refine", one_more_round)
    before = are_isomorphic(a, b)
    assert any(refuted)
    assert result.status == before.status == reference_are_isomorphic(a, b).status
    assert result.status == NOT_ISOMORPHIC and result.mapping is None
    assert (result.nodes, result.depth) == (before.nodes, before.depth)
    assert result.rounds == before.rounds - len(refuted)


def catalog_with_uncapped_multiples(max_order):
    """Every buildable catalog_instances(max_order) graph and, where t = mu,
    each multiple with m * v <= max_order, grouped by parameter set."""
    groups = {}
    for spec, formula_only in catalog_instances(max_order):
        if formula_only:
            continue
        d, params = build_digraph(spec), expected_params(spec)
        for m in range(1, max_order // params.v + 1) if params.t == params.mu else (1,):
            groups.setdefault(params.scaled(m).tuple(), []).append(_blow_up(d, m))
    return groups


@pytest.mark.parametrize("max_order, graphs, isomorphic, not_isomorphic",
                         [(200, 304, 170, 62), (500, 766, 431, 158)])
def test_same_parameter_catalog_pairs(max_order, graphs, isomorphic, not_isomorphic):
    """Every same-parameter pair of the catalog with uncapped multiples is
    decided, each "same" with a verified mapping; at max-order 500 the
    vertex search took 162 s."""
    groups = catalog_with_uncapped_multiples(max_order)
    assert sum(map(len, groups.values())) == graphs
    seen = Counter()
    for group in groups.values():
        for a, b in combinations(group, 2):
            result = are_isomorphic(a, b)
            assert result.status in (ISOMORPHIC, NOT_ISOMORPHIC)
            if result.status == ISOMORPHIC:
                assert verify_mapping(a, b, result.mapping)
            seen[result.status] += 1
    assert (seen[ISOMORPHIC], seen[NOT_ISOMORPHIC]) == (isomorphic, not_isomorphic)


@pytest.mark.parametrize("name", ["gdd(2,3) forward vs backward", "K33 forward vs grid forward",
                                  "gdd(2,3) forward vs grid forward"])
def test_intersection_invariant_decides_before_the_search(name):
    a, b, _ = iso_pairs()[name]
    result = are_isomorphic(a, b)
    assert (result.status, result.nodes, result.rounds) == (NOT_ISOMORPHIC, 0, 0)


def test_equal_invariants_still_search():
    """The 6-cycle and two triangles share every intersection multiset."""
    assert sorted(profile(SIX_CYCLE)) == sorted(profile(TWO_TRIANGLES))
    result = are_isomorphic(SIX_CYCLE, TWO_TRIANGLES)
    assert result.status == NOT_ISOMORPHIC
    assert result.nodes > 0 and result.rounds > 0


def test_out_class_sizes_decide_before_any_other_invariant(monkeypatch):
    """A 4-cycle against a graph with two equal out-rows: same size and arc count."""
    cycle = Digraph(4, (2, 4, 8, 1))
    merged = Digraph(4, (4, 4, 8, 1))

    def unreachable(*args):
        raise AssertionError("the intersection invariant was computed")

    monkeypatch.setattr(iso, "_intersection_profile", unreachable)
    result = are_isomorphic(cycle, merged)
    assert (result.status, result.nodes, result.rounds, result.depth) == \
        (NOT_ISOMORPHIC, 0, 0, 0)


def test_in_column_class_sizes_decide_before_the_search(monkeypatch):
    """gdd(3,3) and the 3-fold multiple of ap-pencils(3,3) (n=162) agree in
    arcs, out-row class sizes {18^9} and intersection multisets; their
    in-column class sizes are {6^27} and {18^9}.  Without this check the
    search exhausts 163 nodes."""
    a = build_digraph(Gdd(3, 3))
    b = duval_multiple(build_digraph(ApPencils(3, 3)), 3)
    assert sorted(profile(a)) == sorted(profile(b))
    for d in (a, b):
        assert sorted(Counter(d.row_class).values()) == [18] * 9
    assert sorted(Counter(a.transpose().row_class).values()) == [6] * 27
    assert sorted(Counter(b.transpose().row_class).values()) == [18] * 9

    def unreachable(*args):
        raise AssertionError("the search was started")

    monkeypatch.setattr(iso, "_Search", unreachable)
    result = are_isomorphic(a, b)
    assert (result.status, result.nodes, result.rounds, result.depth) == \
        (NOT_ISOMORPHIC, 0, 0, 0)


def test_twins_collapse_into_the_cells_of_the_class_structure(monkeypatch):
    """With the class sizes made to agree, gdd(3,3) is searched against
    the 3-fold multiple of ap-pencils(3,3).  The multiple's twin classes
    of size 3 are cells of its class structure, which has 9 + 9 nodes
    against gdd(3,3)'s 9 + 27, so the root refinement refutes the pair in
    one node either way.  The vertex search exhausted 55 nodes with 108
    twins pruned, and 163 with the graphs swapped."""
    a = build_digraph(Gdd(3, 3))
    b = duval_multiple(build_digraph(ApPencils(3, 3)), 3)
    assert len(_Neighborhoods.of_classes(a, a.transpose(), out_neighbors(a)).out) == 9 + 27
    assert len(_Neighborhoods.of_classes(b, b.transpose(), out_neighbors(b)).out) == 9 + 9
    monkeypatch.setattr(iso, "_class_sizes", lambda members: [])
    result = are_isomorphic(a, b)
    assert (result.status, result.mapping) == (NOT_ISOMORPHIC, None)
    assert (result.nodes, result.rounds) == (1, 1)
    swapped = are_isomorphic(b, a)
    assert (swapped.status, swapped.nodes) == (NOT_ISOMORPHIC, 1)


def test_are_isomorphic_takes_the_bits_of_each_out_row_once(monkeypatch):
    """A relabelled gdd(2,3) pair, 6 out-row and 9 in-column classes per
    graph: each graph lists its out-rows (6) and the members of its
    out-row (6) and in-column (9) classes once, and the mapping check
    lists d1's out-rows again, so 2 * 21 + 6 calls."""
    d = build_digraph(Gdd(2, 3))
    copy, _ = shuffled_copy(d, 3)
    assert (len(d.distinct), len(d.transpose().distinct)) == (6, 9)
    calls = []
    bits = iso._bits

    def counted(mask):
        calls.append(mask)
        return bits(mask)

    monkeypatch.setattr(iso, "_bits", counted)
    assert are_isomorphic(d, copy).status == ISOMORPHIC
    assert len(calls) == 48


def test_are_isomorphic_builds_no_pruning_state(monkeypatch):
    """Every iso_pairs() pair gives the same verdict, mapping and counters
    with canonical_form's pruning search made to raise."""
    pairs = iso_pairs()

    def run():
        out = {}
        for name, (a, b, budget) in pairs.items():
            r = are_isomorphic(a, b, budget=DEFAULT_NODE_BUDGET if budget is None else budget)
            out[name] = (r.status, r.mapping, r.nodes, r.rounds, r.depth)
        return out

    before = run()

    def unreachable(*args):
        raise AssertionError("orbit pruning state was built")

    monkeypatch.setattr(iso._CanonicalSearch, "__init__", unreachable)
    monkeypatch.setattr(iso._CanonicalSearch, "branches", unreachable)
    with pytest.raises(AssertionError):
        canonical_form(SIX_CYCLE)
    assert run() == before


def test_gdd_2_5_forward_vs_backward_needs_no_node():
    result = are_isomorphic(*_fwd_bwd(build_gdd(2, 5)))
    assert (result.status, result.nodes) == (NOT_ISOMORPHIC, 0)


def test_counters_default_to_zero_and_are_reported():
    empty = IsoResult(NOT_ISOMORPHIC)
    assert (empty.nodes, empty.rounds, empty.depth) == (0, 0, 0)
    d1, d2, _ = bundled_iso_fixture()
    result = are_isomorphic(d1, d2)
    assert result.nodes > 0
    assert result.rounds >= result.nodes     # every node refines at least once
    assert 0 < result.depth < result.nodes   # one path from the root to the leaf


def test_depth_is_the_deepest_level_reached():
    """The 6-cycle and two triangles are refuted by exhausting a tree
    whose every level individualizes one more vertex cell; the budget
    stops a search at its last expanded level."""
    result = are_isomorphic(SIX_CYCLE, TWO_TRIANGLES)
    assert result.status == NOT_ISOMORPHIC and result.depth >= 1
    d1, d2, _ = bundled_iso_fixture()
    assert are_isomorphic(d1, d2, budget=1).depth == 0
    assert are_isomorphic(d1, d2, budget=2).depth == 1


# sha256 of repr([(op name, output)]) over one pass of the iso-pairs
# workload in perfbench/workloads.py, captured from the class-structure
# search: an IsoResult as (status, mapping, nodes, rounds), a
# canonical form as (string, labelling)
ISO_PAIRS_DIGESTS = {
    1: "48028c9b68b954a18b9154ee69be3cc9077f9803aea4b3126b1c3054708a7aa6",
    2: "ff94d52ed6c7873b691f7d7cd159d144143eed9ce0106536b4059254b3707ca6",
}

# (nodes, rounds, depth) of each iso-pairs are_isomorphic op,
# by name up to the relabelling number; the nodes are class-structure
# nodes (an anti-flag graph has at most one row node per point and one
# column node per block)
ISO_PAIRS_COUNTERS = {
    "bundled 36-vertex fixture": (3, 5, 2),
    "gdd l=2;q=3 relabelled": (3, 5, 2),
    "gdd l=2;q=4 relabelled": (4, 7, 3),
    "transversal q=3 relabelled": (3, 5, 2),
    "gdd l=2;q=3 forward vs backward": (0, 0, 0),
    "gdd l=2;q=4 forward vs backward": (0, 0, 0),
    "K33 forward vs grid forward": (0, 0, 0),
}


@pytest.mark.parametrize("seed", sorted(ISO_PAIRS_DIGESTS))
def test_iso_pairs_outputs_are_pinned(seed):
    outputs, counters = [], {}
    for op in workloads.make("iso-pairs", seed, json.loads(GOLDEN.read_text())):
        out = op.call()
        assert op.check(out) is None
        if isinstance(out, IsoResult):
            counters[op.name.split(" #")[0]] = (out.nodes, out.rounds, out.depth)
            out = (out.status, out.mapping, out.nodes, out.rounds)
        outputs.append((op.name, out))
    assert counters == ISO_PAIRS_COUNTERS
    assert hashlib.sha256(repr(outputs).encode()).hexdigest() == ISO_PAIRS_DIGESTS[seed]
