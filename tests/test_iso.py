import hashlib
import json
import random
from pathlib import Path

import pytest

from dsrg import (
    BUDGET_EXCEEDED,
    DEFAULT_NODE_BUDGET,
    Digraph,
    IsoResult,
    ISOMORPHIC,
    NOT_ISOMORPHIC,
    SizeMismatchError,
    apply_mapping,
    are_isomorphic,
    build_antiflag_backward,
    build_antiflag_forward,
    build_digraph,
    build_gdd,
    bundled_iso_fixture,
    canonical_form,
    grid_two_pencil_structure,
    k33_edge_structure,
    verify_dsrg,
    verify_mapping,
)
from dsrg import iso
from dsrg.families import ApPencils, Gdd, Partition, PartitionSpiked
from dsrg.iso import _Neighborhoods, _refine

import oracles
from oracles import reference_are_isomorphic, reference_canonical_form

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"

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
                if d.has_edge(u, w) and not d.has_edge(w, u))
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
                and all(d.has_edge(r, u) == d.has_edge(r, w) for r in first.values()))
    perm = list(range(d.n))
    perm[u], perm[w] = w, u
    assert all(sum(1 << perm[v] for v in range(d.n) if d.has_edge(r, v)) == d.rows[perm[r]]
               for r in first.values())
    assert not verify_mapping(d, d, perm)
    # apply_mapping by its definition: u -> v is an edge iff perm[u] -> perm[v] is
    image = apply_mapping(d, perm)
    assert all(image.has_edge(perm[a], perm[b]) == d.has_edge(a, b)
               for a in range(d.n) for b in range(d.n))


def test_size_mismatch_and_bad_permutation():
    d1 = build_antiflag_forward(build_gdd(2, 2))
    d2 = build_antiflag_forward(build_gdd(2, 3))
    with pytest.raises(SizeMismatchError):
        verify_mapping(d1, d2, list(range(d1.n)))
    with pytest.raises(ValueError):
        verify_mapping(d1, d1, [0] * d1.n)


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
            out_counts = {sum(1 for w in g.out[v] if colors[w] == c2) for v in members}
            in_counts = {sum(1 for w in g.inn[v] if colors[w] == c2) for v in members}
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
        flat = "".join("1" if relabeled.has_edge(u, v) else "0"
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


def in_star(n):
    """Every vertex points at 0, and 0 at 1: out-degree 1, in-degree n - 1 at 0."""
    return Digraph(n, (2,) + (1,) * (n - 1))


REFINED = {
    "gdd(2,4)": lambda: build_digraph(Gdd(2, 4)),
    "partition-spiked(2,4)": lambda: build_digraph(PartitionSpiked(2, 4)),
    "in-star(300)": lambda: in_star(300),
}


@pytest.mark.parametrize("name", REFINED)
def test_refinement_numbers_colors_like_the_reference(name):
    """Histogram signatures give the colors of the reference's sorted tuples.

    gdd(2,4) has out-degree 24, so a 2-walk count (up to 576) needs
    2-byte histogram fields; the in-star counts up to 299 in-neighbors
    of one color with out-degree 1.  Pairs are refined jointly.
    """
    d = REFINED[name]()
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


def test_pruning_uses_only_automorphisms_that_fix_the_path():
    rotate_both = (1, 2, 0, 4, 5, 3)        # automorphisms of TWO_TRIANGLES
    rotate_second = (0, 1, 2, 4, 5, 3)
    autos = [rotate_both, rotate_second]
    assert all(verify_mapping(TWO_TRIANGLES, TWO_TRIANGLES, a) for a in autos)
    assert iso._orbits(6, autos, ()) == [0, 0, 0, 3, 3, 3]
    assert iso._orbits(6, autos, (0,)) == [0, 1, 2, 3, 3, 3]
    assert iso._orbits(6, autos, (0, 3)) == [0, 1, 2, 3, 4, 5]


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


@pytest.mark.parametrize("name", ["gdd(2,3) forward vs backward", "K33 forward vs grid forward",
                                  "gdd(2,3) forward vs grid forward"])
def test_intersection_invariant_decides_before_the_search(name):
    a, b, _ = iso_pairs()[name]
    result = are_isomorphic(a, b)
    assert (result.status, result.nodes, result.rounds) == (NOT_ISOMORPHIC, 0, 0)


def test_equal_invariants_still_search():
    """The 6-cycle and two triangles share every intersection multiset."""
    assert sorted(iso._intersection_profile(SIX_CYCLE)) == \
        sorted(iso._intersection_profile(TWO_TRIANGLES))
    result = are_isomorphic(SIX_CYCLE, TWO_TRIANGLES)
    assert result.status == NOT_ISOMORPHIC
    assert result.nodes > 0 and result.rounds > 0


def test_gdd_2_5_forward_vs_backward_needs_no_node():
    result = are_isomorphic(*_fwd_bwd(build_gdd(2, 5)))
    assert (result.status, result.nodes) == (NOT_ISOMORPHIC, 0)


def test_counters_default_to_zero_and_are_reported():
    assert (IsoResult(NOT_ISOMORPHIC).pruned, IsoResult(NOT_ISOMORPHIC).rounds) == (0, 0)
    d1, d2, _ = bundled_iso_fixture()
    result = are_isomorphic(d1, d2)
    assert result.nodes > 0
    assert result.rounds >= result.nodes     # every node refines at least once
    assert result.pruned == 0                # only canonical_form prunes
