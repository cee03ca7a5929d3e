import time

import pytest

from dsrg import (
    DegenerateError,
    Digraph,
    FormatError,
    IncidenceStructure,
    NoAntiFlagsError,
    NonConstantError,
    NotDsrgError,
    NotPartitionStructureError,
    NotRegularError,
    PreconditionFailedError,
    TNotMuError,
    TooLargeError,
    build_affine_plane,
    build_antiflag_backward,
    build_antiflag_backward_loopy,
    build_antiflag_forward,
    build_fano,
    build_gdd,
    build_hyperplane_design,
    build_partition_spiked,
    build_partition_structure,
    duval_multiple,
    restrict_parallel_classes,
    verify_dsrg,
)
from oracles import dense, schoolbook_square


def cycle(n):
    return Digraph(n, tuple(1 << ((u + 1) % n) for u in range(n)))


# ---------------------------------------------------------------------------
# the Digraph type and its formats
# ---------------------------------------------------------------------------

def test_digraph_validation():
    with pytest.raises(ValueError):
        Digraph(2, (1, 0))             # loop at vertex 0
    with pytest.raises(ValueError):
        Digraph(2, (4, 0))             # bit out of range
    with pytest.raises(ValueError):
        Digraph(2, (0,))               # wrong row count


def test_dgr_round_trip():
    d = build_antiflag_forward(build_gdd(2, 2))
    text = d.to_dgr()
    assert text.splitlines()[0] == "8"
    back = Digraph.from_dgr(text)
    assert back.n == d.n and back.rows == d.rows
    assert back.to_dgr() == text
    assert Digraph.from_dgr(text + "\n  \n").rows == d.rows


def test_dgr_parse_errors_carry_line_numbers():
    with pytest.raises(FormatError) as err:
        Digraph.from_dgr("x\n")
    assert err.value.line == 1
    with pytest.raises(FormatError) as err:
        Digraph.from_dgr("2\n01\n0x\n")
    assert err.value.line == 3
    with pytest.raises(FormatError) as err:
        Digraph.from_dgr("3\n010\n001\n")
    assert err.value.line == 3
    with pytest.raises(FormatError) as err:
        Digraph.from_dgr("3\n010\n0_1\n100\n")   # int() would take the "_"
    assert err.value.line == 3
    with pytest.raises(FormatError) as err:
        Digraph.from_dgr("2\n01\n10\n\ngarbage\n")
    assert err.value.line == 5


def test_dgr_loop_is_rejected():
    with pytest.raises(ValueError):
        Digraph.from_dgr("2\n10\n01\n")


def test_edge_list_round_trip():
    d = cycle(3)
    text = d.to_edge_list()
    assert text == "0 1\n1 2\n2 0\n"
    assert Digraph.from_edge_list(text).rows == d.rows
    with pytest.raises(FormatError):
        Digraph.from_edge_list("0 1 2\n")
    with pytest.raises(FormatError):
        Digraph.from_edge_list("")


def test_transpose():
    d = cycle(4)
    t = d.transpose()
    assert t.edges() == [(0, 3), (1, 0), (2, 1), (3, 2)]
    assert t.transpose().rows == d.rows


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def test_forward_gdd23():
    d = build_antiflag_forward(build_gdd(2, 3))
    assert d.n == 36
    assert all(d.out_degree(u) == 12 for u in range(36))
    assert verify_dsrg(d).tuple() == (36, 12, 5, 2, 5)


def test_forward_gdd22():
    d = build_antiflag_forward(build_gdd(2, 2))
    assert verify_dsrg(d).tuple() == (8, 4, 3, 1, 3)


def test_forward_partition_outdegree():
    d = build_antiflag_forward(build_partition_structure(2, 3))
    assert all(d.out_degree(u) == 4 for u in range(d.n))  # q(l-1) = 2*2
    assert verify_dsrg(d).tuple() == (12, 4, 2, 0, 2)


def test_forward_needs_anti_flags():
    s = IncidenceStructure(3, ((0, 1, 2),))
    with pytest.raises(NoAntiFlagsError):
        build_antiflag_forward(s)


def test_backward_is_transpose_of_forward():
    for s in [build_gdd(2, 2), build_gdd(2, 3), build_fano(),
              restrict_parallel_classes(build_affine_plane(3), 2),
              build_partition_structure(2, 3)]:
        fwd = build_antiflag_forward(s)
        bwd = build_antiflag_backward(s)
        assert bwd == fwd.transpose()


def test_backward_on_fano():
    assert verify_dsrg(build_antiflag_backward(build_fano())).tuple() == (28, 12, 6, 4, 6)


def test_backward_on_gdd22():
    assert verify_dsrg(build_antiflag_backward(build_gdd(2, 2))).tuple() == (8, 4, 3, 1, 3)


def test_loopy_on_fano():
    d = build_antiflag_backward_loopy(build_fano())
    p = verify_dsrg(d)
    assert p.tuple() == (28, 15, 9, 8, 8)
    assert d.edge_count() == 28 * 15
    assert p.t != p.mu


def test_loopy_preconditions():
    with pytest.raises(PreconditionFailedError):
        build_antiflag_backward_loopy(build_gdd(2, 2))   # not a 2-design
    # all 3-subsets of 4 points: a 2-(4,4,3,3,2) design with b + lambda = 2r
    s = IncidenceStructure(4, ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)))
    with pytest.raises(PreconditionFailedError):
        build_antiflag_backward_loopy(s)


def test_partition_spiked():
    cases = {(2, 3): (12, 7, 5, 4, 4), (1, 3): (6, 3, 2, 1, 2), (3, 3): (18, 11, 8, 7, 6)}
    for (q, l), expected in cases.items():
        d = build_partition_spiked(build_partition_structure(q, l))
        assert verify_dsrg(d).tuple() == expected


def test_partition_spiked_rejects_other_structures():
    with pytest.raises(NotPartitionStructureError):
        build_partition_spiked(build_affine_plane(2))
    with pytest.raises(NotPartitionStructureError):
        build_partition_spiked(build_gdd(2, 2))


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def test_verify_complete_graph_is_degenerate():
    rows = tuple(((1 << 3) - 1) ^ (1 << u) for u in range(3))
    with pytest.raises(DegenerateError):
        verify_dsrg(Digraph(3, rows))


def test_verify_empty_graph_is_degenerate():
    with pytest.raises(DegenerateError):
        verify_dsrg(Digraph(3, (0, 0, 0)))


def test_verify_directed_3_cycle():
    assert verify_dsrg(cycle(3)).tuple() == (3, 1, 0, 0, 1)


def test_verify_directed_4_cycle_mu_not_constant():
    with pytest.raises(NonConstantError) as err:
        verify_dsrg(cycle(4))
    assert err.value.which == "mu"


def test_verify_not_regular():
    d = Digraph(3, (0b010, 0b101, 0b000))
    with pytest.raises(NotRegularError):
        verify_dsrg(d)


def test_verify_size_cap():
    with pytest.raises(TooLargeError):
        verify_dsrg(Digraph(4097, tuple([0] * 4097)))


def test_matrix_identities_on_verified_graphs():
    """A^2 = tI + lambda A + mu(J - I - A) entrywise, against schoolbook A^2."""
    for d in [build_antiflag_forward(build_gdd(2, 3)),
              build_antiflag_backward_loopy(build_fano()),
              build_partition_spiked(build_partition_structure(2, 3))]:
        p = verify_dsrg(d)
        adj = dense(d)
        sq = schoolbook_square(adj)
        assert sum(adj[u][u] for u in range(d.n)) == 0
        assert sum(sq[u][u] for u in range(d.n)) == p.v * p.t
        for u in range(d.n):
            assert sum(adj[u]) == p.k
            assert sum(adj[x][u] for x in range(d.n)) == p.k
            for w in range(d.n):
                if u == w:
                    expected = p.t
                elif adj[u][w]:
                    expected = p.lam
                else:
                    expected = p.mu
                assert sq[u][w] == expected


# ---------------------------------------------------------------------------
# the multiple construction
# ---------------------------------------------------------------------------

def test_duval_identity():
    d = build_antiflag_forward(build_gdd(2, 2))
    assert duval_multiple(d, 1) == d


def test_duval_examples():
    d8 = build_antiflag_forward(build_gdd(2, 2))
    assert verify_dsrg(duval_multiple(d8, 2)).tuple() == (16, 8, 6, 2, 6)
    d36 = build_antiflag_forward(build_gdd(2, 3))
    assert verify_dsrg(duval_multiple(d36, 3)).tuple() == (108, 36, 15, 6, 15)


def test_duval_rejects_t_not_mu():
    loopy = build_antiflag_backward_loopy(build_fano())
    with pytest.raises(TNotMuError):
        duval_multiple(loopy, 2)
    spiked = build_partition_spiked(build_partition_structure(2, 3))
    with pytest.raises(TNotMuError):
        duval_multiple(spiked, 2)


def test_duval_size_guard_raises_before_building():
    d = build_antiflag_forward(build_gdd(2, 3))
    start = time.perf_counter()
    with pytest.raises(TooLargeError):
        duval_multiple(d, 100000)          # 3.6M vertices
    assert time.perf_counter() - start < 1.0
    with pytest.raises(TooLargeError):
        duval_multiple(d, 4096 // 36 + 1)


def test_duval_rejects_non_dsrg():
    with pytest.raises(NotDsrgError):
        duval_multiple(cycle(4), 2)
    with pytest.raises(ValueError):
        duval_multiple(cycle(3), 0)


def test_hyperplane_pencil_forward():
    s = restrict_parallel_classes(build_hyperplane_design(2, 3), 3)
    assert verify_dsrg(build_antiflag_forward(s)).tuple() == (24, 12, 8, 4, 8)
