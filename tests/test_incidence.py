import hashlib
import json
import time
from itertools import combinations
from pathlib import Path

import pytest

from dsrg import (
    BadClassCountError,
    FormatError,
    IncidenceStructure,
    NoParallelClassesError,
    NotGroupDivisibleError,
    NotPartialGeometryError,
    NotPrimePowerError,
    NotTwoDesignError,
    OutOfBudgetError,
    TooLargeError,
    anti_flags,
    build_affine_plane,
    build_fano,
    build_gdd,
    build_hyperplane_design,
    build_partition_structure,
    from_json,
    restrict_parallel_classes,
    to_json,
    verify_2design,
    verify_gdd,
    verify_pg,
)
from dsrg import incidence
from dsrg.incidence import DesignParams


# ---------------------------------------------------------------------------
# structure validation
# ---------------------------------------------------------------------------

def test_rejects_bad_blocks():
    with pytest.raises(ValueError):
        IncidenceStructure(3, ((0, 1), (0, 1)))       # duplicate
    with pytest.raises(ValueError):
        IncidenceStructure(3, ((1, 0),))              # not increasing
    with pytest.raises(ValueError):
        IncidenceStructure(3, ((0, 3),))              # out of range
    with pytest.raises(ValueError):
        IncidenceStructure(3, ((),))                  # empty block


def test_outside_is_reported_before_a_descent():
    with pytest.raises(ValueError, match=r"^block 1 has a point outside 0\.\.2$"):
        IncidenceStructure(3, ((0, 1), (2, 5, 1)))


def test_descent_message():
    with pytest.raises(ValueError, match=r"^block 1 is not strictly increasing$"):
        IncidenceStructure(3, ((0, 2), (2, 1)))
    with pytest.raises(ValueError, match=r"^block 0 is not strictly increasing$"):
        IncidenceStructure(3, ((1, 1),))


def test_duplicate_message():
    with pytest.raises(ValueError, match=r"^duplicate block \(0, 2\)$"):
        IncidenceStructure(3, ((0, 2), (1,), (0, 2)))


def test_empty_message():
    with pytest.raises(ValueError, match=r"^block 1 is empty$"):
        IncidenceStructure(3, ((0,), ()))


def test_a_point_that_is_not_an_int_is_refused_before_the_range_test():
    """Without parallel classes every block meets the type test; a bool
    passes it, as isinstance counts it an int."""
    with pytest.raises(TypeError) as info:
        IncidenceStructure(3, ((0, 1.0), (1, 2)))
    assert str(info.value) == "block 0 holds 1.0, which is not an int"
    with pytest.raises(TypeError) as info:
        IncidenceStructure(3, ((0, 1), (0.5, 5)))
    assert str(info.value) == "block 1 holds 0.5, which is not an int"
    with pytest.raises(ValueError, match=r"^block 0 has a point outside 0\.\.2$"):
        IncidenceStructure(3, ((0, 5), (0.5, 1)))
    assert IncidenceStructure(3, ((False, True), (1, 2))).blocks == ((0, 1), (1, 2))


def test_rejects_bad_groups_and_classes():
    with pytest.raises(ValueError):
        IncidenceStructure(4, ((0, 1),), groups=((0, 1), (2,)))
    with pytest.raises(ValueError):
        IncidenceStructure(4, ((0, 1), (2, 3)), parallel_classes=((0,),))
    with pytest.raises(ValueError):
        # class whose blocks overlap
        IncidenceStructure(4, ((0, 1), (1, 2), (0, 2, 3)),
                           parallel_classes=((0, 1), (2,)))


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def test_gdd_2_3_layout():
    s = build_gdd(2, 3)
    assert s.num_points == 6
    assert s.groups == ((0, 1, 2), (3, 4, 5))
    assert s.blocks == tuple((i, 3 + j) for i in range(3) for j in range(3))


def test_gdd_2_2_is_k22_vertex_edge():
    s = build_gdd(2, 2)
    assert s.num_points == 4
    assert s.blocks == ((0, 2), (0, 3), (1, 2), (1, 3))


def test_gdd_3_2_counts():
    s = build_gdd(3, 2)
    assert s.num_points == 6
    assert len(s.blocks) == 8
    assert all(len(b) == 3 for b in s.blocks)


def test_gdd_budget_guard(monkeypatch):
    with pytest.raises(OutOfBudgetError):
        build_gdd(2, 100000)
    monkeypatch.setattr(incidence, "DEFAULT_BLOCK_BUDGET", 100)
    with pytest.raises(OutOfBudgetError):
        build_gdd(3, 7)


@pytest.mark.parametrize("build,args,message", [
    (build_gdd, (1, 3), "need at least 2 groups, got 1"),
    (build_gdd, (2, 1), "need group size at least 2, got 1"),
    (build_partition_structure, (0, 2), "need block size at least 1, got 0"),
    (build_partition_structure, (2, 1), "need at least 2 blocks, got 1"),
], ids=["gdd-l", "gdd-q", "partition-q", "partition-l"])
def test_builders_refuse_too_few_groups_or_points(build, args, message):
    with pytest.raises(ValueError) as info:
        build(*args)
    assert type(info.value) is ValueError and str(info.value) == message


@pytest.mark.parametrize("q,l", [(2, 2), (2, 3), (3, 3), (2, 4)])
def test_gdd_budget_is_exact(q, l, monkeypatch):
    monkeypatch.setattr(incidence, "DEFAULT_BLOCK_BUDGET", q ** l)
    assert len(build_gdd(l, q).blocks) == q ** l
    monkeypatch.setattr(incidence, "DEFAULT_BLOCK_BUDGET", q ** l - 1)
    with pytest.raises(OutOfBudgetError, match=f"^{q}\\^{l} blocks exceed budget {q ** l - 1}$"):
        build_gdd(l, q)


@pytest.mark.parametrize("q,n", [(2, 3), (3, 2), (2, 4)])
def test_hyperplane_point_budget_is_exact(q, n, monkeypatch):
    monkeypatch.setattr(incidence, "MAX_HYPERPLANE_POINTS", q ** n)
    assert build_hyperplane_design(q, n).num_points == q ** n
    monkeypatch.setattr(incidence, "MAX_HYPERPLANE_POINTS", q ** n - 1)
    with pytest.raises(OutOfBudgetError, match=f"^{q}\\^{n} points exceed budget {q ** n - 1}$"):
        build_hyperplane_design(q, n)


@pytest.mark.parametrize("build,args,message", [
    (build_hyperplane_design, (3, 10 ** 7), "3^10000000 points exceed budget 100000"),
    (build_gdd, (10 ** 7, 3), "3^10000000 blocks exceed budget 1000000"),
], ids=["hyperplane", "gdd"])
def test_huge_exponent_is_refused_before_the_power(build, args, message):
    start = time.perf_counter()
    with pytest.raises(OutOfBudgetError) as info:
        build(*args)
    assert time.perf_counter() - start < 1
    assert str(info.value) == message


def test_affine_plane_3():
    s = build_affine_plane(3)
    assert s.num_points == 9
    assert len(s.blocks) == 12
    assert s.parallel_classes is not None and len(s.parallel_classes) == 4
    assert all(len(c) == 3 for c in s.parallel_classes)


def test_affine_plane_2_every_pair_is_a_line():
    s = build_affine_plane(2)
    assert s.num_points == 4 and len(s.blocks) == 6
    assert len(s.parallel_classes) == 3
    assert set(s.blocks) == set(combinations(range(4), 2))


def test_affine_plane_4_two_points_one_line():
    s = build_affine_plane(4)
    for p1, p2 in combinations(range(16), 2):
        common = [b for b in s.blocks if p1 in b and p2 in b]
        assert len(common) == 1


def test_affine_plane_rejects_non_prime_power():
    with pytest.raises(NotPrimePowerError):
        build_affine_plane(6)


@pytest.mark.parametrize("q", [65, 81])
def test_affine_plane_size_cap_is_checked_first(q):
    # 81 is a prime power and 65 is not: both are over the cap of 64
    with pytest.raises(TooLargeError):
        build_affine_plane(q)


def test_hyperplane_2_3():
    s = build_hyperplane_design(2, 3)
    assert s.num_points == 8
    assert len(s.blocks) == 14
    assert len(s.parallel_classes) == 7
    sets = s.block_sets()
    class_of = {i: ci for ci, c in enumerate(s.parallel_classes) for i in c}
    for i in range(14):
        for j in range(i + 1, 14):
            expected = 0 if class_of[i] == class_of[j] else 2
            assert len(sets[i] & sets[j]) == expected


@pytest.mark.parametrize("q", [2, 3, 4])
def test_hyperplane_n2_matches_affine_plane(q):
    hp = build_hyperplane_design(q, 2)
    ap = build_affine_plane(q)
    assert hp.num_points == ap.num_points
    assert set(hp.blocks) == set(ap.blocks)


@pytest.mark.parametrize("q,n", [(2, 3), (3, 2), (2, 4), (3, 3), (5, 2)])
def test_hyperplane_design_is_affine_resolvable(q, n):
    s = build_hyperplane_design(q, n)
    assert len(s.parallel_classes) == (q ** n - 1) // (q - 1)
    d = verify_2design(s)
    assert d.s == q
    assert d.m_int == q ** (n - 2)


STRUCTURE_GOLDENS = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "golden.json").read_text())["structures"]


@pytest.mark.parametrize("key", sorted(STRUCTURE_GOLDENS))
def test_structure_matches_bench_golden(key):
    # keys are plane-q and hyperplane-q-n, the full sizes the benchmark builds
    kind, *args = key.split("-")
    s = build_affine_plane(*map(int, args)) if kind == "plane" \
        else build_hyperplane_design(*map(int, args))
    assert hashlib.sha256(to_json(s).encode()).hexdigest() == STRUCTURE_GOLDENS[key]


def test_hyperplane_budget():
    with pytest.raises(OutOfBudgetError):
        build_hyperplane_design(10, 6)


@pytest.fixture
def no_field(monkeypatch):
    def refuse(q):
        raise AssertionError(f"make_field({q}) reached")
    monkeypatch.setattr(incidence, "make_field", refuse)


@pytest.mark.parametrize("q,n,incidences", [(16, 4, 286_326_784), (2, 16, 4_294_901_760)])
def test_hyperplane_incidence_budget_comes_before_the_field(no_field, q, n, incidences):
    # both are inside the point budget of 10**5
    with pytest.raises(OutOfBudgetError, match=f"have {incidences} point-block incidences"):
        build_hyperplane_design(q, n)


@pytest.mark.parametrize("q,n", [(8, 4), (16, 3), (7, 4), (4, 5)])
def test_bench_hyperplane_designs_pass_the_incidence_budget(no_field, q, n):
    with pytest.raises(AssertionError, match="make_field"):
        build_hyperplane_design(q, n)


def test_restrict_parallel_classes():
    ap = build_affine_plane(3)
    s = restrict_parallel_classes(ap, 2)
    assert s.num_points == 9 and len(s.blocks) == 6
    assert restrict_parallel_classes(ap, 4) == ap
    hp = build_hyperplane_design(2, 3)
    assert restrict_parallel_classes(hp, 7) == hp
    s2 = restrict_parallel_classes(hp, 2)
    assert s2.num_points == 8 and len(s2.blocks) == 4


def test_restrict_errors():
    with pytest.raises(NoParallelClassesError):
        restrict_parallel_classes(build_gdd(2, 2), 1)
    ap = build_affine_plane(3)
    with pytest.raises(BadClassCountError):
        restrict_parallel_classes(ap, 0)
    with pytest.raises(BadClassCountError):
        restrict_parallel_classes(ap, 5)


def test_partition_structures():
    s = build_partition_structure(2, 3)
    assert s.num_points == 6
    assert s.blocks == ((0, 1), (2, 3), (4, 5))
    assert s.groups == s.blocks
    assert s.parallel_classes == ((0, 1, 2),)
    singles = build_partition_structure(1, 4)
    assert singles.num_points == 4 and len(singles.blocks) == 4
    assert build_partition_structure(3, 3).num_points == 9


def test_partition_point_budget_is_checked_before_any_block():
    start = time.perf_counter()
    with pytest.raises(OutOfBudgetError) as info:
        build_partition_structure(10 ** 9, 3)
    assert time.perf_counter() - start < 1
    assert str(info.value) == "1000000000*3 points exceed budget 1000000"
    with pytest.raises(OutOfBudgetError):
        build_partition_structure(500001, 2)


def test_fano():
    s = build_fano()
    assert s.blocks[0] == (0, 1, 3)
    d = verify_2design(s)
    assert (d.v_pts, d.b_blocks, d.k_blocksize, d.r_replication, d.lambda_pair) \
        == (7, 7, 3, 3, 1)
    assert d.b_blocks + d.lambda_pair > 2 * d.r_replication
    assert d.s is None and d.m_int is None


# ---------------------------------------------------------------------------
# verifiers
# ---------------------------------------------------------------------------

def test_verify_pg_on_pencil_restrictions():
    ap = build_affine_plane(3)
    assert verify_pg(restrict_parallel_classes(ap, 2)) == (3, 2, 1)
    assert verify_pg(restrict_parallel_classes(ap, 3)) == (3, 3, 2)
    assert verify_pg(restrict_parallel_classes(ap, 4)) == (3, 4, 3)


def test_verify_pg_rejects_partition():
    with pytest.raises(NotPartialGeometryError) as err:
        verify_pg(build_partition_structure(2, 3))
    assert err.value.axiom == 1  # every point lies on a single block


def test_verify_pg_rejects_two_points_on_two_lines():
    # all 3-subsets of 4 points: constant size and degree, but {0,1} lies on 2 lines
    s = IncidenceStructure(4, ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)))
    with pytest.raises(NotPartialGeometryError) as err:
        verify_pg(s)
    assert err.value.axiom == 2


def test_verify_gdd():
    assert verify_gdd(build_gdd(2, 3)) == (2, 3, 1)
    assert verify_gdd(build_gdd(3, 2)) == (3, 2, 2)
    assert verify_gdd(build_gdd(4, 2)) == (4, 2, 4)
    with pytest.raises(NotGroupDivisibleError):
        verify_gdd(build_partition_structure(2, 3))
    with pytest.raises(NotGroupDivisibleError):
        verify_gdd(build_fano())  # no groups at all


@pytest.mark.parametrize("l", [2, 3, 4])
@pytest.mark.parametrize("q", [2, 3])
def test_gdd_always_verifies_with_power_pair_index(l, q):
    assert verify_gdd(build_gdd(l, q)) == (l, q, q ** (l - 2))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_every_pencil_restriction_is_a_partial_geometry(q):
    ap = build_affine_plane(q)
    for l in range(2, q + 2):
        assert verify_pg(restrict_parallel_classes(ap, l)) == (q, l, l - 1)


def test_verify_2design():
    d = verify_2design(build_affine_plane(3))
    assert (d.v_pts, d.b_blocks, d.k_blocksize, d.r_replication, d.lambda_pair) \
        == (9, 12, 3, 4, 1)
    assert (d.s, d.m_int) == (3, 1)
    d = verify_2design(build_hyperplane_design(2, 3))
    assert (d.v_pts, d.b_blocks, d.k_blocksize, d.r_replication, d.lambda_pair) \
        == (8, 14, 4, 7, 3)
    assert (d.s, d.m_int) == (2, 2)
    with pytest.raises(NotTwoDesignError):
        verify_2design(build_gdd(2, 2))  # same-group pairs uncovered


@pytest.mark.parametrize("verify,s,error,message", [
    (verify_pg, IncidenceStructure(3, ()), NotPartialGeometryError,
     "axiom 1 fails: no lines (witness None)"),
    (verify_2design, IncidenceStructure(1, ((0,),)), NotTwoDesignError,
     "need at least 2 points (witness None)"),
    (verify_2design, IncidenceStructure(3, ()), NotTwoDesignError, "no blocks (witness None)"),
    (verify_gdd, IncidenceStructure(2, ((0,), (1,)), groups=((0, 1),)), NotGroupDivisibleError,
     "no cross-group pair exists (witness None)"),
], ids=["pg-no-lines", "2design-one-point", "2design-no-blocks", "gdd-one-group"])
def test_verifiers_refuse_degenerate_structures(verify, s, error, message):
    with pytest.raises(error) as err:
        verify(s)
    assert str(err.value) == message


def test_design_params_check_the_block_count_and_affine_identities():
    assert DesignParams(9, 12, 3, 4, 1, s=3, m_int=1).m_int == 1
    with pytest.raises(ValueError, match=r"^block-count identity fails for 2-\(9,11,3,4,1\)$"):
        DesignParams(9, 11, 3, 4, 1)
    with pytest.raises(ValueError, match=r"^affine identities fail: v=9, k=3, s=3, m=2$"):
        DesignParams(9, 12, 3, 4, 1, s=3, m_int=2)


def test_anti_flags():
    assert len(anti_flags(build_gdd(2, 2))) == 8
    assert len(anti_flags(build_affine_plane(2))) == 12
    all_points = IncidenceStructure(3, ((0, 1, 2),))
    assert anti_flags(all_points) == []
    s = build_gdd(2, 3)
    flags = anti_flags(s)
    assert flags == sorted(flags)
    assert len(flags) == sum(s.num_points - len(b) for b in s.blocks)


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("s", [
    build_gdd(2, 3),
    build_affine_plane(3),
    build_hyperplane_design(2, 3),
    build_partition_structure(2, 3),
    build_fano(),
])
def test_json_round_trip(s):
    text = to_json(s)
    assert from_json(text) == s
    assert to_json(from_json(text)) == text


def test_json_key_presence():
    text = to_json(build_fano())
    assert '"groups"' not in text and '"parallel_classes"' not in text
    text = to_json(build_gdd(2, 2))
    assert '"groups"' in text and '"parallel_classes"' not in text


def test_json_errors():
    with pytest.raises(FormatError):
        from_json("not json at all {")
    with pytest.raises(FormatError):
        from_json('{"points": 3}')
    with pytest.raises(FormatError):
        from_json('{"points": 3, "blocks": [[0, 0]]}')


def test_json_refuses_a_block_that_is_not_a_list():
    with pytest.raises(FormatError) as info:
        from_json('{"points": 3, "blocks": [1, 2]}')
    assert (info.value.line, str(info.value)) == (1, "line 1: 'int' object is not iterable")


@pytest.mark.parametrize("doc,message", [
    ('{"points": 3, "blocks": [[0, 1], [0.5, 2]]}', "block 1 holds 0.5, which is not an int"),
    ('{"points": 3, "blocks": [[NaN, 1], [0, 2]]}', "block 0 holds nan, which is not an int"),
    ('{"points": 3, "blocks": [[0, 1], [0, 2.0]]}', "block 1 holds 2.0, which is not an int"),
    ('{"points": 3, "blocks": [[0, true]]}', "block 0 holds True, which is not an int"),
    ('{"points": 3, "blocks": [["1", 2]]}', "block 0 holds '1', which is not an int"),
    ('{"points": 3, "blocks": [[0, 1]], "groups": [[0, 1], [false]]}',
     "group 1 holds False, which is not an int"),
    ('{"points": 2, "blocks": [[0], [1]], "parallel_classes": [[0, 1.0]]}',
     "parallel class 0 holds 1.0, which is not an int"),
    ('{"points": 3.0, "blocks": [[0, 1]]}', "'points' is 3.0, which is not an int"),
    ('{"points": true, "blocks": [[0]]}', "'points' is True, which is not an int"),
])
def test_json_refuses_a_point_that_is_not_an_int(doc, message, monkeypatch):
    """Refused before the structure is built: IncidenceStructure is replaced
    by a stub that fails.  Validation alone would refuse 0.5 and 2.0 with
    a TypeError, but reads True as the point 1."""
    def refuse(*args, **kwargs):
        raise AssertionError("structure built")
    monkeypatch.setattr(incidence, "IncidenceStructure", refuse)
    with pytest.raises(FormatError) as info:
        from_json(doc)
    assert str(info.value) == f"line 1: {message}"


def test_json_round_trips_a_classed_structure_above_256_points():
    """from_json reads each point as its own int object, unlike the builder's
    shared points; the copy is equal and writes the same bytes."""
    s = build_affine_plane(17)
    text = to_json(s)
    back = from_json(text)
    assert back == s and to_json(back) == text
    assert len({id(p) for b in back.blocks for p in b if p > 256}) > s.num_points
