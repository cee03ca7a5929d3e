"""End-to-end acceptance suite.

One test per criterion; each builds the graphs fresh, checks exact
integer equalities (no tolerances anywhere), and prints a one-line
verdict.  The two catalog tables of small parameter sets are asserted
row by row; every expected tuple was recomputed from the closed forms,
and the degree identity k(k + mu - lambda) = t + (v-1)mu pins each one
down (see the comments at the table literals for entries that often get
miscopied).
"""

import time

import pytest

from dsrg import (
    AffineResolvable,
    Gdd,
    TNotMuError,
    Transversal,
    TwoDesignBack,
    TwoDesignBackLoopy,
    anti_flags,
    are_isomorphic,
    build_affine_plane,
    build_antiflag_backward,
    build_antiflag_backward_loopy,
    build_antiflag_forward,
    build_digraph,
    build_fano,
    build_gdd,
    build_hyperplane_design,
    build_partition_spiked,
    build_partition_structure,
    bundled_iso_fixture,
    duval_multiple,
    expected_params,
    feasibility,
    restrict_parallel_classes,
    spectrum,
    verify_dsrg,
    verify_mapping,
    verify_pg,
)
from dsrg.cli import catalog_rows
from dsrg.iso import ISOMORPHIC
from test_properties import SAMPLE, assert_agrees_with_brute_force

FANO = (7, 7, 3, 3, 1)


def report(n, text):
    print(f"criterion {n}: PASS - {text}")


def test_criterion_01_gdd_family():
    grid = [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (2, 4)]
    seen = {}
    for l, q in grid:
        spec = Gdd(l, q)
        got = verify_dsrg(build_digraph(spec))
        assert got == expected_params(spec), (l, q)
        seen[(l, q)] = got.tuple()
    assert seen[(2, 2)] == (8, 4, 3, 1, 3)
    assert seen[(3, 2)] == (24, 12, 8, 4, 8)
    # lambda here is q^(l-2)(l-1)(q-1) = 12, never 4: with t = mu = 20 the
    # degree identity forces k(k + mu - lambda) = 20 + 63*20 = 1280 = 32*40
    assert seen[(4, 2)] == (64, 32, 20, 12, 20)
    assert seen[(2, 3)] == (36, 12, 5, 2, 5)
    assert seen[(3, 3)] == (162, 54, 21, 12, 21)
    assert seen[(2, 4)] == (96, 24, 7, 3, 7)
    report(1, f"6 group-divisible instances match the closed form: {sorted(seen.values())}")


# every multiple row of the small-parameter gdd table, key (base, m)
GDD_TABLE_MULTIPLES = {
    ((8, 4, 3, 1, 3), 2): (16, 8, 6, 2, 6),
    ((8, 4, 3, 1, 3), 3): (24, 12, 9, 3, 9),
    ((8, 4, 3, 1, 3), 4): (32, 16, 12, 4, 12),
    ((8, 4, 3, 1, 3), 5): (40, 20, 15, 5, 15),
    ((8, 4, 3, 1, 3), 6): (48, 24, 18, 6, 18),
    ((8, 4, 3, 1, 3), 7): (56, 28, 21, 7, 21),
    ((8, 4, 3, 1, 3), 8): (64, 32, 24, 8, 24),
    ((8, 4, 3, 1, 3), 9): (72, 36, 27, 9, 27),
    ((8, 4, 3, 1, 3), 10): (80, 40, 30, 10, 30),
    ((8, 4, 3, 1, 3), 11): (88, 44, 33, 11, 33),
    ((8, 4, 3, 1, 3), 12): (96, 48, 36, 12, 36),
    ((8, 4, 3, 1, 3), 13): (104, 52, 39, 13, 39),
    ((36, 12, 5, 2, 5), 2): (72, 24, 10, 4, 10),
    ((36, 12, 5, 2, 5), 3): (108, 36, 15, 6, 15),
}


def test_criterion_02_duval_multiples_and_catalog_tables():
    d8 = build_antiflag_forward(build_gdd(2, 2))
    for m in range(2, 14):
        got = verify_dsrg(duval_multiple(d8, m)).tuple()
        assert got == GDD_TABLE_MULTIPLES[((8, 4, 3, 1, 3), m)], m
    d36 = build_antiflag_forward(build_gdd(2, 3))
    for m in (2, 3):
        got = verify_dsrg(duval_multiple(d36, m)).tuple()
        assert got == GDD_TABLE_MULTIPLES[((36, 12, 5, 2, 5), m)], m

    # the default catalog reproduces both reference tables of orders <= 110
    rows = {(r.params.tuple(), r.family, r.marker(), r.verified)
            for r in catalog_rows(max_order=110)}
    gdd_table = [
        ((8, 4, 3, 1, 3), "l=2;q=2"), ((16, 8, 6, 2, 6), "l=2;q=2;m=2"),
        ((24, 12, 9, 3, 9), "l=2;q=2;m=3"), ((24, 12, 8, 4, 8), "l=3;q=2"),
        ((32, 16, 12, 4, 12), "l=2;q=2;m=4"), ((36, 12, 5, 2, 5), "l=2;q=3"),
        ((40, 20, 15, 5, 15), "l=2;q=2;m=5"), ((48, 24, 16, 8, 16), "l=3;q=2;m=2"),
        ((48, 24, 18, 6, 18), "l=2;q=2;m=6"), ((56, 28, 21, 7, 21), "l=2;q=2;m=7"),
        # lambda = 12 by the closed form; 4 would break the degree identity
        ((64, 32, 20, 12, 20), "l=4;q=2"),
        ((64, 32, 24, 8, 24), "l=2;q=2;m=8"), ((72, 24, 10, 4, 10), "l=2;q=3;m=2"),
        # (72,36,24,12,24) = 3 x (24,12,8,4,8), so it sits at m=3, not m=2
        ((72, 36, 24, 12, 24), "l=3;q=2;m=3"),
        ((72, 36, 27, 9, 27), "l=2;q=2;m=9"), ((80, 40, 30, 10, 30), "l=2;q=2;m=10"),
        ((88, 44, 33, 11, 33), "l=2;q=2;m=11"), ((96, 24, 7, 3, 7), "l=2;q=4"),
        ((96, 48, 32, 16, 32), "l=3;q=2;m=4"), ((96, 48, 36, 12, 36), "l=2;q=2;m=12"),
        ((104, 52, 39, 13, 39), "l=2;q=2;m=13"), ((108, 36, 15, 6, 15), "l=2;q=3;m=3"),
    ]
    for params, marker in gdd_table:
        assert (params, "gdd", marker, True) in rows, (params, marker)
    pencil_table = [
        ((8, 4, 3, 1, 3), "q=2;l=2", True), ((12, 6, 4, 2, 4), "q=2;l=3", True),
        ((16, 8, 5, 3, 5), "q=2;l=4;formula-only", False),
        # t = mu = lq - l + 1 = 6 here; 7 would break the degree identity
        ((20, 10, 6, 4, 6), "q=2;l=5;formula-only", False),
        ((24, 12, 7, 5, 7), "q=2;l=6;formula-only", False),
        ((28, 14, 8, 6, 8), "q=2;l=7;formula-only", False),
        ((32, 16, 9, 7, 9), "q=2;l=8;formula-only", False),
        ((36, 12, 5, 2, 5), "q=3;l=2", True), ((54, 18, 7, 4, 7), "q=3;l=3", True),
        ((72, 24, 9, 6, 9), "q=3;l=4", True), ((96, 24, 7, 3, 7), "q=4;l=2", True),
    ]
    for params, marker, verified in pencil_table:
        assert (params, "ap-pencils", marker, verified) in rows, (params, marker)
    report(2, f"14 tensor multiples exact; catalog covers all "
              f"{len(gdd_table) + len(pencil_table)} reference rows")


def test_criterion_03_pencil_family():
    grid = [(2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (4, 2)]
    seen = {}
    for q, l in grid:
        structure = restrict_parallel_classes(build_affine_plane(q), l)
        assert tuple(verify_pg(structure)) == (q, l, l - 1)
        got = verify_dsrg(build_antiflag_forward(structure))
        expected = (l * q * q * (q - 1), l * q * (q - 1), l * q - l + 1,
                    (l - 1) * (q - 1), l * q - l + 1)
        assert got.tuple() == expected, (q, l)
        seen[(q, l)] = got.tuple()
    assert seen[(2, 3)] == (12, 6, 4, 2, 4)
    assert seen[(3, 3)] == (54, 18, 7, 4, 7)
    assert seen[(3, 4)] == (72, 24, 9, 6, 9)
    report(3, "6 pencil geometries verified as pg(q, l, l-1) with matching graphs")


def test_criterion_04_transversal_design():
    got = verify_dsrg(build_digraph(Transversal(3)))
    assert got.tuple() == (54, 18, 7, 4, 7)
    s = spectrum(got)
    assert (s.theta0, s.theta1, s.theta2) == (18, 0, -3)
    assert (s.m0, s.m1, s.m2) == (1, 47, 6)
    report(4, "TD(3,3) graph is (54,18,7,4,7) with spectrum 18, 0, -3 "
              "and multiplicities 1, 47, 6")


def test_criterion_05_partitioned_sets():
    count = 0
    for q in (1, 2, 3):
        for l in (3, 4):
            s = build_partition_structure(q, l)
            first = verify_dsrg(build_antiflag_forward(s))
            assert first.tuple() == (q * l * (l - 1), q * (l - 1), q, 0, q)
            spiked = verify_dsrg(build_partition_spiked(s))
            assert spiked.tuple() == (q * l * (l - 1), 2 * q * (l - 1) - 1,
                                      q * l - 1, q * l - 2, 2 * q)
            count += 2
    report(5, f"{count} partition graphs match both closed forms exactly")


def test_criterion_06_affine_resolvable():
    table = {2: (16, 8, 6, 2, 6), 3: (24, 12, 8, 4, 8), 4: (32, 16, 10, 6, 10),
             5: (40, 20, 12, 8, 12), 6: (48, 24, 14, 10, 14), 7: (56, 28, 16, 12, 16)}
    design = build_hyperplane_design(2, 3)
    m = s = 2
    for l in range(2, 8):
        structure = restrict_parallel_classes(design, l)
        got = verify_dsrg(build_antiflag_forward(structure))
        formula = (m * l * s * s * (s - 1), m * l * s * (s - 1),
                   m * (l * s - l + 1), m * (l - 1) * (s - 1), m * (l * s - l + 1))
        assert got.tuple() == formula == table[l], l
        assert got == expected_params(AffineResolvable(m, s, l))
    report(6, "hyperplane design rows (16,8,6,2,6) .. (56,28,16,12,16) all verified")


def test_criterion_07_two_design_rules():
    fano = build_fano()
    back = verify_dsrg(build_antiflag_backward(fano))
    assert back.tuple() == (28, 12, 6, 4, 6)
    assert back == expected_params(TwoDesignBack(*FANO))
    loopy_graph = build_antiflag_backward_loopy(fano)
    loopy = verify_dsrg(loopy_graph)
    assert loopy.tuple() == (28, 15, 9, 8, 8)
    assert loopy == expected_params(TwoDesignBackLoopy(*FANO))
    assert loopy.t != loopy.mu
    with pytest.raises(TNotMuError):
        duval_multiple(loopy_graph, 2)
    report(7, "7-point plane gives (28,12,6,4,6) and (28,15,9,8,8); "
              "the multiple construction refuses t != mu")


def test_criterion_08_isomorphism_fixture():
    d1, d2, perm = bundled_iso_fixture()
    assert verify_mapping(d1, d2, perm)
    start = time.monotonic()
    result = are_isomorphic(d1, d2)
    elapsed = time.monotonic() - start
    assert result.status == ISOMORPHIC
    assert verify_mapping(d1, d2, result.mapping)
    assert elapsed < 5.0
    report(8, f"36-row fixture mapping verified; independent search found its own "
              f"mapping in {elapsed:.3f}s ({result.nodes} nodes)")


def test_criterion_09_spectra_and_feasibility():
    rows = catalog_rows(max_order=110)
    checked = 0
    for row in rows:
        if not row.verified:
            continue
        p = row.params
        rep = feasibility(*p.tuple())
        assert rep.ok, row
        if p.t == p.mu:
            assert spectrum(p).theta1 == 0, row
        checked += 1
    # on the group-divisible family the negative eigenvalue is -q^(l-1) and
    # its multiplicity is k / q^(l-1); multiples scale the eigenvalue by m
    for l, q in [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (2, 4)]:
        for m in (1, 2):
            p = expected_params(Gdd(l, q, m))
            if p.v > 4096:
                continue
            s = spectrum(p)
            step = m * q ** (l - 1)
            assert s.theta2 == -step
            assert s.m2 == p.k // step
            assert s.m1 == p.v - 1 - p.k // step
    report(9, f"{checked} verified catalog rows feasible; theta1 = 0 on every "
              f"t = mu row; gdd multiplicity law m2 = k/q^(l-1) holds")


def test_criterion_10_randomized_property_suite():
    assert len(SAMPLE) == 200
    transposes = 0
    for s in SAMPLE:
        assert_agrees_with_brute_force(s)
        if anti_flags(s):
            assert build_antiflag_backward(s) == build_antiflag_forward(s).transpose()
            transposes += 1
    report(10, f"200 randomized structures agree with the brute-force axioms; "
               f"transpose relation held on {transposes} of them")
