from itertools import product

import pytest

from dsrg import (Digraph, DsrgError, DsrgParams, FeasibilityCheck, NotFeasibleError, Spectrum,
                  TooLargeError, build_digraph, expected_params, feasibility, spectrum,
                  verify_dsrg)
from dsrg.params import MAX_ENTRY
from dsrg.families import Gdd, catalog_instances
from oracles import small_digraphs

# the integer_spectrum detail of a tuple accepted without an integer spectrum
CONJUGATE = "conjugate eigenvalues, 2k = v-1, lambda = mu-1, t = k(k+1-2mu)"


def test_valid_tuples_construct():
    for tup in [(36, 12, 5, 2, 5), (8, 4, 3, 1, 3), (28, 15, 9, 8, 8),
                (3, 1, 0, 0, 1), (12, 7, 5, 4, 4)]:
        assert DsrgParams(*tup).tuple() == tup


def test_invalid_tuples_rejected():
    with pytest.raises(ValueError):
        DsrgParams(10, 4, 3, 1, 2)     # degree identity fails
    with pytest.raises(ValueError):
        DsrgParams(8, 4, 5, 1, 3)      # t > k
    with pytest.raises(ValueError):
        DsrgParams(8, 4, 3, 4, 3)      # lambda >= k
    with pytest.raises(ValueError):
        DsrgParams(4, 4, 3, 1, 3)      # k = v
    with pytest.raises(ValueError):
        DsrgParams(8, 4, 3, -1, 3)


def test_entries_that_are_not_ints_are_refused():
    """No float reaches the arithmetic: the first entry that is not an int
    (a float or a bool) is named."""
    with pytest.raises(TypeError, match=r"^v = 36\.0 is not an int$"):
        DsrgParams(36.0, 12, 5, 2, 5)
    with pytest.raises(TypeError, match=r"^mu = True is not an int$"):
        DsrgParams(3, 1, 0, 0, True)
    with pytest.raises(TypeError, match=r"^lambda = 2\.0 is not an int$"):
        feasibility(36, 12, 5, 2.0, 5)
    with pytest.raises(TypeError, match=r"^k = '12' is not an int$"):
        feasibility(36, "12", 5, 2, 5)


def test_feasibility_refuses_entries_at_the_bound():
    """Below MAX_ENTRY a report comes back, however its checks go; at or
    above it, TooLargeError names the entry's bit length."""
    for tup in [(MAX_ENTRY - 1, 3, 1, 0, 0), (10, 3, 1, 0, 1 - MAX_ENTRY),
                (MAX_ENTRY - 1,) * 5, (36, 12, 5, 2, 5)]:
        assert feasibility(*tup).params == tup
    assert not feasibility(MAX_ENTRY - 1, 3, 1, 0, 0).ok
    for tup, name, bits in [((MAX_ENTRY, 3, 1, 0, 0), "v", 3322),
                            ((10 ** 5000, 3, 1, 0, 0), "v", 16610),
                            ((10, 3, 1, 0, -MAX_ENTRY), "mu", 3322),
                            ((10 ** 2200,) * 5, "v", 7309)]:
        with pytest.raises(TooLargeError, match=rf"^{name} has {bits} bits; "):
            feasibility(*tup)


def test_an_int_too_long_for_str_is_written_by_its_bit_length():
    """The identity details and str() name such an int by its bit length;
    feasibility, whose entries stay below MAX_ENTRY, writes every digit."""
    big = 10 ** 2200
    with pytest.raises(ValueError) as err:
        DsrgParams(2 * big + 1, big, 0, big - 1, big)
    assert str(err.value) == ("degree_identity fails: "
                              "k(k+mu-lambda)=<14617-bit int> vs t+(v-1)mu=<14618-bit int>")
    with pytest.raises(ValueError) as err:
        DsrgParams(-(10 ** 5000), 3, 1, 0, 0)
    assert str(err.value) == "nonnegative fails: entries (-<16610-bit int>, 3, 1, 0, 0)"
    assert str(expected_params(Gdd(10000, 3))) == (
        "(<15864-bit int>, <15863-bit int>, <15861-bit int>, <15861-bit int>, <15861-bit int>)")
    # a conference-graph tuple: delta^2 = 2k + 1 is no square
    k = 10 ** 4400
    with pytest.raises(NotFeasibleError, match=r"^delta\^2=<14618-bit int>$"):
        spectrum(DsrgParams(2 * k + 1, k, k, k // 2 - 1, k // 2))
    x = MAX_ENTRY - 1
    assert FeasibilityCheck("degree_bounds", False, f"need 0 <= t={x} <= k={x} < v={x}") \
        in feasibility(x, x, x, x, x).checks


def test_scaled():
    assert DsrgParams(8, 4, 3, 1, 3).scaled(2).tuple() == (16, 8, 6, 2, 6)
    assert DsrgParams(36, 12, 5, 2, 5).scaled(3).tuple() == (108, 36, 15, 6, 15)


def test_spectrum_36():
    s = spectrum(DsrgParams(36, 12, 5, 2, 5))
    assert (s.theta0, s.theta1, s.theta2) == (12, 0, -3)
    assert (s.m0, s.m1, s.m2) == (1, 31, 4)
    assert s.delta == 3


def test_spectrum_54():
    s = spectrum(DsrgParams(54, 18, 7, 4, 7))
    assert (s.theta0, s.theta1, s.theta2) == (18, 0, -3)
    assert (s.m0, s.m1, s.m2) == (1, 47, 6)


def test_spectrum_8():
    s = spectrum(DsrgParams(8, 4, 3, 1, 3))
    assert (s.theta0, s.theta1, s.theta2) == (4, 0, -2)
    assert (s.m0, s.m1, s.m2) == (1, 5, 2)


def test_spectrum_28_15():
    # t != mu here, so theta1 is nonzero
    s = spectrum(DsrgParams(28, 15, 9, 8, 8))
    assert (s.theta1, s.theta2) == (1, -1)
    assert s.theta0 + s.theta1 * s.m1 + s.theta2 * s.m2 == 0


def test_spectrum_trace_identity_holds_everywhere():
    for tup in [(36, 12, 5, 2, 5), (54, 18, 7, 4, 7), (64, 32, 20, 12, 20),
                (28, 12, 6, 4, 6), (12, 7, 5, 4, 4), (18, 11, 8, 7, 6)]:
        p = DsrgParams(*tup)
        s = spectrum(p)
        assert s.m0 + s.m1 + s.m2 == p.v
        assert s.theta0 + s.theta1 * s.m1 + s.theta2 * s.m2 == 0


def test_spectrum_invariants_enforced():
    with pytest.raises(ValueError):
        Spectrum(4, 0, -2, 2, m0=2, m1=4, m2=2)     # m0 must be 1
    with pytest.raises(ValueError):
        Spectrum(4, -2, 0, 2, m0=1, m1=5, m2=2)     # theta1 <= theta2
    with pytest.raises(ValueError):
        Spectrum(4, 1, -2, 3, m0=1, m1=5, m2=2)     # trace != 0
    for delta in (0, -3):
        with pytest.raises(ValueError) as info:
            Spectrum(4, 1, -2, delta, m0=1, m1=4, m2=4)
        assert type(info.value) is ValueError and str(info.value) == "delta must be positive"


def test_infeasible_delta():
    report = feasibility(10, 4, 3, 1, 2)
    assert not report.ok
    bad = report.first_failure()
    assert bad.name == "integer_spectrum"
    assert "delta_not_integer" in bad.detail and "delta^2=5" in bad.detail


def test_spectrum_raises_on_valid_but_infeasible_tuple():
    # passes every degree invariant, yet delta^2 = 5 is not a square:
    # the 5-cycle, t = k, has no integer spectrum
    p = DsrgParams(5, 2, 2, 0, 1)
    with pytest.raises(NotFeasibleError) as err:
        spectrum(p)
    assert err.value.reason == "delta_not_integer"


def test_feasibility_passing():
    report = feasibility(36, 12, 5, 2, 5)
    assert report.ok
    assert report.spectrum is not None
    assert (report.spectrum.theta1, report.spectrum.theta2) == (0, -3)
    report = feasibility(8, 4, 3, 1, 3)
    assert report.ok
    assert (report.spectrum.m0, report.spectrum.m1, report.spectrum.m2) == (1, 5, 2)


def test_feasibility_reports_identity_failures():
    report = feasibility(36, 12, 5, 3, 5)  # integer spectrum exists, identity fails
    assert report.spectrum is not None
    assert not report.ok
    names = {c.name for c in report.checks if not c.passed}
    # the complement's degree identity fails by the same difference
    assert names == {"degree_identity", "complement"}


def test_feasibility_negative_discriminant():
    # the directed 3-cycle, t = 0: a doubly regular tournament whose
    # eigenvalues other than k are a non-real conjugate pair
    report = feasibility(3, 1, 0, 0, 1)
    assert report.ok and report.spectrum is None
    assert report.checks[0].detail == f"{CONJUGATE}: delta_not_positive: delta^2=-3"
    # t = 0 alone is not enough: no digraph has these parameters
    report = feasibility(4, 2, 0, 1, 2)
    assert [c.name for c in report.checks if not c.passed] == ["integer_spectrum", "complement"]
    assert report.first_failure().detail == "delta_not_positive: delta^2=-7"
    # 0 < t < k: every identity holds, but delta^2 < 0 refutes the tuple
    report = feasibility(5, 3, 1, 2, 2)
    bad = [c for c in report.checks if not c.passed]
    assert [c.name for c in bad] == ["integer_spectrum", "complement", "duval_bounds"]
    assert bad[0].detail == "delta_not_positive: delta^2=-4"


def test_feasibility_zero_discriminant_is_not_positive():
    # 0 is a square, but delta = 0 gives no two distinct eigenvalues
    report = feasibility(4, 2, 1, 1, 1)
    assert [c.name for c in report.checks if not c.passed] == [
        "integer_spectrum", "complement", "duval_bounds"]
    assert report.first_failure().detail == "delta_not_positive: delta^2=0"
    with pytest.raises(NotFeasibleError) as err:
        spectrum(DsrgParams(4, 2, 1, 1, 1))
    assert err.value.reason == "delta_not_positive"


def _circulant(n, steps):
    return Digraph(n, tuple(sum(1 << (u + s) % n for s in steps) for u in range(n)))


# circulants at t = k (undirected strongly regular) and t = 0 (doubly
# regular tournaments) whose eigenvalues are irrational or not real
CIRCULANTS_WITHOUT_INTEGER_SPECTRUM = [
    ("5-cycle", 5, {1, 4}, (5, 2, 2, 0, 1), f"{CONJUGATE}: delta_not_integer: delta^2=5"),
    ("Paley(13)", 13, {1, 3, 4, 9, 10, 12}, (13, 6, 6, 2, 3),
     f"{CONJUGATE}: delta_not_integer: delta^2=13"),
    ("residue tournament 7", 7, {1, 2, 4}, (7, 3, 0, 1, 2),
     f"{CONJUGATE}: delta_not_positive: delta^2=-7"),
    ("residue tournament 11", 11, {1, 3, 4, 5, 9}, (11, 5, 0, 2, 3),
     f"{CONJUGATE}: delta_not_positive: delta^2=-11"),
]


@pytest.mark.parametrize("name, n, steps, params, detail", CIRCULANTS_WITHOUT_INTEGER_SPECTRUM,
                         ids=[c[0] for c in CIRCULANTS_WITHOUT_INTEGER_SPECTRUM])
def test_feasibility_accepts_every_verified_circulant(name, n, steps, params, detail):
    assert verify_dsrg(_circulant(n, steps)).tuple() == params
    report = feasibility(*params)
    assert report.ok and report.spectrum is None
    assert report.checks[0] == FeasibilityCheck("integer_spectrum", True, detail)


def test_feasibility_accepts_exactly_the_tuples_that_occur():
    """At 3 <= v <= 5 and 0 < k < v-1 the tuples that pass feasibility
    are those of the graphs that exist, as small_digraphs lists them."""
    occur = set()
    for v in range(3, 6):
        for d in small_digraphs(v):
            try:
                occur.add(verify_dsrg(d).tuple())
            except DsrgError:
                pass
    assert occur == {(3, 1, 0, 0, 1), (4, 1, 1, 0, 0), (4, 2, 2, 0, 2), (5, 2, 2, 0, 1)}
    accepted = {(v, k, t, lam, mu) for v in range(3, 6) for k in range(1, v - 1)
                for t, lam, mu in product(range(v), repeat=3) if feasibility(v, k, t, lam, mu).ok}
    assert accepted == occur


def _complement_tuple(v, k, t, lam, mu):
    return (v, v - k - 1, v - 2 * k + t - 1, v - 2 * k + mu - 2, v - 2 * k + lam)


def test_feasibility_refutes_by_the_complement_and_duvals_bounds():
    # an integer spectrum and every identity, but the complement has lambda = -1
    report = feasibility(8, 5, 4, 3, 3)
    assert [c for c in report.checks if not c.passed] == [FeasibilityCheck(
        "complement", False, "complement (8, 2, 1, -1, 1): nonnegative fails: entries (8, 2, 1, -1, 1)")]
    # everything else holds, but mu - lambda = 3 > 2(k-t) = 2, and -4 < -2(k-t-1) = -2
    report = feasibility(25, 11, 10, 3, 6)
    assert [c for c in report.checks if not c.passed] == [FeasibilityCheck(
        "duval_bounds", False, "need -2(k-t-1)=0 <= mu-lambda=3 <= 2(k-t)=2")]
    report = feasibility(27, 8, 6, 5, 1)
    assert [c for c in report.checks if not c.passed] == [FeasibilityCheck(
        "duval_bounds", False, "need -2(k-t-1)=-2 <= mu-lambda=-4 <= 2(k-t)=4")]
    # neither applies at k = v-1 or t in {0, k}
    checks = {c.name: c for c in feasibility(3, 1, 0, 0, 1).checks}
    assert checks["complement"].passed and checks["duval_bounds"].passed
    assert checks["duval_bounds"].detail == "not checked: need 0 < t=0 < k=1"


def test_catalog_tuples_and_their_complements_are_feasible():
    """Every catalog tuple to order 4096, multiples included (620 rows), and its
    complement pass every check; the complement of each built catalog-500
    graph verifies with the complement tuple."""
    tuples = set()
    for spec, formula_only in catalog_instances(4096):
        p = expected_params(spec)
        # the catalog's multiples: m <= 13, m * v <= 4096, and only where t = mu
        ms = range(1, min(13, 4096 // p.v) + 1) if p.t == p.mu else [1]
        tuples.update(p.scaled(m).tuple() for m in ms)
        if not formula_only and p.v <= 500:
            d = build_digraph(spec)
            full = (1 << d.n) - 1
            rows = tuple(full ^ row ^ (1 << u) for u, row in enumerate(d.rows))
            assert verify_dsrg(Digraph(d.n, rows)).tuple() == _complement_tuple(*p.tuple()), spec
    assert len(tuples) == 465
    for p in tuples:
        assert feasibility(*p).ok, p
        assert feasibility(*_complement_tuple(*p)).ok, p
