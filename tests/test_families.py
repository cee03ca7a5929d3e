import pytest

from dsrg import (
    DEFAULT_BLOCK_BUDGET,
    AffineResolvable,
    ApPencils,
    Gdd,
    NotPrimePowerError,
    Partition,
    PartitionSpiked,
    PgAntiflag,
    Transversal,
    TwoDesignBack,
    TwoDesignBackLoopy,
    UnbuildableError,
    build_digraph,
    duval_multiple,
    expected_params,
    spectrum,
    verify_dsrg,
)
from dsrg.digraph import MAX_VERIFY_ORDER
from dsrg.families import catalog_instances
from oracles import reference_catalog_instances

FANO = (7, 7, 3, 3, 1)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_expected_params_examples():
    assert expected_params(Gdd(2, 4)).tuple() == (96, 24, 7, 3, 7)
    assert expected_params(Gdd(2, 2)).tuple() == (8, 4, 3, 1, 3)
    assert expected_params(Gdd(2, 3)).tuple() == (36, 12, 5, 2, 5)
    assert expected_params(Gdd(3, 2)).tuple() == (24, 12, 8, 4, 8)
    assert expected_params(Gdd(4, 2)).tuple() == (64, 32, 20, 12, 20)
    assert expected_params(PgAntiflag(3, 2, 1)).tuple() == (36, 12, 5, 2, 5)
    assert expected_params(ApPencils(3, 4)).tuple() == (72, 24, 9, 6, 9)
    assert expected_params(ApPencils(3, 2)).tuple() == (36, 12, 5, 2, 5)
    assert expected_params(Transversal(3)).tuple() == (54, 18, 7, 4, 7)
    assert expected_params(Partition(2, 3)).tuple() == (12, 4, 2, 0, 2)
    assert expected_params(PartitionSpiked(2, 3)).tuple() == (12, 7, 5, 4, 4)
    assert expected_params(AffineResolvable(2, 2, 3)).tuple() == (24, 12, 8, 4, 8)
    assert expected_params(TwoDesignBack(*FANO)).tuple() == (28, 12, 6, 4, 6)
    assert expected_params(TwoDesignBackLoopy(*FANO)).tuple() == (28, 15, 9, 8, 8)


def test_gdd_multiples_fold_into_the_family():
    assert expected_params(Gdd(2, 2, m=2)).tuple() == (16, 8, 6, 2, 6)
    assert expected_params(Gdd(2, 3, m=3)).tuple() == (108, 36, 15, 6, 15)


def test_transversal_equals_ap_pencils_diagonal():
    for q in (2, 3, 4):
        assert expected_params(Transversal(q)) == expected_params(ApPencils(q, q))


def test_pg_antiflag_matches_ap_pencils():
    # the pencil geometry is pg(q, l, l-1)
    for q, l in [(2, 2), (3, 2), (3, 3), (3, 4), (4, 2)]:
        assert expected_params(PgAntiflag(q, l, l - 1)) == expected_params(ApPencils(q, l))


# the two families of the paper's abstract, written out as printed there
def abstract_first(l, q):
    return (l * (q - 1) * q ** l, l * (q - 1) * q ** (l - 1), (l * q - l + 1) * q ** (l - 2),
            (l - 1) * (q - 1) * q ** (l - 2), (l * q - l + 1) * q ** (l - 2))


def abstract_second(l, q):
    return (l * q ** 2 * (q - 1), l * q * (q - 1), l * q - l + 1, (l - 1) * (q - 1),
            l * q - l + 1)


@pytest.mark.parametrize("q", range(2, 10))
def test_closed_forms_match_the_abstract(q):
    for l in range(2, 10):
        first, second = abstract_first(l, q), abstract_second(l, q)
        assert expected_params(ApPencils(q, l)).tuple() == second
        for m in range(1, 5):
            assert expected_params(Gdd(l, q, m)).tuple() == tuple(m * x for x in first)
            assert expected_params(AffineResolvable(m, q, l)).tuple() == tuple(
                m * x for x in second)
    assert expected_params(Transversal(q)).tuple() == abstract_second(q, q)


def test_closed_form_of_a_huge_gdd_evaluates():
    # 15864-bit parameters: the identities hold, so no detail string is formatted
    p = expected_params(Gdd(10000, 3))
    assert p.t == p.mu and p.v == 10000 * 2 * 3 ** 10000


VALIDATION_MESSAGES = [
    (Gdd, (1, 2), "need l >= 2, q >= 2, m >= 1, got Gdd(l=1, q=2, m=1)"),
    (Gdd, (2, 1), "need l >= 2, q >= 2, m >= 1, got Gdd(l=2, q=1, m=1)"),
    (Gdd, (2, 2, 0), "need l >= 2, q >= 2, m >= 1, got Gdd(l=2, q=2, m=0)"),
    (PgAntiflag, (1, 2, 1),
     "need kappa, rho >= 2, got PgAntiflag(kappa=1, rho=2, tau=1)"),
    (PgAntiflag, (3, 2, 3),
     "need 1 <= tau <= min(kappa, rho), got PgAntiflag(kappa=3, rho=2, tau=3)"),
    (PgAntiflag, (4, 4, 2),
     "tau must divide (kappa-1)(rho-1), got PgAntiflag(kappa=4, rho=4, tau=2)"),
    (ApPencils, (2, 1), "need q >= 2, l >= 2, got ApPencils(q=2, l=1)"),
    (ApPencils, (1, 5), "need q >= 2, l >= 2, got ApPencils(q=1, l=5)"),
    (Transversal, (1,), "need q >= 2, got Transversal(q=1)"),
    (Partition, (0, 3), "need q >= 1, l >= 3, got Partition(q=0, l=3)"),
    (Partition, (2, 2), "need q >= 1, l >= 3, got Partition(q=2, l=2)"),
    (PartitionSpiked, (1, 2), "need q >= 1, l >= 3, got PartitionSpiked(q=1, l=2)"),
    (AffineResolvable, (0, 2, 2),
     "need m >= 1, s >= 2, l >= 2, got AffineResolvable(m=0, s=2, l=2)"),
    (AffineResolvable, (1, 1, 2),
     "need m >= 1, s >= 2, l >= 2, got AffineResolvable(m=1, s=1, l=2)"),
    (TwoDesignBack, (3, 3, 3, 3, 3),
     "need v > k >= 2, got TwoDesignBack(v=3, b=3, k=3, r=3, lam=3)"),
    (TwoDesignBack, (7, 7, 3, 4, 1),
     "2-design identities fail for TwoDesignBack(v=7, b=7, k=3, r=4, lam=1)"),
    (TwoDesignBack, (4, 4, 3, 3, 2),
     "need b + lambda > 2r, got TwoDesignBack(v=4, b=4, k=3, r=3, lam=2)"),
    (TwoDesignBackLoopy, (7, 7, 1, 3, 1),
     "need v > k >= 2, got TwoDesignBackLoopy(v=7, b=7, k=1, r=3, lam=1)"),
    (TwoDesignBackLoopy, (4, 4, 3, 3, 2),
     "need b + lambda > 2r, got TwoDesignBackLoopy(v=4, b=4, k=3, r=3, lam=2)"),
]


@pytest.mark.parametrize("cls,args,message", VALIDATION_MESSAGES,
                         ids=[f"{cls.__name__}{args}" for cls, args, _ in VALIDATION_MESSAGES])
def test_validation_message(cls, args, message):
    with pytest.raises(ValueError) as err:
        cls(*args)
    assert str(err.value) == message


def test_family_hypotheses_enforced():
    with pytest.raises(ValueError):
        Gdd(1, 2)
    with pytest.raises(ValueError):
        Gdd(2, 1)
    with pytest.raises(ValueError):
        Gdd(2, 2, m=0)
    with pytest.raises(ValueError):
        ApPencils(2, 1)
    with pytest.raises(ValueError):
        Partition(2, 2)
    with pytest.raises(ValueError):
        PgAntiflag(3, 2, 3)         # tau > min(kappa, rho)
    with pytest.raises(ValueError):
        PgAntiflag(4, 4, 2)         # tau does not divide (kappa-1)(rho-1)
    with pytest.raises(ValueError):
        AffineResolvable(0, 2, 2)
    with pytest.raises(ValueError):
        TwoDesignBack(7, 7, 3, 4, 1)    # replication identity fails
    with pytest.raises(ValueError):
        TwoDesignBack(4, 4, 3, 3, 2)    # b + lambda = 2r


@pytest.mark.parametrize("cls,args,message", [
    (Gdd, (2.0, 3), "l = 2.0 is not an int"),
    (Gdd, (2, 3, True), "m = True is not an int"),
    (PgAntiflag, (2.0, 2, 1), "kappa = 2.0 is not an int"),
    (TwoDesignBack, (7.0, 7, 3, 3, 1), "v = 7.0 is not an int"),
    (TwoDesignBackLoopy, (7, 7, 3, 3, 1.0), "lam = 1.0 is not an int"),
])
def test_family_fields_must_be_ints(cls, args, message):
    with pytest.raises(TypeError) as err:
        cls(*args)
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# construction agrees with the closed form
# ---------------------------------------------------------------------------

GDD_GRID = [(l, q) for l in (2, 3, 4) for q in (2, 3)] + [(2, 4)]
AP_GRID = [(q, l) for q in (2, 3, 4) for l in range(2, q + 2)]


@pytest.mark.parametrize("l,q", GDD_GRID)
def test_gdd_build_matches_formula(l, q):
    spec = Gdd(l, q)
    assert verify_dsrg(build_digraph(spec)) == expected_params(spec)


@pytest.mark.parametrize("q,l", AP_GRID)
def test_ap_pencils_build_matches_formula(q, l):
    spec = ApPencils(q, l)
    assert verify_dsrg(build_digraph(spec)) == expected_params(spec)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_transversal_build_matches_formula(q):
    spec = Transversal(q)
    assert verify_dsrg(build_digraph(spec)) == expected_params(spec)


@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize("l", [3, 4])
def test_partition_builds_match_formula(q, l):
    for spec in (Partition(q, l), PartitionSpiked(q, l)):
        assert verify_dsrg(build_digraph(spec)) == expected_params(spec)


@pytest.mark.parametrize("l", range(2, 8))
def test_affine_resolvable_build_matches_formula(l):
    spec = AffineResolvable(2, 2, l)
    assert verify_dsrg(build_digraph(spec)) == expected_params(spec)


def test_two_design_builds_match_formula():
    for spec in (TwoDesignBack(*FANO), TwoDesignBackLoopy(*FANO)):
        assert verify_dsrg(build_digraph(spec)) == expected_params(spec)


def test_t_equals_mu_by_family():
    has_t_mu = [Gdd(2, 3), Gdd(3, 2), ApPencils(3, 3), Transversal(2),
                Partition(2, 3), AffineResolvable(2, 2, 4), TwoDesignBack(*FANO)]
    for spec in has_t_mu:
        p = expected_params(spec)
        assert p.t == p.mu, spec
    for spec in (PartitionSpiked(2, 3), PartitionSpiked(3, 4),
                 TwoDesignBackLoopy(*FANO)):
        p = expected_params(spec)
        assert p.t != p.mu, spec


def test_theta1_zero_whenever_t_equals_mu():
    specs = [Gdd(l, q) for l, q in GDD_GRID] + [ApPencils(q, l) for q, l in AP_GRID] \
        + [Partition(q, l) for q in (1, 2, 3) for l in (3, 4)] \
        + [AffineResolvable(2, 2, l) for l in range(2, 8)] \
        + [TwoDesignBack(*FANO)]
    for spec in specs:
        p = expected_params(spec)
        assert p.t == p.mu and p.mu > p.lam
        assert spectrum(p).theta1 == 0


@pytest.mark.parametrize("m", [1, 2, 3])
def test_multiples_scale_parameters(m):
    d = build_digraph(Gdd(2, 2))
    base = verify_dsrg(d)
    assert verify_dsrg(duval_multiple(d, m)) == base.scaled(m)


# ---------------------------------------------------------------------------
# unbuildable corners
# ---------------------------------------------------------------------------

def test_unbuildable_families():
    with pytest.raises(UnbuildableError):
        build_digraph(PgAntiflag(3, 2, 1))
    with pytest.raises(UnbuildableError):
        build_digraph(ApPencils(2, 4))      # the order-2 plane has 3 pencils
    with pytest.raises(UnbuildableError):
        build_digraph(AffineResolvable(3, 2, 2))   # 3 is not a power of 2
    with pytest.raises(UnbuildableError, match="^design has 7 parallel classes, asked for 8$"):
        build_digraph(AffineResolvable(2, 2, 8))   # AG(3,2) has 7
    with pytest.raises(UnbuildableError):
        build_digraph(TwoDesignBack(9, 12, 3, 4, 1))
    with pytest.raises(NotPrimePowerError):
        build_digraph(ApPencils(6, 2))


def test_formula_only_rows_still_evaluate():
    # pencil counts beyond the order-2 plane: closed form only
    assert expected_params(ApPencils(2, 8)).tuple() == (32, 16, 9, 7, 9)
    assert expected_params(ApPencils(2, 5)).tuple() == (20, 10, 6, 4, 6)
    assert expected_params(ApPencils(2, 6)).tuple() == (24, 12, 7, 5, 7)
    assert expected_params(ApPencils(2, 7)).tuple() == (28, 14, 8, 6, 8)


def test_every_provable_gdd_is_far_inside_the_block_guard():
    # a gdd has fewer blocks than vertices (v = l(q-1)q^l), so every gdd
    # under the verification cap is built well inside the fixed block guard
    blocks = []
    for spec, _ in catalog_instances(MAX_VERIFY_ORDER):
        if isinstance(spec, Gdd):
            assert spec.q ** spec.l < expected_params(spec).v <= MAX_VERIFY_ORDER
            blocks.append(spec.q ** spec.l)
    assert max(blocks) == 256 < DEFAULT_BLOCK_BUDGET


# max-order 0 has no row, 28 adds the Fano cells, the catalog's own
# orders follow, and 30000 walks every axis far past the verification cap
@pytest.mark.parametrize("max_order", [0, 27, 28, 30, 110, 500, 1000, 4096, 30000])
def test_catalog_grid_equals_the_written_out_grid(max_order):
    assert catalog_instances(max_order) == reference_catalog_instances(max_order)
