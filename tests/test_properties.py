"""Randomized agreement checks between the verifiers and brute-force axioms."""

import pytest

from dsrg import (
    NoAntiFlagsError,
    NotGroupDivisibleError,
    NotPartialGeometryError,
    NotTwoDesignError,
    anti_flags,
    build_antiflag_backward,
    build_antiflag_forward,
    build_gdd,
    verify_2design,
    verify_gdd,
    verify_pg,
)
from oracles import brute_2design, brute_gdd, brute_pg
from structuregen import random_structures

SAMPLE = random_structures(200, seed=20250809)


def assert_agrees_with_brute_force(s):
    """verify_pg, verify_gdd (where s has groups) and verify_2design on s
    give the brute-force axioms' verdicts."""
    blocks = [set(b) for b in s.blocks]

    try:
        got = tuple(verify_pg(s))
    except NotPartialGeometryError:
        got = None
    assert got == brute_pg(s.num_points, blocks)

    if s.groups is not None:
        try:
            got = tuple(verify_gdd(s))
        except NotGroupDivisibleError:
            got = None
        assert got == brute_gdd(s.num_points, blocks, s.groups)

    try:
        d = verify_2design(s)
        got = (d.v_pts, d.b_blocks, d.k_blocksize, d.r_replication, d.lambda_pair)
    except NotTwoDesignError:
        got = None
    assert got == brute_2design(s.num_points, blocks)


@pytest.mark.parametrize("idx", range(len(SAMPLE)))
def test_verifiers_agree_with_brute_force(idx):
    assert_agrees_with_brute_force(SAMPLE[idx])


@pytest.mark.parametrize("idx", range(len(SAMPLE)))
def test_backward_is_transpose_on_sampled_structures(idx):
    s = SAMPLE[idx]
    try:
        fwd = build_antiflag_forward(s)
    except NoAntiFlagsError:
        return
    assert build_antiflag_backward(s) == fwd.transpose()


@pytest.mark.parametrize("idx", range(0, len(SAMPLE), 7))
def test_anti_flag_count_identity(idx):
    s = SAMPLE[idx]
    assert len(anti_flags(s)) == sum(s.num_points - len(b) for b in s.blocks)


def test_generator_is_deterministic():
    again = random_structures(200, seed=20250809)
    assert again == SAMPLE


def test_builders_are_deterministic():
    assert build_gdd(3, 2) == build_gdd(3, 2)
    from dsrg import build_affine_plane, build_hyperplane_design
    assert build_affine_plane(4) == build_affine_plane(4)
    assert build_hyperplane_design(2, 3) == build_hyperplane_design(2, 3)
