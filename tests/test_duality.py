"""The dual structure and the duality map of anti-flags.

For every structure of the catalog up to order 110 and the seeded
structuregen sample, dual(s) either refuses with the validation's
ValueError or is an involution whose anti-flag map (p, B) -> (B, p)
carries forward(s) onto backward(dual(s)), checked by verify_mapping.
The bundled 36-vertex data file is checked against the same map.
"""

from importlib import resources

import pytest

from dsrg import (
    IncidenceStructure,
    anti_flags,
    build_antiflag_backward,
    build_antiflag_forward,
    build_gdd,
    build_partition_structure,
    dual,
    duality_mapping,
    verify_mapping,
)
from test_wiring import CATALOG, SAMPLE


def certifies(s):
    """True if dual(s) is a structure and the duality map checks out, False
    if dual(s) raises ValueError; an assertion fails otherwise."""
    try:
        t = dual(s)
    except ValueError:
        return False
    assert dual(t) == s
    assert verify_mapping(build_antiflag_forward(s), build_antiflag_backward(t),
                          duality_mapping(s))
    return True


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_duality_on_catalog_structures(name):
    # a partition's dual repeats a block (q > 1) or gets one-block classes
    # (q = 1); in 2 or 3 classes of AG(3, 2) two points lie on the same blocks
    refused = name.startswith("partition") or name in (
        "affine-resolvable m=2;s=2;l=2", "affine-resolvable m=2;s=2;l=3")
    assert certifies(CATALOG[name]) != refused


def test_duality_on_random_structures():
    assert sum(map(certifies, SAMPLE)) == 115


def test_dual_of_k33_is_the_grid():
    grid = IncidenceStructure(
        9, ((0, 1, 2), (3, 4, 5), (6, 7, 8), (0, 3, 6), (1, 4, 7), (2, 5, 8)),
        parallel_classes=((0, 1, 2), (3, 4, 5)))
    assert dual(build_gdd(2, 3)) == grid
    assert dual(grid) == build_gdd(2, 3)


def test_dual_of_a_partition_repeats_a_block():
    with pytest.raises(ValueError, match="duplicate block"):
        dual(build_partition_structure(2, 3))


def test_data_file_lists_the_duality_map():
    text = resources.files("dsrg.data").joinpath("k33_pencils_iso36.txt").read_text()
    lines = {line.replace(" ", "") for line in map(str.strip, text.splitlines())
             if line and not line.startswith("#")}
    left = build_gdd(2, 3)
    right = dual(left)

    def blk(points):
        return "".join(str(x + 1) for x in points)

    right_flags = anti_flags(right)
    images = [right_flags[v] for v in duality_mapping(left)]
    assert lines == {f"{p + 1},{blk(left.blocks[b])}<->{blk(right.blocks[c])},{x + 1}"
                     for (p, b), (x, c) in zip(anti_flags(left), images)}
