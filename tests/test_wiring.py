"""The four anti-flag builders against the rule-by-rule oracle.

Every structure the catalog builds up to order 110 and the seeded
structuregen sample are wired by each builder whose precondition holds
and compared with oracles.wire_rule on rows and labels.  The loopy
builder needs a 2-design with b + lambda > 2r and the spiked builder a
partition structure; elsewhere they must refuse.
"""

import pytest

from dsrg import (
    NoAntiFlagsError,
    NotPartitionStructureError,
    PreconditionFailedError,
    UnbuildableError,
    build_antiflag_backward,
    build_antiflag_backward_loopy,
    build_antiflag_forward,
    build_partition_spiked,
)
from dsrg.families import build_structure, catalog_instances
from oracles import brute_2design, wire_rule
from structuregen import random_structures

BUILDERS = {
    "forward": (build_antiflag_forward, None),
    "backward": (build_antiflag_backward, None),
    "spiked": (build_partition_spiked, NotPartitionStructureError),
    "loopy": (build_antiflag_backward_loopy, PreconditionFailedError),
}


def _catalog_structures():
    out = {}
    for spec, formula_only in catalog_instances(110):
        if formula_only:
            continue
        try:
            out[f"{spec.name} {spec.describe()}"] = build_structure(spec)
        except UnbuildableError:
            continue
    return out


CATALOG = _catalog_structures()
SAMPLE = random_structures(200, seed=20250809)


def _applies(s, blocks):
    design = brute_2design(s.num_points, blocks)
    return {
        "forward": True,
        "backward": True,
        "spiked": s.groups is not None and set(s.blocks) == set(s.groups),
        "loopy": design is not None and design[1] + design[4] > 2 * design[3],
    }


def check_builders(s):
    blocks = [set(b) for b in s.blocks]
    applies = _applies(s, blocks)
    for rule, (build, refusal) in BUILDERS.items():
        if not applies[rule]:
            with pytest.raises(refusal):
                build(s)
            continue
        rows, flags = wire_rule(s.num_points, blocks, rule)
        if not flags:
            with pytest.raises(NoAntiFlagsError):
                build(s)
            continue
        d = build(s)
        assert list(d.rows) == rows, rule
        assert list(d.labels) == flags, rule


def test_catalog_covers_every_builder():
    used = {rule for s in CATALOG.values()
            for rule, ok in _applies(s, [set(b) for b in s.blocks]).items() if ok}
    assert used == set(BUILDERS)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_builders_match_oracle_on_catalog_structures(name):
    check_builders(CATALOG[name])


@pytest.mark.parametrize("idx", range(len(SAMPLE)))
def test_builders_match_oracle_on_random_structures(idx):
    check_builders(SAMPLE[idx])
