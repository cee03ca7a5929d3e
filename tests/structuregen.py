"""Small incidence structures for the property suite.

random_structures starts from the bundled constructions, then perturbs:
dropping, adding or rewriting blocks, reshuffling the group partition,
or truncating to a random block subset.  Perturbed structures drop their
parallel classes (the partition property rarely survives).  Everything
is driven by one seeded RNG, so the sampled sequence is reproducible.

block_lists enumerates every structure on v points, and equal_partitions
every partition of v points into groups of one size, so that a verifier
can be checked on all the small inputs there are.
"""

from __future__ import annotations

import random
from itertools import combinations

from dsrg import (
    IncidenceStructure,
    build_affine_plane,
    build_fano,
    build_gdd,
    build_hyperplane_design,
    build_partition_structure,
    restrict_parallel_classes,
)


def base_structures() -> list[IncidenceStructure]:
    ap3 = build_affine_plane(3)
    hp = build_hyperplane_design(2, 3)
    return [
        build_gdd(2, 2),
        build_gdd(2, 3),
        build_gdd(3, 2),
        build_affine_plane(2),
        ap3,
        restrict_parallel_classes(ap3, 2),
        restrict_parallel_classes(ap3, 3),
        hp,
        restrict_parallel_classes(hp, 3),
        build_partition_structure(2, 3),
        build_partition_structure(1, 4),
        build_partition_structure(3, 3),
        build_fano(),
    ]


def _perturb(rng: random.Random, s: IncidenceStructure) -> IncidenceStructure | None:
    blocks = [list(b) for b in s.blocks]
    groups = s.groups
    classes = s.parallel_classes
    kind = rng.randrange(5)
    if kind == 0 and len(blocks) > 1:
        del blocks[rng.randrange(len(blocks))]
        classes = None
    elif kind == 1:
        i = rng.randrange(len(blocks))
        blocks[i] = sorted(rng.sample(range(s.num_points), len(blocks[i])))
        classes = None
    elif kind == 2 and groups is not None:
        points = list(range(s.num_points))
        rng.shuffle(points)
        new_groups = []
        pos = 0
        for g in groups:
            new_groups.append(tuple(sorted(points[pos:pos + len(g)])))
            pos += len(g)
        groups = tuple(new_groups)
    elif kind == 3:
        size = len(blocks[rng.randrange(len(blocks))])
        blocks.append(sorted(rng.sample(range(s.num_points), size)))
        classes = None
    else:
        keep = sorted(rng.sample(range(len(blocks)),
                                 rng.randrange(1, len(blocks) + 1)))
        blocks = [blocks[i] for i in keep]
        classes = None
    try:
        return IncidenceStructure(s.num_points, tuple(tuple(b) for b in blocks),
                                  groups=groups, parallel_classes=classes)
    except ValueError:
        return None


def random_structures(count: int, seed: int) -> list[IncidenceStructure]:
    rng = random.Random(seed)
    bases = base_structures()
    out: list[IncidenceStructure] = []
    while len(out) < count:
        s = bases[rng.randrange(len(bases))]
        if rng.random() < 0.55:
            mutated = _perturb(rng, s)
            if mutated is None:
                continue
            s = mutated
        out.append(s)
    return out


def block_lists(v: int, k: int | None = None):
    """Every non-empty list of distinct non-empty blocks on the points
    0..v-1, 2^(2^v - 1) - 1 of them, or, given k, of distinct k-point
    blocks.  The blocks run in subset order: the sorted tuple of the set
    bits of m, for m = 1, 2, ..., 2^v - 1."""
    subsets = [tuple(p for p in range(v) if m >> p & 1) for m in range(1, 1 << v)]
    if k is not None:
        subsets = [b for b in subsets if len(b) == k]
    for chosen in range(1, 1 << len(subsets)):
        yield tuple(b for j, b in enumerate(subsets) if chosen >> j & 1)


def equal_partitions(v: int):
    """Every partition of the points 0..v-1 into groups of one size, each
    group increasing and the groups in the order of their least points."""
    def split(points: tuple[int, ...], size: int):
        if not points:
            yield ()
            return
        head, rest = points[0], points[1:]
        for others in combinations(rest, size - 1):
            left = tuple(p for p in rest if p not in others)
            for tail in split(left, size):
                yield ((head, *others), *tail)
    for size in range(1, v + 1):
        if v % size == 0:
            yield from split(tuple(range(v)), size)
