"""dsrg.incidence against its first builders, validation and verifiers.

The reference_* functions in oracles.py are the package's first
per-point, frozenset and pair-dict implementations.  Built structures
must be equal element by element, the hyperplane blocks equal those
of the per-point bucketing kernel up to q^n = 4096 and at AG(2,211), and
each level of the shared kernel _graph_blocks equals its blocks computed
point by point from the field tables;
validation and the pg / 2-design / gdd verifiers must give the same result,
or the same error class, message, axiom and witness, on the
structuregen sample, on seeded mutants and on every structure on at
most 4 points (the gdd verifier under every partition into equal
groups).  Hand-made structures pin the witnesses of verify_pg's axiom 2
and 3 scans where the first line that fails, or the lowest line met
twice, does not hold them, and verify_2design's intersection identity
at its edge cases.  verify_pg must match its reference on disjoint
unions of two nets of one affine plane, and on nets whose counts fill
their lanes.  verify_2design's lane rows must hold pair counts up to r
and name the pair loop's first failing pair.
Validation's set-based acceptance test (_fast_accepts) must accept no
structure that the reference rejects, save a float or Fraction point
equal to an int (the known gap of ROADMAP item 12), and must accept
every builder output that carries parallel classes without the block
loop.
"""

import math
import random
from fractions import Fraction
from itertools import combinations, product

import pytest

import dsrg.incidence
from dsrg import (
    IncidenceStructure,
    NotTwoDesignError,
    anti_flags,
    build_affine_plane,
    build_fano,
    build_gdd,
    build_hyperplane_design,
    build_partition_structure,
    dual,
    make_field,
    restrict_parallel_classes,
    verify_2design,
    verify_gdd,
    verify_pg,
)
from dsrg.incidence import MAX_HYPERPLANE_INCIDENCES
from oracles import (
    is_prime_power,
    reference_bucket_hyperplane_blocks,
    reference_build_affine_plane,
    reference_build_hyperplane_design,
    reference_validate,
    reference_verify_2design,
    reference_verify_gdd,
    reference_verify_pg,
)
from structuregen import block_lists, equal_partitions, random_structures


PRIME_POWERS = [q for q in range(2, 65) if is_prime_power(q)]
SMALL_DESIGNS = [(q, n) for q in PRIME_POWERS for n in range(2, 11) if q ** n <= 1024]


def outcome(fn, *args, **kwargs):
    """fn's result, or everything an error carries: class, message, axiom, witness."""
    try:
        return ("ok", fn(*args, **kwargs))
    except Exception as exc:  # noqa: BLE001 - the class is part of the outcome
        return (type(exc), str(exc), getattr(exc, "axiom", None),
                getattr(exc, "witness", None))


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q,n", SMALL_DESIGNS, ids=[f"AG({n},{q})" for q, n in SMALL_DESIGNS])
def test_hyperplane_design_matches_reference(q, n):
    got = build_hyperplane_design(q, n)
    want = reference_build_hyperplane_design(q, n)
    assert got.blocks == want.blocks
    assert got.parallel_classes == want.parallel_classes
    assert got == want


# every in-budget design with q^n <= 4096, and the largest n = 2 design in budget
BUCKET_DESIGNS = [(q, n) for q in PRIME_POWERS for n in range(2, 13) if q ** n <= 4096
                  and q ** n * (q ** n - 1) // (q - 1) <= MAX_HYPERPLANE_INCIDENCES] + [(211, 2)]


@pytest.mark.parametrize("q,n", BUCKET_DESIGNS, ids=[f"AG({n},{q})" for q, n in BUCKET_DESIGNS])
def test_hyperplane_design_matches_bucket_kernel(q, n):
    assert list(build_hyperplane_design(q, n).blocks) == reference_bucket_hyperplane_blocks(q, n)


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_affine_plane_matches_reference(q):
    got = build_affine_plane(q)
    want = reference_build_affine_plane(q)
    assert got.blocks == want.blocks
    assert got.parallel_classes == want.parallel_classes
    assert got == want


@pytest.mark.parametrize("q,n", [(1, 3), (6, 2), (10, 6), (2, 1)])
def test_hyperplane_design_errors_match_reference(q, n):
    assert outcome(build_hyperplane_design, q, n) == \
        outcome(reference_build_hyperplane_design, q, n)


@pytest.mark.parametrize("q", [1, 6, 65, 81])
def test_affine_plane_errors_match_reference(q):
    assert outcome(build_affine_plane, q) == outcome(reference_build_affine_plane, q)


def brute_graph_blocks(f, m):
    """Per slope s in F^m, the q blocks (x.q + (c + s.x) for x in F^m), c =
    0..q-1, with s and x in index order, from the field tables point by point."""
    q = f.q
    graph = []
    for s in product(range(q), repeat=m):
        dots = [0]   # s.x for the x of the coordinates so far, in index order
        for s_i in s:
            dots = [f.add_table[d][f.mul_table[s_i][t]] for d in dots for t in range(q)]
        graph.append([tuple(x * q + f.add_table[c][d] for x, d in enumerate(dots))
                      for c in range(q)])
    return graph


GRAPH_LEVELS = [(q, m) for q in (2, 3, 4, 5, 9) for m in range(1, 12) if q ** (m + 1) <= 4096]


@pytest.mark.parametrize("q,m", GRAPH_LEVELS, ids=[f"G{m}({q})" for q, m in GRAPH_LEVELS])
def test_graph_blocks_match_the_point_by_point_blocks(q, m):
    f = make_field(q)
    assert dsrg.incidence._graph_blocks(f, m, list(range(q ** (m + 1)))) == \
        brute_graph_blocks(f, m)


def test_hyperplane_blocks_take_their_ints_from_one_point_list():
    s = build_hyperplane_design(8, 4)
    assert len({id(p) for b in s.blocks for p in b}) == s.num_points


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def validate(*args, **kwargs):
    """IncidenceStructure's validation, returning None as the reference does."""
    IncidenceStructure(*args, **kwargs)


VALIDATION_CASES = [
    (3, ((0, 1), (0, 1))),
    (3, ((1, 0),)),
    (3, ((0, 3),)),
    (3, ((),)),
    (3, ((0, 1), (2, 5, 1))),          # outside and descending: outside wins
    (3, ((-1, 0),)),
    (3, ((0, 0),)),
    (3, ((0, 2), (2, 1), (0, 2))),
    (0, ((0,),)),
    (3, ((0.5, 1),)),                   # a float in range is not an int
    (3, ((math.nan, 5),)),              # NaN is not an int, tested before the range
    (3, ((0, math.nan, 7, math.nan, 1),)),
    (3, ((math.nan, 1),)),
    (3, ((5, math.nan),)),
    (3, (("a", 1),)),                   # TypeError text of the plain scan
    (3, ((1, "a"),)),
    (3, (("a", "b"),)),
    (3, ((None, 1),)),
    (3, ((5, "a"),)),
    (3, ((True, 2),)),
    (4.0, ((0, 1), (2, 3))),            # a count that is not an int: TypeError
    (True, ((0,),)),
    (math.nan, ((0, 1), (2, 3))),
    (4.0, ()),
    (3, ((0, 5), (math.nan, 1))),       # the first failing block is named
    (3, ((1.0, 2), (0, 5))),
]


@pytest.mark.parametrize("n,blocks", VALIDATION_CASES)
def test_validation_matches_reference(n, blocks):
    assert outcome(validate, n, blocks) == outcome(reference_validate, n, blocks)


GROUPED_CASES = [
    (4, ((0, 1),), ((0, 1), (2,)), None),
    (4, ((0, 1),), ((0, 1), (3, 2)), None),
    (4, ((0, 1),), ((0, 1), (2, 3)), None),
    (4, ((0, 1), (2, 3)), None, ((0,),)),
    (4, ((0, 1), (1, 2), (0, 2, 3)), None, ((0, 1), (2,))),
    (4, ((0, 1), (2, 3)), None, ((0, 1),)),
    (4, ((0, 1), (2, 3), (0, 2), (1, 3)), ((0, 1), (2, 3)), ((0, 1), (2, 3))),
    (4.0, ((0, 1), (2, 3)), None, ((0, 1),)),   # classes that would hold for n = 4
    (True, ((0,),), None, ((0,),)),
    (math.nan, ((0, 1), (2, 3)), None, ((0, 1),)),
    (4.0, (), None, ()),
    (4, ((0, 2), (0, 3), (1, 2), (1, 3)), ((0, 1.0), (2, 3)), None),   # before the partition
    (4, ((0, 1),), ((0, 1), ("2", 3)), None),
    (4, ((0, 1),), ((0, True), (2, 3)), None),     # a bool passes, as in a block
]


@pytest.mark.parametrize("n,blocks,groups,classes", GROUPED_CASES)
def test_group_and_class_validation_matches_reference(n, blocks, groups, classes):
    assert outcome(validate, n, blocks, groups=groups, parallel_classes=classes) == \
        outcome(reference_validate, n, blocks, groups=groups, parallel_classes=classes)


def test_validation_matches_reference_on_random_block_lists():
    rng = random.Random(7)
    kinds = set()
    for _ in range(600):
        n = rng.randrange(1, 7)
        blocks = tuple(tuple(rng.randrange(-1, n + 2) for _ in range(rng.randrange(0, 4)))
                       for _ in range(rng.randrange(1, 4)))
        got = outcome(validate, n, blocks)
        assert got == outcome(reference_validate, n, blocks), blocks
        kinds.add(next((w for w in ("empty", "outside", "increasing", "duplicate")
                        if got[0] != "ok" and w in got[1]), "ok"))
    assert kinds == {"ok", "empty", "outside", "increasing", "duplicate"}


def _point_faults(rng, blocks, n):
    """(name, blocks) with one seeded fault each: a point n, a point -1, a
    NaN, two points of a block swapped, a block repeating another."""
    def replaced(i, b):
        return blocks[:i] + (b,) + blocks[i + 1:]

    def with_point(p):
        i = rng.randrange(len(blocks))
        b = list(blocks[i])
        b[rng.randrange(len(b))] = p
        return replaced(i, tuple(b))

    i = rng.randrange(len(blocks))
    b = list(blocks[i])
    j, k = sorted(rng.sample(range(len(b)), 2))
    b[j], b[k] = b[k], b[j]
    i2, i3 = rng.sample(range(len(blocks)), 2)
    return [("point n", with_point(n)), ("point -1", with_point(-1)),
            ("NaN", with_point(math.nan)), ("swapped", replaced(i, tuple(b))),
            ("repeated", replaced(i2, blocks[i3]))]


@pytest.mark.parametrize("build", [lambda: build_affine_plane(16),
                                   lambda: build_hyperplane_design(4, 4)],
                         ids=["plane-16", "hyperplane-4-4"])
def test_block_scan_matches_reference_on_large_classless_blocks(build):
    """Without parallel classes every structure meets the block scan; on
    blocks of 16 and 64 points each fault gives the reference's outcome."""
    s = build()
    assert outcome(validate, s.num_points, s.blocks) == ("ok", None)
    for name, blocks in _point_faults(random.Random(3), s.blocks, s.num_points):
        got = outcome(validate, s.num_points, blocks)
        assert got == outcome(reference_validate, s.num_points, blocks), name
        if name == "NaN":
            assert got[0] is TypeError and "not an int" in got[1], got
        else:
            assert got[0] is ValueError, (name, got)


NAN_BLOCKS = [((math.nan, 1), (0, 2)), ((0, 1), (0, math.nan)), ((0, math.nan, 2),)]


@pytest.mark.parametrize("blocks", NAN_BLOCKS)
def test_a_nan_point_is_not_an_int(blocks):
    """NaN, which compares false both ways, meets the type test before the
    range test, so the block with NaN is named as holding a point that is
    not an int, as by the reference."""
    i = next(i for i, b in enumerate(blocks) if any(p != p for p in b))
    got = outcome(validate, 3, blocks)
    assert got[:2] == (TypeError, f"block {i} holds nan, which is not an int")
    assert got == outcome(reference_validate, 3, blocks)


# ---------------------------------------------------------------------------
# the set-based acceptance test for structures with parallel classes
# ---------------------------------------------------------------------------

CLASS_BASES = [build_affine_plane(q) for q in (2, 3, 4, 5, 7)]
CLASS_BASES += [build_hyperplane_design(2, 3), build_hyperplane_design(3, 3)]
CLASS_BASES += [restrict_parallel_classes(build_affine_plane(q), l)
                for q in (3, 4, 5) for l in (1, 2, 3)]


def _new_point(rng, p, n):
    """A stand-in for point p: a number that may equal some point (float(p),
    1.0, True, False) or something that equals none."""
    same = [float(p), p + 0.5, str(p)] if type(p) is int else []
    return rng.choice([math.nan, 1.0, 0.5, True, False, -1, n, "a", None] + same)


def _class_mutant(rng, s):
    """(n, blocks, classes) of s after one to three seeded defects or relabellings."""
    n = s.num_points
    blocks = [list(b) for b in s.blocks]
    classes = [list(c) for c in s.parallel_classes]
    for _ in range(rng.randrange(1, 4)):
        kind = rng.randrange(13)
        i = rng.randrange(len(blocks))
        b = blocks[i]
        c = rng.choice(classes)
        if kind == 0 and b:                        # a point replaced
            j = rng.randrange(len(b))
            b[j] = _new_point(rng, b[j], n)
        elif kind == 1:                            # block list shuffled
            rng.shuffle(blocks)
        elif kind == 2:                            # block list shuffled, classes follow
            order = list(range(len(blocks)))
            rng.shuffle(order)
            blocks = [blocks[k] for k in order]
            where = {old: new for new, old in enumerate(order)}
            classes = [[where.get(k, k) for k in cl] for cl in classes]
        elif kind == 3:                            # points of a block shuffled
            rng.shuffle(b)
        elif kind == 4:                            # block truncated or emptied
            del b[rng.randrange(len(b) + 1):]
        elif kind == 5:                            # block duplicated
            blocks[i] = list(rng.choice(blocks))
        elif kind == 6 and b:                      # a point repeated in its block
            j = rng.randrange(len(b))
            b.insert(j, b[j])
        elif kind == 7:                            # extra class index
            extra = rng.choice([len(blocks), rng.randrange(len(blocks))])
            c.insert(rng.randrange(len(c) + 1), extra)
        elif kind == 8 and c:                      # missing class index
            del c[rng.randrange(len(c))]
        elif kind == 9 and c:                      # bool or float class index
            j = rng.randrange(len(c))
            c[j] = rng.choice([True, False, float(c[j])])
        elif kind == 10:                           # two classes swapped
            rng.shuffle(classes)
        elif kind == 11:                           # a class copies another's blocks
            valid = range(len(blocks))
            for k, k2 in zip(c, rng.choice(classes)):
                if type(k) is type(k2) is int and k in valid and k2 in valid:
                    blocks[k2] = list(blocks[k])
        elif kind == 12:                           # an empty block added to a class
            c.append(len(blocks))
            blocks.append([])
    return n, tuple(map(tuple, blocks)), tuple(map(tuple, classes))


def _class_mutants(seed, per_base):
    rng = random.Random(seed)
    return [_class_mutant(rng, base) for _ in range(per_base) for base in CLASS_BASES]


CLASS_MUTANTS = _class_mutants(seed=11, per_base=200)


def _kind(got):
    if got[0] == "ok":
        return "ok"
    if got[0] is TypeError:
        return "TypeError"
    return next(w for w in ("empty", "outside", "increasing", "duplicate", "block list",
                            "is not a partition") if w in got[1])


def _agrees(got, want, n, blocks):
    """Whether validation's outcome got equals the reference's want, or the
    two differ by the known gap of ROADMAP item 12: the acceptance test of
    classed structures reads points by value, so it accepts a float or
    Fraction point that equals a point 0..n-1, which the reference refuses
    as not an int."""
    if got == want:
        return True
    odd = [p for b in blocks for p in b if not isinstance(p, int)]
    return (got == ("ok", None) and want[0] is TypeError and "which is not an int" in want[1]
            and all(isinstance(p, (float, Fraction)) and p in range(n) for p in odd))


def test_fast_acceptance_never_accepts_what_the_reference_rejects():
    accepted = gaps = 0
    for n, blocks, classes in CLASS_MUTANTS:
        if dsrg.incidence._fast_accepts(n, blocks, classes):
            accepted += 1
            want = outcome(reference_validate, n, blocks, parallel_classes=classes)
            assert _agrees(("ok", None), want, n, blocks), (blocks, classes)
            gaps += want != ("ok", None)
    assert 100 < accepted < len(CLASS_MUTANTS) // 2
    assert 0 < gaps < accepted


def test_validation_matches_reference_on_class_mutants():
    kinds = set()
    for n, blocks, classes in CLASS_MUTANTS:
        got = outcome(validate, n, blocks, parallel_classes=classes)
        want = outcome(reference_validate, n, blocks, parallel_classes=classes)
        assert _agrees(got, want, n, blocks), (blocks, classes)
        kinds.add(_kind(got))
    assert kinds == {"ok", "TypeError", "empty", "outside", "increasing", "duplicate",
                     "block list", "is not a partition"}


def test_fast_acceptance_admits_points_equal_to_their_ints():
    blocks = ((0, 1.0), (2, 3), (False, 2), (True, 3), (Fraction(0), 3), (1, Fraction(2)))
    classes = ((0, 1), (2, 3), (4, 5))
    assert dsrg.incidence._fast_accepts(4, blocks, classes)
    # the known gap of ROADMAP item 12: the reference refuses 1.0
    assert outcome(validate, 4, blocks, parallel_classes=classes) == ("ok", None)
    assert outcome(reference_validate, 4, blocks, parallel_classes=classes)[:2] == \
        (TypeError, "block 0 holds 1.0, which is not an int")
    assert not dsrg.incidence._fast_accepts(4.0, blocks, classes)
    assert outcome(validate, 4.0, blocks, parallel_classes=classes) == \
        outcome(reference_validate, 4.0, blocks, parallel_classes=classes)
    for bad in (math.nan, 0.5, -1, 4, "1", None, [1], {1: 1}, Fraction(1, 2), 1 + 0j):
        mutant = ((0, bad),) + blocks[1:]
        assert not dsrg.incidence._fast_accepts(4, mutant, classes), bad
        assert outcome(validate, 4, mutant, parallel_classes=classes) == \
            outcome(reference_validate, 4, mutant, parallel_classes=classes), bad
    # a lone point equal to an int but without an order is still refused
    for n, lone, classes in ((1, ((0j,),), ((0,),)), (2, ((0j,), (1,)), ((0, 1),))):
        assert not dsrg.incidence._fast_accepts(n, lone, classes)
        got = outcome(validate, n, lone, parallel_classes=classes)
        assert got[0] is TypeError
        assert got == outcome(reference_validate, n, lone, parallel_classes=classes)


def test_set_difference_refuses_a_repeated_point_and_a_point_n():
    """A class whose n slots repeat one point misses another, and a block
    holding n misses the point it stands in for: either way the set
    difference with {0..n-1} is not empty, and the loops name the fault."""
    plane = build_affine_plane(3)
    classes = plane.parallel_classes
    for i, bad, message in ((1, (1, 4, 6), "is not a partition"), (2, (2, 5, 9), "outside")):
        blocks = plane.blocks[:i] + (bad,) + plane.blocks[i + 1:]
        assert not dsrg.incidence._fast_accepts(9, blocks, classes)
        got = outcome(validate, 9, blocks, parallel_classes=classes)
        assert got[0] is ValueError and message in got[1]
        assert got == outcome(reference_validate, 9, blocks, parallel_classes=classes)


# more than 256 points, so the builder's point ints are not CPython's small
# ints; each base has few blocks
LARGE_CLASS_BASES = {"plane-17": build_affine_plane(17), "AG(3,8)": build_hyperplane_design(8, 3)}


def _fresh(blocks):
    """blocks with every int point a new int object at each occurrence, as
    json.loads reads them."""
    return tuple(tuple(int(str(p)) if type(p) is int else p for p in b) for b in blocks)


def _both_ways(n, blocks, classes):
    """The validation outcome on blocks, required to agree with the
    reference's and to equal the outcome on their _fresh copy; returns it."""
    got = outcome(validate, n, blocks, parallel_classes=classes)
    assert _agrees(got, outcome(reference_validate, n, blocks, parallel_classes=classes),
                   n, blocks), (blocks, classes)
    assert outcome(validate, n, _fresh(blocks), parallel_classes=classes) == got
    return got


@pytest.mark.parametrize("name", LARGE_CLASS_BASES)
def test_class_mutants_above_256_points_match_reference_on_shared_and_fresh_ints(name):
    base = LARGE_CLASS_BASES[name]
    fresh = _fresh(base.blocks)
    assert len({id(p) for b in base.blocks for p in b}) == base.num_points
    # CPython caches the ints up to 256; above them each occurrence is its own object
    large = [id(p) for b in fresh for p in b if p > 256]
    assert len(large) > base.num_points and len(set(large)) == len(large)
    assert _both_ways(base.num_points, base.blocks, base.parallel_classes) == ("ok", None)
    rng = random.Random(13)
    kinds = {_kind(_both_ways(*_class_mutant(rng, base))) for _ in range(60)}
    assert {"ok", "is not a partition"} <= kinds, kinds


def _repeat_a_point(blocks, cls):
    """blocks with a point of cls's first block replaced by the last point
    of its second block, re-sorted: the blocks stay in range, increasing and
    distinct, but cls covers that point twice and misses the one replaced."""
    first, second = cls[0], cls[1]
    b = list(blocks[first])
    b[len(b) // 2] = blocks[second][-1]
    out = list(blocks)
    out[first] = tuple(sorted(b))
    return tuple(out)


@pytest.mark.parametrize("name", LARGE_CLASS_BASES)
def test_the_first_class_that_misses_a_point_is_named(name):
    """A point repeated in class 0, or in the last class only: the class
    test refuses it and names that class, on shared and on fresh ints."""
    s = LARGE_CLASS_BASES[name]
    n, classes = s.num_points, s.parallel_classes
    for cls in (classes[0], classes[-1]):
        blocks = _repeat_a_point(s.blocks, cls)
        assert not dsrg.incidence._fast_accepts(n, blocks, classes)
        assert not dsrg.incidence._fast_accepts(n, _fresh(blocks), classes)
        assert _both_ways(n, blocks, classes) == (
            ValueError, f"parallel class {cls} is not a partition of the points", None, None)


@pytest.mark.parametrize("name", LARGE_CLASS_BASES)
def test_classes_that_all_cover_1_to_n_are_refused(name):
    """Every point moved up by one: each class covers {1..n} and agrees with
    class 0, so only class 0's compare with 0..n-1 refuses it."""
    s = LARGE_CLASS_BASES[name]
    n, classes = s.num_points, s.parallel_classes
    up = list(range(1, n + 1))    # shared ints, as a builder hands them out
    blocks = tuple(tuple(map(up.__getitem__, b)) for b in s.blocks)
    assert not dsrg.incidence._fast_accepts(n, blocks, classes)
    assert not dsrg.incidence._fast_accepts(n, _fresh(blocks), classes)
    i = next(i for i, b in enumerate(blocks) if b[-1] == n)
    assert _both_ways(n, blocks, classes) == (
        ValueError, f"block {i} has a point outside 0..{n - 1}", None, None)


def _class_carrying_builds():
    yield from (build_affine_plane(q) for q in PRIME_POWERS)
    yield from (build_hyperplane_design(q, n) for q, n in SMALL_DESIGNS)
    for q in (2, 3, 4, 5, 7, 8, 9):
        plane = build_affine_plane(q)
        yield from (restrict_parallel_classes(plane, l) for l in range(1, q + 2))
    yield restrict_parallel_classes(build_hyperplane_design(2, 4), 5)
    yield from (build_partition_structure(q, l) for q in (1, 2, 3, 5) for l in (2, 3, 7))


def test_builders_with_classes_never_reach_the_block_loop(monkeypatch):
    def refuse(n, blocks):
        raise AssertionError("block loop reached")
    monkeypatch.setattr(dsrg.incidence, "_check_blocks", refuse)
    assert all(s.parallel_classes for s in _class_carrying_builds())
    with pytest.raises(AssertionError, match="block loop reached"):
        IncidenceStructure(2, ((0,), (0,)), parallel_classes=((0,), (1,)))


# ---------------------------------------------------------------------------
# verifiers
# ---------------------------------------------------------------------------

def _moved_point(rng, s):
    """s with one point of one block replaced by a point off that block.

    The parallel classes are dropped, since the block's class no longer
    partitions the points; None if the result repeats a block.
    """
    blocks = [list(b) for b in s.blocks]
    i = rng.randrange(len(blocks))
    off = [p for p in range(s.num_points) if p not in blocks[i]]
    if not off:
        return None
    blocks[i].remove(rng.choice(blocks[i]))
    blocks[i] = sorted(blocks[i] + [rng.choice(off)])
    try:
        return IncidenceStructure(s.num_points, tuple(map(tuple, blocks)), groups=s.groups)
    except ValueError:
        return None


def _swapped_point(rng, s):
    """s with a point of one block moved to another, which gives one of
    its points back, so block sizes and point degrees survive.

    With parallel classes the second block is parallel to the first, so
    the classes survive too; None if a block would repeat a point or
    another block.
    """
    i = rng.randrange(len(s.blocks))
    if s.parallel_classes is None:
        j = rng.randrange(len(s.blocks))
    else:
        j = rng.choice(next(c for c in s.parallel_classes if i in c))
    blocks = [list(b) for b in s.blocks]
    p, p2 = rng.choice(blocks[i]), rng.choice(blocks[j])
    if p in blocks[j] or p2 in blocks[i]:
        return None
    blocks[i] = sorted([x for x in blocks[i] if x != p] + [p2])
    blocks[j] = sorted([x for x in blocks[j] if x != p2] + [p])
    try:
        return IncidenceStructure(s.num_points, tuple(map(tuple, blocks)),
                                  groups=s.groups, parallel_classes=s.parallel_classes)
    except ValueError:
        return None


# the 3x3 grid (kappa 3, rho 2, tau 1) beside the dual of K4 (points are
# its 6 edges, lines its 4 vertices; tau 2): axioms 1 and 2 hold, 3 fails
GRID_BESIDE_DUAL_K4 = IncidenceStructure(15, (
    (0, 1, 2), (0, 3, 6), (1, 4, 7), (2, 5, 8), (3, 4, 5), (6, 7, 8),
    (9, 10, 11), (9, 12, 13), (10, 12, 14), (11, 13, 14)))

# all pairs of 6 points, resolved by a one-factorisation of K6: a
# 2-(6,2,1) design whose non-parallel blocks meet in 0 or 1 points
K6_PAIRS = IncidenceStructure(6, (
    (0, 1), (2, 3), (4, 5), (0, 2), (1, 4), (3, 5), (0, 3), (1, 5), (2, 4),
    (0, 4), (1, 3), (2, 5), (0, 5), (1, 2), (3, 4)),
    parallel_classes=tuple(tuple(range(i, i + 3)) for i in range(0, 15, 3)))


BASES = [build_affine_plane(q) for q in (2, 3, 4, 5, 7)]
BASES += [restrict_parallel_classes(build_affine_plane(q), l) for q in (3, 4, 5) for l in (2, 3)]
BASES += [build_hyperplane_design(2, 3), build_hyperplane_design(3, 3),
          GRID_BESIDE_DUAL_K4, K6_PAIRS]
# group divisible bases: all transversals, then the transversal designs
# TD(3, q) dual to three parallel classes of AG(2, q), whose mutants can
# keep every block a transversal
BASES += [build_gdd(2, 3), build_gdd(3, 2)]
BASES += [dual(restrict_parallel_classes(build_affine_plane(q), 3)) for q in (3, 4)]


def _mutants(seed, tries):
    """Up to `tries` mutants of each kind per base; AG(2,2) has none."""
    rng = random.Random(seed)
    made = (make(rng, base) for base in BASES
            for make in (_moved_point, _swapped_point) for _ in range(tries))
    return [m for m in made if m is not None]


SAMPLE = random_structures(200, seed=20250809)
MUTANTS = _mutants(seed=5, tries=12)
VERIFIERS = pytest.mark.parametrize(
    "verify,reference",
    [(verify_pg, reference_verify_pg), (verify_2design, reference_verify_2design),
     (verify_gdd, reference_verify_gdd)],
    ids=["verify_pg", "verify_2design", "verify_gdd"])


@VERIFIERS
def test_verifiers_match_reference_on_structuregen_sample(verify, reference):
    for s in SAMPLE:
        assert outcome(verify, s) == outcome(reference, s), s


@VERIFIERS
def test_verifiers_match_reference_on_mutants(verify, reference):
    for s in MUTANTS + BASES:
        assert outcome(verify, s) == outcome(reference, s), s


def test_mutants_reach_every_check():
    axioms = {got[2] for got in (outcome(verify_pg, s) for s in MUTANTS) if got[0] != "ok"}
    assert axioms == {1, 2, 3}
    messages = {got[1] for got in (outcome(verify_2design, s) for s in MUTANTS)
                if got[0] != "ok"}
    assert any(m.startswith("replication differs") for m in messages)
    assert any(m.startswith("pair occurs in 0 blocks") for m in messages)
    assert any(m.startswith("pair occurs in 2 blocks") for m in messages)
    messages = {got[1] for got in (outcome(verify_gdd, s) for s in MUTANTS)
                if got[0] != "ok"}
    assert any(m.startswith("same-group pair occurs in") for m in messages)
    assert any(m.startswith("cross-group pair occurs in") for m in messages)


def test_bases_reach_axiom_3_and_an_unset_intersection_size():
    assert outcome(verify_pg, GRID_BESIDE_DUAL_K4)[2] == 3
    assert verify_2design(K6_PAIRS).m_int is None
    assert verify_2design(build_hyperplane_design(3, 3)).m_int == 3


# ---------------------------------------------------------------------------
# the per-line scans of verify_pg and the intersection identity of verify_2design
# ---------------------------------------------------------------------------

# AG(2,3) after two point swaps.  Line 0 meets every other line at most
# once; line 1 = (1, 2, 7) meets line 5 at 2 and 7 and line 9 at 1 and 2.
# The lowest line it meets twice is 5, but the first failing pair in pair
# order is (1, 2), the first pair of line 1, which lies on line 9.
SHARED_TWICE = IncidenceStructure(9, (
    (0, 3, 6), (1, 2, 7), (1, 5, 8), (0, 4, 8), (4, 5, 6), (2, 3, 7),
    (0, 5, 7), (1, 3, 8), (2, 4, 6), (0, 1, 2), (3, 4, 5), (6, 7, 8)))


def test_axiom_2_witness_is_the_first_pair_in_pair_order():
    lines = list(map(set, SHARED_TWICE.blocks))
    met_twice = [[j for j, other in enumerate(lines) if j != i and len(line & other) > 1]
                 for i, line in enumerate(lines[:2])]
    assert met_twice == [[], [5, 9]]
    got = outcome(verify_pg, SHARED_TWICE)
    assert got == outcome(reference_verify_pg, SHARED_TWICE)
    assert got[2:] == (2, (1, 2))


# the dual of K4 (points 0..5 are its edges ab ac ad bc bd cd, lines its
# vertices; tau 2) beside the 3x3 grid on points 6..14 (tau 1)
DUAL_K4_BESIDE_GRID = IncidenceStructure(15, (
    (0, 1, 2), (0, 3, 4), (1, 3, 5), (2, 4, 5),
    (6, 7, 8), (9, 10, 11), (12, 13, 14), (6, 9, 12), (7, 10, 13), (8, 11, 14)))


def _crossings(s, i):
    """Per point off line i, the lines through it that meet line i."""
    line = set(s.blocks[i])
    return {p: sum(1 for b in s.blocks if p in b and line & set(b))
            for p in range(s.num_points) if p not in line}


@pytest.mark.parametrize("s,witness", [(GRID_BESIDE_DUAL_K4, (0, 6)),
                                       (DUAL_K4_BESIDE_GRID, (0, 4))],
                         ids=["grid-first", "dual-K4-first"])
def test_axiom_3_witness_is_the_first_anti_flag_in_anti_flags_order(s, witness):
    """Line 0 fails only at a point after the witness's, so the first
    failing line does not hold the witness."""
    first = anti_flags(s)[0]
    tau = _crossings(s, first.block)[first.point]
    line_0_fails = [p for p, c in _crossings(s, 0).items() if c != tau]
    assert witness[1] > 0 and min(line_0_fails) > witness[0]
    got = outcome(verify_pg, s)
    assert got == outcome(reference_verify_pg, s)
    assert got[2:] == (3, witness)


# ---------------------------------------------------------------------------
# verify_pg's lanes
# ---------------------------------------------------------------------------

def _net_unions():
    """Disjoint unions of two nets of one affine plane: the first l and the
    last l parallel classes of AG(2,q), the second on points shifted by
    q^2, in either order.  Each net is a pg(q, l, l-1), and an anti-flag
    across the two sees no line, so axiom 3 fails; with the shifted net
    first, the first anti-flag is such a one and tau reads 0."""
    unions = []
    for q in (2, 3, 4, 5, 7):
        plane = build_affine_plane(q)
        n = q * q
        for l in range(2, q + 2):
            first = [plane.blocks[i] for c in plane.parallel_classes[:l] for i in c]
            last = [tuple(p + n for p in plane.blocks[i])
                    for c in plane.parallel_classes[-l:] for i in c]
            unions += [IncidenceStructure(2 * n, tuple(first + last)),
                       IncidenceStructure(2 * n, tuple(last + first))]
    return unions


NET_UNIONS = _net_unions()


def test_verify_pg_matches_reference_on_net_unions():
    for s in NET_UNIONS:
        assert outcome(verify_pg, s) == outcome(reference_verify_pg, s), s


def test_net_unions_fail_axiom_3_with_tau_read_from_0_to_7():
    got = [outcome(verify_pg, s) for s in NET_UNIONS]
    assert {kind[2] for kind in got} == {3}
    assert {kind[1].split("expected ")[1].split(" ")[0] for kind in got} == set(map(str, range(8)))


@pytest.mark.parametrize("q", [3, 7, 31])
def test_counts_that_fill_their_lanes(q):
    """With q classes of AG(2,q), q = 2^w - 1, kappa = rho = q fill w-bit
    lanes, and every line's sum reaches q at its own points; the whole
    plane, rho = q + 1, takes one bit more."""
    plane = build_affine_plane(q)
    for s, want in ((restrict_parallel_classes(plane, q), (q, q, q - 1)), (plane, (q, q + 1, q))):
        assert verify_pg(s) == want
        if q < 31:
            assert outcome(verify_pg, s) == outcome(reference_verify_pg, s)


def _k8_one_factorization():
    """The 28 pairs of 8 points in 7 classes: round i pairs 7 with i and
    i + j with i - j mod 7 for j = 1, 2, 3."""
    blocks = [tuple(sorted(pair)) for i in range(7)
              for pair in [(i, 7)] + [((i + j) % 7, (i - j) % 7) for j in (1, 2, 3)]]
    return IncidenceStructure(8, tuple(blocks),
                              parallel_classes=tuple(tuple(range(i, i + 4)) for i in range(0, 28, 4)))


# (structure, m_int): one block in one class (no block off its class); the
# one-factorization of K8 (pairs meet in 0 or 1 points); AG(3,4) and
# AG(4,3), whose non-parallel hyperplanes meet in q^(n-2) points
INTERSECTIONS = [
    (IncidenceStructure(4, ((0, 1, 2, 3),), parallel_classes=((0,),)), None),
    (_k8_one_factorization(), None),
    (build_hyperplane_design(4, 3), 4),
    (build_hyperplane_design(3, 4), 9),
]


@pytest.mark.parametrize("s,m", INTERSECTIONS, ids=["one-block", "K8-pairs", "AG(3,4)", "AG(4,3)"])
def test_intersection_identity_matches_the_block_pairs(s, m):
    got = outcome(verify_2design, s)
    assert got == outcome(reference_verify_2design, s)
    assert got[1].m_int == m


def test_a_classed_structure_that_fails_lambda_raises_before_the_identity():
    """Two parallel classes of AG(2,3): a pair on no line fails lambda."""
    s = restrict_parallel_classes(build_affine_plane(3), 2)
    got = outcome(verify_2design, s)
    assert got == outcome(reference_verify_2design, s)
    assert got[0] is NotTwoDesignError and got[1].startswith("pair occurs in")


# ---------------------------------------------------------------------------
# every structure on at most 4 points
# ---------------------------------------------------------------------------

# every structure on 1-4 points; then, to reach axioms 2 and 3, every
# structure of 2- or 3-point blocks on 5 points and of 2-point blocks on 6
SMALL = [(v, blocks) for v in range(1, 5) for blocks in block_lists(v)]
UNIFORM = [(v, blocks) for v, k in ((5, 2), (5, 3), (6, 2)) for blocks in block_lists(v, k)]


@pytest.mark.parametrize(
    "verify,reference",
    [(verify_pg, reference_verify_pg), (verify_2design, reference_verify_2design)],
    ids=["verify_pg", "verify_2design"])
def test_verifiers_match_reference_on_every_small_structure(verify, reference):
    """The branches verify_pg and verify_2design leave to their docstrings'
    proofs (no anti-flag, tau = 0, lambda = 0) cannot change an outcome."""
    assert len(SMALL) == 32902
    for v, blocks in SMALL + UNIFORM:
        s = IncidenceStructure(v, blocks)
        assert outcome(verify, s) == outcome(reference, s), s


def test_the_uniform_structures_reach_every_pg_axiom():
    got = {outcome(verify_pg, IncidenceStructure(v, blocks)) for v, blocks in UNIFORM}
    assert {kind[2] if kind[0] != "ok" else "ok" for kind in got} == {"ok", 1, 2, 3}


# each partition with its groups in the order of their least points, and
# reversed, so that the group of point 0 comes last
GROUPINGS = [(v, groups) for v in range(1, 5) for p in equal_partitions(v)
             for groups in dict.fromkeys((p, p[::-1]))]


@pytest.mark.parametrize("v,groups", GROUPINGS, ids=[str(g) for _, g in GROUPINGS])
def test_verify_gdd_matches_reference_on_every_small_structure(v, groups):
    for blocks in block_lists(v):
        s = IncidenceStructure(v, blocks, groups=groups)
        assert outcome(verify_gdd, s) == outcome(reference_verify_gdd, s), s


def test_groupings_cover_every_partition_and_a_first_group_without_0():
    assert len(GROUPINGS) == 1 + 3 + 3 + 9
    assert (4, ((1, 2), (0, 3))) in GROUPINGS


# ---------------------------------------------------------------------------
# verify_2design's lane rows
# ---------------------------------------------------------------------------

def _twins(s, apart):
    """s with every point p doubled into two points on p's blocks, so each
    twin pair lies on r blocks: twins (2p, 2p + 1), or, apart, (p, p + v)."""
    v = s.num_points
    pair = (lambda p: (p, p + v)) if apart else (lambda p: (2 * p, 2 * p + 1))
    return IncidenceStructure(2 * v, tuple(tuple(sorted(x for p in b for x in pair(p)))
                                           for b in s.blocks))


# (structure, witness, message): the Fano plane and AG(2,2), r = 3 = 2^2 - 1;
# their twins, whose twin pairs reach r = 3, the most a 2-bit lane holds;
# and the twins of AG(2,3), whose twin pairs reach r = 4 = 2^2, which 2-bit
# lanes, w = (r - 1).bit_length(), would carry into the next lane
LANE_MAXIMA = [
    (build_fano(), None, None),
    (build_affine_plane(2), None, None),
    (_twins(build_fano(), False), (0, 2), "pair occurs in 1 blocks, expected 3"),
    (_twins(build_fano(), True), (0, 7), "pair occurs in 3 blocks, expected 1"),
    (_twins(build_affine_plane(2), True), (0, 4), "pair occurs in 3 blocks, expected 1"),
    (_twins(build_affine_plane(3), False), (0, 2), "pair occurs in 1 blocks, expected 4"),
    (_twins(build_affine_plane(3), True), (0, 9), "pair occurs in 4 blocks, expected 1"),
]


@pytest.mark.parametrize("s,witness,message", LANE_MAXIMA,
                         ids=["fano", "AG(2,2)", "fano-twins", "fano-twins-apart",
                              "AG(2,2)-twins-apart", "AG(2,3)-twins", "AG(2,3)-twins-apart"])
def test_lanes_hold_counts_up_to_r(s, witness, message):
    got = outcome(verify_2design, s)
    assert got == outcome(reference_verify_2design, s)
    if witness is None:
        assert got[1].r_replication == 3 and got[1].lambda_pair == 1
    else:
        assert got[1] == f"{message} (witness {witness!r})" and got[3] == witness


# AG(2,4) with point 4 of line 0 = (0, 4, 8, 12) swapped for point 5 of
# line 1 = (1, 5, 9, 13): row 0 fails at lanes 4 (0 blocks) and 5 (2
# blocks), and row 1 at lanes 4 and 5 too
SWAPPED = IncidenceStructure(16, tuple(
    {(0, 4, 8, 12): (0, 5, 8, 12), (1, 5, 9, 13): (1, 4, 9, 13)}.get(b, b)
    for b in build_affine_plane(4).blocks))


def test_the_lambda_witness_is_the_first_failing_pair():
    counts = {}
    for b in SWAPPED.blocks:
        for pair in combinations(b, 2):
            counts[pair] = counts.get(pair, 0) + 1
    failing = sorted(pair for pair in combinations(range(16), 2) if counts.get(pair, 0) != 1)
    assert [pair for pair in failing if pair[0] == 0] == [(0, 4), (0, 5)]
    assert {a for a, _ in failing} > {0, 1}
    got = outcome(verify_2design, SWAPPED)
    assert got == outcome(reference_verify_2design, SWAPPED)
    assert got[1:] == ("pair occurs in 0 blocks, expected 1 (witness (0, 4))", None, (0, 4))
