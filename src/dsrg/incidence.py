"""Finite incidence structures and their exact verifiers.

A structure is a point set 0..num_points-1 plus a list of blocks
(sorted point tuples), optionally carrying a partition of the points
into groups and a partition of the blocks into parallel classes.
Builders produce group divisible designs, affine planes, hyperplane
designs, plain partitions and the 7-point projective plane; verifiers
check the partial-geometry, group-divisible and 2-design axioms and
report the first violated axiom with a witness.  dual swaps points and
blocks; duality_mapping numbers the anti-flag map (p, B) -> (B, p).

The field builders read GF(q) table rows directly and share one kernel,
_graph_blocks.  For a slope s in F^m, G_m[s][c] is the block of points
x.q + (c + s.x), x in F^m in index order.  Splitting x = (x_0, x'')
gives G_m[(s_0, s'')][c] as the blocks G_{m-1}[s''][c + s_0.x_0] of
the subcubes of x_0 = 0..q-1, joined in that order, so it is sorted;
level 1 is the transpose (`zip`) of the q point columns, column x read
through the `itemgetter` of `add_table` row s.x.  The line y = m*x + b
of an affine plane is G_1[m][b].  A hyperplane {x : a.x = c} of F_q^n,
with a_L the last nonzero coordinate of a and inv = a_L^-1, is
G_L[-inv.(a_0..a_{L-1})][c.inv] over the prefixes (x_0..x_L), each
prefix widened to the row of its suffixes.  Every block takes its int
objects from one shared point list.  That matters to validation:
CPython shares only the ints up to 256, and a set lookup of an equal
int that is another object costs an int compare after the hash, while
the same object is found by identity.  The class test compares every
class with class 0's own point set, so on builder output each lookup
is an identity hit.

verify_pg and verify_2design count pairs per point, in the w-bit lanes
of _lane_rows, not per pair; each verifier's docstring argues its
identities, its witness (that of the plain pair loop) and its cost.

Validation runs on every structure, builder output included; the
docstring of IncidenceStructure._validate argues its acceptance test.

All orderings are canonical and documented per builder, so identical
inputs give identical structures element by element.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, chain, combinations, product, repeat
from operator import ge, itemgetter
from typing import NamedTuple

from .errors import (
    BadClassCountError,
    FormatError,
    NoParallelClassesError,
    NotGroupDivisibleError,
    NotPartialGeometryError,
    NotTwoDesignError,
    OutOfBudgetError,
    TooLargeError,
)
from .ffield import make_field
from .planes import _low_bit

DEFAULT_BLOCK_BUDGET = 10 ** 6
# points and point-block incidences a hyperplane design may hold; (8, 4)
# has 4096 points and 2,396,160 incidences
MAX_HYPERPLANE_POINTS = 10 ** 5
MAX_HYPERPLANE_INCIDENCES = 10 ** 7

Block = tuple[int, ...]


class AntiFlag(NamedTuple):
    """A non-incident (point, block-index) pair."""

    point: int
    block: int


class PgParams(NamedTuple):
    """Partial geometry parameters: points per line, lines per point, connection number."""

    kappa: int
    rho: int
    tau: int


class GddParams(NamedTuple):
    """Group divisible parameters: group count, group size, cross-group pair count."""

    l: int
    q: int
    pair_index: int


@dataclass(frozen=True)
class DesignParams:
    """2-design parameters (v, b, k, r, lambda), plus resolvability data.

    s is the number of blocks per parallel class and m_int the common
    intersection size of non-parallel blocks; both are set only when the
    structure carries parallel classes and the intersections are constant.
    """

    v_pts: int
    b_blocks: int
    k_blocksize: int
    r_replication: int
    lambda_pair: int
    s: int | None = None
    m_int: int | None = None

    def __post_init__(self):
        v, b, k, r, lam = (self.v_pts, self.b_blocks, self.k_blocksize,
                           self.r_replication, self.lambda_pair)
        if r * (k - 1) != lam * (v - 1):
            raise ValueError(f"replication identity fails: {r}*({k}-1) != {lam}*({v}-1)")
        if b * k * (k - 1) != lam * v * (v - 1):
            raise ValueError(f"block-count identity fails for 2-({v},{b},{k},{r},{lam})")
        if self.s is not None and self.m_int is not None:
            if v != self.m_int * self.s ** 2 or k != self.m_int * self.s:
                raise ValueError(
                    f"affine identities fail: v={v}, k={k}, s={self.s}, m={self.m_int}")


@dataclass(frozen=True)
class IncidenceStructure:
    """Points 0..num_points-1 with blocks, optional groups and parallel classes."""

    num_points: int
    blocks: tuple[Block, ...]
    groups: tuple[Block, ...] | None = None
    parallel_classes: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(map(tuple, self.blocks)))
        if self.groups is not None:
            object.__setattr__(self, "groups", tuple(map(tuple, self.groups)))
        if self.parallel_classes is not None:
            object.__setattr__(self, "parallel_classes", tuple(map(tuple, self.parallel_classes)))
        self._validate()

    def _validate(self):
        """Check the points, blocks, groups and parallel classes.

        With parallel classes, the blocks and classes first meet an exact
        acceptance test (_fast_accepts): _check_classes passes (the class
        indices sort to 0..b-1; per class the block lengths sum to n; the
        set of class 0's points contains every int of 0..n-1, and that
        reference set leaves no element after the set difference with
        the blocks of each later class); every block is non-empty, its
        first point is >= 0 and it equals its sorted list; no two blocks
        are equal.
        It is sound: n slots whose set contains every int of {0..n-1}
        hold only points that hash and compare equal to an int in range,
        one per int (the ints have distinct hashes, so no point stands
        for two), so the reference set is {0..n-1}, element for element.
        A later class's n slots that leave none of its elements hold, in
        the same way, one point equal to each of them, and so, equality
        of numbers being transitive, to each int.  So NaN, 0.5, -1, n,
        str and None fail it, and a point that equals an int but has no
        order (a complex number) makes the compare with 0 or the sort
        raise TypeError, which the test reads as False.  With n points in n
        block slots, the blocks of a class are disjoint and repeat no point,
        so each block lies in range and, being sorted, is strictly
        increasing, and each class covers 0..n-1 once.  The test does not
        look at types, so it accepts a point equal to its int (1.0, True):
        refusing one would cost a type scan of every incidence.  A structure
        without classes, or one the test does not accept, is scanned block
        by block (_check_blocks), which refuses a point that is not an int,
        then class by class with the same set differences (_check_classes),
        so the first failure is named: past the block scan every point is
        an int in range, and a class's n slots then cover 0..n-1 exactly
        when they sort to 0..n-1.  The group
        checks run in either case, between the two scans.  A point count
        that is not an int (a float, a bool, NaN) is a TypeError before
        any block is read.
        """
        n = self.num_points
        if type(n) is not int:
            raise TypeError(f"point count {n!r} is not an int")
        if n < 1:
            raise ValueError("structure needs at least one point")
        classes = self.parallel_classes
        scan = classes is None or not _fast_accepts(n, self.blocks, classes)
        if scan:
            _check_blocks(n, self.blocks)
        if self.groups is not None:
            flat = [p for g in self.groups for p in g]
            if sorted(flat) != list(range(n)):
                raise ValueError("groups do not partition the point set")
            for g in self.groups:
                if any(map(ge, g, g[1:])):
                    raise ValueError("group classes must be strictly increasing")
        if scan and classes is not None:
            _check_classes(n, self.blocks, classes)

    def block_sets(self) -> list[frozenset[int]]:
        return [frozenset(b) for b in self.blocks]

    def point_to_blocks(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.num_points)]
        for i, b in enumerate(self.blocks):
            for p in b:
                out[p].append(i)
        return out


def _check_blocks(n: int, blocks) -> None:
    """Raise ValueError at the first empty, out-of-range, unsorted or repeated
    block, or TypeError at the first block holding a point that is not an
    int (isinstance, so a bool passes as 0 or 1), which is tested before
    the range.  A float, NaN included, is such a point."""
    seen = set()
    for i, b in enumerate(blocks):
        if not b:
            raise ValueError(f"block {i} is empty")
        if any(not isinstance(p, int) or p < 0 or not p < n for p in b):
            odd = [p for p in b if not isinstance(p, int)]
            if odd:
                raise TypeError(f"block {i} holds {odd[0]!r}, which is not an int")
            raise ValueError(f"block {i} has a point outside 0..{n - 1}")
        if any(map(ge, b, b[1:])):
            raise ValueError(f"block {i} is not strictly increasing")
        if b in seen:
            raise ValueError(f"duplicate block {b}")
        seen.add(b)


def _check_classes(n: int, blocks, classes) -> None:
    """Raise ValueError unless the class indices sort to 0..b-1, then at the
    first class whose block lengths do not sum to n or whose blocks leave an
    int of 0..n-1 uncovered.

    Class 0's own point set, once it covers 0..n-1, is the reference of
    every later class's set difference: it holds the blocks' own int
    objects, so a builder's shared points are found by identity, without
    the int compare that a point above 256 costs against set(range(n))."""
    if sorted(chain.from_iterable(classes)) != list(range(len(blocks))):
        raise ValueError("parallel classes do not partition the block list")
    points = None
    for c in classes:
        members = list(map(blocks.__getitem__, c))
        if sum(map(len, members)) != n:
            covered = False
        elif points is None:
            points = set().union(*members)
            covered = points.issuperset(range(n))
        else:
            covered = not points.difference(*members)
        if not covered:
            raise ValueError(f"parallel class {c} is not a partition of the points")


def _fast_accepts(n: int, blocks, classes) -> bool:
    """The acceptance test argued in IncidenceStructure._validate's docstring;
    False on any ValueError or TypeError, e.g. of unhashable or unordered points."""
    try:
        _check_classes(n, blocks, classes)
        return (all(b and b[0] >= 0 and list(b) == sorted(b) for b in blocks)
                and len(set(blocks)) == len(blocks))
    except (TypeError, ValueError):
        return False


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

_call = itemgetter.__call__   # operator.call, which needs Python 3.11


def _power_exceeds(q: int, n: int, budget: int) -> bool:
    """Whether q**n > budget; for q >= 2 and n >= budget.bit_length() the
    answer is yes (q**n >= 2**n > budget) without computing the power."""
    if q >= 2 and n >= budget.bit_length():
        return True
    return q ** n > budget


def build_gdd(l: int, q: int) -> IncidenceStructure:
    """Group divisible design on ql points: l consecutive groups of size q,
    blocks = all q^l transversals in lexicographic order.

    More than DEFAULT_BLOCK_BUDGET blocks raise OutOfBudgetError before
    any block is built.
    """
    if l < 2:
        raise ValueError(f"need at least 2 groups, got {l}")
    if q < 2:
        raise ValueError(f"need group size at least 2, got {q}")
    if _power_exceeds(q, l, DEFAULT_BLOCK_BUDGET):
        raise OutOfBudgetError(f"{q}^{l} blocks exceed budget {DEFAULT_BLOCK_BUDGET}")
    groups = tuple(tuple(range(g * q, (g + 1) * q)) for g in range(l))
    blocks = tuple(tuple(g * q + pick[g] for g in range(l))
                   for pick in product(range(q), repeat=l))
    return IncidenceStructure(q * l, blocks, groups=groups)


def _runs(items, size: int):
    """The consecutive size-tuples of items."""
    return zip(*[iter(items)] * size)


def _join(parts) -> tuple:
    """The concatenation of parts as one tuple."""
    out: list = []
    for part in parts:
        out += part
    return tuple(out)


def _graph_blocks(f, m: int, points: list) -> list[list[tuple]]:
    """G_m of the module docstring over the q^(m+1) points: for each slope s
    in F^m in index order, the q tuples G_m[s][c] of points[x.q + (c + s.x)]
    over x in F^m in index order, c = 0..q-1.  Level 1 reads column x of
    each run of q^2 points from row s.x on; level j joins, in x_0 order,
    the blocks [s''][c + s_0.x_0] of the runs of q^j points.
    """
    q = f.q
    shifted = [itemgetter(*add_row) for add_row in f.add_table]   # shifted[w](seq)[c] = seq[w + c]
    # readers[s_0][x_0] = shifted[s_0.x_0]
    readers = [itemgetter(*slope)(shifted) for slope in f.mul_table]
    level = [[list(zip(*map(_call, read, columns))) for read in readers]
             for columns in _runs(_runs(points, q), q)]
    for _ in range(1, m):
        level = [[list(map(_join, zip(*map(_call, read, by_x))))
                  for read in readers for by_x in zip(*cubes)]
                 for cubes in _runs(level, q)]
    return level[0]


def build_affine_plane(q: int) -> IncidenceStructure:
    """Affine plane of order q over GF(q): point (x, y) has index x*q + y.

    Lines come in q+1 parallel classes: one class per slope in field
    order 0..q-1 (lines y = m*x + b ordered by intercept b), then the
    vertical class x = c ordered by c.
    """
    if q > 64:
        raise TooLargeError(f"affine plane order capped at 64, got {q}")
    f = make_field(q)
    points = list(range(q * q))
    # the line y = m*x + b is G_1[m][b]; the vertical lines are the runs of q points
    blocks = (*chain.from_iterable(_graph_blocks(f, 1, points)), *_runs(points, q))
    return IncidenceStructure(q * q, blocks, parallel_classes=tuple(_runs(range(len(blocks)), q)))


def build_hyperplane_design(q: int, n: int) -> IncidenceStructure:
    """Affine hyperplanes of F_q^n: one parallel class per direction.

    Points are coordinate vectors indexed in base q with the first
    coordinate most significant.  Each direction is a canonical normal
    vector a (first nonzero coordinate 1, directions in lexicographic
    order) and its class holds the blocks {x : a.x = c} for c = 0..q-1.
    With a_L the last nonzero coordinate of a and inv = a_L^-1, x_L =
    c.inv - inv.(a_0..a_{L-1}).(x_0..x_{L-1}), so block c is the
    _graph_blocks block G_L[-inv.(a_0..a_{L-1})][c.inv] over the
    prefixes (x_0..x_L), each prefix widened to its row of suffixes.
    More than MAX_HYPERPLANE_POINTS points, or more than
    MAX_HYPERPLANE_INCIDENCES point-block incidences, raise
    OutOfBudgetError before GF(q) is built.
    """
    if n < 2:
        raise ValueError(f"need dimension at least 2, got {n}")
    if _power_exceeds(q, n, MAX_HYPERPLANE_POINTS):
        raise OutOfBudgetError(f"{q}^{n} points exceed budget {MAX_HYPERPLANE_POINTS}")
    # b*k = q(q^n-1)/(q-1) blocks of q^(n-1) points; q < 2 is left to make_field
    incidences = q ** n * (q ** n - 1) // (q - 1) if q > 1 else 0
    if incidences > MAX_HYPERPLANE_INCIDENCES:
        raise OutOfBudgetError(
            f"the hyperplanes of AG({n},{q}) have {incidences} point-block "
            f"incidences, above the budget {MAX_HYPERPLANE_INCIDENCES}")
    f = make_field(q)
    points = list(range(q ** n))
    graphs = []   # graphs[L][s][c] = G_L[s][c], joined from suffix rows below L = n-1
    for last in range(n - 1):
        rows = list(_runs(points, q ** (n - 1 - last)))
        graphs.append([list(map(_join, by_c)) for by_c in _graph_blocks(f, last, rows)]
                      if last else [rows])
    graphs.append(_graph_blocks(f, n - 1, points))
    blocks: list[Block] = []
    for lead in reversed(range(n)):
        for tail in product(range(q), repeat=n - 1 - lead):
            a = (bytes(lead) + b"\1" + bytes(tail)).rstrip(b"\0")
            last = len(a) - 1
            inv = f.inv_table[a[last]]
            times = f.mul_table[f.add_table[inv].index(0)]   # times -inv
            s = 0
            for t in a[:last]:
                s = s * q + times[t]
            blocks.extend(itemgetter(*f.mul_table[inv])(graphs[last][s]))   # c is G_L[s][c.inv]
    return IncidenceStructure(q ** n, tuple(blocks),
                              parallel_classes=tuple(_runs(range(len(blocks)), q)))


def restrict_parallel_classes(s: IncidenceStructure, l: int) -> IncidenceStructure:
    """Keep only the blocks of the first l parallel classes."""
    if s.parallel_classes is None:
        raise NoParallelClassesError("structure has no parallel classes")
    if not 1 <= l <= len(s.parallel_classes):
        raise BadClassCountError(
            f"class count {l} out of range 1..{len(s.parallel_classes)}")
    blocks: list[Block] = []
    classes: list[tuple[int, ...]] = []
    for c in s.parallel_classes[:l]:
        start = len(blocks)
        blocks.extend(s.blocks[i] for i in c)
        classes.append(tuple(range(start, len(blocks))))
    return IncidenceStructure(s.num_points, tuple(blocks), groups=s.groups,
                              parallel_classes=tuple(classes))


def build_partition_structure(q: int, l: int) -> IncidenceStructure:
    """ql points partitioned into l consecutive q-sets; blocks = groups.

    More than DEFAULT_BLOCK_BUDGET points raise OutOfBudgetError before
    any block is built.
    """
    if q < 1:
        raise ValueError(f"need block size at least 1, got {q}")
    if l < 2:
        raise ValueError(f"need at least 2 blocks, got {l}")
    if q * l > DEFAULT_BLOCK_BUDGET:
        raise OutOfBudgetError(f"{q}*{l} points exceed budget {DEFAULT_BLOCK_BUDGET}")
    parts = tuple(tuple(range(g * q, (g + 1) * q)) for g in range(l))
    return IncidenceStructure(q * l, parts, groups=parts,
                              parallel_classes=(tuple(range(l)),))


def build_fano() -> IncidenceStructure:
    """The 7-point projective plane as the difference-set design {i, i+1, i+3} mod 7."""
    blocks = tuple(tuple(sorted(((i + d) % 7 for d in (0, 1, 3)))) for i in range(7))
    return IncidenceStructure(7, blocks)


# ---------------------------------------------------------------------------
# verifiers
# ---------------------------------------------------------------------------

def _point_masks(s: IncidenceStructure) -> list[int]:
    """Per point, the int whose bit i is set iff the point lies on block i."""
    masks = [0] * s.num_points
    for i, b in enumerate(s.blocks):
        bit = 1 << i
        for p in b:
            masks[p] |= bit
    return masks


def _uniform(values: list[int], error, message: str) -> int:
    """values[0], if every value equals it; else raise error(i, message
    formatted with (values[i], values[0])) at the first i that differs."""
    first = values[0]
    if values.count(first) != len(values):
        i = next(i for i, v in enumerate(values) if v != first)
        raise error(i, message.format(values[i], first))
    return first


def _lane_rows(s: IncidenceStructure, at: list[list[int]], w: int, drop: int):
    """(J, lanes, rows) in w-bit lanes, lane q at bits w.q on: J all ones,
    lanes[i] block i's points, rows the lazy T[p], the sum of the lanes of
    at[p] less drop at lane p, whose lane q != p counts p and q's blocks."""
    unit = [1 << w * p for p in range(s.num_points)]
    lanes = [sum(map(unit.__getitem__, b)) for b in s.blocks]
    return sum(unit), lanes, (sum(map(lanes.__getitem__, b), -drop * e) for e, b in zip(unit, at))


def verify_pg(s: IncidenceStructure) -> PgParams:
    """Check the three partial-geometry axioms; return (kappa, rho, tau).

    Axiom 1: constant line size kappa >= 2 and constant point degree
    rho >= 2.  Axiom 2: two points on at most one common line.  Axiom 3:
    every anti-flag sees a constant number tau >= 1 of transversal lines.
    Raises NotPartialGeometryError naming the first violated axiom.

    Both pair axioms are read from coll(p), the set of points collinear
    with p (p included), and from lambda(p, q), the number of lines
    through p and q.  Axiom 3: once axiom 2 holds, a line M through a
    point p off a line L meets L in at most one point (two would make M
    = L, which misses p), and two lines through p cannot meet L in the
    same point q (they would share p and q).  So the lines through p
    that meet L are the lines from p to the points of L collinear with
    p, one per point: crossing(p, L) = |L & coll(p)|.  The sum of coll(q)
    over the points q of L therefore holds crossing(p, L) at every p off
    L, and kappa at every p on L.  tau is read at the first anti-flag,
    and the witness is the least failing (p, L), the anti-flag that
    comes first in anti_flags order.  When axiom 2 fails, the pair scan
    runs to name the first pair in pair order.

    The counts are _lane_rows' lanes, w = max(kappa, rho).bit_length():
    no count below exceeds max(kappa, rho), so no lane carries into the
    next.  T[p], less rho - 1 at lane p, holds lambda(p, q) at lane q != p
    and 1 at lane p.  Axiom 2 holds exactly when no lane of any T[p]
    exceeds 1, one AND per point with the high bits of every lane, and
    T[p] is then coll(p) in lanes.  Axiom 3 is one sum of T[q] over the
    points q of each line L, compared with tau.J + (kappa - tau).lanes(L);
    the lowest differing lane over all lines names p, the first line wins
    a tie, and the count is read from the sum of the witness line, the
    only one kept.  The n rows take w times the bits of n point masks;
    against bit planes, lanes took 0.4 of the time on AG(2,q), 4 <= q <=
    16, and 2.4 times on AG(2,64), w = 7 (BENCH_pg_lanes.json).

    Past axiom 2, the first anti-flag is (0, N) for the least line N off
    point 0, and tau >= 1, so neither needs a check.  Point 0 lies on a
    line M, which holds a second point p, and p lies on a second line N;
    N misses 0, since 0 and p would share M and N otherwise.  The
    anti-flag (0, N) sees M, which meets N at p; so if the first
    anti-flag saw no transversal line, (0, N) would fail axiom 3 against
    it.
    """
    if not s.blocks:
        raise NotPartialGeometryError(1, None, "no lines")
    axiom_1 = partial(NotPartialGeometryError, 1)
    kappa = _uniform(list(map(len, s.blocks)), axiom_1, "line sizes differ: {} != {}")
    if kappa < 2:
        raise NotPartialGeometryError(1, 0, f"line size {kappa} < 2")
    at = s.point_to_blocks()
    rho = _uniform(list(map(len, at)), axiom_1, "point degrees differ: {} != {}")
    if rho < 2:
        raise NotPartialGeometryError(1, 0, f"point degree {rho} < 2")
    w = max(kappa, rho).bit_length()
    one = (1 << w) - 1
    every, lanes, rows = _lane_rows(s, at, w, rho - 1)
    rows = list(rows)   # lane p holds 1
    high = every * (one - 1)   # the bits of every lane but its lowest
    if any(map(high.__and__, rows)):
        on = _point_masks(s)   # the pairs in the order they first occur on a line
        for x, y in chain.from_iterable(map(combinations, s.blocks, repeat(2))):
            c = (on[x] & on[y]).bit_count()
            if c > 1:
                raise NotPartialGeometryError(2, (x, y), f"points share {c} lines")
    first_off = _low_bit(~sum(map((1).__lshift__, at[0])))   # the least line off point 0
    tau = sum(map(rows.__getitem__, s.blocks[first_off])) & one
    base = tau * every
    witness = None
    for i, (b, lane) in enumerate(zip(s.blocks, lanes)):
        got = sum(map(rows.__getitem__, b))
        bad = got ^ (base + (kappa - tau) * lane)
        if bad and (witness is None or _low_bit(bad) // w < witness[0]):
            witness = (_low_bit(bad) // w, i, got)
    if witness is None:
        return PgParams(kappa, rho, tau)
    p, i, got = witness
    raise NotPartialGeometryError(
        3, (p, i), f"anti-flag sees {(got >> w * p) & one} lines, expected {tau}")


def verify_gdd(s: IncidenceStructure) -> GddParams:
    """Check the group-divisible pair conditions; return (l, q, pair_index).

    Same-group pairs must lie in no block; cross-group pairs in a
    constant positive number of blocks.  Lane rows lost on few points
    with many blocks (gdd(2,8) 0.05 -> 0.07 ms, gdd(3,16) 3.9 -> 4.4 ms).
    """
    if s.groups is None:
        raise NotGroupDivisibleError(None, "structure has no group partition")
    q = _uniform(list(map(len, s.groups)), NotGroupDivisibleError,
                 "group sizes differ: {} != {}")
    group_of = [0] * s.num_points
    for gi, g in enumerate(s.groups):
        for p in g:
            group_of[p] = gi
    on = _point_masks(s)
    # the pairs in the order they first occur in a block
    for a, b in chain.from_iterable(map(combinations, s.blocks, repeat(2))):
        if group_of[a] == group_of[b]:
            raise NotGroupDivisibleError(
                (a, b), f"same-group pair occurs in {(on[a] & on[b]).bit_count()} blocks")
    index = None
    witnessed = None
    for a in range(s.num_points):
        for b in range(a + 1, s.num_points):
            if group_of[a] == group_of[b]:
                continue
            c = (on[a] & on[b]).bit_count()
            if index is None:
                index, witnessed = c, (a, b)
            if c != index:
                raise NotGroupDivisibleError(
                    (a, b), f"cross-group pair occurs in {c} blocks, expected {index}")
    if index is None:
        raise NotGroupDivisibleError(None, "no cross-group pair exists")
    if index < 1:
        raise NotGroupDivisibleError(witnessed, "cross-group pairs occur in 0 blocks")
    return GddParams(len(s.groups), q, index)


def verify_2design(s: IncidenceStructure) -> DesignParams:
    """Check constant block size, replication and pair count.

    When parallel classes are present, also report blocks-per-class s
    and, if constant, the intersection size m_int of non-parallel blocks,
    from Bose's counting identity (Sankhya 6, 1942), not the block pairs.
    Each class partitions the points into s = v/k blocks, so a block B
    meets N = b - s blocks off its class, and the sizes x of these meets
    count, over the points of B and over the ordered pairs of its points,
    the blocks other than B through them: sum x = k(r - 1) and sum x^2 =
    k(r - 1) + k(k - 1)(lambda - 1), the same for every block.  By
    Cauchy-Schwarz, N * sum x^2 >= (sum x)^2, with equality iff every x
    is the mean, so the meets have one size m = sum x / N exactly when
    equality holds (and N > 0).

    lambda, read from the pair (0, 1), is at least 1 once every pair
    count equals it, as a block holds k >= 2 points.  The pair counts are
    _lane_rows' lanes, w = r.bit_length(): no count exceeds r < 2^w, so
    no lane carries, and each row T[p], less r - lambda at lane p, must
    equal lambda.J.  The rows are built one at a time, so a rejection
    stops at the first failing row p; its lowest differing lane q is the
    pair loop's witness (p, q), as each (q, p) with q < p passed at row
    q.  The v.r row adds move 2.w.k/v times the bits of the v(v-1)/2
    ANDs of point masks that they replace, so lanes win on planes and
    lose where w.k > v, as on AG(4,7) and, by about a tenth, AG(4,4);
    their fixed cost makes planes up to q = 5 a few microseconds slower.
    No pair loop is kept for those: no workload metric shows the loss,
    and it is the cost of one path.  The b lanes and v units of up to
    v.w bits each hold about (b + v/2).v.w/8 bytes, against b.v/8 for
    point masks; the traced peak on AG(3,16) was 40 MiB
    (BENCH_2design_lanes.json).
    """
    if s.num_points < 2:
        raise NotTwoDesignError(None, "need at least 2 points")
    if not s.blocks:
        raise NotTwoDesignError(None, "no blocks")
    k = _uniform(list(map(len, s.blocks)), NotTwoDesignError, "block sizes differ: {} != {}")
    if k < 2:
        raise NotTwoDesignError(0, f"block size {k} < 2")
    at = s.point_to_blocks()
    r = _uniform(list(map(len, at)), NotTwoDesignError, "replication differs: {} != {}")
    lam = len(set(at[0]).intersection(at[1]))
    w = r.bit_length()
    every, _, rows = _lane_rows(s, at, w, r - lam)
    want = lam * every
    for p, row in enumerate(rows):
        if row != want:
            q = _low_bit(row ^ want) // w
            raise NotTwoDesignError(
                (p, q), f"pair occurs in {(row >> w * q) & ((1 << w) - 1)} blocks, expected {lam}")
    s_count = m_int = None
    if s.parallel_classes is not None:
        s_count = len(s.parallel_classes[0])
        # Bose's count: the sizes x of B's meets with the blocks off its class
        others = len(s.blocks) - s_count
        total = k * (r - 1)                          # sum of x
        squares = total + k * (k - 1) * (lam - 1)    # sum of x^2
        if others and others * squares == total * total:
            m_int = total // others
    return DesignParams(s.num_points, len(s.blocks), k, r, lam, s=s_count, m_int=m_int)


def anti_flags(s: IncidenceStructure) -> list[AntiFlag]:
    """All non-incident (point, block) pairs in lexicographic order.

    This order is the vertex numbering contract for the digraph builders.
    The pairs are built per point, in that order: the blocks off point p
    are every block index minus those through p, sorted.
    """
    every = set(range(len(s.blocks)))
    flags: list[AntiFlag] = []
    for p, on in enumerate(s.point_to_blocks()):
        flags += map(tuple.__new__, repeat(AntiFlag), zip(repeat(p), sorted(every.difference(on))))
    return flags


def dual(s: IncidenceStructure) -> IncidenceStructure:
    """Points and blocks swapped: point i is block i of s, block p lists the
    blocks of s through point p, and groups and parallel classes swap.  A
    dual that is not a structure (of a partition structure, or with a point
    on no block) raises the validation's ValueError."""
    return IncidenceStructure(len(s.blocks), tuple(map(tuple, s.point_to_blocks())),
                              groups=s.parallel_classes, parallel_classes=s.groups)


def duality_mapping(s: IncidenceStructure) -> tuple[int, ...]:
    """Entry i is the index of (B, p) among the anti-flags of dual(s), where
    (p, B) is the i-th anti-flag of s.  The dual's anti-flags run by B, then
    p, so those off block B take consecutive indices after those off the
    blocks before it."""
    offset = list(accumulate((s.num_points - len(b) for b in s.blocks), initial=0))
    perm = []
    for _, b in anti_flags(s):
        perm.append(offset[b])
        offset[b] += 1
    return tuple(perm)


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

def to_json(s: IncidenceStructure) -> str:
    """Serialize to the interchange document; deterministic byte-for-byte."""
    # json writes tuples as arrays, so the tuples go in without copies
    doc: dict = {"points": s.num_points, "blocks": s.blocks}
    if s.groups is not None:
        doc["groups"] = s.groups
    if s.parallel_classes is not None:
        doc["parallel_classes"] = s.parallel_classes
    return json.dumps(doc, separators=(",", ":")) + "\n"


def _int_rows(rows, what: str) -> tuple[tuple[int, ...], ...]:
    """rows as a tuple of tuples; FormatError at the first entry that is not
    an int (JSON's 0.5, NaN, true and "1" read as float, float, bool, str)."""
    try:
        rows = tuple(map(tuple, rows))
    except TypeError as exc:
        raise FormatError(1, str(exc)) from exc
    if not {int}.issuperset(map(type, chain.from_iterable(rows))):
        i, x = next((i, x) for i, row in enumerate(rows) for x in row if type(x) is not int)
        raise FormatError(1, f"{what} {i} holds {x!r}, which is not an int")
    return rows


def from_json(text: str) -> IncidenceStructure:
    """Parse the interchange document produced by to_json.  The point count,
    every point and every class's block index must be a JSON int; anything
    else raises FormatError before the structure is built."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(exc.lineno, f"bad JSON: {exc.msg}") from exc
    if not isinstance(doc, dict) or "points" not in doc or "blocks" not in doc:
        raise FormatError(1, "expected an object with 'points' and 'blocks'")
    n = doc["points"]
    if type(n) is not int:
        raise FormatError(1, f"'points' is {n!r}, which is not an int")
    blocks = _int_rows(doc["blocks"], "block")
    groups = _int_rows(doc["groups"], "group") if "groups" in doc else None
    classes = (_int_rows(doc["parallel_classes"], "parallel class")
               if "parallel_classes" in doc else None)
    try:
        return IncidenceStructure(n, blocks, groups=groups, parallel_classes=classes)
    except (TypeError, ValueError) as exc:
        raise FormatError(1, str(exc)) from exc
