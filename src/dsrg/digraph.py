"""Loopless digraphs as packed bit rows, with exact DSRG verification.

Row u is a Python int whose bit v is set iff there is an edge u -> v.
The paper's graphs repeat out-rows (under the forward rule an
anti-flag's out-row depends on its point alone; a Duval multiple
repeats each base row m times), so each Digraph indexes its row
classes once, when it is built: `distinct` holds the distinct out-rows
in order of first appearance, `row_class[u]` the class of vertex u and
`members[c]` the vertex mask of class c.  Equal rows come in runs of
consecutive vertices (the anti-flags of one point are numbered
together, and a multiple stretches each run m times), so the index is
built with one step per run: one dict lookup and one mask.  The
builders that lay their rows out in runs (the forward-rule wiring, the
multiple and from_dgr) pass them to Digraph._from_runs, with no
per-vertex search; only rows given as a tuple, Digraph(n, rows), are
searched for runs, of one row object each, in one C-level pass, and
Digraph._index checks both paths' input per run and per class.  columns(),
to_dgr, the multiple, the verifier and iso work once per class: the
verifier accepts a graph in one step per class, not per vertex.

The anti-flag builders take an incidence structure, number its
non-incident (point, block) pairs in lexicographic order, and wire
edges by one membership rule, forward (p in B'), optionally with the
edges between distinct anti-flags on a common point or block.  The
backward rule (p' in B) is its converse, a DSRG with the same
parameters: the backward builders transpose the forward graph, with or
without the (symmetric) same-point edges.  The verifier recovers
(v, k, t, lambda, mu) from A^2 rather than trusting any formula, in
exact integer arithmetic: a row of A^2 is held as bit planes (plane i
is an n-bit int with bit i of every count), so it is added and compared
with a few wide-int operations.  In the paper's families two points of
one group lie on equally many blocks with each third point, so the
rows of A^2 of their out-row classes are sums whose counts differ in
two places, and one is reached from the other by adding and taking
away those two terms: on a graph with many classes, each class's row
is the previous row plus the difference unless that has more terms
than a fresh sum.  In dgr/1 and edge-list text a line ends at "\n".
from_dgr walks the text from one "\n" to the next without splitting it,
so a row line that repeats the line before costs one compare and
extends the current run.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate, chain, compress, count, repeat
from operator import is_not, itemgetter, mul, ne, sub
from typing import Literal

from .errors import (
    DegenerateError,
    DsrgError,
    FormatError,
    NoAntiFlagsError,
    NonConstantError,
    NotDsrgError,
    NotPartitionStructureError,
    NotRegularError,
    PreconditionFailedError,
    TNotMuError,
    TooLargeError,
)
from .incidence import AntiFlag, IncidenceStructure, anti_flags, verify_2design
from .params import DsrgParams
from .planes import (
    _add_planes,
    _bits,
    _count,
    _differ,
    _low_bit,
    _sub_planes,
    _value_planes,
    _weighted_sum,
)

MAX_VERIFY_ORDER = 4096

# below this many out-row classes a row of A^2 is always summed fresh
_DIFFERENCE_MIN_CLASSES = 32

@dataclass(frozen=True)
class Digraph:
    """Immutable loopless digraph; rows[u] bit v == edge u -> v.

    The row-class index (distinct, row_class, members) is built per run
    of equal consecutive rows, not per vertex; a class gathers the equal
    runs, adjacent or not.  Digraph(n, rows) finds the runs of one row
    object; Digraph._from_runs takes them from a builder.  n must be an
    int and every row an int; _index checks both paths alike.
    """

    # _from_runs skips __init__ and sets n, rows and labels itself: an init
    # field added here must be set there too
    n: int
    rows: tuple[int, ...]
    labels: tuple[AntiFlag, ...] | None = None
    distinct: tuple[int, ...] = field(init=False, repr=False, compare=False)
    row_class: tuple[int, ...] = field(init=False, repr=False, compare=False)
    members: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = tuple(self.rows)
        object.__setattr__(self, "rows", rows)
        # a run start: a row that is not the same object as the row before
        new_run = list(map(is_not, rows, (object(), *rows)))
        self._index(list(compress(rows, new_run)), [*compress(count(), new_run), len(rows)])

    @classmethod
    def _from_runs(cls, n: int, heads: Iterable[int], lengths: Iterable[int],
                   labels: tuple[AntiFlag, ...] | None = None) -> "Digraph":
        """The graph whose rows are heads[i] repeated lengths[i] times, in order.

        For builders that lay their rows out in runs: the index is built
        from the given runs, with no search for equal rows.  Runs of
        length 0 are dropped; equal heads, adjacent or not, share a class.
        The runs are checked by _index, as Digraph(n, rows) checks its
        own, before the n rows are laid out.
        """
        heads, lengths = list(heads), list(lengths)
        if 0 in lengths:
            heads, lengths = list(compress(heads, lengths)), list(filter(None, lengths))
        d = object.__new__(cls)
        object.__setattr__(d, "n", n)
        object.__setattr__(d, "labels", labels)
        d._index(heads, [*accumulate(lengths, initial=0)])
        object.__setattr__(d, "rows", tuple(chain.from_iterable(map(mul, zip(heads), lengths))))
        return d

    def _index(self, heads: list[int], bounds: list[int]) -> None:
        """Check the runs, then set distinct, row_class and members, one step
        per run: run i is heads[i] at vertices bounds[i] .. bounds[i + 1] - 1.
        The one check of a Digraph's input, in order: n is an int (not a
        bool), the runs cover n rows, each head is an int (isinstance),
        then range and loop per class (_check_classes) and the labels."""
        n = self.n
        if type(n) is not int:
            raise TypeError(f"vertex count {n!r} is not an int")
        if bounds[-1] != n:
            raise ValueError(f"expected {n} rows, got {bounds[-1]}")
        if not all(map(isinstance, heads, repeat(int))):
            u, row = next((u, row) for u, row in zip(bounds, heads) if not isinstance(row, int))
            raise TypeError(f"row {u} is {row!r}, not an int")
        lengths = list(map(sub, bounds[1:], bounds))
        ids: dict[int, int] = {}
        run_class = [ids.setdefault(row, len(ids)) for row in heads]
        # (c,) * length: each run's class once per vertex of the run
        row_class = tuple(chain.from_iterable(map(mul, zip(run_class), lengths)))
        members = [0] * len(ids)
        for c, start, length in zip(run_class, bounds, lengths):
            members[c] |= ((1 << length) - 1) << start
        _check_classes(ids, members, n)
        object.__setattr__(self, "distinct", tuple(ids))
        object.__setattr__(self, "row_class", row_class)
        object.__setattr__(self, "members", tuple(members))
        if self.labels is not None and len(self.labels) != n:
            raise ValueError("label count does not match vertex count")

    def columns(self) -> list[int]:
        """In-neighbor masks: bit u of columns()[v] == edge u -> v."""
        cols = [0] * self.n
        for row, mask in zip(self.distinct, self.members):
            for v in _bits(row):
                cols[v] |= mask
        return cols

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in _bits(self.rows[u])]

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.rows)

    def transpose(self) -> "Digraph":
        return Digraph(self.n, tuple(self.columns()), labels=self.labels)

    # -- text formats -------------------------------------------------------

    def to_dgr(self) -> str:
        """dgr/1: a line with n, then n lines of n characters from {0,1}."""
        lines = [_format_row(row, self.n) for row in self.distinct]
        # the final "" adds the last newline without a copy of the text
        return "\n".join([str(self.n), *map(lines.__getitem__, self.row_class), ""])

    @classmethod
    def from_dgr(cls, text: str) -> "Digraph":
        """Parse dgr/1; FormatError names the first bad line.

        A line ends at "\n"; a "\r" before it is whitespace, which strip()
        removes around every line.  The text is walked by offset without
        splitting it: a row whose line, "\n" included, repeats the line
        before costs one compare and extends the current run; any other
        line is sliced, checked and parsed, so the first error is the one
        a line-by-line parse would raise, and its row starts a new run.
        A too-short file is reported before a bad row, as that parse does.
        Equal rows parsed from different lines share one int object and
        one class, and the runs go to Digraph._from_runs.
        """
        if not text:
            raise FormatError(1, "empty file")
        o = text.find("\n") + 1 or len(text)
        head = text[:o].rstrip("\n")
        try:
            n = int(head.strip())
        except ValueError:
            raise FormatError(1, f"expected a vertex count, got {head!r}") from None
        if n < 1:
            raise FormatError(1, f"vertex count must be positive, got {n}")
        end = len(text)
        heads, starts = [], []            # a run of rows per line repeated by the lines after it
        seen: dict[int, int] = {}         # each row parsed, to share one int per class
        line = ""                         # the last line sliced, its "\n" included
        for u in range(n):
            if line and text.startswith(line, o):
                o += len(line)            # row u extends the current run
                continue
            if o == end:
                _count_rows(text, n)      # raises: the rows ran out
            stop = text.find("\n", o) + 1 or end
            line = text[o:stop]
            try:
                row = _parse_row(line.strip(), n, 2 + u)
            except FormatError:
                _count_rows(text, n)      # a short file is reported first
                raise
            heads.append(seen.setdefault(row, row))
            starts.append(u)
            o = stop
        for lineno, rest in enumerate(text[o:].split("\n"), start=2 + n):
            if rest.strip():
                raise FormatError(lineno, f"unexpected text after the {n} adjacency rows")
        return cls._from_runs(n, heads, map(sub, [*starts[1:], n], starts))

    def to_edge_list(self) -> str:
        """One 'u v' line per edge, sorted by (u, v)."""
        return "".join(f"{u} {v}\n" for u, v in self.edges())

    @classmethod
    def from_edge_list(cls, text: str) -> "Digraph":
        """Parse 'u v' lines, each ended by "\n"; the vertex count is max index + 1.

        An index at or above MAX_VERIFY_ORDER is refused at its line,
        before any row is allocated.  A loop, or an arc that an earlier
        line already gave, raises FormatError at its line.
        """
        edges: dict[tuple[int, int], int] = {}    # arc -> its line
        top = -1
        for i, raw in enumerate(text.split("\n"), start=1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise FormatError(i, f"expected 'u v', got {raw!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise FormatError(i, f"expected integers, got {raw!r}") from None
            if u < 0 or v < 0:
                raise FormatError(i, "vertex indices must be nonnegative")
            if max(u, v) >= MAX_VERIFY_ORDER:
                raise TooLargeError(f"line {i}: vertex index {max(u, v)} is at or above "
                                    f"the cap of {MAX_VERIFY_ORDER} vertices")
            if u == v:
                raise FormatError(i, f"loop at vertex {u}")
            if (u, v) in edges:
                raise FormatError(i, f"arc {u} -> {v} repeats line {edges[u, v]}")
            edges[u, v] = i
            top = max(top, u, v)
        if top < 0:
            raise FormatError(1, "no edges")
        rows = [0] * (top + 1)
        for u, v in edges:
            rows[u] |= 1 << v
        return cls(top + 1, tuple(rows))


def _format_row(row: int, n: int) -> str:
    """The dgr line of an out-row: character v is bit v."""
    return format(row, f"0{n}b")[::-1]


def _count_rows(text: str, n: int) -> None:
    """FormatError if the text holds fewer than n lines after its first."""
    lines = text.count("\n") + (not text.endswith("\n"))
    if lines <= n:
        raise FormatError(lines, f"expected {n} adjacency rows, got {lines - 1}")


def _parse_row(line: str, n: int, lineno: int) -> int:
    """The out-row of a stripped dgr line; FormatError(lineno) if malformed."""
    # only 0s and 1s: checked before int(), which also takes "_", signs, a
    # "0b" prefix and non-ASCII digits.  isascii() keeps lone surrogates away
    # from encode(); one pass over the bytes is faster than two str.count().
    if len(line) != n or not line.isascii() or line.encode().translate(None, b"01"):
        raise FormatError(lineno, f"expected {n} characters from {{0,1}}")
    return int(line[::-1], 2)


def _check_classes(reps: Iterable[int], members: Iterable[int], n: int) -> None:
    """ValueError naming the first vertex with a bit outside 0..n-1 (checked
    first) or a loop, where reps[c] is the row of the vertices in members[c]."""
    bad, message = n, ""
    for row, mask in zip(reps, members):
        if row < 0 or row.bit_length() > n:
            if (first := _low_bit(mask)) < bad:
                bad, message = first, f"row {first} has bits outside 0..{n - 1}"
        elif row & mask and (loop := _low_bit(row & mask)) < bad:
            bad, message = loop, f"loop at vertex {loop}"
    if message:
        raise ValueError(message)


# ---------------------------------------------------------------------------
# anti-flag builders
# ---------------------------------------------------------------------------

def _wire(s: IncidenceStructure, same: Literal["point", "block"] | None = None) -> Digraph:
    """The anti-flag digraph of s under the forward rule: (p, B) -> (p', B')
    iff p is a point of B'.  same="point" or same="block" adds the edges
    between distinct anti-flags that share that coordinate.
    """
    flags = anti_flags(s)
    if not flags:
        raise NoAntiFlagsError("every point lies on every block")
    block_mask = [0] * len(s.blocks)   # vertices whose block is b
    for j, (_, b) in enumerate(flags):
        block_mask[b] |= 1 << j
    rule = [0] * s.num_points          # vertices whose block holds point x
    for b, block in enumerate(s.blocks):
        for x in block:
            rule[x] |= block_mask[b]
    if same is None:
        # an anti-flag's forward out-row depends on its point alone, and the
        # anti-flags of point p are numbered together: one run of rule[p] each
        bounds = [bisect_left(flags, (p,)) for p in range(s.num_points + 1)]
        return Digraph._from_runs(len(flags), rule, map(sub, bounds[1:], bounds),
                                  labels=tuple(flags))
    rows = list(map(rule.__getitem__, map(itemgetter(0), flags)))
    if same == "point":
        coord, mask = 0, [0] * s.num_points    # vertices whose point is x
        for j, (p, _) in enumerate(flags):
            mask[p] |= 1 << j
    else:
        coord, mask = 1, block_mask
    # vertex j lies in the mask of its own coordinate: xor drops the loop
    for j, flag in enumerate(flags):
        rows[j] |= mask[flag[coord]] ^ (1 << j)
    return Digraph(len(flags), tuple(rows), labels=tuple(flags))


# The builders call _wire, never each other, so a wrapper around these four
# public names (a profiler, a tracer) counts each build once.

def build_antiflag_forward(s: IncidenceStructure) -> Digraph:
    """Edge (p, B) -> (p', B') iff p is a point of B'."""
    return _wire(s)


def build_antiflag_backward(s: IncidenceStructure) -> Digraph:
    """Edge (p, B) -> (p', B') iff p' is a point of B.

    This is the converse (transpose) of build_antiflag_forward(s).
    """
    return _wire(s).transpose()


def build_antiflag_backward_loopy(s: IncidenceStructure) -> Digraph:
    """Edge (p, B) -> (p', B') iff p' in B, or p = p' and B != B'.

    Requires a 2-design with b + lambda > 2r; the extra same-point edges
    keep the graph loopless because B = B' is excluded.  It is the
    converse of the forward rule plus the same-point edges.
    """
    try:
        d = verify_2design(s)
    except DsrgError as exc:
        raise PreconditionFailedError(f"not a 2-design: {exc}") from exc
    if d.b_blocks + d.lambda_pair <= 2 * d.r_replication:
        raise PreconditionFailedError(
            f"need b + lambda > 2r, got {d.b_blocks} + {d.lambda_pair} "
            f"<= 2*{d.r_replication}")
    return _wire(s, "point").transpose()


def build_partition_spiked(s: IncidenceStructure) -> Digraph:
    """Edge (x, S) -> (x', S') iff x in S', or S = S' and x != x'.

    Only defined on partition structures, where the blocks are exactly
    the groups.
    """
    if s.groups is None or set(s.blocks) != set(s.groups):
        raise NotPartitionStructureError("blocks must equal the group partition")
    return _wire(s, "block")


# ---------------------------------------------------------------------------
# verification and the multiple construction
# ---------------------------------------------------------------------------

def _square_row(rows: tuple[int, ...], row: int) -> list[int]:
    """The row of A^2 of a vertex with out-row `row`, one add per out-neighbour."""
    return _weighted_sum(zip(repeat(1), map(rows.__getitem__, _bits(row))))


def _square_row_by_class(reps: tuple[int, ...], counts: list[int]) -> list[int]:
    """The row of A^2 of a vertex with counts[r] out-neighbours in class r,
    one add per class it meets."""
    return _weighted_sum(zip(counts, reps))


def _square_row_by_difference(reps: tuple[int, ...], got: list[int], counts: list[int],
                              before: list[int], moved: list[int]) -> list[int]:
    """The row of A^2 for the class counts `counts`, from the row `got` for
    the counts `before`, which differ only at the classes in `moved`: the
    counts that grew add their growth times the class's out-row, and
    those that shrank take their loss away.  `got` is left as it was,
    since the walk may hold it as a witness."""
    up, down = [], []
    for r in moved:
        step = counts[r] - before[r]
        if step > 0:
            up.append((step, reps[r]))
        else:
            down.append((-step, reps[r]))
    out = got.copy()
    _add_planes(out, _weighted_sum(up), 0)
    # out now holds got plus the growth, at least the loss in every column
    _sub_planes(out, _weighted_sum(down))
    return out


def _class_squares(reps: tuple[int, ...], members: tuple[int, ...]) -> Iterator[list[int]]:
    """The rows of A^2 of the out-row classes, in class order.

    A class's row is sum_r counts[r] * reps[r], with counts[r] the
    number of its out-neighbours in class r, so it is fixed by the
    counts, and a class whose counts differ from the previous class's
    at a few classes r can take the previous row and add the difference
    (_square_row_by_difference).  That is exact: the growth is added
    first, and the loss then taken away leaves a true row of A^2, so no
    column goes below zero.

    It pays on the paper's families.  Under the forward rule a vertex on
    point p has (blocks through p) - (blocks through p and r)
    out-neighbours on a point r != p, and none on p.  In a group
    divisible design two points lie on a number of blocks that depends
    only on whether they share a group, so the counts of two points of
    one group differ at those two points alone: transversal 7 moves 2
    of its 48 nonzero counts at 42 class steps and 14 at the 6 steps
    into a new group.

    On a graph with at least _DIFFERENCE_MIN_CLASSES classes, each class
    after the first makes one comparison: the difference has one term
    per moved count and the fresh sum one per nonzero count, and the
    difference is taken unless it has more.  Every later class of
    transversal 7 then takes it, and so does every later class of
    ap-pencils q=8;l=5, which moves 32-34 of its 63 counts.  Below the
    threshold every row is summed fresh: no by-class graph of the
    catalog up to order 500 has more than 25 classes, and without the
    threshold its 336 graphs, multiples included, verified 19-26%
    slower, 7% of it in finding the moved counts alone; on so few
    classes a difference costs more than its terms say.
    """
    differ = len(reps) >= _DIFFERENCE_MIN_CLASSES
    for c, row in enumerate(reps):
        counts = list(map(int.bit_count, map(row.__and__, members)))
        moved = list(compress(count(), map(ne, counts, before))) if c and differ else None
        # one term per moved count, against one per nonzero count
        if moved is not None and len(moved) <= len(counts) - counts.count(0):
            got = _square_row_by_difference(reps, got, counts, before, moved)
        else:
            got = _square_row_by_class(reps, counts)
        before = counts
        yield got


def verify_dsrg(d: Digraph) -> DsrgParams:
    """Recover (v, k, t, lambda, mu) from A^2, or raise with a witness.

    Checks, in order: constant out-degree k, before any n^2 work;
    in-degree k, from one bit-sliced sum of the distinct out-rows, each
    weighted by how many vertices have it; the graph is neither empty
    nor complete; then that row u of A^2 equals
    t*e_u + lambda*A_u + mu*(J - I - A)_u for every u.  t, lambda and mu
    are read from row 0: its diagonal, its first edge and its first
    off-diagonal non-edge.  The witness is the first failing vertex and
    the lowest column of its row that differs, as a vertex-by-vertex
    check would name them.

    Rows of A^2 depend only on the out-row, so the check runs per row
    class, in order of first appearance: a class's row of A^2 is summed
    once, compared into two masks of differing columns (one when
    t = mu), and its failing members, which differ only in their
    diagonal, are read from the masks.  The walk stops at the first
    class that starts past the first failing vertex found so far, whose
    row of A^2 and masks it keeps for the witness.  When the number D
    of classes is at most k, a row of A^2 is the sum of
    |N+(u) & M_r| * r over the classes r with vertex mask M_r, or, on a
    graph of at least _DIFFERENCE_MIN_CLASSES classes, the previous
    class's row plus the difference in these counts, when that has no
    more terms (_class_squares); otherwise the k out-rows of the
    out-neighbours are added.
    """
    n = d.n
    if n < 2:
        raise ValueError("need at least 2 vertices")
    if n > MAX_VERIFY_ORDER:
        raise TooLargeError(f"verification capped at {MAX_VERIFY_ORDER} vertices")
    rows, reps, members = d.rows, d.distinct, d.members
    full = (1 << n) - 1
    k = rows[0].bit_count()
    for row, mask in zip(reps, members):
        # the first vertex of the first bad class is the first bad vertex
        if row.bit_count() != k:
            raise NotRegularError(_low_bit(mask), f"out-degree {row.bit_count()} != {k}")
    in_degrees = _weighted_sum((mask.bit_count(), row) for row, mask in zip(reps, members))
    bad = _differ(in_degrees, _value_planes([(k, full)], k.bit_length()))
    if bad:
        v = _low_bit(bad)
        raise NotRegularError(v, f"in-degree {_count(in_degrees, v)} != {k}")
    if k == 0:
        raise DegenerateError("graph is empty; mu is unconstrained")
    if k == n - 1:
        raise DegenerateError("graph is complete; mu is unconstrained")

    if len(reps) <= k:
        squares = _class_squares(reps, members)
    else:
        squares = map(partial(_square_row, rows), reps)

    first = next(squares)
    t = _count(first, 0)
    lam = _count(first, _low_bit(rows[0]))
    mu = _count(first, _low_bit(full ^ rows[0] ^ 1))
    width = max(t, lam, mu).bit_length()
    u = n               # the first failing vertex found so far; n while none is
    witness = None      # (its row, that row of A^2, the two masks of its class)
    for c, (row, mask) in enumerate(zip(reps, members)):
        if _low_bit(mask) > u:
            break       # this class and the later ones start past the witness
        got = next(squares) if c else first
        off = full ^ row
        # the columns differing from lambda on the row and mu off it, and
        # from lambda on the row and t off it; a member's diagonal is the
        # one off-row column held to t, so member v fails iff
        # (to_mu minus column v) | (to_t at column v) is nonzero
        to_mu = _differ(got, _value_planes([(lam, row), (mu, off)], width))
        to_t = to_mu if t == mu else _differ(got, _value_planes([(lam, row), (t, off)], width))
        if to_mu & (to_mu - 1):
            failing = mask
        elif to_mu:
            failing = (mask & ~to_mu) | (mask & to_t)
        else:
            failing = mask & to_t
        if failing and _low_bit(failing) < u:
            u, witness = _low_bit(failing), (row, got, to_mu, to_t)
    if witness is not None:
        row, got, to_mu, to_t = witness
        diag = 1 << u
        w = _low_bit((to_mu & ~diag) | (to_t & diag))
        value = _count(got, w)
        if w == u:
            raise NonConstantError("t", u, f"diagonal entry {value} != {t}")
        if (row >> w) & 1:
            raise NonConstantError("lambda", (u, w), f"entry {value} != {lam}")
        raise NonConstantError("mu", (u, w), f"entry {value} != {mu}")
    return DsrgParams(n, k, t, lam, mu)


def _blow_up(d: Digraph, m: int) -> Digraph:
    """A tensor J_m, unchecked: vertex u becomes u*m .. u*m + m - 1.

    Each distinct row is spread once, and the vertices of a class share
    its spread row, so each run of the base becomes one run m times as
    long, handed to Digraph._from_runs: the new graph's index costs one
    step per run.
    """
    if m == 1:
        return d
    # bit v of a row moves to bit v*m, m - 1 zeros apart, and the product with
    # m ones fills bits v*m .. v*m + m - 1; once per class
    gap, width, block = "0" * (m - 1), f"0{d.n}b", (1 << m) - 1
    big = [int(gap.join(format(row, width)), 2) * block for row in d.distinct]
    # the base's runs: where its class differs from the vertex before's
    starts = list(compress(count(), map(ne, d.row_class, (None, *d.row_class))))
    heads = map(big.__getitem__, map(d.row_class.__getitem__, starts))
    lengths = map(mul, map(sub, [*starts[1:], d.n], starts), repeat(m))
    return Digraph._from_runs(d.n * m, heads, lengths)


def duval_multiple(d: Digraph, m: int) -> Digraph:
    """Tensor the adjacency matrix with the all-ones m x m block.

    Sends a verified graph with t = mu to one with parameters scaled
    by m; the diagonal blocks stay zero because the base graph is
    loopless, so the result is again loopless.  The base graph is
    verified here; the result is not, so verify_dsrg it to prove its
    parameters.
    """
    if m < 1:
        raise ValueError(f"multiplier must be positive, got {m}")
    if d.n * m > MAX_VERIFY_ORDER:
        raise TooLargeError(f"{d.n} x {m} vertices exceed the verification cap "
                            f"of {MAX_VERIFY_ORDER}")
    try:
        base = verify_dsrg(d)
    except DsrgError as exc:
        raise NotDsrgError(f"input graph is not a DSRG: {exc}") from exc
    if base.t != base.mu:
        raise TNotMuError(f"need t = mu, got t={base.t}, mu={base.mu}")
    return _blow_up(d, m)
