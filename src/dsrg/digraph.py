"""Loopless digraphs as packed bit rows, with exact DSRG verification.

Row u is a Python int whose bit v is set iff there is an edge u -> v.
The paper's graphs repeat out-rows (under the forward rule an
anti-flag's out-row depends on its point alone; a Duval multiple
repeats each base row m times), so each Digraph indexes its row
classes once, when it is built: `distinct` holds the distinct out-rows
in order of first appearance, `row_class[u]` the class of vertex u and
`members[c]` the vertex mask of class c.  Row checks, columns(),
to_dgr, the multiple, the verifier and iso work once per class.

The anti-flag builders take an incidence structure, number its
non-incident (point, block) pairs in lexicographic order, and wire
edges by the four membership rules, all through one routine: forward
(p in B') or backward (p' in B), each optionally with the edges
between distinct anti-flags on a common block (forward) or point
(backward).  The verifier recovers (v, k, t, lambda, mu) from A^2
rather than trusting any formula, in exact integer arithmetic: a row
of A^2 is held as bit planes (plane i is an n-bit int with bit i of
every count), so it is added and compared with a few wide-int
operations.  from_dgr walks the text by line offsets without
splitting it, so a row line that repeats the line before costs one
compare.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import partial
from itertools import compress, zip_longest

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

MAX_VERIFY_ORDER = 4096

# the line separators of str.splitlines; "\r\n" counts as one
_ASCII_SEPARATORS = "\n\r\x0b\x0c\x1c\x1d\x1e"
_LINE_SEPARATORS = _ASCII_SEPARATORS + "\x85\u2028\u2029"


@dataclass(frozen=True)
class Digraph:
    """Immutable loopless digraph; rows[u] bit v == edge u -> v."""

    n: int
    rows: tuple[int, ...]
    labels: tuple[AntiFlag, ...] | None = None
    distinct: tuple[int, ...] = field(init=False, repr=False, compare=False)
    row_class: tuple[int, ...] = field(init=False, repr=False, compare=False)
    members: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = tuple(self.rows)
        object.__setattr__(self, "rows", rows)
        n = self.n
        if len(rows) != n:
            raise ValueError(f"expected {n} rows, got {len(rows)}")
        if not {int}.issuperset(map(type, rows)):
            # a row-keyed dict would put 2.0 in the class of 2: check vertex by vertex
            for u, row in enumerate(rows):
                _check_classes((row,), (1 << u,), n)
        ids: dict[int, int] = {}
        row_class = tuple([ids.setdefault(row, len(ids)) for row in rows])
        members = [0] * len(ids)
        for u, c in enumerate(row_class):
            members[c] |= 1 << u
        _check_classes(ids, members, n)
        object.__setattr__(self, "distinct", tuple(ids))
        object.__setattr__(self, "row_class", row_class)
        object.__setattr__(self, "members", tuple(members))
        if self.labels is not None and len(self.labels) != n:
            raise ValueError("label count does not match vertex count")

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.rows[u] >> v) & 1)

    def out_degree(self, u: int) -> int:
        return self.rows[u].bit_count()

    def out_neighbors(self, u: int) -> list[int]:
        return _bits(self.rows[u])

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

        The lines are those of str.splitlines, walked by offset in the
        text without splitting it.  A row whose line, separator included,
        repeats the line before costs one compare; any other line is
        sliced and looked up in a dict local to the call, and checked and
        parsed at its first occurrence, so the first error is the one a
        line-by-line parse would raise.  A too-short file is reported
        before a bad row, as that parse does.
        """
        if not text:
            raise FormatError(1, "empty file")
        cut, o = _line_end(text, 0)
        head = text[:cut]
        try:
            n = int(head.strip())
        except ValueError:
            raise FormatError(1, f"expected a vertex count, got {head!r}") from None
        if n < 1:
            raise FormatError(1, f"vertex count must be positive, got {n}")
        end = len(text)
        rows = []
        line_rows: dict[str, int] = {}
        prev = ""                         # the last line sliced, "" if it ends in a lone "\r"
        for u in range(n):
            if prev and text.startswith(prev, o):
                o += len(prev)
            elif o == end:
                _count_rows(text, o, u, n)    # raises: the rows ran out
            else:
                stop = _line_end(text, o)[1]
                raw = text[o:stop]
                row = line_rows.get(raw)
                if row is None:
                    try:
                        row = line_rows[raw] = _parse_row(raw.strip(), n, 2 + u)
                    except FormatError:
                        _count_rows(text, o, u, n)    # a short file is reported first
                        raise
                # "x\r" must not match the "x\r" of "x\r\n"
                prev = "" if raw[-1] == "\r" else raw
                o = stop
            rows.append(row)
        lineno = 1 + n
        while o < end:
            lineno += 1
            cut, stop = _line_end(text, o)
            if text[o:cut].strip():
                raise FormatError(lineno, f"unexpected text after the {n} adjacency rows")
            o = stop
        return cls(n, tuple(rows))

    def to_edge_list(self) -> str:
        """One 'u v' line per edge, sorted by (u, v)."""
        return "".join(f"{u} {v}\n" for u, v in self.edges())

    @classmethod
    def from_edge_list(cls, text: str) -> "Digraph":
        """Parse 'u v' lines; the vertex count is max index + 1."""
        edges = []
        top = -1
        for i, raw in enumerate(text.splitlines(), start=1):
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
            edges.append((u, v))
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


def _line_end(text: str, o: int) -> tuple[int, int]:
    """(cut, stop) of the line at o: text[o:cut] is the line, text[o:stop] adds its separator.

    The separators are those of str.splitlines.  The one that ended the
    line before is searched first, the others only up to what it found,
    so a file that keeps to one separator is walked by finds that stop
    within the line, and the finds of a whole walk cover the text a
    bounded number of times.  ASCII text (str.isascii is O(1)) can hold
    only the ASCII separators, so the others are not searched there.
    """
    end = len(text)
    first = text[o - 1] if o else "\n"
    cut = text.find(first, o)
    if cut < 0:
        cut = end
    for sep in _ASCII_SEPARATORS if text.isascii() else _LINE_SEPARATORS:
        if sep != first:
            i = text.find(sep, o, cut)
            if i >= 0:
                cut = i
    if cut == end:
        return end, end
    return cut, cut + (2 if text.startswith("\r\n", cut) else 1)


def _count_rows(text: str, o: int, u: int, n: int) -> None:
    """FormatError if the text from o, where row u starts, holds fewer than n - u rows."""
    while u < n and o < len(text):
        o = _line_end(text, o)[1]
        u += 1
    if u < n:
        raise FormatError(1 + u, f"expected {n} adjacency rows, got {u}")


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
        # int.bit_length, not row.bit_length: a non-int row raises TypeError
        if row < 0 or int.bit_length(row) > n:
            if (first := _low_bit(mask)) < bad:
                bad, message = first, f"row {first} has bits outside 0..{n - 1}"
        elif row & mask and (loop := _low_bit(row & mask)) < bad:
            bad, message = loop, f"loop at vertex {loop}"
    if message:
        raise ValueError(message)


def _low_bit(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


_BIT_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def _bits(mask: int) -> list[int]:
    """The set bits of a non-negative mask, ascending, in one C-level pass:
    its binary digits, reversed and mapped to 0/1 bytes, select from the
    positions 0..width-1."""
    flags = format(mask, "b")[::-1].encode().translate(_BIT_FLAGS)
    return list(compress(range(len(flags)), flags))


# ---------------------------------------------------------------------------
# anti-flag builders
# ---------------------------------------------------------------------------

def _wire(s: IncidenceStructure, backward: bool, same: bool) -> Digraph:
    """The anti-flag digraph of s under one membership rule.

    Forward: (p, B) -> (p', B') iff p is a point of B'; backward: iff
    p' is a point of B.  `same` adds the edges between distinct
    anti-flags sharing the coordinate the rule reads at the target:
    the block (forward) or the point (backward).
    """
    flags = anti_flags(s)
    if not flags:
        raise NoAntiFlagsError("every point lies on every block")
    point_mask = [0] * s.num_points    # vertices whose point is x
    block_mask = [0] * len(s.blocks)   # vertices whose block is b
    for j, (p, b) in enumerate(flags):
        point_mask[p] |= 1 << j
        block_mask[b] |= 1 << j
    # forward: rule[x] = vertices whose block holds point x;
    # backward: rule[b] = vertices whose point lies on block b
    rule = [0] * (len(s.blocks) if backward else s.num_points)
    for b, block in enumerate(s.blocks):
        for x in block:
            if backward:
                rule[b] |= point_mask[x]
            else:
                rule[x] |= block_mask[b]
    rows = []
    for j, (p, b) in enumerate(flags):
        row = rule[b] if backward else rule[p]
        if same:
            row |= (point_mask[p] if backward else block_mask[b]) & ~(1 << j)
        rows.append(row)
    return Digraph(len(flags), tuple(rows), labels=tuple(flags))


def build_antiflag_forward(s: IncidenceStructure) -> Digraph:
    """Edge (p, B) -> (p', B') iff p is a point of B'."""
    return _wire(s, backward=False, same=False)


def build_antiflag_backward(s: IncidenceStructure) -> Digraph:
    """Edge (p, B) -> (p', B') iff p' is a point of B.

    Always equals the transpose of build_antiflag_forward(s).
    """
    return _wire(s, backward=True, same=False)


def build_antiflag_backward_loopy(s: IncidenceStructure) -> Digraph:
    """Edge (p, B) -> (p', B') iff p' in B, or p = p' and B != B'.

    Requires a 2-design with b + lambda > 2r; the extra same-point edges
    keep the graph loopless because B = B' is excluded.
    """
    try:
        d = verify_2design(s)
    except DsrgError as exc:
        raise PreconditionFailedError(f"not a 2-design: {exc}") from exc
    if d.b_blocks + d.lambda_pair <= 2 * d.r_replication:
        raise PreconditionFailedError(
            f"need b + lambda > 2r, got {d.b_blocks} + {d.lambda_pair} "
            f"<= 2*{d.r_replication}")
    return _wire(s, backward=True, same=True)


def build_partition_spiked(s: IncidenceStructure) -> Digraph:
    """Edge (x, S) -> (x', S') iff x in S', or S = S' and x != x'.

    Only defined on partition structures, where the blocks are exactly
    the groups.
    """
    if s.groups is None or set(s.blocks) != set(s.groups):
        raise NotPartitionStructureError("blocks must equal the group partition")
    return _wire(s, backward=False, same=True)


# ---------------------------------------------------------------------------
# verification and the multiple construction
# ---------------------------------------------------------------------------

def _add(planes: list[int], x: int) -> None:
    """Add the 0/1 vector x to the counters held as bit planes.

    Ripple carry: plane i takes the sum bit, the carry moves up, and
    the loop stops as soon as no position carries.
    """
    for i, plane in enumerate(planes):
        planes[i] = plane ^ x
        x &= plane
        if not x:
            return
    if x:
        planes.append(x)


def _add_planes(acc: list[int], planes: list[int], shift: int) -> None:
    """Add the counts held in `planes`, times 2**shift, to those in `acc`.

    A ripple-carry adder over whole planes: plane i of `planes` meets
    plane i + shift of `acc`, and the carry runs on until it dies out.
    """
    if len(acc) < shift + len(planes):
        acc.extend([0] * (shift + len(planes) - len(acc)))
    carry = 0
    i = shift
    for plane in planes:
        a = acc[i]
        half = a ^ plane
        acc[i] = half ^ carry
        carry = (a & plane) | (carry & half)
        i += 1
    while carry:
        if i == len(acc):
            acc.append(carry)
            return
        a = acc[i]
        acc[i] = a ^ carry
        carry &= a
        i += 1


def _add_times(acc: list[int], planes: list[int], c: int) -> None:
    """Add c times the counts in `planes` to `acc`: one shifted add per bit of c."""
    shift = 0
    while c:
        if c & 1:
            _add_planes(acc, planes, shift)
        c >>= 1
        shift += 1


def _weighted_sum(terms: Iterable[tuple[int, int]]) -> list[int]:
    """Bit planes of the sum of c * x over the (c, x) terms, x a 0/1 vector.

    The vectors of one count are added into one plane stack, and each
    stack is then multiplied by its count, so a count shared by many
    terms costs one multiplication.  Terms with c = 0 are skipped.
    """
    stacks: dict[int, list[int]] = {}
    for c, x in terms:
        if c:
            stack = stacks.get(c)
            if stack is None:
                stack = stacks[c] = []
            _add(stack, x)
    acc: list[int] = []
    for c, stack in stacks.items():
        _add_times(acc, stack, c)
    return acc


def _square_row(rows: tuple[int, ...], row: int) -> list[int]:
    """The row of A^2 of a vertex with out-row `row`, one add per out-neighbour."""
    planes: list[int] = []
    for v in _bits(row):
        _add(planes, rows[v])
    return planes


def _square_row_by_class(reps: tuple[int, ...], members: tuple[int, ...], row: int) -> list[int]:
    """The row of A^2 of a vertex with out-row `row`, one add per out-row class."""
    return _weighted_sum(((row & m).bit_count(), r) for r, m in zip(reps, members))


def _value_planes(parts: list[tuple[int, int]], width: int) -> list[int]:
    """Bit planes of the vector that equals `value` on each disjoint `mask`.

    Every value must be below 2**width.
    """
    planes = [0] * width
    for value, mask in parts:
        i = 0
        while value:
            if value & 1:
                planes[i] |= mask
            value >>= 1
            i += 1
    return planes


def _differ(got: list[int], want: list[int]) -> int:
    """Mask of the positions where two plane stacks hold different counts."""
    diff = 0
    for a, b in zip_longest(got, want, fillvalue=0):
        diff |= a ^ b
    return diff


def _count(planes: list[int], w: int) -> int:
    return sum(((plane >> w) & 1) << i for i, plane in enumerate(planes))


def verify_dsrg(d: Digraph) -> DsrgParams:
    """Recover (v, k, t, lambda, mu) from A^2, or raise with a witness.

    Checks, in order: constant out-degree k, before any n^2 work;
    in-degree k, from one bit-sliced sum of the distinct out-rows, each
    weighted by how many vertices have it; the graph is neither empty
    nor complete; then, row by row, that row u of A^2 equals
    t*e_u + lambda*A_u + mu*(J - I - A)_u.  t, lambda and mu are read
    from row 0: its diagonal, its first edge and its first off-diagonal
    non-edge.  A failing row names the lowest column that differs as
    the witness.

    Rows of A^2 depend only on the out-row, so each is summed once per
    row class.  When the number D of classes is at most k, row u of A^2
    is the sum of |N+(u) & M_r| * r over the classes r with vertex mask
    M_r; otherwise the k out-rows of the out-neighbours are added.
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
        square = partial(_square_row_by_class, reps, members)
    else:
        square = partial(_square_row, rows)

    first = square(rows[0])
    t = _count(first, 0)
    lam = _count(first, _low_bit(rows[0]))
    mu = _count(first, _low_bit(full ^ rows[0] ^ 1))
    width = max(t, lam, mu).bit_length()
    # class -> (columns differing from lambda on the row and mu off it,
    #           columns differing from lambda on the row and t off it);
    # the diagonal of vertex u is the one off-row column held to t
    seen: list[tuple[int, int] | None] = [None] * len(reps)
    for u, c in enumerate(d.row_class):
        row = rows[u]
        masks = seen[c]
        if masks is None:
            got = square(row) if c else first
            off = full ^ row
            masks = (_differ(got, _value_planes([(lam, row), (mu, off)], width)),
                     _differ(got, _value_planes([(lam, row), (t, off)], width)))
            seen[c] = masks
        if not (masks[0] or masks[1]):
            continue
        diag = 1 << u
        bad = (masks[0] & ~diag) | (masks[1] & diag)
        if bad:
            w = _low_bit(bad)
            value = _count(square(row), w)
            if w == u:
                raise NonConstantError("t", u, f"diagonal entry {value} != {t}")
            if (row >> w) & 1:
                raise NonConstantError("lambda", (u, w), f"entry {value} != {lam}")
            raise NonConstantError("mu", (u, w), f"entry {value} != {mu}")
    return DsrgParams(n, k, t, lam, mu)


def _blow_up(d: Digraph, m: int) -> Digraph:
    """A tensor J_m, unchecked: vertex u becomes u*m .. u*m + m - 1."""
    if m == 1:
        return d
    # bit v of a row becomes bits v*m .. v*m + m - 1, once per class
    spread = str.maketrans({"0": "0" * m, "1": "1" * m})
    width = f"0{d.n}b"
    big = [int(format(row, width).translate(spread), 2) for row in d.distinct]
    spread_rows = list(map(big.__getitem__, d.row_class))
    rows = [0] * (d.n * m)
    for i in range(m):
        rows[i::m] = spread_rows
    return Digraph(d.n * m, tuple(rows))


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
