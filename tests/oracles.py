"""Independent brute-force checkers used to cross-examine the library.

Everything here is written directly from the defining axioms with plain
loops and no shared code with the package verifiers: partial geometry
(constant line size >= 2, constant point degree >= 2, two points on at
most one line, constant tau >= 1 over anti-flags), group divisibility
(same-group pairs never together, cross-group pairs together a constant
positive number of times) and 2-designs (constant block size >= 2,
replication and positive pair count).  Each checker returns a tuple on
success and None on rejection.

popcount_verify_dsrg is the first DSRG verifier, one popcount per entry
of A^2, kept as the reference for the bit-sliced verifier; witness_problem
recounts a rejection's witness from the 0/1 matrix.  reference_verify_dsrg
is the first bit-sliced verifier, which adds the out-row of every
out-neighbour, kept verbatim with its plane helpers as the reference for
the out-row-class kernel: its outcomes, witnesses and messages must be
identical.  wire_rule builds an
anti-flag digraph from one edge rule of the README's family table, one
vertex pair at a time.  reference_are_isomorphic and
reference_canonical_form are the package's first isomorphism search and
canonical labelling, kept verbatim as the reference for dsrg.iso.
The reference_* structure functions are the package's first builders,
validation and verifiers of dsrg.incidence (per-point dot products,
frozenset intersections and a pair-count dict), kept verbatim as the
reference for its table-driven builders and bitmask verifiers
(reference_verify_gdd included);
reference_bucket_hyperplane_blocks is the hyperplane kernel that came
next, one list.append per point, kept as the reference for the kernel
that builds each parallel class in one transpose.  reference_add_table
is make_field's first addition table, one digit-vector sum per entry.
reference_mul_inv_tables builds make_field's first product and inverse
tables as it did: polynomial products reduced by the modulus, exp/log
tables off the first primitive element, and the plain modular tables
of a prime field.  Its modulus is found on its own, as the
smallest monic polynomial of degree e that is no product of two monic
polynomials of lower degree.
reference_to_dgr and reference_from_dgr are the package's first dgr
writer and parser, which format and parse every row line by line, kept
verbatim as the reference for the ones that handle each distinct row
once.  reference_bits is the first bit lister, one lowest bit at a time,
and the references above list bits with it.  reference_columns is the
first Digraph.columns, one vertex at a time, kept as the reference for
the one that ORs each out-row class's vertex mask into its columns.
reference_orbits is the search's first orbit computation, rebuilt from
every automorphism each time one is found, kept verbatim as the
reference for the union-find that merges only the new ones.
reference_intersection_profile is are_isomorphic's first intersection
invariant, one popcount per arc of each out-row class, kept as the
reference for the one that takes one popcount per pair of classes.
reference_color_tuple is the refinement's first histogram sort key,
which expands each packed histogram into its sorted color tuple, kept
verbatim as the reference for the key read from the counts.
brute_row_classes groups a digraph's vertices by out-row one vertex at
a time, the reference for the row-class index that Digraph builds per
run of equal rows.  reference_catalog_instances is the first catalog
grid, which writes out each family's vertex count, kept verbatim as the
reference for the grid that reads it from expected_params.
small_digraphs lists every out-regular digraph of a small order up to
a relabelling that fixes vertex 0's out-neighbours, the ground truth for
which parameter tuples occur at all.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from itertools import chain, combinations, product, repeat, zip_longest
from operator import itemgetter
from struct import Struct

from dsrg import (
    BUDGET_EXCEEDED,
    DEFAULT_NODE_BUDGET,
    ISOMORPHIC,
    NOT_ISOMORPHIC,
    DegenerateError,
    Digraph,
    DsrgParams,
    FormatError,
    IncidenceStructure,
    IsoResult,
    NonConstantError,
    NotGroupDivisibleError,
    NotPartialGeometryError,
    NotRegularError,
    NotTwoDesignError,
    OutOfBudgetError,
    TooLargeError,
    anti_flags,
    make_field,
    verify_mapping,
)
from dsrg.digraph import MAX_VERIFY_ORDER
from dsrg.families import (
    FANO_DESIGN_TUPLE,
    AffineResolvable,
    ApPencils,
    FamilySpec,
    Gdd,
    Partition,
    PartitionSpiked,
    Transversal,
    TwoDesignBack,
    TwoDesignBackLoopy,
    _is_prime_power,
)
from dsrg.incidence import Block, DesignParams, GddParams, PgParams


def is_prime_power(q):
    p = next(d for d in range(2, q + 1) if q % d == 0)
    while q % p == 0:
        q //= p
    return q == 1


def brute_pg(num_points, blocks):
    if not blocks:
        return None
    sizes = {len(b) for b in blocks}
    if len(sizes) != 1 or min(sizes) < 2:
        return None
    kappa = sizes.pop()
    degrees = [sum(1 for b in blocks if p in b) for p in range(num_points)]
    if len(set(degrees)) != 1 or degrees[0] < 2:
        return None
    rho = degrees[0]
    for p1, p2 in combinations(range(num_points), 2):
        if sum(1 for b in blocks if p1 in b and p2 in b) > 1:
            return None
    taus = set()
    for p in range(num_points):
        for line in blocks:
            if p in line:
                continue
            taus.add(sum(1 for b in blocks
                         if p in b and any(x in line for x in b)))
    if len(taus) != 1 or min(taus) < 1:
        return None
    return (kappa, rho, taus.pop())


def brute_gdd(num_points, blocks, groups):
    if groups is None:
        return None
    if len({len(g) for g in groups}) != 1:
        return None
    q = len(groups[0])
    group_of = {}
    for gi, g in enumerate(groups):
        for p in g:
            group_of[p] = gi
    cross = set()
    for p1, p2 in combinations(range(num_points), 2):
        c = sum(1 for b in blocks if p1 in b and p2 in b)
        if group_of[p1] == group_of[p2]:
            if c != 0:
                return None
        else:
            cross.add(c)
    if len(cross) != 1 or min(cross) < 1:
        return None
    return (len(groups), q, cross.pop())


def brute_2design(num_points, blocks):
    if num_points < 2 or not blocks:
        return None
    sizes = {len(b) for b in blocks}
    if len(sizes) != 1 or min(sizes) < 2:
        return None
    k = sizes.pop()
    degrees = [sum(1 for b in blocks if p in b) for p in range(num_points)]
    if len(set(degrees)) != 1:
        return None
    lams = {sum(1 for b in blocks if p1 in b and p2 in b)
            for p1, p2 in combinations(range(num_points), 2)}
    if len(lams) != 1 or min(lams) < 1:
        return None
    return (num_points, len(blocks), k, degrees[0], lams.pop())


# edge rule (p, B) -> (p2, B2) of each anti-flag builder, as in the README
WIRE_RULES = {
    "forward": lambda blocks, p, b, p2, b2: p in blocks[b2],
    "backward": lambda blocks, p, b, p2, b2: p2 in blocks[b],
    "spiked": lambda blocks, p, b, p2, b2: p in blocks[b2] or (b == b2 and p != p2),
    "loopy": lambda blocks, p, b, p2, b2: p2 in blocks[b] or (p == p2 and b != b2),
}


def wire_rule(num_points, blocks, rule):
    """(rows, labels) of the anti-flag digraph under WIRE_RULES[rule].

    The vertices are the non-incident (point, block) pairs in
    lexicographic order; bit j of rows[i] is set iff the rule puts an
    edge from vertex i to vertex j.
    """
    edge = WIRE_RULES[rule]
    flags = [(p, b) for p in range(num_points) for b in range(len(blocks))
             if p not in blocks[b]]
    rows = []
    for p, b in flags:
        row = 0
        for j, (p2, b2) in enumerate(flags):
            if edge(blocks, p, b, p2, b2):
                row |= 1 << j
        rows.append(row)
    return rows, flags


def schoolbook_square(adj):
    """Plain triple-loop A^2 over lists of 0/1 ints."""
    n = len(adj)
    out = [[0] * n for _ in range(n)]
    for u in range(n):
        for x in range(n):
            if adj[u][x]:
                row = adj[x]
                for w in range(n):
                    out[u][w] += row[w]
    return out


def dense(d):
    """Digraph to a list-of-lists 0/1 matrix."""
    return [[1 if (d.rows[u] >> v) & 1 else 0 for v in range(d.n)] for u in range(d.n)]


def walks2(adj, x, y):
    """A^2[x][y] of a 0/1 matrix: the number of walks x -> z -> y."""
    return sum(adj[x][z] * adj[z][y] for z in range(len(adj)))


def witness_problem(adj, exc):
    """None iff the rejection `exc` names a real break of the DSRG conditions.

    k, t, lambda and mu are the out-degree and A^2 entries of row 0:
    its diagonal, its first edge and its first off-diagonal non-edge.
    The message must quote the recounted value at the witness.
    """
    n = len(adj)
    k = sum(adj[0])
    if isinstance(exc, NotRegularError):
        v = exc.vertex
        out_deg = sum(adj[v])
        in_deg = sum(adj[x][v] for x in range(n))
        if out_deg != k and f"out-degree {out_deg} != {k}" in str(exc):
            return None
        if in_deg != k and f"in-degree {in_deg} != {k}" in str(exc):
            return None
        return f"vertex {v} has out-degree {out_deg}, in-degree {in_deg}, k={k}: {exc}"
    if not isinstance(exc, NonConstantError):
        return f"unexpected rejection {exc!r}"
    if exc.which == "t":
        x = y = exc.witness
        ref = (0, 0)
        quote = "diagonal entry"
    else:
        x, y = exc.witness
        edge = exc.which == "lambda"
        ref = (0, next(w for w in range(1, n) if adj[0][w] == edge))
        quote = "entry"
        if x == y or adj[x][y] != edge:
            return f"{exc.witness} is not a {exc.which} entry"
    got, want = walks2(adj, x, y), walks2(adj, *ref)
    if got == want:
        return f"A^2 at {exc.witness} equals A^2 at {ref}"
    if f"{quote} {got} != {want}" not in str(exc):
        return f"message does not quote A^2 = {got} against {want}: {exc}"
    return None


def popcount_verify_dsrg(d) -> DsrgParams:
    """The package's first verify_dsrg, kept verbatim as the reference.

    Recovers (v, k, t, lambda, mu) from A^2, or raises with a witness.

    Checks, in order: constant in- and out-degree k; the graph is
    neither empty nor complete; A^2 is constant on the diagonal (t),
    on edges (lambda) and on off-diagonal non-edges (mu).
    """
    n = d.n
    if n < 2:
        raise ValueError("need at least 2 vertices")
    if n > MAX_VERIFY_ORDER:
        raise TooLargeError(f"verification capped at {MAX_VERIFY_ORDER} vertices")
    rows = d.rows
    cols = reference_columns(d)
    k = rows[0].bit_count()
    for u in range(n):
        if rows[u].bit_count() != k:
            raise NotRegularError(u, f"out-degree {rows[u].bit_count()} != {k}")
    for u in range(n):
        if cols[u].bit_count() != k:
            raise NotRegularError(u, f"in-degree {cols[u].bit_count()} != {k}")
    if k == 0:
        raise DegenerateError("graph is empty; mu is unconstrained")
    if k == n - 1:
        raise DegenerateError("graph is complete; mu is unconstrained")

    t = (rows[0] & cols[0]).bit_count()
    for u in range(1, n):
        tu = (rows[u] & cols[u]).bit_count()
        if tu != t:
            raise NonConstantError("t", u, f"diagonal entry {tu} != {t}")

    lam = mu = None
    for u in range(n):
        row = rows[u]
        for w in range(n):
            if u == w:
                continue
            paths = (row & cols[w]).bit_count()
            if (row >> w) & 1:
                if lam is None:
                    lam = paths
                elif paths != lam:
                    raise NonConstantError("lambda", (u, w), f"entry {paths} != {lam}")
            else:
                if mu is None:
                    mu = paths
                elif paths != mu:
                    raise NonConstantError("mu", (u, w), f"entry {paths} != {mu}")
    assert lam is not None and mu is not None
    return DsrgParams(n, k, t, lam, mu)


# ---------------------------------------------------------------------------
# The bit-sliced verify_dsrg as first written: row u of A^2 is the sum of
# the out-rows of the k out-neighbours of u, added one by one into bit
# planes.  Kept verbatim, helpers included, as the reference for
# dsrg.digraph.verify_dsrg.
# ---------------------------------------------------------------------------

def reference_bits(mask: int) -> list[int]:
    """The set bits of mask, ascending: the package's first _bits, which
    peels the lowest bit off one at a time."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def reference_columns(d: Digraph) -> list[int]:
    """In-neighbor masks: bit u of reference_columns(d)[v] == edge u -> v."""
    cols = [0] * d.n
    for u, row in enumerate(d.rows):
        for v in reference_bits(row):
            cols[v] |= 1 << u
    return cols


def brute_row_classes(d: Digraph) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """(distinct, row_class, members) grouped one vertex at a time."""
    first, members = {}, {}
    for u, row in enumerate(d.rows):
        first.setdefault(row, u)
        members[row] = members.get(row, 0) | 1 << u
    distinct = sorted(first, key=first.__getitem__)
    number = {row: c for c, row in enumerate(distinct)}
    return (tuple(distinct), tuple(number[row] for row in d.rows),
            tuple(members[row] for row in distinct))


def _low_bit(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _add(planes: list[int], x: int) -> None:
    for i, plane in enumerate(planes):
        planes[i] = plane ^ x
        x &= plane
        if not x:
            return
    if x:
        planes.append(x)


def _square_row(rows: tuple[int, ...], row: int) -> list[int]:
    planes: list[int] = []
    for v in reference_bits(row):
        _add(planes, rows[v])
    return planes


def _value_planes(parts: list[tuple[int, int]], width: int) -> list[int]:
    return [sum(mask for value, mask in parts if (value >> i) & 1) for i in range(width)]


def _differ(got: list[int], want: list[int]) -> int:
    diff = 0
    for a, b in zip_longest(got, want, fillvalue=0):
        diff |= a ^ b
    return diff


def _count(planes: list[int], w: int) -> int:
    return sum(((plane >> w) & 1) << i for i, plane in enumerate(planes))


def reference_verify_dsrg(d: Digraph) -> DsrgParams:
    """Recover (v, k, t, lambda, mu) from A^2, or raise with a witness.

    Same checks and order as dsrg.verify_dsrg: out-degree, in-degree
    (one plane add per row), degenerate, then row by row against
    t*e_u + lambda*A_u + mu*(J - I - A)_u with t, lambda and mu read
    from row 0, naming the lowest differing column.
    """
    n = d.n
    if n < 2:
        raise ValueError("need at least 2 vertices")
    if n > MAX_VERIFY_ORDER:
        raise TooLargeError(f"verification capped at {MAX_VERIFY_ORDER} vertices")
    rows = d.rows
    full = (1 << n) - 1
    k = rows[0].bit_count()
    for u, row in enumerate(rows):
        if row.bit_count() != k:
            raise NotRegularError(u, f"out-degree {row.bit_count()} != {k}")
    in_degrees: list[int] = []
    for row in rows:
        _add(in_degrees, row)
    bad = _differ(in_degrees, _value_planes([(k, full)], k.bit_length()))
    if bad:
        v = _low_bit(bad)
        raise NotRegularError(v, f"in-degree {_count(in_degrees, v)} != {k}")
    if k == 0:
        raise DegenerateError("graph is empty; mu is unconstrained")
    if k == n - 1:
        raise DegenerateError("graph is complete; mu is unconstrained")

    first = _square_row(rows, rows[0])
    t = _count(first, 0)
    lam = _count(first, _low_bit(rows[0]))
    mu = _count(first, _low_bit(full ^ rows[0] ^ 1))
    width = max(t, lam, mu).bit_length()
    seen: dict[int, tuple[int, int]] = {}
    for u, row in enumerate(rows):
        masks = seen.get(row)
        if masks is None:
            got = _square_row(rows, row) if u else first
            off = full ^ row
            masks = (_differ(got, _value_planes([(lam, row), (mu, off)], width)),
                     _differ(got, _value_planes([(lam, row), (t, off)], width)))
            seen[row] = masks
        diag = 1 << u
        bad = (masks[0] & ~diag) | (masks[1] & diag)
        if bad:
            w = _low_bit(bad)
            value = _count(_square_row(rows, row), w)
            if w == u:
                raise NonConstantError("t", u, f"diagonal entry {value} != {t}")
            if (row >> w) & 1:
                raise NonConstantError("lambda", (u, w), f"entry {value} != {lam}")
            raise NonConstantError("mu", (u, w), f"entry {value} != {mu}")
    return DsrgParams(n, k, t, lam, mu)


# ---------------------------------------------------------------------------
# The isomorphism search and canonical labelling as first written: two
# separate individualize-refine searches with no invariant root colouring
# and no automorphism pruning.  Kept verbatim as the reference for
# dsrg.iso, whose canonical strings and labellings must equal these.
# ---------------------------------------------------------------------------

class _Neighborhoods:
    __slots__ = ("out", "inn")

    def __init__(self, d: Digraph):
        self.out = [reference_bits(row) for row in d.rows]
        self.inn = [reference_bits(col) for col in reference_columns(d)]


def _signatures(g: _Neighborhoods, colors: list[int], dist2: bool) -> list[tuple]:
    sigs = []
    for v in range(len(colors)):
        sig = (colors[v],
               tuple(sorted(colors[w] for w in g.out[v])),
               tuple(sorted(colors[w] for w in g.inn[v])))
        if dist2:
            walk2 = sorted(colors[y] for w in g.out[v] for y in g.out[w])
            sig += (tuple(walk2),)
        sigs.append(sig)
    return sigs


def _refine(graphs: list[_Neighborhoods], colorings: list[list[int]],
            dist2: bool) -> list[list[int]] | None:
    """Jointly refine to a fixpoint with a shared color numbering.

    Returns None as soon as the per-color histograms of two graphs
    disagree (no isomorphism can survive that).
    """
    ncolors = len(set(colorings[0]))
    while True:
        sig_lists = [_signatures(g, c, dist2) for g, c in zip(graphs, colorings)]
        order = {sig: i for i, sig in enumerate(sorted(set().union(*map(set, sig_lists))))}
        colorings = [[order[sig] for sig in sigs] for sigs in sig_lists]
        if len(colorings) == 2 and Counter(colorings[0]) != Counter(colorings[1]):
            return None
        now = len(order)
        if now == ncolors:
            return colorings
        ncolors = now


def reference_are_isomorphic(d1: Digraph, d2: Digraph,
                             budget: int = DEFAULT_NODE_BUDGET) -> IsoResult:
    """Search for an explicit isomorphism d1 -> d2.

    Returns ISOMORPHIC with a verified mapping, NOT_ISOMORPHIC after
    exhausting the search tree, or BUDGET_EXCEEDED after expanding
    `budget` tree nodes.
    """
    nodes = 0
    if d1.n != d2.n:
        return IsoResult(NOT_ISOMORPHIC, nodes=nodes)
    if d1.edge_count() != d2.edge_count():
        return IsoResult(NOT_ISOMORPHIC, nodes=nodes)
    n = d1.n
    g1, g2 = _Neighborhoods(d1), _Neighborhoods(d2)

    def search(c1: list[int], c2: list[int], depth: int):
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise _BudgetHit
        refined = _refine([g1, g2], [c1, c2], dist2=depth > 0)
        if refined is None:
            return None
        c1, c2 = refined
        counts = Counter(c1)
        if len(counts) == n:
            where2 = [0] * n
            for u, color in enumerate(c2):
                where2[color] = u
            mapping = [where2[color] for color in c1]
            return mapping if verify_mapping(d1, d2, mapping) else None
        target = min((c for c, cnt in counts.items() if cnt > 1),
                     key=lambda c: (counts[c], c))
        v = next(u for u in range(n) if c1[u] == target)
        fresh = len(counts)
        for u in (u for u in range(n) if c2[u] == target):
            n1, n2 = list(c1), list(c2)
            n1[v] = fresh
            n2[u] = fresh
            found = search(n1, n2, depth + 1)
            if found is not None:
                return found
        return None

    try:
        mapping = search([0] * n, [0] * n, 0)
    except _BudgetHit:
        return IsoResult(BUDGET_EXCEEDED, nodes=nodes)
    if mapping is None:
        return IsoResult(NOT_ISOMORPHIC, nodes=nodes)
    return IsoResult(ISOMORPHIC, mapping=tuple(mapping), nodes=nodes)


class _BudgetHit(Exception):
    pass


def reference_canonical_form(d: Digraph, budget: int = DEFAULT_NODE_BUDGET
                             ) -> tuple[str, tuple[int, ...]]:
    """Minimum adjacency string over all search leaves, with a relabeling
    that achieves it.

    Isomorphic graphs share the string; apply_mapping with the returned
    permutation reproduces it.  Exhaustive, so keep the input small.
    """
    n = d.n
    g = _Neighborhoods(d)
    best: list = [None, None]
    nodes = 0

    def leaf_string(colors: list[int]) -> str:
        where = [0] * n
        for u, color in enumerate(colors):
            where[color] = u
        lines = []
        for i in range(n):
            row = d.rows[where[i]]
            lines.append("".join("1" if (row >> where[j]) & 1 else "0" for j in range(n)))
        return "".join(lines)

    def search(colors: list[int], depth: int):
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise OutOfBudgetError(f"canonical labeling exceeded {budget} nodes")
        colors = _refine([g], [colors], dist2=depth > 0)[0]
        counts = Counter(colors)
        if len(counts) == n:
            s = leaf_string(colors)
            if best[0] is None or s < best[0]:
                best[0], best[1] = s, tuple(colors)
            return
        target = min((c for c, cnt in counts.items() if cnt > 1),
                     key=lambda c: (counts[c], c))
        fresh = len(counts)
        for u in (u for u in range(n) if colors[u] == target):
            child = list(colors)
            child[u] = fresh
            search(child, depth + 1)

    search([0] * n, 0)
    return best[0], best[1]


def reference_intersection_profile(d: Digraph) -> list[tuple[int, ...]]:
    """Per out-row class of d, the sorted multiset {|N+(u) & N+(w)| : w in
    N+(u)} of its vertices u, one popcount per arc."""
    return [tuple(sorted((row & d.rows[w]).bit_count() for w in reference_bits(row)))
            for row in d.distinct]


def reference_orbits(n: int, automorphisms, path: tuple[int, ...]) -> list[int]:
    """Least vertex of each vertex's orbit under the group generated by
    the automorphisms that fix every vertex of path."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for perm in automorphisms:
        if any(perm[x] != x for x in path):
            continue
        for x, y in enumerate(perm):
            a, b = find(x), find(y)
            if a != b:
                parent[max(a, b)] = min(a, b)
    return [find(x) for x in range(n)]


def reference_color_tuple(histogram: int, fields: Struct) -> tuple[int, ...]:
    """The sorted color tuple of a histogram packed in the fields of
    `fields` (field c counts color c), the refinement's first sort key."""
    counts = fields.unpack(histogram.to_bytes(fields.size, "little"))
    return tuple(chain.from_iterable(map(repeat, range(len(counts)), counts)))


# ---------------------------------------------------------------------------
# the first GF(p^e) tables
# ---------------------------------------------------------------------------

def reference_add_table(p: int, e: int) -> tuple[tuple[int, ...], ...]:
    """make_field's first addition table: per entry, add the base-p digit
    vectors of a and b mod p and read the sum back as an index."""
    q = p ** e

    def digits(value):
        return [value // p ** i % p for i in range(e)]

    def index_of(vec):
        return sum(c * p ** i for i, c in enumerate(vec))

    return tuple(tuple(index_of([(x + y) % p for x, y in zip(digits(a), digits(b))])
                       for b in range(q)) for a in range(q))


def _poly_mul_mod_p(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def _poly_rem(a: list[int], m: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Remainder of a modulo the monic polynomial m, coefficients mod p."""
    a = list(a)
    dm = len(m) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i] % p
        if c:
            for j in range(dm + 1):
                a[i - dm + j] = (a[i - dm + j] - c * m[j]) % p
    return tuple(c % p for c in a[:dm])


def _reference_modulus(p: int, e: int) -> tuple[int, ...]:
    """The first monic polynomial of degree e over Z_p, low coefficients
    first and read as a base-p number, that no two monic polynomials of
    degrees d and e - d with 1 <= d <= e/2 multiply to."""
    def monic(d):
        return [tuple(t // p ** i % p for i in range(d)) + (1,) for t in range(p ** d)]

    reducible = {_poly_mul_mod_p(f, g, p)
                 for d in range(1, e // 2 + 1) for f in monic(d) for g in monic(e - d)}
    return next(m for m in monic(e) if m not in reducible)


def reference_mul_inv_tables(p: int, e: int):
    """(modulus, mul_table, inv_table) of GF(p^e) as make_field first built them."""
    q = p ** e
    modulus = _reference_modulus(p, e)
    if e == 1:
        mul = tuple(tuple((a * b) % p for b in range(p)) for a in range(p))
        inv = tuple(0 if a == 0 else pow(a, p - 2, p) for a in range(p))
        return modulus, mul, inv

    vecs = [tuple(i // p ** j % p for j in range(e)) for i in range(q)]

    def index_of(vec: tuple[int, ...]) -> int:
        val = 0
        for c in reversed(vec):
            val = val * p + c
        return val

    def mul_raw(a: int, b: int) -> int:
        prod = _poly_mul_mod_p(vecs[a], vecs[b], p)
        return index_of(_poly_rem(list(prod), modulus, p))

    # discrete log tables off a primitive element keep table construction
    # at O(q) polynomial products instead of O(q^2)
    exp = log = None
    for g in range(2, q):
        powers = [1]
        x = g
        while x != 1:
            powers.append(x)
            x = mul_raw(x, g)
        if len(powers) == q - 1:
            exp = powers
            log = [0] * q
            for i, val in enumerate(powers):
                log[val] = i
            break
    assert exp is not None, "no primitive element found"

    mul_rows = []
    for a in range(q):
        if a == 0:
            mul_rows.append((0,) * q)
            continue
        la = log[a]
        mul_rows.append(tuple(0 if b == 0 else exp[(la + log[b]) % (q - 1)]
                              for b in range(q)))

    inv = [0] * q
    for a in range(1, q):
        inv[a] = exp[(q - 1 - log[a]) % (q - 1)]
    return modulus, tuple(mul_rows), tuple(inv)


# ---------------------------------------------------------------------------
# the first incidence builders, validation and verifiers
# ---------------------------------------------------------------------------

def reference_validate(num_points, blocks, groups=None, parallel_classes=None):
    """IncidenceStructure's first _validate on plain arguments; raises or returns None.
    A point count that is not an int (a float, a bool, NaN) is a TypeError
    before any block is read, and so is a point that is not an int
    (isinstance: a bool passes) before its block's range test."""
    n = num_points
    if type(n) is not int:
        raise TypeError(f"point count {n!r} is not an int")
    if n < 1:
        raise ValueError("structure needs at least one point")
    seen = set()
    for i, b in enumerate(blocks):
        if not b:
            raise ValueError(f"block {i} is empty")
        for p in b:
            if not isinstance(p, int):
                raise TypeError(f"block {i} holds {p!r}, which is not an int")
        if any(p < 0 or not p < n for p in b):
            raise ValueError(f"block {i} has a point outside 0..{n - 1}")
        if any(b[j] >= b[j + 1] for j in range(len(b) - 1)):
            raise ValueError(f"block {i} is not strictly increasing")
        if b in seen:
            raise ValueError(f"duplicate block {b}")
        seen.add(b)
    if groups is not None:
        flat = [p for g in groups for p in g]
        if sorted(flat) != list(range(n)):
            raise ValueError("groups do not partition the point set")
        for g in groups:
            if any(g[j] >= g[j + 1] for j in range(len(g) - 1)):
                raise ValueError("group classes must be strictly increasing")
    if parallel_classes is not None:
        flat = [i for c in parallel_classes for i in c]
        if sorted(flat) != list(range(len(blocks))):
            raise ValueError("parallel classes do not partition the block list")
        for c in parallel_classes:
            covered: list[int] = []
            for i in c:
                covered.extend(blocks[i])
            if sorted(covered) != list(range(n)):
                raise ValueError(f"parallel class {c} is not a partition of the points")


def reference_build_affine_plane(q: int) -> IncidenceStructure:
    if q > 64:
        raise TooLargeError(f"affine plane order capped at 64, got {q}")
    f = make_field(q)
    blocks: list[Block] = []
    for m in f.elements():
        for b in f.elements():
            blocks.append(tuple(sorted(x * q + f.add(f.mul(m, x), b) for x in f.elements())))
    for c in f.elements():
        blocks.append(tuple(c * q + y for y in f.elements()))
    classes = tuple(tuple(range(i * q, (i + 1) * q)) for i in range(q + 1))
    return IncidenceStructure(q * q, tuple(blocks), parallel_classes=classes)


def reference_build_hyperplane_design(q: int, n: int,
                                      block_budget: int = 10 ** 5) -> IncidenceStructure:
    if n < 2:
        raise ValueError(f"need dimension at least 2, got {n}")
    if q ** n > block_budget:
        raise OutOfBudgetError(f"{q}^{n} points exceed budget {block_budget}")
    f = make_field(q)
    points = list(product(f.elements(), repeat=n))

    def dot(a, x):
        acc = 0
        for ai, xi in zip(a, x):
            acc = f.add(acc, f.mul(ai, xi))
        return acc

    blocks: list[Block] = []
    for a in product(f.elements(), repeat=n):
        nz = next((i for i, ai in enumerate(a) if ai), None)
        if nz is None or a[nz] != 1:
            continue
        values = [dot(a, x) for x in points]
        for c in f.elements():
            blocks.append(tuple(i for i, val in enumerate(values) if val == c))
    classes = tuple(tuple(range(i * q, (i + 1) * q)) for i in range(len(blocks) // q))
    return IncidenceStructure(q ** n, tuple(blocks), parallel_classes=classes)


def reference_bucket_hyperplane_blocks(q: int, n: int) -> list[Block]:
    """The blocks of build_hyperplane_design's second kernel, for in-budget (q, n).

    a.x is tabulated over all points one coordinate at a time, then the
    point indices are bucketed by value with one list.append per point.
    """
    f = make_field(q)
    points = list(range(q ** n))
    blocks: list[Block] = []
    for a in product(f.elements(), repeat=n):
        nz = next((i for i, ai in enumerate(a) if ai), None)
        if nz is None or a[nz] != 1:
            continue
        values = [0]
        for ai in a:
            at_multiples = itemgetter(*f.mul_table[ai])
            spread = [at_multiples(add_row) for add_row in f.add_table]
            values = list(chain.from_iterable(map(spread.__getitem__, values)))
        buckets: list[list[int]] = [[] for _ in range(q)]
        append = [bucket.append for bucket in buckets]
        for x, val in zip(points, values):
            append[val](x)
        blocks.extend(map(tuple, buckets))
    return blocks


def _reference_pair_counts(s: IncidenceStructure) -> dict[tuple[int, int], int]:
    counts: dict[tuple[int, int], int] = {}
    for b in s.blocks:
        for pair in combinations(b, 2):
            counts[pair] = counts.get(pair, 0) + 1
    return counts


def reference_verify_pg(s: IncidenceStructure) -> PgParams:
    if not s.blocks:
        raise NotPartialGeometryError(1, None, "no lines")
    kappa = len(s.blocks[0])
    for i, b in enumerate(s.blocks):
        if len(b) != kappa:
            raise NotPartialGeometryError(1, i, f"line sizes differ: {len(b)} != {kappa}")
    if kappa < 2:
        raise NotPartialGeometryError(1, 0, f"line size {kappa} < 2")
    degrees = [0] * s.num_points
    for b in s.blocks:
        for p in b:
            degrees[p] += 1
    rho = degrees[0]
    for p, d in enumerate(degrees):
        if d != rho:
            raise NotPartialGeometryError(1, p, f"point degrees differ: {d} != {rho}")
    if rho < 2:
        raise NotPartialGeometryError(1, 0, f"point degree {rho} < 2")
    for pair, c in _reference_pair_counts(s).items():
        if c > 1:
            raise NotPartialGeometryError(2, pair, f"points share {c} lines")
    sets = s.block_sets()
    p2b = s.point_to_blocks()
    tau = None
    for flag in anti_flags(s):
        line = sets[flag.block]
        crossing = sum(1 for i in p2b[flag.point] if line & sets[i])
        if tau is None:
            tau = crossing
        if crossing != tau:
            raise NotPartialGeometryError(
                3, tuple(flag), f"anti-flag sees {crossing} lines, expected {tau}")
    if tau is None:
        raise NotPartialGeometryError(3, None, "no anti-flag exists")
    if tau < 1:
        raise NotPartialGeometryError(3, None, "anti-flags see 0 transversal lines")
    return PgParams(kappa, rho, tau)


def reference_verify_gdd(s: IncidenceStructure) -> GddParams:
    if s.groups is None:
        raise NotGroupDivisibleError(None, "structure has no group partition")
    q = len(s.groups[0])
    for i, g in enumerate(s.groups):
        if len(g) != q:
            raise NotGroupDivisibleError(i, f"group sizes differ: {len(g)} != {q}")
    group_of = [0] * s.num_points
    for gi, g in enumerate(s.groups):
        for p in g:
            group_of[p] = gi
    counts = _reference_pair_counts(s)
    for (a, b), c in counts.items():
        if group_of[a] == group_of[b]:
            raise NotGroupDivisibleError((a, b), f"same-group pair occurs in {c} blocks")
    index = None
    witnessed = None
    for a in range(s.num_points):
        for b in range(a + 1, s.num_points):
            if group_of[a] == group_of[b]:
                continue
            c = counts.get((a, b), 0)
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


def reference_verify_2design(s: IncidenceStructure) -> DesignParams:
    if s.num_points < 2:
        raise NotTwoDesignError(None, "need at least 2 points")
    if not s.blocks:
        raise NotTwoDesignError(None, "no blocks")
    k = len(s.blocks[0])
    for i, b in enumerate(s.blocks):
        if len(b) != k:
            raise NotTwoDesignError(i, f"block sizes differ: {len(b)} != {k}")
    if k < 2:
        raise NotTwoDesignError(0, f"block size {k} < 2")
    degrees = [0] * s.num_points
    for b in s.blocks:
        for p in b:
            degrees[p] += 1
    r = degrees[0]
    for p, d in enumerate(degrees):
        if d != r:
            raise NotTwoDesignError(p, f"replication differs: {d} != {r}")
    counts = _reference_pair_counts(s)
    lam = None
    for a in range(s.num_points):
        for b in range(a + 1, s.num_points):
            c = counts.get((a, b), 0)
            if lam is None:
                lam = c
            if c != lam:
                raise NotTwoDesignError(
                    (a, b), f"pair occurs in {c} blocks, expected {lam}")
    if not lam:
        raise NotTwoDesignError(None, "pairs occur in 0 blocks")

    s_count = None
    m_int = None
    if s.parallel_classes is not None:
        s_count = len(s.parallel_classes[0])
        sets = s.block_sets()
        class_of = [0] * len(s.blocks)
        for ci, c in enumerate(s.parallel_classes):
            for i in c:
                class_of[i] = ci
        sizes = {len(sets[i] & sets[j])
                 for i in range(len(sets)) for j in range(i + 1, len(sets))
                 if class_of[i] != class_of[j]}
        if len(sizes) == 1:
            m_int = sizes.pop()
    return DesignParams(s.num_points, len(s.blocks), k, r, lam, s=s_count, m_int=m_int)


# ---------------------------------------------------------------------------
# the first dgr writer and parser, one format or parse per row
# ---------------------------------------------------------------------------

def reference_to_dgr(d: Digraph) -> str:
    """dgr/1: a line with n, then n lines of n characters from {0,1}."""
    width = f"0{d.n}b"
    lines = [str(d.n)]
    lines.extend(format(row, width)[::-1] for row in d.rows)
    return "\n".join(lines) + "\n"


def reference_from_dgr(text: str) -> Digraph:
    # a line ends at "\n"; the piece after a final "\n" is no line
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    if not lines:
        raise FormatError(1, "empty file")
    try:
        n = int(lines[0].strip())
    except ValueError:
        raise FormatError(1, f"expected a vertex count, got {lines[0]!r}") from None
    if n < 1:
        raise FormatError(1, f"vertex count must be positive, got {n}")
    if len(lines) < n + 1:
        raise FormatError(len(lines), f"expected {n} adjacency rows, got {len(lines) - 1}")
    rows = []
    for u in range(n):
        line = lines[1 + u].strip()
        # only 0s and 1s: checked before int(), which also takes "_" and signs
        if len(line) != n or line.count("0") + line.count("1") != n:
            raise FormatError(2 + u, f"expected {n} characters from {{0,1}}")
        rows.append(int(line[::-1], 2))
    for i in range(n + 1, len(lines)):
        if lines[i].strip():
            raise FormatError(1 + i, f"unexpected text after the {n} adjacency rows")
    return Digraph(n, tuple(rows))


# ---------------------------------------------------------------------------
# the first catalog grid, each family's vertex count written out
# ---------------------------------------------------------------------------

def reference_catalog_instances(max_order: int) -> list[tuple[FamilySpec, bool]]:
    """Deterministic instance grid; the bool marks formula-only rows."""
    out: list[tuple[FamilySpec, bool]] = []
    q = 2
    while 2 * q * q * (q - 1) <= max_order:
        l = 2
        while l * q ** l * (q - 1) <= max_order:
            out.append((Gdd(l, q), False))
            l += 1
        q += 1
    q = 2
    while 2 * q * q * (q - 1) <= max_order:
        if _is_prime_power(q):
            # the affine plane of order 2 has only 3 pencils; the closed
            # form still evaluates for l up to 8, so those go formula-only
            l = 2
            while l <= (8 if q == 2 else q + 1) and l * q * q * (q - 1) <= max_order:
                out.append((ApPencils(q, l), l > q + 1))
                l += 1
        q += 1
    q = 2
    while q ** 3 * (q - 1) <= max_order:
        if _is_prime_power(q):
            out.append((Transversal(q), False))
        q += 1
    for q in (1, 2, 3):
        for l in (3, 4):
            if q * l * (l - 1) <= max_order:
                out.append((Partition(q, l), False))
                out.append((PartitionSpiked(q, l), False))
    for l in range(2, 8):
        if 2 * l * 4 <= max_order:
            out.append((AffineResolvable(2, 2, l), False))
    if 28 <= max_order:
        out.append((TwoDesignBack(*FANO_DESIGN_TUPLE), False))
        out.append((TwoDesignBackLoopy(*FANO_DESIGN_TUPLE), False))
    return out


# every out-regular digraph of a small order
# ---------------------------------------------------------------------------

def small_digraphs(v: int) -> Iterator[Digraph]:
    """Every loopless out-regular digraph on v vertices with 0 < k < v-1
    and N+(0) = {1..k}.  Any out-regular digraph with such a k can be
    relabelled to one of these, so each tuple of order v that occurs
    occurs here.  v = 3, 4, 5 and 6 give 4, 54, 1,808 and 206,250 graphs."""
    for k in range(1, v - 1):
        choices = [[sum(1 << w for w in out)
                    for out in combinations([w for w in range(v) if w != u], k)]
                   for u in range(1, v)]
        for rest in product(*choices):
            yield Digraph(v, ((1 << (k + 1)) - 2, *rest))
