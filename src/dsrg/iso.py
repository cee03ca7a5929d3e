"""Digraph isomorphism at small scale.

One individualize-refine search serves both `are_isomorphic` and
`canonical_form`.  The graphs this package produces are
vertex-regular, so plain degree refinement never splits anything; the
refinement here colors by multisets of out- and in-neighbor colors,
iterated to a fixpoint, and once a vertex has been individualized it
also mixes in the color multiset at the end of directed 2-walks.  Each
multiset is summed as a packed per-color histogram (one big integer),
and the distinct histograms are sorted by a key read from their counts
that orders them as the sorted color tuples they stand for (the color
with more members first where two first differ, a prefix before its
extensions), so the colors are exactly those of sorting the tuples
themselves, though no tuple is built.  The histograms are summed once
per row class, not once per vertex: vertices with one out-row share
their out- and 2-walk histograms whatever their own colors, and
vertices with one in-column (a row class of the transpose) share their
in-histogram, so each class sums once and its rank is spread to its
members.  A tree node targets the smallest non-singleton color class
(ties to the lowest color id) and individualizes a tuple of nodes, each
in a fresh color in tuple order: for `canonical_form` one vertex of the
target class, for `are_isomorphic` a whole vertex cell where it can (see
below).  The root invariant and a mapping's row images are also
computed once per row class.

`are_isomorphic` first compares what an isomorphism must preserve: the
sorted sizes of the out-row classes and of the in-column classes (it
maps classes onto classes of the same size), and the multisets of the
per-class invariant {|N+(u) & N+(w)| : w in N+(u)}, paired with the
class size; |N+(u) & N+(w)| depends only on w's out-row class, so it
takes one popcount per pair of classes, not one per arc.  A difference
proves the pair non-isomorphic before any tree node.  Otherwise it
searches the class structure.  A(u, v) depends only on u's out-row
class r and v's in-column class c, so a digraph is fixed up to
relabelling by the 0/1 class incidence B[r][c] and the cell sizes
N[r][c]; two digraphs are isomorphic exactly when bijections of their
row classes and of their column classes carry (B, N) onto (B', N').
The search runs on a multigraph on D + C nodes, an arc r -> c where
B = 1 and N[r][c] arcs c -> r, with row nodes colored by invariant
rank and column nodes in a color of their own.  Twins share a cell, so a
Duval multiple costs what its base does.  Both structures are refined
jointly under one color numbering.  A vertex cell is a row node and a
column node that share a vertex (N[r][c] > 0), and each tree level
fixes one: the first structure fixes u, the first node of the target
class X, with w, the first node that shares a cell with u in Y, the
smallest non-singleton class among u's cell partners; the second
branches over every cell (u', w') of X x Y, in index order.  An
isomorphism maps cell (u, w) onto a cell of the same two colors, so
the tree is complete; where u's partners are all singletons, u alone
is fixed against each node of X.  A leaf pairs the members of each
cell with those of its image cell, in index order.  Every returned
mapping is re-checked edge by edge, a negative answer means the tree
was exhausted, and running out of the node budget is its own outcome,
never a silent "no".

`canonical_form` searches the vertices of one graph from the trivial
coloring and keeps the first leaf with the least adjacency string.  Two
leaves with equal strings compose to an automorphism; a branch in the
orbit of an explored sibling under the automorphisms known so far that
fix the path to the node is skipped, because its subtree is an image of
an explored one and holds no earlier least leaf (McKay and Piperno,
Practical graph isomorphism II, 2014).  Twins, vertices with one
out-row and one in-column, are known before the first leaf: swapping
two of them is an automorphism.  The automorphisms that fix the path
keep the refined colors, so each node's union-find forest of orbits
covers its target cell only; it starts from the twin classes within
the cell and merges the leaf automorphisms found since it last looked.
Duval multiples and `partition` for q >= 2 are full of twins:
`partition(2,3)` takes 19 nodes (39 with leaf automorphisms alone, 757
unpruned).  Only `canonical_form` prunes: `are_isomorphic` branches
over every candidate cell of its level, since class structures have no
twins and it collects no automorphisms.  IsoResult counts tree nodes,
refinement rounds and the deepest tree level reached, a level being one
individualized tuple.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat, starmap
from operator import add
from struct import Struct

from .digraph import Digraph, _format_row
from .errors import OutOfBudgetError, SizeMismatchError
from .planes import _bits

DEFAULT_NODE_BUDGET = 10 ** 6

ISOMORPHIC = "isomorphic"
NOT_ISOMORPHIC = "not_isomorphic"
BUDGET_EXCEEDED = "budget_exceeded"


@dataclass(frozen=True)
class IsoResult:
    """Outcome of an isomorphism search; mapping is set only when found.

    nodes counts class-structure tree nodes, rounds the refinement
    rounds, depth the deepest tree level reached (the root is level 0;
    each level individualizes one tuple, a row node with a column node
    it shares a cell with, or one node where it has no such partner).
    """

    status: str
    mapping: tuple[int, ...] | None = None
    nodes: int = 0
    rounds: int = 0
    depth: int = 0


def _images(d: Digraph, perm) -> list[int]:
    """Per vertex of d, the image of its out-row under perm (bit perm[v]
    for bit v), taken once per out-row class."""
    return _spread([sum(1 << perm[v] for v in _bits(row)) for row in d.distinct], d.row_class)


def _require_permutation(perm, n: int) -> None:
    if sorted(perm) != list(range(n)):
        raise ValueError("mapping is not a permutation")


def verify_mapping(d1: Digraph, d2: Digraph, perm) -> bool:
    """True iff perm sends every edge and non-edge of d1 onto d2."""
    if d1.n != d2.n or len(perm) != d1.n:
        raise SizeMismatchError(
            f"sizes differ: {d1.n} vertices, {d2.n} vertices, mapping of {len(perm)}")
    _require_permutation(perm, d1.n)
    return _images(d1, perm) == list(map(d2.rows.__getitem__, perm))


def apply_mapping(d: Digraph, perm) -> Digraph:
    """Relabel d so that old vertex u becomes perm[u]."""
    if len(perm) != d.n:
        raise SizeMismatchError(f"mapping of {len(perm)} for {d.n} vertices")
    _require_permutation(perm, d.n)
    inverse = sorted(range(d.n), key=perm.__getitem__)    # old vertex of each new one
    rows = tuple(map(_images(d, perm).__getitem__, inverse))
    labels = None if d.labels is None else tuple(map(d.labels.__getitem__, inverse))
    return Digraph(d.n, rows, labels=labels)


def _spread(per_class: list, row_class: tuple[int, ...]) -> list:
    """Spread one value per class to every vertex, row_class[v] being v's class."""
    return list(map(per_class.__getitem__, row_class))


class _Neighborhoods:
    """Neighbor lists of a digraph, one per row class.

    out[c] lists the out-neighbors of out-row class c, and walk[c] the
    out-row class of each of them; inn[c] lists the in-neighbors of
    in-column class c, a row class of the transpose.  out_class[v] and
    in_class[v] are the classes of vertex v.  A list names a neighbor
    once per arc, so a multigraph repeats it.
    """

    __slots__ = ("out", "out_class", "walk", "inn", "in_class", "most", "cells")

    def __init__(self, d: Digraph):
        t = d.transpose()
        out = list(map(_bits, d.distinct))
        self._link(out, d.row_class, [list(map(d.row_class.__getitem__, nbrs)) for nbrs in out],
                   list(map(_bits, t.distinct)), t.row_class)

    @classmethod
    def of_classes(cls, d: Digraph, t: Digraph, nbrs: list[list[int]]) -> "_Neighborhoods":
        """The class structure of d, t being its transpose and nbrs[r] the
        out-neighbors of out-row class r: a multigraph on node r per
        out-row class and node D + c per in-column class, with an arc
        r -> D + c where class r's out-row holds class c's vertices, and
        one arc D + c -> r per vertex of out-row class r and in-column
        class c.  Every node is its own class.  cells[x] lists, in
        increasing order, the nodes of the other side that share a
        nonempty cell with node x: the column nodes c with N[x][c] > 0
        for a row node, the row nodes r with N[r][x] > 0 for a column
        node."""
        n_rows = len(d.distinct)
        col = list(map(n_rows.__add__, t.row_class))     # each vertex's column node
        out = [sorted(set(map(col.__getitem__, vs))) for vs in nbrs]
        inn = [list(map(col.__getitem__, _bits(mask))) for mask in d.members]
        out += [list(map(d.row_class.__getitem__, _bits(mask))) for mask in t.members]
        cells = [sorted(set(nodes)) for nodes in inn + out[n_rows:]]
        inn += [[] for _ in t.distinct]
        for r in range(n_rows):
            for c in out[r]:
                inn[c].append(r)
        nodes = range(len(out))
        g = cls.__new__(cls)
        g._link(out, nodes, out, inn, nodes)
        g.cells = cells
        return g

    def _link(self, out, out_class, walk, inn, in_class) -> None:
        self.out, self.out_class, self.walk = out, out_class, walk
        self.inn, self.in_class = inn, in_class
        # a histogram count is at most an in-degree, or for 2-walks the
        # largest out-degree squared
        self.most = max([len(nbrs) for nbrs in inn] + [len(nbrs) ** 2 for nbrs in out],
                        default=0)


# struct field codes by byte width
_FIELDS = ((1, "B"), (2, "H"), (4, "I"), (8, "Q"))


def _histograms(g: _Neighborhoods, colors: list[int], one: list[int],
                dist2: bool) -> list[tuple[list[int], tuple[int, ...]]]:
    """Packed color histograms of the out-neighbors, in-neighbors and (with
    dist2) 2-walk ends, one per row class, each list paired with the
    vertices' classes: field c of a histogram counts color c."""
    weight = list(map(one.__getitem__, colors))
    out = _sums(weight, g.out)
    parts = [(out, g.out_class), (_sums(weight, g.inn), g.in_class)]
    if dist2:
        parts.append((_sums(out, g.walk), g.out_class))
    return parts


def _sums(values: list[int], lists: list[list[int]]) -> list[int]:
    """The sum of values over each list of indices, in C-level maps."""
    return list(map(sum, map(map, repeat(values.__getitem__), lists)))


def _histogram_key(ncolors: int, size: int, code: str):
    """Sort key of the histograms packed in ncolors fields of size bytes
    (struct code `code`) that orders them as their sorted color tuples.

    The key is read from the counts (a_0 .. a_L), L the last color
    present, without expanding the tuple: the complements top - 1 - a_c,
    top = 2**(8*size), for c < L (the complemented histogram's bytes, or
    its fields unpacked when wider than a byte), then a_L.  Where two
    tuples first differ, the one with more of that color is the smaller
    unless it holds no later color, since a prefix is the smaller.  The
    complements give the first rule, a prefix of complements the second,
    and equal complements leave the fewer of the last color first.  The
    empty histogram sorts first.
    """
    bits = 8 * size
    fields = Struct(f"<{ncolors}{code}")
    full = (1 << (bits * ncolors)) - 1

    def key(histogram: int) -> tuple:
        if not histogram:
            return ()
        last = (histogram.bit_length() - 1) // bits
        complements = (full ^ histogram).to_bytes(fields.size, "little")
        if size > 1:
            complements = fields.unpack(complements)
        return complements[:last], histogram >> (bits * last)

    return key


def _signatures(graphs: list[_Neighborhoods], colorings: list[list[int]],
                dist2: bool) -> list[list[tuple]]:
    """Per vertex (color, out, in[, walk2]), each multiset replaced by the
    rank of its sorted color tuple among the distinct ones of this round.

    The ranks order and equate exactly as the tuples do, so sorting these
    signatures numbers the colors as sorting the tuples would.  The
    histograms are ranked by _histogram_key, which never builds a tuple.
    """
    ncolors = 1 + max(max(c, default=-1) for c in colorings)
    size, code = next((size, code) for size, code in _FIELDS
                      if max(g.most for g in graphs) < 1 << (8 * size))
    one = [1 << (8 * size * c) for c in range(ncolors)]
    key = _histogram_key(ncolors, size, code)
    parts = [_histograms(g, c, one, dist2) for g, c in zip(graphs, colorings)]
    ranked = []
    for i in range(len(parts[0])):
        distinct = sorted(set().union(*(p[i][0] for p in parts)), key=key)
        rank = {h: r for r, h in enumerate(distinct)}
        # each class's rank, spread lazily to the vertices of the class
        ranked.append([map(list(map(rank.__getitem__, per_class)).__getitem__, row_class)
                       for per_class, row_class in (p[i] for p in parts)])
    return [list(zip(colors, *(r[j] for r in ranked))) for j, colors in enumerate(colorings)]


def _refine(graphs: list[_Neighborhoods], colorings: list[list[int]],
            dist2: bool) -> tuple[list[list[int]] | None, int]:
    """Jointly refine to a fixpoint with a shared color numbering.

    Returns the colorings (None as soon as the per-color histograms of
    two graphs disagree; no isomorphism can survive that) and the number
    of refinement rounds run.  A round that leaves every node its own
    color ends the refinement, since no further round can split a color.
    """
    ncolors = len(set(colorings[0]))
    rounds = 0
    while True:
        rounds += 1
        sig_lists = _signatures(graphs, colorings, dist2)
        order = {sig: i for i, sig in enumerate(sorted(set().union(*map(set, sig_lists))))}
        colorings = [[order[sig] for sig in sigs] for sigs in sig_lists]
        if len(colorings) == 2 and Counter(colorings[0]) != Counter(colorings[1]):
            return None, rounds
        now = len(order)
        if now == ncolors or now == len(colorings[0]):
            return colorings, rounds
        ncolors = now


class _BudgetHit(Exception):
    pass


def _smallest(counts: Counter, colors) -> int | None:
    """The smallest non-singleton class among colors, ties to the lowest
    color, counts giving the class sizes; None if all are singletons."""
    return min((c for c in colors if counts[c] > 1), key=lambda c: (counts[c], c),
               default=None)


class _Search:
    """Depth-first individualize-refine tree over one graph or a pair.

    Each tree level individualizes a tuple of nodes in every graph: its
    nodes take fresh colors in tuple order, so the i-th node of one
    graph's tuple can only go onto the i-th of the other's.  The target
    is the smallest non-singleton color class, and tuples() lists a
    node's branches; here they are those of are_isomorphic over two
    class structures.  With two graphs the refinement is joint, the
    first graph's tuple is fixed and only the second graph branches.
    leaf(colorings) is called at each discrete leaf and returns True to
    stop the search.
    """

    def __init__(self, graphs: list[_Neighborhoods], budget: int, leaf):
        self.graphs = graphs
        self.budget = budget
        self.leaf = leaf
        self.nodes = self.rounds = self.depth = 0

    def tuples(self, colorings: list[list[int]], counts: Counter, target: int,
               path: tuple[int, ...]):
        """Per branch, the tuple of nodes each class structure individualizes.

        In the first, u is the first node of the target class X, Y the
        smallest non-singleton class among the nodes that share a
        nonempty cell with u, and w the first of those in Y.  The second
        branches over every (u', w') in X x Y that shares a nonempty
        cell, in index order: an isomorphism maps cell (u, w) onto one
        of them.  Where u's cell partners are all singletons, u alone
        goes against each u' in X.
        """
        (c1, c2), (g1, g2) = colorings, self.graphs
        u = c1.index(target)
        y = _smallest(counts, {c1[v] for v in g1.cells[u]})
        cell = [x for x, c in enumerate(c2) if c == target]
        if y is None:
            return (((u,), (x,)) for x in cell)
        w = next(v for v in g1.cells[u] if c1[v] == y)
        return (((u, w), (x, v)) for x in cell for v in g2.cells[x] if c2[v] == y)

    def visit(self, colorings: list[list[int]], path: tuple[int, ...] = (),
              depth: int = 0) -> bool:
        """Search the subtree below colorings, reached in depth levels that
        individualized path, the last graph's nodes."""
        self.nodes += 1
        if self.nodes > self.budget:
            raise _BudgetHit
        self.depth = max(self.depth, depth)
        colorings, rounds = _refine(self.graphs, colorings, dist2=depth > 0)
        self.rounds += rounds
        if colorings is None:
            return False
        counts = Counter(colorings[0])
        if len(counts) == len(colorings[0]):
            return self.leaf(colorings)
        fresh = len(counts)
        for branch in self.tuples(colorings, counts, _smallest(counts, counts), path):
            children = [list(c) for c in colorings]
            for coloring, nodes in zip(children, branch):
                for color, x in enumerate(nodes, fresh):
                    coloring[x] = color
            if self.visit(children, path + branch[-1], depth + 1):
                return True
        return False


class _CanonicalSearch(_Search):
    """The search of canonical_form over one graph, which skips a branch in
    the orbit of an explored sibling under the automorphisms that fix the
    path: twin swaps, and the leaf automorphisms appended to
    `automorphisms`.

    Twins share twin_key[v], one out-row class and one in-column class.
    They are never adjacent, since there are no loops, so swapping two
    twins is an automorphism; it fixes the path when neither twin is on
    it, and the root coloring is trivial, so refinement gives the twins
    off the path one color.
    """

    def __init__(self, graphs: list[_Neighborhoods], budget: int, leaf):
        super().__init__(graphs, budget, leaf)
        self.twin_key = list(zip(graphs[0].out_class, graphs[0].in_class))
        self.automorphisms: list[tuple[int, ...]] = []

    def tuples(self, colorings: list[list[int]], counts: Counter, target: int,
               path: tuple[int, ...]):
        """One vertex of the target class per branch, as branches() prunes."""
        cell = [u for u, c in enumerate(colorings[0]) if c == target]
        return (((u,),) for u in self.branches(cell, path))

    def branches(self, cell: list[int], path: tuple[int, ...]):
        """The vertices of cell whose orbit holds no explored sibling.

        The automorphisms that fix path keep the refined colors, so each
        orbit lies in the cell, and the path vertices, being singletons,
        are not in it.  A union-find forest over the cell, rooted at the
        least vertex of each orbit, starts each vertex at the least cell
        member with its twin key and merges each automorphism once, when
        the next vertex is looked at.  The least vertex of a grown orbit
        came earlier, was explored or skipped, and is in seen, which
        needs no update when orbits merge.
        """
        first: dict[tuple[int, int], int] = {}
        parent = dict(zip(cell, map(first.setdefault, map(self.twin_key.__getitem__, cell),
                                    cell)))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        automorphisms = self.automorphisms
        known = 0
        seen: set[int] = set()      # least vertices of the explored orbits
        for u in cell:
            for perm in automorphisms[known:]:
                if any(perm[x] != x for x in path):
                    continue
                for x in cell:
                    a, b = find(x), find(perm[x])
                    if a != b:
                        parent[max(a, b)] = min(a, b)
            known = len(automorphisms)
            if find(u) not in seen:
                yield u
                seen.add(find(u))


def _intersection_profile(d: Digraph) -> list[tuple[int, ...]]:
    """Per out-row class, the sorted multiset {|N+(u) & N+(w)| : w in N+(u)}
    of its vertices u.

    |N+(u) & N+(w)| depends only on w's out-row class r', so with R the
    class's row, each r' adds |R & rep_r'| taken |R & M_r'| times, rep_r'
    being the row of r' and M_r' its members: D popcounts per class, not
    one per arc.
    """
    profiles = []
    for row in d.distinct:
        pairs = sorted(((row & rep).bit_count(), hits)
                       for rep, members in zip(d.distinct, d.members)
                       if (hits := (row & members).bit_count()))
        profiles.append(tuple(chain.from_iterable(starmap(repeat, pairs))))
    return profiles


def _class_sizes(members: tuple[int, ...]) -> list[int]:
    """Sorted sizes of the classes whose vertex masks are members."""
    return sorted(map(int.bit_count, members))


def _cell_order(d: Digraph, t: Digraph, image) -> list[int]:
    """The vertices of d, t being its transpose, sorted by the images of
    their two class-structure nodes (r for out-row class r, D + c for
    in-column class c), in index order within a cell."""
    rows, size = len(d.distinct), len(image)
    key = list(map(add, map([size * x for x in image[:rows]].__getitem__, d.row_class),
                   map(image[rows:].__getitem__, t.row_class)))
    return sorted(range(d.n), key=key.__getitem__)


def are_isomorphic(d1: Digraph, d2: Digraph,
                   budget: int = DEFAULT_NODE_BUDGET) -> IsoResult:
    """Search for an explicit isomorphism d1 -> d2.

    Returns ISOMORPHIC with a verified mapping, NOT_ISOMORPHIC when an
    invariant differs or after exhausting the search tree, or
    BUDGET_EXCEEDED after expanding `budget` class-structure nodes.
    """
    if (d1.n != d2.n or d1.edge_count() != d2.edge_count()
            or _class_sizes(d1.members) != _class_sizes(d2.members)):
        return IsoResult(NOT_ISOMORPHIC)
    p1, p2 = _intersection_profile(d1), _intersection_profile(d2)
    if (sorted(zip(p1, map(int.bit_count, d1.members)))
            != sorted(zip(p2, map(int.bit_count, d2.members)))):
        return IsoResult(NOT_ISOMORPHIC)
    t1, t2 = d1.transpose(), d2.transpose()
    if _class_sizes(t1.members) != _class_sizes(t2.members):
        return IsoResult(NOT_ISOMORPHIC)
    # the out-neighbors of each out-row class
    nbrs1, nbrs2 = list(map(_bits, d1.distinct)), list(map(_bits, d2.distinct))
    g1, g2 = _Neighborhoods.of_classes(d1, t1, nbrs1), _Neighborhoods.of_classes(d2, t2, nbrs2)
    order2 = _cell_order(d2, t2, range(len(g2.out)))
    mapping = None

    def leaf(colorings: list[list[int]]) -> bool:
        nonlocal mapping
        c1, c2 = colorings
        # the node of g2 of each color, then the image of each node of g1
        image = list(map(sorted(range(len(c2)), key=c2.__getitem__).__getitem__, c1))
        # cell (r, c) of d1 goes onto cell (image r, image c) of d2, in index order
        candidate = list(map(dict(zip(_cell_order(d1, t1, image), order2)).__getitem__,
                             range(d1.n)))
        if verify_mapping(d1, d2, candidate):
            mapping = tuple(candidate)
        return mapping is not None

    # row nodes by profile rank, column nodes in one color after them
    rank = {p: i for i, p in enumerate(sorted(set(p1)))}
    roots = [[*map(rank.__getitem__, p), *repeat(len(rank), len(t.distinct))]
             for p, t in ((p1, t1), (p2, t2))]
    search = _Search([g1, g2], budget, leaf)
    try:
        search.visit(roots)
    except _BudgetHit:
        status = BUDGET_EXCEEDED
    else:
        status = NOT_ISOMORPHIC if mapping is None else ISOMORPHIC
    return IsoResult(status, mapping=mapping, nodes=search.nodes,
                     rounds=search.rounds, depth=search.depth)


def _leaf_string(d: Digraph, labels: tuple[int, ...]) -> str:
    """Row-major adjacency string of d relabeled by labels."""
    n = len(labels)
    rows = [0] * n
    for label, image in zip(labels, _images(d, labels)):
        rows[label] = image
    return "".join(_format_row(row, n) for row in rows)


def canonical_form(d: Digraph, budget: int = DEFAULT_NODE_BUDGET) -> tuple[str, tuple[int, ...]]:
    """Minimum adjacency string over all search leaves, with a relabeling
    that achieves it.

    Isomorphic graphs share the string; apply_mapping with the returned
    permutation reproduces it.  Exhaustive up to automorphism pruning,
    so keep the input small.
    """
    first = best = None

    def leaf(colorings: list[list[int]]) -> bool:
        nonlocal first, best
        labels = tuple(colorings[0])
        s = _leaf_string(d, labels)
        for ref in (first, best):
            if ref is not None and s == ref[0]:
                if labels != ref[1]:
                    where = [0] * d.n
                    for u, label in enumerate(ref[1]):
                        where[label] = u
                    search.automorphisms.append(tuple(where[label] for label in labels))
                break
        if first is None:
            first = (s, labels)
        if best is None or s < best[0]:
            best = (s, labels)
        return False

    search = _CanonicalSearch([_Neighborhoods(d)], budget, leaf)
    try:
        search.visit([[0] * d.n])
    except _BudgetHit:
        raise OutOfBudgetError(f"canonical labeling exceeded {budget} nodes") from None
    return best
