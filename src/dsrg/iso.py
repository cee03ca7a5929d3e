"""Digraph isomorphism at small scale.

One individualize-refine search serves both `are_isomorphic` and
`canonical_form`.  The graphs this package produces are
vertex-regular, so plain degree refinement never splits anything; the
refinement here colors by multisets of out- and in-neighbor colors,
iterated to a fixpoint, and once a vertex has been individualized it
also mixes in the color multiset at the end of directed 2-walks.  Each
multiset is summed as a packed per-color histogram (one big integer
per vertex), and only the distinct histograms are expanded into the
sorted color tuples they stand for, so the colors are exactly those of
sorting the tuples themselves.  A node individualizes one vertex of
the smallest non-singleton color class (ties to the lowest color id).
Neighbor lists, the root invariant and a mapping's row images are
computed once per row class of the Digraph (in-neighbors once per row
class of its transpose), so the vertices of a class share them.

`are_isomorphic` first compares the two graphs' multisets of the
per-vertex invariant {|N+(u) & N+(w)| : w in N+(u)}, one popcount per
arc; unequal multisets prove the pair non-isomorphic before any tree
node.  Otherwise that invariant colors the root, the two graphs are
refined jointly under one color numbering, the first graph
individualizes the first vertex of the target class and the second
branches over its matching class.  Every returned mapping is re-checked
edge by edge, a negative answer means the tree was exhausted, and
running out of the node budget is its own outcome, never a silent "no".

`canonical_form` searches one graph from the trivial coloring and keeps
the first leaf with the least adjacency string.  Two leaves with equal
strings compose to an automorphism; a branch in the orbit of an
explored sibling under the automorphisms found so far that fix the
path to the node is skipped, because its subtree is an image of an
explored one and holds no earlier least leaf (McKay and Piperno,
Practical graph isomorphism II, 2014).  IsoResult counts tree nodes,
skipped branches and refinement rounds.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat
from struct import Struct

from .digraph import Digraph, _bits
from .errors import OutOfBudgetError, SizeMismatchError

DEFAULT_NODE_BUDGET = 10 ** 6

ISOMORPHIC = "isomorphic"
NOT_ISOMORPHIC = "not_isomorphic"
BUDGET_EXCEEDED = "budget_exceeded"


@dataclass(frozen=True)
class IsoResult:
    """Outcome of an isomorphism search; mapping is set only when found.

    nodes counts search-tree nodes, pruned the branches skipped as
    automorphic images of explored ones, rounds the refinement rounds.
    """

    status: str
    mapping: tuple[int, ...] | None = None
    nodes: int = 0
    pruned: int = 0
    rounds: int = 0


def _images(d: Digraph, perm) -> list[int]:
    """Per vertex of d, the image of its out-row under perm (bit perm[v]
    for bit v), taken once per out-row class."""
    return _per_vertex(d, [sum(1 << perm[v] for v in _bits(row)) for row in d.distinct])


def verify_mapping(d1: Digraph, d2: Digraph, perm) -> bool:
    """True iff perm sends every edge and non-edge of d1 onto d2."""
    if d1.n != d2.n or len(perm) != d1.n:
        raise SizeMismatchError(
            f"sizes differ: {d1.n} vertices, {d2.n} vertices, mapping of {len(perm)}")
    if sorted(perm) != list(range(d1.n)):
        raise ValueError("mapping is not a permutation")
    return _images(d1, perm) == list(map(d2.rows.__getitem__, perm))


def apply_mapping(d: Digraph, perm) -> Digraph:
    """Relabel d so that old vertex u becomes perm[u]."""
    inverse = sorted(range(d.n), key=perm.__getitem__)    # old vertex of each new one
    rows = tuple(map(_images(d, perm).__getitem__, inverse))
    labels = None if d.labels is None else tuple(map(d.labels.__getitem__, inverse))
    return Digraph(d.n, rows, labels=labels)


def _per_vertex(d: Digraph, per_class: list) -> list:
    """Spread one value per out-row class of d to every vertex of the class."""
    return list(map(per_class.__getitem__, d.row_class))


class _Neighborhoods:
    __slots__ = ("out", "inn", "most")

    def __init__(self, d: Digraph):
        # the vertices of a class share a list; in-columns are the transpose's rows
        self.out = _per_vertex(d, list(map(_bits, d.distinct)))
        t = d.transpose()
        self.inn = _per_vertex(t, list(map(_bits, t.distinct)))
        # a histogram count is at most an in-degree, or for 2-walks the
        # largest out-degree squared
        self.most = max([len(nbrs) for nbrs in self.inn] +
                        [len(nbrs) ** 2 for nbrs in self.out], default=0)


# struct field codes by byte width
_FIELDS = ((1, "B"), (2, "H"), (4, "I"), (8, "Q"))


def _histograms(g: _Neighborhoods, colors: list[int], one: list[int],
                dist2: bool) -> list[list[int]]:
    """Packed color histograms of each vertex's out-neighbors, in-neighbors
    and (with dist2) 2-walk ends: field c of a histogram counts color c."""
    weight = list(map(one.__getitem__, colors))
    out = [sum(map(weight.__getitem__, nbrs)) for nbrs in g.out]
    parts = [out, [sum(map(weight.__getitem__, nbrs)) for nbrs in g.inn]]
    if dist2:
        parts.append([sum(map(out.__getitem__, nbrs)) for nbrs in g.out])
    return parts


def _signatures(graphs: list[_Neighborhoods], colorings: list[list[int]],
                dist2: bool) -> list[list[tuple]]:
    """Per vertex (color, out, in[, walk2]), each multiset replaced by the
    rank of its sorted color tuple among the distinct ones of this round.

    The ranks order and equate exactly as the tuples do, so sorting these
    signatures numbers the colors as sorting the tuples would.
    """
    ncolors = 1 + max(max(c, default=-1) for c in colorings)
    size, code = next((size, code) for size, code in _FIELDS
                      if max(g.most for g in graphs) < 1 << (8 * size))
    fields = Struct(f"<{ncolors}{code}")
    one = [1 << (8 * size * c) for c in range(ncolors)]
    colors_up = range(ncolors)

    def color_tuple(histogram: int) -> tuple[int, ...]:
        counts = fields.unpack(histogram.to_bytes(fields.size, "little"))
        return tuple(chain.from_iterable(map(repeat, colors_up, counts)))

    parts = [_histograms(g, c, one, dist2) for g, c in zip(graphs, colorings)]
    ranked = []
    for i in range(len(parts[0])):
        distinct = sorted(set().union(*(p[i] for p in parts)), key=color_tuple)
        rank = {h: r for r, h in enumerate(distinct)}
        ranked.append([list(map(rank.__getitem__, p[i])) for p in parts])
    return [list(zip(colors, *(r[j] for r in ranked))) for j, colors in enumerate(colorings)]


def _refine(graphs: list[_Neighborhoods], colorings: list[list[int]],
            dist2: bool) -> tuple[list[list[int]] | None, int]:
    """Jointly refine to a fixpoint with a shared color numbering.

    Returns the colorings (None as soon as the per-color histograms of
    two graphs disagree; no isomorphism can survive that) and the number
    of refinement rounds run.
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
        if now == ncolors:
            return colorings, rounds
        ncolors = now


class _BudgetHit(Exception):
    pass


def _orbits(n: int, automorphisms, path: tuple[int, ...]) -> list[int]:
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


class _Search:
    """Depth-first individualize-refine tree over one graph or a pair.

    leaf(colorings) is called at each discrete leaf and returns True to
    stop the search.  With two graphs the refinement is joint and only
    the second graph branches.  With one graph, automorphisms appended
    to `automorphisms` prune the branches they prove redundant.
    """

    def __init__(self, graphs: list[_Neighborhoods], budget: int, leaf):
        self.graphs = graphs
        self.budget = budget
        self.leaf = leaf
        self.automorphisms: list[tuple[int, ...]] = []
        self.nodes = self.pruned = self.rounds = 0

    def visit(self, colorings: list[list[int]], path: tuple[int, ...] = ()) -> bool:
        """Search the subtree below colorings, reached by individualizing path."""
        self.nodes += 1
        if self.nodes > self.budget:
            raise _BudgetHit
        colorings, rounds = _refine(self.graphs, colorings, dist2=bool(path))
        self.rounds += rounds
        if colorings is None:
            return False
        n = len(colorings[0])
        counts = Counter(colorings[0])
        if len(counts) == n:
            return self.leaf(colorings)
        target = min((c for c, cnt in counts.items() if cnt > 1),
                     key=lambda c: (counts[c], c))
        fresh = len(counts)
        pair = len(colorings) == 2
        fixed = colorings[0].index(target)
        explored: list[int] = []
        known, orbit, seen = 0, None, set()
        for u in [u for u, c in enumerate(colorings[-1]) if c == target]:
            if len(self.automorphisms) != known:
                known = len(self.automorphisms)
                orbit = _orbits(n, self.automorphisms, path)
                seen = {orbit[x] for x in explored}
            if orbit is not None and orbit[u] in seen:
                self.pruned += 1
                continue
            children = [list(c) for c in colorings]
            if pair:
                children[0][fixed] = fresh
            children[-1][u] = fresh
            if self.visit(children, path + (u,)):
                return True
            explored.append(u)
            if orbit is not None:
                seen.add(orbit[u])
        return False


def _intersection_profile(d: Digraph) -> list[tuple[int, ...]]:
    """Per vertex u, the sorted multiset {|N+(u) & N+(w)| : w in N+(u)}."""
    rows = d.rows
    return _per_vertex(d, [tuple(sorted((row & rows[w]).bit_count() for w in _bits(row)))
                           for row in d.distinct])


def are_isomorphic(d1: Digraph, d2: Digraph,
                   budget: int = DEFAULT_NODE_BUDGET) -> IsoResult:
    """Search for an explicit isomorphism d1 -> d2.

    Returns ISOMORPHIC with a verified mapping, NOT_ISOMORPHIC when an
    invariant differs or after exhausting the search tree, or
    BUDGET_EXCEEDED after expanding `budget` tree nodes.
    """
    if d1.n != d2.n or d1.edge_count() != d2.edge_count():
        return IsoResult(NOT_ISOMORPHIC)
    p1, p2 = _intersection_profile(d1), _intersection_profile(d2)
    if sorted(p1) != sorted(p2):
        return IsoResult(NOT_ISOMORPHIC)
    rank = {p: i for i, p in enumerate(sorted(set(p1)))}
    n = d1.n
    mapping = None

    def leaf(colorings: list[list[int]]) -> bool:
        nonlocal mapping
        c1, c2 = colorings
        where2 = [0] * n
        for u, color in enumerate(c2):
            where2[color] = u
        candidate = [where2[color] for color in c1]
        if verify_mapping(d1, d2, candidate):
            mapping = tuple(candidate)
        return mapping is not None

    search = _Search([_Neighborhoods(d1), _Neighborhoods(d2)], budget, leaf)
    try:
        search.visit([[rank[p] for p in p1], [rank[p] for p in p2]])
    except _BudgetHit:
        status = BUDGET_EXCEEDED
    else:
        status = NOT_ISOMORPHIC if mapping is None else ISOMORPHIC
    return IsoResult(status, mapping=mapping, nodes=search.nodes,
                     pruned=search.pruned, rounds=search.rounds)


def _leaf_string(g: _Neighborhoods, labels: list[int]) -> str:
    """Row-major adjacency string of the graph relabeled by labels."""
    n = len(labels)
    rows = [0] * n
    for u, nbrs in enumerate(g.out):
        rows[labels[u]] = sum(1 << labels[v] for v in nbrs)
    return "".join(format(row, f"0{n}b")[::-1] for row in rows)


def canonical_form(d: Digraph, budget: int = DEFAULT_NODE_BUDGET) -> tuple[str, tuple[int, ...]]:
    """Minimum adjacency string over all search leaves, with a relabeling
    that achieves it.

    Isomorphic graphs share the string; apply_mapping with the returned
    permutation reproduces it.  Exhaustive up to automorphism pruning,
    so keep the input small.
    """
    g = _Neighborhoods(d)
    first = best = None

    def leaf(colorings: list[list[int]]) -> bool:
        nonlocal first, best
        labels = tuple(colorings[0])
        s = _leaf_string(g, labels)
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

    search = _Search([g], budget, leaf)
    try:
        search.visit([[0] * d.n])
    except _BudgetHit:
        raise OutOfBudgetError(f"canonical labeling exceeded {budget} nodes") from None
    return best
