"""Independent output checks, written without the library's own verifiers.

Graphs are handled as the library stores them, one Python int per row
with bit v of rows[u] set iff u -> v, but every count here is computed
from those rows directly: an A^2 entry is the number of 2-walks, a
degree is a popcount or a bit test per row.
"""

from __future__ import annotations

import hashlib


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def walks2(rows, x: int, y: int) -> int:
    """A^2[x][y]: the number of walks x -> z -> y."""
    return sum((rows[z] >> y) & 1 for z in bits(rows[x]))


def in_degree(rows, v: int) -> int:
    return sum((row >> v) & 1 for row in rows)


def entry_class(rows, x: int, y: int) -> str:
    """Which DSRG parameter an A^2 entry must equal: t, lambda or mu."""
    if x == y:
        return "t"
    return "lambda" if (rows[x] >> y) & 1 else "mu"


def adjacency_string(rows, n: int) -> str:
    """Row-major 0/1 string of the n x n adjacency matrix."""
    return "".join(format(row, f"0{n}b")[::-1] for row in rows)


# ---------------------------------------------------------------------------
# verify-reject: certified mutants and witness checks
# ---------------------------------------------------------------------------

def flip_arc(rows, u: int, w: int) -> list[int]:
    out = list(rows)
    out[u] ^= 1 << w
    return out


def swap_arcs(rows, a: int, b: int, c: int, d: int) -> list[int]:
    """Replace arcs a->b, c->d by a->d, c->b; every degree is kept."""
    out = list(rows)
    out[a] ^= (1 << b) | (1 << d)
    out[c] ^= (1 << d) | (1 << b)
    return out


def certify_not_dsrg(rows, touched: tuple[int, ...]) -> str | None:
    """A proof that the mutant is no DSRG, or None if none was found.

    The proof is either two vertices of different out-degree, or two
    A^2 entries of one class with different values: one in a row the
    mutation touched, one in a reference row that no walk through a
    touched vertex starts from, so its entries kept their base values.
    """
    n = len(rows)
    u = touched[0]
    other = (u + 1) % n
    if rows[u].bit_count() != rows[other].bit_count():
        return f"out-degree {rows[u].bit_count()} at {u}, {rows[other].bit_count()} at {other}"
    touched_mask = sum(1 << x for x in touched)
    ref = next((x for x in range(n)
                if x not in touched and not rows[x] & touched_mask), None)
    if ref is None:
        return None
    reference = {}
    for y in range(n):
        reference.setdefault(entry_class(rows, ref, y), (y, walks2(rows, ref, y)))
        if len(reference) == 3:
            break
    for x in touched:
        for y in range(n):
            cls = entry_class(rows, x, y)
            if cls not in reference:
                continue
            ry, rvalue = reference[cls]
            value = walks2(rows, x, y)
            if value != rvalue:
                return (f"{cls} entries differ: A2[{x}][{y}]={value}, "
                        f"A2[{ref}][{ry}]={rvalue}")
    return None


def first_entry(rows, cls: str) -> tuple[int, int]:
    """The first entry of a class in row-major order, off the diagonal."""
    n = len(rows)
    for x in range(n):
        for y in range(n):
            if x != y and entry_class(rows, x, y) == cls:
                return x, y
    raise ValueError(f"no {cls} entry")


def confirm_rejection(rows, outcome, not_regular, non_constant) -> str | None:
    """None iff `outcome` is a rejection whose witness really breaks a DSRG.

    A NotRegularError must name a vertex whose out- or in-degree differs
    from the out-degree of vertex 0.  A NonConstantError must name an
    entry of the stated class whose A^2 value differs from the first
    entry of that class; for t that is A^2[0][0].
    """
    n = len(rows)
    if isinstance(outcome, not_regular):
        v = outcome.vertex
        if not 0 <= v < n:
            return f"witness vertex {v} out of range"
        k = rows[0].bit_count()
        if rows[v].bit_count() == k and in_degree(rows, v) == k:
            return f"bogus witness: vertex {v} has in- and out-degree {k}"
        return None
    if isinstance(outcome, non_constant):
        which, witness = outcome.which, outcome.witness
        if which == "t":
            x = y = witness
            ref = (0, 0)
        elif which in ("lambda", "mu"):
            x, y = witness
            ref = first_entry(rows, which)
        else:
            return f"unknown class {which!r}"
        if not (0 <= x < n and 0 <= y < n) or entry_class(rows, x, y) != which:
            return f"bogus witness: {witness!r} is not a {which} entry"
        if walks2(rows, x, y) == walks2(rows, *ref):
            return f"bogus witness: A2 at {witness!r} equals A2 at {ref}"
        return None
    if isinstance(outcome, Exception):
        return f"rejected with {type(outcome).__name__}: {outcome}"
    return f"mutant accepted as {outcome}"


# ---------------------------------------------------------------------------
# iso-pairs: a non-isomorphism certificate
# ---------------------------------------------------------------------------

def out_intersection_profile(rows) -> list[tuple[int, ...]]:
    """Sorted per-vertex multisets {|N+(u) & N+(w)| : w in N+(u)}.

    Isomorphic digraphs have equal profiles, so unequal ones prove a
    pair non-isomorphic.
    """
    return sorted(tuple(sorted((rows[u] & rows[w]).bit_count() for w in bits(rows[u])))
                  for u in range(len(rows)))
