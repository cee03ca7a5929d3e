import random
import time
import tracemalloc
from itertools import groupby

import pytest

import dsrg.digraph

from dsrg import (
    DegenerateError,
    Digraph,
    DsrgError,
    FormatError,
    Gdd,
    IncidenceStructure,
    NoAntiFlagsError,
    NonConstantError,
    NotDsrgError,
    NotPartitionStructureError,
    NotRegularError,
    PartitionSpiked,
    PreconditionFailedError,
    TNotMuError,
    TooLargeError,
    Transversal,
    build_affine_plane,
    build_antiflag_backward,
    build_antiflag_backward_loopy,
    build_antiflag_forward,
    build_digraph,
    build_fano,
    build_gdd,
    build_hyperplane_design,
    build_partition_spiked,
    build_partition_structure,
    duval_multiple,
    restrict_parallel_classes,
    verify_dsrg,
)
from dsrg.digraph import MAX_VERIFY_ORDER
from dsrg.families import catalog_instances
from dsrg.planes import _bits
from oracles import (
    brute_row_classes,
    dense,
    reference_bits,
    reference_columns,
    reference_from_dgr,
    reference_to_dgr,
    schoolbook_square,
)
from test_verify import _blow_up_rows, _count_calls


def cycle(n):
    return Digraph(n, tuple(1 << ((u + 1) % n) for u in range(n)))


# ---------------------------------------------------------------------------
# the Digraph type and its formats
# ---------------------------------------------------------------------------

def test_digraph_validation():
    with pytest.raises(ValueError):
        Digraph(2, (1, 0))             # loop at vertex 0
    with pytest.raises(ValueError):
        Digraph(2, (4, 0))             # bit out of range
    with pytest.raises(ValueError):
        Digraph(2, (0,))               # wrong row count


def test_digraph_validation_order_and_messages():
    with pytest.raises(ValueError, match=r"^row 1 has bits outside 0\.\.2$"):
        Digraph(3, (0, 8, -1))         # the first bad row is named
    with pytest.raises(ValueError, match=r"^row 0 has bits outside 0\.\.2$"):
        Digraph(3, (-1, 0, 0))
    with pytest.raises(ValueError, match=r"^loop at vertex 1$"):
        Digraph(3, (4, 2, 16))         # the loop comes before the stray bit
    Digraph(3, (0b110, 0b101, 0b011))  # every bit inside 0..n-1 is fine
    for bad in (1.0, "1", None):
        with pytest.raises(TypeError):
            Digraph(2, (bad, 0))
    # rows are checked once per class of equal rows, and still name the first bad vertex
    with pytest.raises(TypeError):
        Digraph(3, (2, 2.0, 0))        # 2.0 == 2, but it is no int row
    with pytest.raises(ValueError, match=r"^loop at vertex 1$"):
        Digraph(3, (2, 2, 0))          # the loop is on the class's second vertex
    with pytest.raises(ValueError, match=r"^row 1 has bits outside 0\.\.2$"):
        Digraph(3, (0, 8, 8))          # a class out of range is named at its first vertex
    with pytest.raises(ValueError, match=r"^row 1 has bits outside 0\.\.2$"):
        Digraph(3, (4, 8, 4))          # before the loop on a later vertex of an earlier class


def test_dgr_round_trip():
    d = build_antiflag_forward(build_gdd(2, 2))
    text = d.to_dgr()
    assert text.splitlines()[0] == "8"
    back = Digraph.from_dgr(text)
    assert back.n == d.n and back.rows == d.rows
    assert back.to_dgr() == text
    assert Digraph.from_dgr(text + "\n  \n").rows == d.rows


def test_dgr_parse_errors_carry_line_numbers():
    with pytest.raises(FormatError) as err:
        Digraph.from_dgr("x\n")
    assert err.value.line == 1
    with pytest.raises(FormatError) as err:
        Digraph.from_dgr("2\n01\n0x\n")
    assert err.value.line == 3
    with pytest.raises(FormatError) as err:
        Digraph.from_dgr("3\n010\n001\n")
    assert err.value.line == 3
    with pytest.raises(FormatError) as err:
        Digraph.from_dgr("3\n010\n0_1\n100\n")   # int() would take the "_"
    assert err.value.line == 3
    with pytest.raises(FormatError) as err:
        Digraph.from_dgr("2\n01\n10\n\ngarbage\n")
    assert err.value.line == 5


def test_dgr_loop_is_rejected():
    with pytest.raises(ValueError):
        Digraph.from_dgr("2\n10\n01\n")


# ---------------------------------------------------------------------------
# dgr text against the first writer and parser (tests/oracles.py)
# ---------------------------------------------------------------------------

IO_MAX_ORDER = 110
IO_SEED = 20107


def _random_distinct(n, rng):
    """A loopless digraph on n vertices whose out-rows are all different."""
    while True:
        rows = tuple(rng.getrandbits(n) & ~(1 << u) for u in range(n))
        if len(set(rows)) == n:
            return Digraph(n, rows)


def _io_graphs():
    """(name, graph): the catalog to order 110 with its multiples, and all-distinct graphs."""
    out = []
    for spec, formula_only in catalog_instances(IO_MAX_ORDER):
        if formula_only:
            continue
        d = build_digraph(spec)
        out.append((f"{spec.name} {spec.describe()}", d))
        p = verify_dsrg(d)
        if p.t == p.mu:
            out += [(f"{spec.name} {spec.describe()} x{m}", duval_multiple(d, m))
                    for m in range(2, IO_MAX_ORDER // d.n + 1)]
    out.append(("partition-spiked q=6;l=8", build_digraph(PartitionSpiked(6, 8))))
    rng = random.Random(IO_SEED)
    for n in (1, 2, 5, 31, 64, 97):
        out.append((f"random all-distinct n={n}", _random_distinct(n, rng)))
    return out


IO_GRAPHS = _io_graphs()


def _parse_outcome(parse, text):
    """The rows parsed, or the error class, FormatError line and message."""
    try:
        d = parse(text)
    except (DsrgError, ValueError) as exc:
        return type(exc), getattr(exc, "line", None), str(exc)
    return d.n, d.rows


def _bad_char(line, rng):
    i = rng.randrange(len(line))
    return line[:i] + rng.choice("x2_") + line[i + 1:]


# a line ends at "\n", and a "\r" before it is whitespace
SEPARATORS = ["\n", "\r\n"]
# the other line boundaries of str.splitlines, which stay inside a line
FOREIGN_SEPARATORS = ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def _head_variants(n):
    """Spellings of the vertex count that int() reads as n."""
    digits = str(n)
    fullwidth = str.maketrans("0123456789", "".join(chr(0xFF10 + i) for i in range(10)))
    return [f" {n}", f"+{n}", f"0{n}", f"{digits[0]}_{digits[1:]}" if n >= 10 else f"0_{n}",
            digits.translate(fullwidth), f"{n}\t"]


def _join(lines, seps):
    """Lines ended by seps, cycled; the last line too."""
    return "".join(line + seps[i % len(seps)] for i, line in enumerate(lines))


def _corruptions(text, rng):
    """(what, corrupted text) for seeded corruptions of a dgr text."""
    lines = text.splitlines()
    n = len(lines) - 1
    def at(u, line):
        return "\n".join(lines[:u] + [line] + lines[u + 1:]) + "\n"
    u = rng.randrange(1, n + 1)
    row = lines[u]
    out = [(f"every line ended by {sep!r}", _join(lines, [sep]))
           for sep in SEPARATORS + FOREIGN_SEPARATORS]
    out += [("mixed separators", _join(lines, rng.sample(SEPARATORS, len(SEPARATORS)))),
            ("mixed separators, no final one", _join(lines, rng.sample(SEPARATORS, 2)).rstrip("\r\n")),
            ("a lone CR line, then a CRLF line", _join(lines, ["\r", "\r\n"])),
            ("a lone CR line, then an LF line", _join(lines, ["\r", "\n"]))]
    out += [(f"vertex count spelled {head!r}", at(0, head)) for head in _head_variants(n)]
    out += [("no final newline", text[:-1]),
            ("trailing blank lines", text + "\n\n"),
            ("trailing whitespace-only lines", text + "  \n\t\u3000\r\n\x1f"),
            ("trailing text without a newline", text + "x"),
            ("trailing text after blank lines", text + "\n \n0\n"),
            ("row padded with spaces, tabs and U+3000", at(u, " \t\u3000" + row + "\u3000\t ")),
            ("every row padded", "\n".join([lines[0]] + [f"\t{line} " for line in lines[1:]]) + "\n"),
            ("a row padded with a separator", at(u, "\x0c" + row))]
    out += [("bad character", at(u, _bad_char(row, rng))),
           ("leading + (one long)", at(u, "+" + row)),
           ("leading + (right length)", at(u, "+" + row[1:])),
           ("0b prefix", at(u, "0b" + row[2:])),
           ("non-ASCII digit", at(u, "\uff11" + row[1:])),
           ("lone surrogate", at(u, row[:-1] + "\ud800")),
           ("one short", at(u, row[:-1])),
           ("one long", at(u, row + rng.choice("01"))),
           ("trailing spaces", at(u, row + "  \t")),
           ("CRLF", text.replace("\n", "\r\n")),
           ("missing row", "\n".join(lines[:u] + lines[u + 1:]) + "\n"),
           ("trailing garbage", text + "\ngarbage\n"),
           ("bad vertex count", at(0, f"{n}x"))]
    if n >= 2:
        u = rng.randrange(1, n)
        copy = list(lines)
        copy[u + 1] = lines[u]
        out.append(("repeat of a good line", "\n".join(copy) + "\n"))
        copy[u + 1] = lines[u] + "   "
        out.append(("repeat of a good line with trailing spaces", "\n".join(copy) + "\n"))
        copy[u + 1] = _bad_char(lines[u], rng)
        out.append(("bad line right after the good line it corrupts",
                    "\n".join(copy) + "\n"))
        copy = list(lines)
        copy[u], copy[u + 1] = lines[u][:-1], lines[u + 1] + lines[u][-1]
        out.append(("a row one short, the next one long", "\n".join(copy) + "\n"))
    if n >= 3:
        u = rng.randrange(1, n - 1)
        copy = list(lines)
        copy[u + 2] = lines[u]
        out.append(("repeat of a good line two rows on", "\n".join(copy) + "\n"))
        copy[u + 2] = _bad_char(lines[u], rng)
        out.append(("bad line two rows after the line it corrupts", "\n".join(copy) + "\n"))
    repeats = [v for v in range(1, n) if lines[v] == lines[v + 1]]
    if repeats:
        v = rng.choice(repeats)
        out.append(("bad line right after an identical good line",
                    at(v + 1, _bad_char(lines[v + 1], rng))))
        out.append(("trailing spaces on a repeated line", at(v + 1, lines[v + 1] + " ")))
    return out


SMALL_TEXTS = ["", "\n", "\r\n", " \n", "1", "1\n", "1\n0", "1\n0\n", "1\r0\r\n\r",
               "1\n\n0\n", "0\n", "-1\n", "x\n0\n", "\n1\n0\n", "2\n01\n", "2\n0x\n",
               "2\n0x\n10\n", "2\n01\r10\n", "2\n01\r\n10", "2\n01\x0c\n10\n",
               "2\n0\n10\n", "2\n011\n10\n", "2\n0\n110\n", "2\n01\n10\n\n \n",
               "2\n01\n10\n\nx", "2\n01\n10\n\u2028x", "2\n01\n10\n\x1f\n",
               "3\n011\r011\r\n110\n", "3\n011\r011\n110\n", "3\n011\r\n011\r\n110\r\n",
               "3\n011\r\r\n011\n110\n", "3\n011\n101\n011\n", "3\n010\n010\n010\n",
               "3\n 011\n011 \n\u3000110\t\n"]


@pytest.mark.parametrize("text", SMALL_TEXTS)
def test_small_dgr_texts_match_the_reference(text):
    assert _parse_outcome(Digraph.from_dgr, text) == _parse_outcome(reference_from_dgr, text)


def _traced_parse(text):
    """(graph, bytes still held, peak bytes) of one from_dgr call, by tracemalloc."""
    tracemalloc.start()
    try:
        d = Digraph.from_dgr(text)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return d, held, peak


def test_dgr_parse_allocates_far_less_than_the_text():
    text = build_digraph(Transversal(7)).to_dgr()
    assert len(text) > 4_000_000
    d, _, peak = _traced_parse(text)
    assert d.n == 2058
    assert peak < len(text) // 4
    # all 3,800 rows distinct: the rows and class masks the graph keeps are
    # 0.23 of the text, so the bound is on what the parse holds beyond them;
    # a dict keyed by line held a second copy of the text
    text = build_digraph(PartitionSpiked(10, 20)).to_dgr()
    d, held, peak = _traced_parse(text)
    assert d.n == len(d.distinct) == 3800
    assert peak - held < len(text) // 4


def test_io_graphs_cover_repeats_and_all_distinct():
    kinds = {len(set(d.rows)) == d.n for _, d in IO_GRAPHS}
    assert kinds == {True, False}
    assert any(name.startswith("transversal") for name, _ in IO_GRAPHS)
    assert any(" x" in name for name, _ in IO_GRAPHS)


@pytest.mark.parametrize("name, d", IO_GRAPHS, ids=[name for name, _ in IO_GRAPHS])
def test_dgr_text_and_rows_match_the_reference(name, d):
    text = d.to_dgr()
    assert text == reference_to_dgr(d)
    parsed = Digraph.from_dgr(text)
    assert parsed.n == d.n and parsed.rows == d.rows
    assert _parse_outcome(Digraph.from_dgr, text) == _parse_outcome(reference_from_dgr, text)


@pytest.mark.parametrize("sep", FOREIGN_SEPARATORS)
def test_other_line_boundaries_are_a_format_error(sep):
    """Every line, or the first two rows, ended by sep: the text has one
    line, or one row too few, and both parsers name the same line."""
    text = build_digraph(Gdd(2, 3)).to_dgr()
    lines = text.split("\n")
    for bad, line in ((text.replace("\n", sep), 1),
                      ("\n".join([lines[0], lines[1] + sep + lines[2], *lines[3:]]), 36)):
        got = _parse_outcome(Digraph.from_dgr, bad)
        assert got[:2] == (FormatError, line), got
        assert got == _parse_outcome(reference_from_dgr, bad)


@pytest.mark.parametrize("name, d", IO_GRAPHS, ids=[name for name, _ in IO_GRAPHS])
def test_dgr_corruptions_match_the_reference(name, d):
    rng = random.Random(f"{IO_SEED} {name}")
    for what, bad in _corruptions(d.to_dgr(), rng):
        got = _parse_outcome(Digraph.from_dgr, bad)
        assert got == _parse_outcome(reference_from_dgr, bad), what


def test_dgr_repeated_lines_share_one_row_object():
    d = build_digraph(Transversal(3))
    rows = Digraph.from_dgr(d.to_dgr()).rows
    assert len({id(row) for row in rows}) == len(set(rows)) < d.n


def test_dgr_io_works_once_per_distinct_row(monkeypatch):
    d = build_digraph(Transversal(4))
    assert d.n == 192 and len(set(d.rows)) == 16
    formatted = _count_calls(monkeypatch, "_format_row")
    parsed = _count_calls(monkeypatch, "_parse_row")
    text = d.to_dgr()
    assert text == reference_to_dgr(d)
    assert len(formatted) == 16 and set(formatted) == set(d.rows)
    assert Digraph.from_dgr(text).rows == d.rows
    assert len(parsed) == 16 and len(set(parsed)) == 16
    # all distinct: one call per row
    e = _random_distinct(40, random.Random(IO_SEED))
    del formatted[:], parsed[:]
    Digraph.from_dgr(e.to_dgr())
    assert len(formatted) == len(parsed) == 40


def _relabelled(d, rng):
    """d with its vertices shuffled, built edge by edge."""
    perm = list(range(d.n))
    rng.shuffle(perm)
    rows = [0] * d.n
    for u, row in enumerate(d.rows):
        rows[perm[u]] = sum(1 << perm[v] for v in reference_bits(row))
    return Digraph(d.n, tuple(rows))


def test_row_class_index_and_columns_match_the_references():
    rng = random.Random(IO_SEED)
    graphs = []
    for name, d in IO_GRAPHS:
        graphs += [(name, d), (f"{name} relabelled", _relabelled(d, rng))]
        graphs.append((f"{name} from dgr", Digraph.from_dgr(d.to_dgr())))
        if d.edge_count():
            graphs.append((f"{name} from edge list", Digraph.from_edge_list(d.to_edge_list())))
    graphs.append(("partition-spiked q=10;l=20", build_digraph(PartitionSpiked(10, 20))))
    graphs += _run_index_corpus(rng)
    for name, d in graphs:
        assert (d.distinct, d.row_class, d.members) == brute_row_classes(d), name
        assert d.columns() == reference_columns(d), name


class _Row(int):
    pass


def _run_index_corpus(rng):
    """(name, graph) whose runs of equal consecutive rows stress the run index."""
    t = build_digraph(Transversal(3))
    # equal rows in different objects: runs are found by value, not identity
    copied = tuple(int(str(row)) for row in t.rows)
    assert any(a == b and a is not b for a, b in zip(copied, copied[1:]))
    odd = sum(1 << v for v in range(1, 400, 2))
    even = odd >> 1
    a, b = rng.getrandbits(400) & odd, rng.getrandbits(400) & even
    return [
        ("transversal 3 with copied rows", Digraph(t.n, copied)),
        ("one class over two runs", Digraph(4, (2, 1, 1, 2))),
        ("two classes over 400 alternating runs", Digraph(400, (a, b) * 200)),
        ("runs of length 1 at both ends", Digraph(5, (2, 17, 17, 17, 3))),
        ("one vertex", Digraph(1, (0,))),
        ("bool row", Digraph(3, (2, True, 2))),
        ("int-subclass row", Digraph(3, (_Row(2), True, 2))),
    ]


def test_run_index_keeps_the_first_row_object_of_each_class():
    d = Digraph(3, (2, True, 2))
    assert d.distinct == (2, True) and type(d.distinct[1]) is bool
    assert d.row_class == (0, 1, 0) and d.members == (5, 2)
    d = Digraph(3, (_Row(2), True, 2))
    assert d.distinct == (2, True) and type(d.distinct[0]) is _Row
    assert d.members == (5, 2)


def test_run_index_of_one_class_spread_over_many_vertices():
    """Two runs, of 99,999 equal rows and of 1: the index is exact."""
    n = 100_000
    d = Digraph(n, (0,) * (n - 1) + (1,))
    assert d.distinct == (0, 1)
    assert d.row_class == (0,) * (n - 1) + (1,)
    assert d.members == ((1 << (n - 1)) - 1, 1 << (n - 1))


def _check_blow_up(d, m, name):
    big = dsrg.digraph._blow_up(d, m)
    assert big.n == d.n * m and big.rows == tuple(_blow_up_rows(d.rows, m)), name
    assert (big.distinct, big.row_class, big.members) == brute_row_classes(big), name


def test_blow_up_matches_a_brute_tensor():
    """A tensor J_m: rows and index, on every catalog-110 base with m = 1..13
    and on random all-distinct bases with m = 1..4."""
    for spec, formula_only in catalog_instances(IO_MAX_ORDER):
        if not formula_only:
            d = build_digraph(spec)
            for m in range(1, 14):
                _check_blow_up(d, m, f"{spec.name} {spec.describe()} m={m}")
    rng = random.Random(f"{IO_SEED} blow-up")
    for n in (1, 2, 3, 8, 21, 40):
        d = _random_distinct(n, rng)
        for m in range(1, 5):
            _check_blow_up(d, m, f"random all-distinct n={n} m={m}")


# ---------------------------------------------------------------------------
# Digraph._from_runs, the builders' entry, against Digraph(n, rows)
# ---------------------------------------------------------------------------

def _runs(rows):
    """(heads, lengths) of the runs of equal consecutive rows."""
    runs = [(row, len(list(group))) for row, group in groupby(rows)]
    return [row for row, _ in runs], [length for _, length in runs]


def _index(d):
    return d.distinct, d.row_class, d.members


def _check_same_graph(d, e, name):
    """d and e are equal graphs with one index, and it is the per-vertex grouping."""
    assert d == e and hash(d) == hash(e), name
    assert d.labels == e.labels, name
    assert _index(d) == _index(e) == brute_row_classes(d), name


def _from_runs_and_tuple(rows, labels=None):
    n = len(rows)
    return (Digraph._from_runs(n, *_runs(rows), labels=labels),
            Digraph(n, tuple(rows), labels=labels))


def test_from_runs_equals_the_tuple_path_on_the_catalog():
    """Every catalog-1000 graph, its multiples for m = 2, 3 and its transpose,
    built both ways; the builders' own graphs are checked as they come."""
    for spec, formula_only in catalog_instances(1000):
        if formula_only:
            continue
        name = f"{spec.name} {spec.describe()}"
        d = build_digraph(spec)
        _check_same_graph(d, Digraph(d.n, d.rows, labels=d.labels), name)
        for m in (2, 3):
            big = dsrg.digraph._blow_up(d, m)
            _check_same_graph(big, Digraph(big.n, big.rows), f"{name} x{m}")
        t = d.transpose()
        _check_same_graph(*_from_runs_and_tuple(t.rows, t.labels), f"{name} transposed")
        _check_same_graph(*_from_runs_and_tuple(d.rows, d.labels), f"{name} rerun")


def test_from_dgr_runs_split_by_line_text_keep_one_class():
    """Equal rows in separate runs: a CRLF line next to an LF line, a line
    with trailing spaces, repeats that are not adjacent."""
    texts = {
        "CRLF next to LF": "4\r\n0001\r\n0001\n0001\r\n1000\n",
        "trailing spaces": "4\n0001\n0001  \n0001\n1000\n",
        "repeats apart": "5\n00010\n00001\n00010\n00001\n00010\n",
    }
    for name, text in texts.items():
        d = Digraph.from_dgr(text)
        ref = reference_from_dgr(text)
        _check_same_graph(d, Digraph(ref.n, ref.rows), name)
    d = Digraph.from_dgr(texts["CRLF next to LF"])
    assert d.distinct == (8, 1) and d.members == (0b0111, 0b1000)


def test_from_runs_drops_an_empty_run():
    """Point 0 is on every block, so it has no anti-flag: its run has length 0
    and must leave no class behind."""
    s = IncidenceStructure(3, ((0, 1), (0, 2)))
    d = build_antiflag_forward(s)
    assert len(d.distinct) == 2
    _check_same_graph(d, Digraph(d.n, d.rows, labels=d.labels), "point on every block")
    e = Digraph._from_runs(3, (2, 5, 1), (1, 0, 2))
    _check_same_graph(e, Digraph(3, (2, 1, 1)), "empty middle run")
    assert e.distinct == (2, 1)


def _outcome(build):
    try:
        return build()
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("heads, lengths", [
    ((2, 16), (2, 2)),          # a head with a bit at or above n
    ((0, -1), (3, 1)),
    ((2, 8), (3, 1)),           # a loop at the run's second vertex
    ((4, 8, 4), (1, 1, 2)),     # a stray bit before a later vertex's loop
    ((2, 2.0), (1, 2)),         # a non-int head, equal to the head before
    ((1.0, 0), (1, 3)),
    ((16, "1"), (1, 3)),        # a bad int head before a non-int one
    ((True, 2), (1, 3)),
])
def test_from_runs_errors_match_the_tuple_path(heads, lengths):
    rows = [head for head, length in zip(heads, lengths) for _ in range(length)]
    got = _outcome(lambda: Digraph._from_runs(len(rows), heads, lengths))
    assert got == _outcome(lambda: Digraph(len(rows), tuple(rows)))
    if not isinstance(got, Digraph):
        assert got[0] in (ValueError, TypeError)


def test_from_runs_refuses_lengths_that_miss_n():
    with pytest.raises(ValueError, match=r"^expected 4 rows, got 3$"):
        Digraph._from_runs(4, (2, 1), (1, 2))
    with pytest.raises(ValueError, match=r"^expected 2 rows, got 3$"):
        Digraph._from_runs(2, (2, 1), (1, 2))
    with pytest.raises(ValueError, match=r"^label count does not match vertex count$"):
        Digraph._from_runs(2, (2, 1), (1, 1), labels=((0, 0),))


def test_a_vertex_count_that_is_not_an_int_is_refused():
    """A bool or float n is a TypeError on both paths, before the rows."""
    for build in (lambda: Digraph(True, (0,)), lambda: Digraph(2.0, (2, 1)),
                  lambda: Digraph._from_runs(True, (0,), (1,)),
                  lambda: Digraph._from_runs(2.0, (2, 1), (1, 1))):
        with pytest.raises(TypeError, match=r"^vertex count (True|2\.0) is not an int$"):
            build()


def test_a_row_that_is_not_an_int_is_named_on_both_paths():
    """A non-int row equal to the int before it starts its own run, so it
    is named, and before any range or loop error of a later row."""
    for build in (lambda: Digraph(3, (2, 2.0, 0)),
                  lambda: Digraph._from_runs(3, (2, 2.0, 0), (1, 1, 1))):
        with pytest.raises(TypeError, match=r"^row 1 is 2\.0, not an int$"):
            build()
    for build in (lambda: Digraph(4, (16, "1", "1", "1")),
                  lambda: Digraph._from_runs(4, (16, "1"), (1, 3))):
        with pytest.raises(TypeError, match=r"^row 1 is '1', not an int$"):
            build()


def _spread_rows(k):
    """3k rows: two classes of k runs each, between k distinct rows."""
    return [row for i in range(k) for row in (0, 1, 2 << (3 * i))]


def test_many_run_class_masks_match_the_reference():
    """Classes spread over many runs, up to n = MAX_VERIFY_ORDER: two
    such classes alone, and two among many others."""
    graphs = [(f"(2, 1) * {k}", Digraph(2 * k, (2, 1) * k))
              for k in (1, 2, 50, MAX_VERIFY_ORDER // 2)]
    graphs.append(("spread among k=100", Digraph(300, tuple(_spread_rows(100)))))
    graphs += [(f"{spec.name} {spec.describe()} transposed", build_digraph(spec).transpose())
               for spec in (Transversal(5), Gdd(2, 4))]
    graphs.append(("all distinct", _random_distinct(200, random.Random(f"{IO_SEED} spread"))))
    for name, d in graphs:
        assert _index(d) == brute_row_classes(d), name
        _check_same_graph(*_from_runs_and_tuple(d.rows), name)


def test_bits_match_the_reference():
    masks = [0, 1, 2, 3, 1 << 63, 1 << 64, 1 << 4095, (1 << 4095) | 1]
    masks += [(1 << w) - 1 for w in (9, 10, 300, 4096)]
    masks += [row for _, d in IO_GRAPHS for row in d.rows]
    rng = random.Random(IO_SEED)
    masks += [rng.getrandbits(rng.randrange(1, 5000)) for _ in range(300)]
    # sparse to dense masks of a fixed width
    for width in (17, 40, 288, 4096):
        for count in (1, width // 17, width // 16, width // 16 + 1):
            masks.append(sum(1 << p for p in rng.sample(range(width), count)))
    for mask in masks:
        assert _bits(mask) == reference_bits(mask), mask


def test_edge_list_round_trip():
    d = cycle(3)
    text = d.to_edge_list()
    assert text == "0 1\n1 2\n2 0\n"
    assert Digraph.from_edge_list(text).rows == d.rows
    with pytest.raises(FormatError):
        Digraph.from_edge_list("0 1 2\n")
    with pytest.raises(FormatError):
        Digraph.from_edge_list("")


def test_edge_list_refuses_a_loop_and_a_repeated_arc_at_their_lines():
    for text, message in (("0 0\n", "line 1: loop at vertex 0"),
                          ("0 1\n1 0\n\n2 2\n", "line 4: loop at vertex 2"),
                          ("0 1\n0 1\n1 0\n", "line 2: arc 0 -> 1 repeats line 1"),
                          ("0 1\n1 0\n 1  0 \n", "line 3: arc 1 -> 0 repeats line 2")):
        with pytest.raises(FormatError) as err:
            Digraph.from_edge_list(text)
        assert str(err.value) == message, text
    # the reverse arc is another arc
    assert Digraph.from_edge_list("0 1\n1 0\n").rows == (2, 1)


def test_edge_list_refuses_a_token_that_is_no_integer_and_a_negative_index():
    for text, message in (("0 x\n", "line 1: expected integers, got '0 x'"),
                          ("0 1\n1.0 0\n", "line 2: expected integers, got '1.0 0'"),
                          ("0 1\n-1 0\n", "line 2: vertex indices must be nonnegative")):
        with pytest.raises(FormatError) as err:
            Digraph.from_edge_list(text)
        assert str(err.value) == message, text


def test_edge_list_refuses_an_index_at_the_cap_at_its_line():
    """The index is refused at its line, before any row is allocated.

    The index at the cap is tried first, so a parser without the guard
    fails there and never allocates rows for the index 10**9.
    """
    top = MAX_VERIFY_ORDER - 1
    assert Digraph.from_edge_list(f"0 {top}\n{top} 0\n").n == MAX_VERIFY_ORDER
    for text, line, index in ((f"0 1\n\n{MAX_VERIFY_ORDER} 0\n", 3, MAX_VERIFY_ORDER),
                              ("0 1000000000\n", 1, 10 ** 9)):
        with pytest.raises(TooLargeError) as err:
            Digraph.from_edge_list(text)
        assert str(err.value) == (f"line {line}: vertex index {index} is at or above "
                                  f"the cap of {MAX_VERIFY_ORDER} vertices")


def test_transpose():
    d = cycle(4)
    t = d.transpose()
    assert t.edges() == [(0, 3), (1, 0), (2, 1), (3, 2)]
    assert t.transpose().rows == d.rows


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def test_forward_gdd23():
    d = build_antiflag_forward(build_gdd(2, 3))
    assert d.n == 36
    assert all(d.rows[u].bit_count() == 12 for u in range(36))
    assert verify_dsrg(d).tuple() == (36, 12, 5, 2, 5)


def test_forward_gdd22():
    d = build_antiflag_forward(build_gdd(2, 2))
    assert verify_dsrg(d).tuple() == (8, 4, 3, 1, 3)


def test_forward_partition_outdegree():
    d = build_antiflag_forward(build_partition_structure(2, 3))
    assert all(d.rows[u].bit_count() == 4 for u in range(d.n))  # q(l-1) = 2*2
    assert verify_dsrg(d).tuple() == (12, 4, 2, 0, 2)


def test_forward_needs_anti_flags():
    s = IncidenceStructure(3, ((0, 1, 2),))
    with pytest.raises(NoAntiFlagsError):
        build_antiflag_forward(s)


def test_backward_is_transpose_of_forward():
    for s in [build_gdd(2, 2), build_gdd(2, 3), build_fano(),
              restrict_parallel_classes(build_affine_plane(3), 2),
              build_partition_structure(2, 3)]:
        fwd = build_antiflag_forward(s)
        bwd = build_antiflag_backward(s)
        assert bwd == fwd.transpose()


def test_backward_on_fano():
    assert verify_dsrg(build_antiflag_backward(build_fano())).tuple() == (28, 12, 6, 4, 6)


def test_backward_on_gdd22():
    assert verify_dsrg(build_antiflag_backward(build_gdd(2, 2))).tuple() == (8, 4, 3, 1, 3)


def test_loopy_on_fano():
    d = build_antiflag_backward_loopy(build_fano())
    p = verify_dsrg(d)
    assert p.tuple() == (28, 15, 9, 8, 8)
    assert d.edge_count() == 28 * 15
    assert p.t != p.mu


def test_loopy_preconditions():
    with pytest.raises(PreconditionFailedError):
        build_antiflag_backward_loopy(build_gdd(2, 2))   # not a 2-design
    # all 3-subsets of 4 points: a 2-(4,4,3,3,2) design with b + lambda = 2r
    s = IncidenceStructure(4, ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)))
    with pytest.raises(PreconditionFailedError):
        build_antiflag_backward_loopy(s)


def test_partition_spiked():
    cases = {(2, 3): (12, 7, 5, 4, 4), (1, 3): (6, 3, 2, 1, 2), (3, 3): (18, 11, 8, 7, 6)}
    for (q, l), expected in cases.items():
        d = build_partition_spiked(build_partition_structure(q, l))
        assert verify_dsrg(d).tuple() == expected


def test_partition_spiked_rejects_other_structures():
    with pytest.raises(NotPartitionStructureError):
        build_partition_spiked(build_affine_plane(2))
    with pytest.raises(NotPartitionStructureError):
        build_partition_spiked(build_gdd(2, 2))


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def test_verify_complete_graph_is_degenerate():
    rows = tuple(((1 << 3) - 1) ^ (1 << u) for u in range(3))
    with pytest.raises(DegenerateError):
        verify_dsrg(Digraph(3, rows))


def test_verify_empty_graph_is_degenerate():
    with pytest.raises(DegenerateError):
        verify_dsrg(Digraph(3, (0, 0, 0)))


def test_verify_needs_two_vertices():
    with pytest.raises(ValueError, match="^need at least 2 vertices$"):
        verify_dsrg(Digraph(1, (0,)))


def test_verify_directed_3_cycle():
    assert verify_dsrg(cycle(3)).tuple() == (3, 1, 0, 0, 1)


def test_verify_directed_4_cycle_mu_not_constant():
    with pytest.raises(NonConstantError) as err:
        verify_dsrg(cycle(4))
    assert err.value.which == "mu"


def test_verify_not_regular():
    d = Digraph(3, (0b010, 0b101, 0b000))
    with pytest.raises(NotRegularError):
        verify_dsrg(d)


def test_verify_size_cap():
    with pytest.raises(TooLargeError):
        verify_dsrg(Digraph(4097, tuple([0] * 4097)))


def test_matrix_identities_on_verified_graphs():
    """A^2 = tI + lambda A + mu(J - I - A) entrywise, against schoolbook A^2."""
    for d in [build_antiflag_forward(build_gdd(2, 3)),
              build_antiflag_backward_loopy(build_fano()),
              build_partition_spiked(build_partition_structure(2, 3))]:
        p = verify_dsrg(d)
        adj = dense(d)
        sq = schoolbook_square(adj)
        assert sum(adj[u][u] for u in range(d.n)) == 0
        assert sum(sq[u][u] for u in range(d.n)) == p.v * p.t
        for u in range(d.n):
            assert sum(adj[u]) == p.k
            assert sum(adj[x][u] for x in range(d.n)) == p.k
            for w in range(d.n):
                if u == w:
                    expected = p.t
                elif adj[u][w]:
                    expected = p.lam
                else:
                    expected = p.mu
                assert sq[u][w] == expected


# ---------------------------------------------------------------------------
# the multiple construction
# ---------------------------------------------------------------------------

def test_duval_identity():
    d = build_antiflag_forward(build_gdd(2, 2))
    assert duval_multiple(d, 1) == d


def test_duval_examples():
    d8 = build_antiflag_forward(build_gdd(2, 2))
    assert verify_dsrg(duval_multiple(d8, 2)).tuple() == (16, 8, 6, 2, 6)
    d36 = build_antiflag_forward(build_gdd(2, 3))
    assert verify_dsrg(duval_multiple(d36, 3)).tuple() == (108, 36, 15, 6, 15)


def test_duval_rejects_t_not_mu():
    loopy = build_antiflag_backward_loopy(build_fano())
    with pytest.raises(TNotMuError):
        duval_multiple(loopy, 2)
    spiked = build_partition_spiked(build_partition_structure(2, 3))
    with pytest.raises(TNotMuError):
        duval_multiple(spiked, 2)


def test_duval_size_guard_raises_before_building():
    d = build_antiflag_forward(build_gdd(2, 3))
    start = time.perf_counter()
    with pytest.raises(TooLargeError):
        duval_multiple(d, 100000)          # 3.6M vertices
    assert time.perf_counter() - start < 1.0
    with pytest.raises(TooLargeError):
        duval_multiple(d, 4096 // 36 + 1)


def test_duval_rejects_non_dsrg():
    with pytest.raises(NotDsrgError):
        duval_multiple(cycle(4), 2)
    with pytest.raises(ValueError):
        duval_multiple(cycle(3), 0)


def test_hyperplane_pencil_forward():
    s = restrict_parallel_classes(build_hyperplane_design(2, 3), 3)
    assert verify_dsrg(build_antiflag_forward(s)).tuple() == (24, 12, 8, 4, 8)
