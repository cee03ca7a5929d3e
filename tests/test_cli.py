import hashlib
import itertools
import json
import math
import random
import re
import sys
import time
from dataclasses import fields
from pathlib import Path

import pytest

from dsrg import (Digraph, DsrgError, TooLargeError, are_isomorphic, build_antiflag_forward,
                  build_digraph, build_gdd, bundled_iso_fixture, from_json, to_json, verify_dsrg)
from dsrg import cli, families, feasibility
from dsrg.cli import (CSV_HEADER, _spec_from_args, build_parser, catalog_rows, main, render_csv,
                      render_table)
from dsrg.families import ApPencils, Gdd, PgAntiflag, Transversal, catalog_instances


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _iso_files(tmp_path, second=None):
    """The bundled iso pair, or its first graph and second(first), as dgr files."""
    d1, d2, _ = bundled_iso_fixture()
    paths = tmp_path / "a.dgr", tmp_path / "b.dgr"
    for path, d in zip(paths, (d1, d2 if second is None else second(d1))):
        path.write_text(d.to_dgr())
    return [str(path) for path in paths]


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------

def test_build_gdd_writes_dgr(tmp_path, capsys):
    out = tmp_path / "g.dgr"
    code, stdout, _ = run(capsys, "build", "--family", "gdd", "--l", "2", "--q", "3",
                          "--out", str(out))
    assert code == 0
    assert "(36, 12, 5, 2, 5) verified" in stdout
    text = out.read_text()
    assert text.splitlines()[0] == "36"
    assert Digraph.from_dgr(text) == Digraph(36, build_antiflag_forward(build_gdd(2, 3)).rows)


def test_build_partition(capsys):
    code, stdout, _ = run(capsys, "build", "--family", "partition", "--q", "2", "--l", "3")
    assert code == 0
    assert "(12, 4, 2, 0, 2) verified" in stdout


def test_build_budget_guard(capsys):
    code, _, stderr = run(capsys, "build", "--family", "gdd", "--l", "2", "--q", "100000")
    assert code != 0
    assert "budget" in stderr


def test_build_hyperplane_source_over_incidence_budget(monkeypatch, capsys):
    # affine-resolvable m=16384, s=2 needs the hyperplanes of AG(16, 2):
    # 65536 points, 4.3e9 incidences; refused before any field table
    def refuse(q):
        raise AssertionError(f"make_field({q}) reached")
    monkeypatch.setattr("dsrg.incidence.make_field", refuse)
    code, _, stderr = run(capsys, "build", "--family", "affine-resolvable",
                          "--m", "16384", "--s", "2", "--l", "2")
    assert code == 1
    assert "4294901760 point-block incidences" in stderr and "budget" in stderr


def test_build_refuses_a_huge_gdd_before_its_closed_form(capsys):
    # the closed form of gdd l=10^7 has 16M-bit integers; the block budget refuses first
    start = time.perf_counter()
    code, _, stderr = run(capsys, "build", "--family", "gdd", "--l", "10000000", "--q", "3")
    assert time.perf_counter() - start < 1
    assert code == 1
    assert "error: 3^10000000 blocks exceed budget 1000000" in stderr


@pytest.mark.parametrize("family", ["partition", "partition-spiked"])
def test_build_refuses_a_huge_partition_before_allocating(family, capsys):
    start = time.perf_counter()
    code, _, stderr = run(capsys, "build", "--family", family, "--q", "10000000", "--l", "3")
    assert time.perf_counter() - start < 1
    assert code == 1
    assert "error: 10000000*3 points exceed budget 1000000" in stderr


def test_build_structure_out(tmp_path, capsys):
    path = tmp_path / "s.json"
    code, _, _ = run(capsys, "build", "--family", "gdd", "--l", "2", "--q", "3",
                     "--structure-out", str(path))
    assert code == 0
    assert from_json(path.read_text()) == build_gdd(2, 3)


BUILDABLE_110 = [spec for spec, formula_only in catalog_instances(110) if not formula_only]


@pytest.mark.parametrize("spec", BUILDABLE_110, ids=[f"{s.name} {s.describe()}" for s in BUILDABLE_110])
def test_build_structure_out_builds_the_structure_once(spec, tmp_path, capsys, monkeypatch):
    calls = []
    original = families.build_structure

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)
    # build_digraph calls it through families, cmd_build through cli
    monkeypatch.setattr(families, "build_structure", counted)
    monkeypatch.setattr(cli, "build_structure", counted)
    argv = ["build", "--family", spec.name]
    for f in fields(spec):
        argv += [f"--{families.FLAG_NAMES.get(f.name, f.name)}", str(getattr(spec, f.name))]
    dgr, structure = tmp_path / "g.dgr", tmp_path / "s.json"
    code, _, _ = run(capsys, *argv, "--out", str(dgr), "--structure-out", str(structure))
    assert code == 0 and len(calls) == 1
    assert dgr.read_bytes() == build_digraph(spec).to_dgr().encode()
    assert structure.read_bytes() == to_json(original(spec)).encode()


def test_build_2design_back(capsys):
    code, stdout, _ = run(capsys, "build", "--family", "2design-back", "--v", "7",
                          "--b", "7", "--k", "3", "--r", "3", "--lambda", "1")
    assert code == 0
    assert "(28, 12, 6, 4, 6) verified" in stdout


def test_build_missing_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["build", "--family", "gdd", "--l", "2"])
    assert err.value.code == 2


def test_build_spec_refused_by_its_family_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["build", "--family", "gdd", "--l", "1", "--q", "3"])
    assert err.value.code == 2
    assert capsys.readouterr().err.endswith(
        "dsrg: error: need l >= 2, q >= 2, m >= 1, got Gdd(l=1, q=3, m=1)\n")


def test_build_edges_out_writes_the_edge_list(tmp_path, capsys):
    out = tmp_path / "g.txt"
    code, stdout, _ = run(capsys, "build", "--family", "gdd", "--l", "2", "--q", "2",
                          "--edges-out", str(out))
    assert (code, stdout) == (0, "(8, 4, 3, 1, 3) verified\n")
    d = build_digraph(Gdd(2, 2))
    assert out.read_text() == d.to_edge_list()
    assert Digraph.from_edge_list(out.read_text()).rows == d.rows


def test_build_refuses_a_graph_above_the_verification_cap_before_wiring(capsys, monkeypatch):
    # gdd(2,100) has 1,980,000 anti-flags; wiring them ran for minutes
    def no_wiring(structure):
        raise AssertionError("wired a graph above the verification cap")

    monkeypatch.setattr(families, "build_antiflag_forward", no_wiring)
    start = time.perf_counter()
    code, stdout, stderr = run(capsys, "build", "--family", "gdd", "--l", "2", "--q", "100")
    assert time.perf_counter() - start < 1.0
    assert (code, stdout) == (1, "")
    assert "1980000 vertices, above the verification cap 4096" in stderr
    with pytest.raises(TooLargeError):
        build_digraph(Gdd(2, 100))


def test_build_multiple_size_guard(capsys):
    code, _, stderr = run(capsys, "build", "--family", "gdd", "--l", "2", "--q", "3",
                          "--m", "100000")
    assert code == 1
    assert "verification cap" in stderr


def test_gdd_above_the_cap_is_refused_before_its_structure(capsys, monkeypatch):
    # q^l blocks within the block guard; the closed form's v is over the cap
    def no_build(l, q):
        raise AssertionError(f"built gdd({l}, {q}) above the verification cap")

    monkeypatch.setattr(families, "build_gdd", no_build)
    for l, q, v in ((2, 1000, 1998000000), (12, 3, 12754584)):
        start = time.perf_counter()
        code, stdout, stderr = run(capsys, "build", "--family", "gdd", "--l", str(l), "--q", str(q))
        assert time.perf_counter() - start < 1.0
        assert (code, stdout) == (1, "")
        assert stderr == (f"error: gdd l={l};q={q} has {v} vertices, "
                          "above the verification cap 4096\n")


@pytest.mark.parametrize("family", ["partition", "partition-spiked"])
def test_partition_above_the_cap_is_refused_before_its_structure(family, capsys, monkeypatch):
    # 900,000 points within the point guard; the closed form's v is over the cap
    def no_build(q, l):
        raise AssertionError(f"built partition({q}, {l}) above the verification cap")

    monkeypatch.setattr(families, "build_partition_structure", no_build)
    start = time.perf_counter()
    code, stdout, stderr = run(capsys, "build", "--family", family, "--q", "300000", "--l", "3")
    assert time.perf_counter() - start < 1.0
    assert (code, stdout) == (1, "")
    assert stderr == (f"error: {family} q=300000;l=3 has 1800000 vertices, "
                      "above the verification cap 4096\n")


def test_budget_flag_that_is_no_integer_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["iso", "a.dgr", "b.dgr", "--budget", "abc"])
    assert err.value.code == 2
    assert capsys.readouterr().err.endswith(
        "error: argument --budget: expected an integer, got 'abc'\n")


@pytest.mark.parametrize("args", ["iso a.dgr b.dgr --budget -5", "catalog --multiples -3",
                                  "catalog --multiples 0", "catalog --max-order -1",
                                  "catalog --max-order 0"])
def test_integer_flag_below_its_bound_is_a_usage_error(args, capsys):
    flag, value = args.split()[-2:]
    low = 0 if flag == "--budget" else 1
    with pytest.raises(SystemExit) as err:
        main(args.split())
    assert err.value.code == 2
    assert capsys.readouterr().err.endswith(
        f"error: argument {flag}: must be at least {low}, got {value}\n")


def test_catalog_flags_at_their_bound_give_an_empty_table(capsys):
    code, stdout, _ = run(capsys, "catalog", "--max-order", "1", "--multiples", "1")
    assert (code, stdout.count("\n")) == (0, 1)


def test_no_budget_is_read_from_the_environment_or_a_block_budget_flag(tmp_path, capsys,
                                                                       monkeypatch):
    monkeypatch.setenv("DSRG_BUDGET", "1")
    code, stdout, _ = run(capsys, "iso", *_iso_files(tmp_path))
    assert (code, stdout.splitlines()[0]) == (0, "ISOMORPHIC")
    code, stdout, _ = run(capsys, "build", "--family", "gdd", "--l", "2", "--q", "3")
    assert (code, stdout) == (0, "(36, 12, 5, 2, 5) verified\n")
    for argv in (["build", "--family", "gdd", "--l", "2", "--q", "3"], ["catalog"]):
        with pytest.raises(SystemExit) as err:
            main(argv + ["--block-budget", "1000"])
        assert err.value.code == 2


# required build flags of each family, in the order their absence is reported
REQUIRED_FLAGS = {
    "gdd": ("l", "q"),
    "pg-antiflag": ("kappa", "rho", "tau"),
    "ap-pencils": ("q", "l"),
    "transversal": ("q",),
    "partition": ("q", "l"),
    "partition-spiked": ("q", "l"),
    "affine-resolvable": ("m", "s", "l"),
    "2design-back": ("v", "b", "k", "r", "lambda"),
    "2design-back-loopy": ("v", "b", "k", "r", "lambda"),
}
ROUND_TRIP_SPECS = ([spec for spec, formula_only in catalog_instances(110) if not formula_only]
                    + [PgAntiflag(3, 3, 2), Gdd(2, 3, 4)])


def _build_argv(spec, drop=None):
    argv = ["build", "--family", spec.name]
    for pair in spec.describe().split(";"):
        flag, value = pair.split("=")
        if flag != drop:
            argv += [f"--{flag}", value]
    return argv


def _parse_spec(argv):
    parser = build_parser()
    return _spec_from_args(parser.parse_args(argv), parser)


def test_round_trip_covers_every_family():
    assert {spec.name for spec in ROUND_TRIP_SPECS} == set(REQUIRED_FLAGS)


@pytest.mark.parametrize("spec", ROUND_TRIP_SPECS, ids=lambda s: f"{s.name} {s.describe()}")
def test_build_flags_round_trip(spec, capsys):
    assert _parse_spec(_build_argv(spec)) == spec
    for flag in REQUIRED_FLAGS[spec.name]:
        with pytest.raises(SystemExit) as err:
            _parse_spec(_build_argv(spec, drop=flag))
        assert err.value.code == 2
        assert f"error: --family {spec.name} needs --{flag}\n" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        _parse_spec(["build", "--family", spec.name])
    first = REQUIRED_FLAGS[spec.name][0]
    assert f"needs --{first}\n" in capsys.readouterr().err


# every build flag, in the order the registry first names it
ALL_FLAGS = ("l", "q", "m", "kappa", "rho", "tau", "s", "v", "b", "k", "r", "lambda")
FOREIGN_FLAGS = [(spec, flag) for spec in dict((s.name, s) for s in ROUND_TRIP_SPECS).values()
                 for flag in ALL_FLAGS
                 if flag not in REQUIRED_FLAGS[spec.name] + (("m",) if spec.name == "gdd" else ())]


@pytest.mark.parametrize("spec,flag", FOREIGN_FLAGS,
                         ids=[f"{spec.name} --{flag}" for spec, flag in FOREIGN_FLAGS])
def test_build_flag_of_another_family_is_a_usage_error(spec, flag, capsys):
    with pytest.raises(SystemExit) as err:
        _parse_spec(_build_argv(spec) + [f"--{flag}", "5"])
    assert err.value.code == 2
    assert f"error: --family {spec.name} does not take --{flag}\n" in capsys.readouterr().err


def test_build_reports_the_first_foreign_flag_in_registry_order(capsys):
    # once exited 0 after building the base graph, ignoring both flags
    with pytest.raises(SystemExit) as err:
        main(["build", "--family", "ap-pencils", "--q", "3", "--l", "2",
              "--kappa", "9", "--m", "5"])
    assert err.value.code == 2
    assert "error: --family ap-pencils does not take --m\n" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_dgr_file(tmp_path, capsys):
    path = tmp_path / "g.dgr"
    path.write_text(build_antiflag_forward(build_gdd(2, 3)).to_dgr())
    code, stdout, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert "(36, 12, 5, 2, 5)" in stdout


def test_verify_edge_list_three_cycle(tmp_path, capsys):
    path = tmp_path / "c3.txt"
    path.write_text("0 1\n1 2\n2 0\n")
    code, stdout, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert "(3, 1, 0, 0, 1)" in stdout


def test_verify_loop_file_fails(tmp_path, capsys):
    path = tmp_path / "loop.dgr"
    path.write_text("2\n10\n01\n")
    code, _, stderr = run(capsys, "verify", str(path))
    assert code != 0
    assert "loop" in stderr


def test_verify_parse_error_carries_line(tmp_path, capsys):
    path = tmp_path / "bad.dgr"
    path.write_text("3\n010\n0x0\n000\n")
    code, _, stderr = run(capsys, "verify", str(path))
    assert code != 0
    assert "line 3" in stderr


def test_verify_non_dsrg(tmp_path, capsys):
    path = tmp_path / "c4.txt"
    path.write_text("0 1\n1 2\n2 3\n3 0\n")
    code, _, stderr = run(capsys, "verify", str(path))
    assert code != 0
    assert "mu" in stderr


def test_verify_and_iso_refuse_an_edge_list_index_at_the_cap(tmp_path, capsys):
    cycle = tmp_path / "c3.txt"
    cycle.write_text("0 1\n1 2\n2 0\n")
    # the cap first: a loader without the guard fails before the index 10**9
    for index in (4096, 10 ** 9):
        path = tmp_path / f"{index}.txt"
        path.write_text(f"0 1\n0 {index}\n")
        want = f"error: line 2: vertex index {index} is at or above the cap of 4096 vertices\n"
        assert run(capsys, "verify", str(path)) == (1, "", want)
        assert run(capsys, "iso", str(cycle), str(path)) == (1, "", want)


def test_verify_refuses_an_edge_list_loop_or_repeated_arc_at_its_line(tmp_path, capsys):
    for text, want in (("0 1\n1 1\n", "error: line 2: loop at vertex 1\n"),
                       ("0 1\n0 1\n1 0\n", "error: line 2: arc 0 -> 1 repeats line 1\n")):
        path = tmp_path / "edges.txt"
        path.write_text(text)
        assert run(capsys, "verify", str(path)) == (1, "", want)


def test_verify_missing_file(tmp_path, capsys):
    code, stdout, stderr = run(capsys, "verify", str(tmp_path / "absent.dgr"))
    assert (code, stdout) == (1, "")
    assert stderr.startswith("error: [Errno 2] ")
    assert stderr.endswith("absent.dgr'\n")


# -- the file format, decided from the first non-blank line -----------------

def _first_line_format(text):
    """The loader's first rule, which split the whole file into lines."""
    for line in text.split("\n"):
        if line.strip():
            return "dgr" if len(line.split()) == 1 else "edges"
    return None


def _loaded_format(monkeypatch, path):
    monkeypatch.setattr(Digraph, "from_dgr", classmethod(lambda cls, text: "dgr"))
    monkeypatch.setattr(Digraph, "from_edge_list", classmethod(lambda cls, text: "edges"))
    try:
        return cli._load_digraph(str(path))
    except DsrgError as exc:
        assert str(exc) == f"{path}: empty file"
        return None
    finally:
        monkeypatch.undo()


WHITESPACE = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]


def test_load_format_matches_the_first_line_rule(tmp_path, monkeypatch):
    path = tmp_path / "g"
    rng = random.Random(20107)
    alphabet = WHITESPACE + ["\r\n", "0", "1", "12", "x"]
    cases = ["", "\n", " \t\n\x0c", "3", "3 ", "0 1", "\x1f3\x1f", "3\x1f4", "3\x854",
             "\u20283\u2028 4", "3\xa04\n", "\n\n  0\t1\n"]
    cases += ["".join(rng.choice(alphabet) for _ in range(rng.randrange(9)))
              for _ in range(3000)]
    for text in cases:
        path.write_bytes(text.encode())
        # read_text turns \r\n and \r into \n: the rule sees what the parsers see
        assert _loaded_format(monkeypatch, path) == _first_line_format(path.read_text()), text


@pytest.mark.parametrize("sep", ["\n", "\r\n", "\r", "\x0c", "\u2028"])
def test_verify_dgr_and_edge_list_with_any_line_separator(tmp_path, capsys, sep):
    """read_text turns "\r\n" and "\r" into "\n", which ends a line; any other
    line boundary stays inside a line, so the whole file is line 1 of an
    edge list, refused there."""
    d = build_antiflag_forward(build_gdd(2, 3))
    lead = sep + " \t" + sep + "\x0b" + sep
    ends_lines = sep in ("\n", "\r\n", "\r")
    # dgr/1 needs n on line 1; an edge list may start with blank lines
    for name, text in (("g.dgr", d.to_dgr()), ("g.txt", lead + d.to_edge_list())):
        path = tmp_path / name
        path.write_bytes(text.replace("\n", sep).encode())
        code, stdout, stderr = run(capsys, "verify", str(path))
        if ends_lines:
            assert (code, stderr) == (0, "")
            assert "(36, 12, 5, 2, 5)" in stdout
        else:
            assert code == 1 and stderr.startswith("error: line 1: expected 'u v', got ")
    path = tmp_path / "lead.dgr"
    path.write_bytes((lead + d.to_dgr().replace("\n", sep)).encode())
    code, _, stderr = run(capsys, "verify", str(path))
    if ends_lines:
        assert (code, stderr) == (1, "error: line 1: expected a vertex count, got ''\n")
    else:
        assert code == 1 and stderr.startswith("error: line 1: expected 'u v', got ")


@pytest.mark.parametrize("text", ["", "\n", "  \n\t\n", "\r\n\x0c\u2028 \u3000"])
def test_verify_empty_file(tmp_path, capsys, text):
    path = tmp_path / "empty"
    path.write_bytes(text.encode())
    with pytest.raises(DsrgError) as err:
        cli._load_digraph(str(path))
    assert str(err.value) == f"{path}: empty file"
    code, _, stderr = run(capsys, "verify", str(path))
    assert (code, stderr) == (1, f"error: {path}: empty file\n")


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def test_catalog_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    code1, out1, _ = run(capsys, "catalog", "--csv", str(a))
    code2, out2, _ = run(capsys, "catalog", "--csv", str(b))
    assert code1 == code2 == 0
    assert out1 == out2
    assert a.read_bytes() == b.read_bytes()


def test_catalog_max_order_is_capped_at_the_verification_cap(capsys, monkeypatch):
    for cap in (4096, 100):
        monkeypatch.setattr(cli, "MAX_VERIFY_ORDER", cap)
        with pytest.raises(SystemExit) as err:
            main(["catalog", "--max-order", str(cap + 1)])
        assert err.value.code == 2
        assert f"--max-order is capped at {cap}" in capsys.readouterr().err


def test_catalog_rows_content():
    rows = catalog_rows()
    by_tuple = {(r.params.tuple(), r.family, r.marker()): r for r in rows}
    assert ((96, 24, 7, 3, 7), "gdd", "l=2;q=4") in by_tuple
    assert ((54, 18, 7, 4, 7), "ap-pencils", "q=3;l=3") in by_tuple
    # the same parameter set shows up from two different constructions
    gdd_16 = by_tuple[((16, 8, 6, 2, 6), "gdd", "l=2;q=2;m=2")]
    ar_16 = by_tuple[((16, 8, 6, 2, 6), "affine-resolvable", "m=2;s=2;l=2")]
    assert gdd_16.verified and ar_16.verified
    # pencil counts the order-2 plane cannot realize are formula-only
    row = by_tuple[((32, 16, 9, 7, 9), "ap-pencils", "q=2;l=8;formula-only")]
    assert not row.verified and row.formula_only
    assert all(r.verified for r in rows if not r.formula_only)


# max-order 110 and 500 as the benchmark checks them; 1000 taken from the same code
CATALOG_DIGESTS = {
    **{int(k): v for k, v in json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                                         / "golden.json").read_text())["catalog"].items()},
    1000: {"table": "a6462c7f9309628fbf36a5d4c79f9ff680b1d79b16a3d5ade501263bb2d64026",
           "csv": "c7196f81c285273151199284fbbab32d0873aacbfe41c7c43752f07cdb622824"},
}


@pytest.mark.parametrize("max_order", sorted(CATALOG_DIGESTS))
def test_catalog_matches_its_digests(max_order):
    rows = catalog_rows(max_order=max_order)
    for kind, text in (("table", render_table(rows)), ("csv", render_csv(rows))):
        assert hashlib.sha256(text.encode()).hexdigest() == CATALOG_DIGESTS[max_order][kind], kind


def count_verify_calls(monkeypatch):
    """The rows of every graph verify_dsrg is called on, in a list."""
    real = verify_dsrg
    calls = []

    def counting(d):
        calls.append(d.rows)
        return real(d)

    monkeypatch.setattr("dsrg.cli.verify_dsrg", counting)
    monkeypatch.setattr("dsrg.digraph.verify_dsrg", counting)
    return calls


def test_catalog_verifies_each_built_graph_once(monkeypatch):
    """No graph is verified twice, and every base graph is verified;
    `transversal q` and `ap-pencils q;l=q` build equal rows, so their
    rows share one proof."""
    calls = count_verify_calls(monkeypatch)
    rows = catalog_rows()
    assert len(set(calls)) == len(calls) < sum(not r.formula_only for r in rows)
    assert {build_digraph(spec).rows for spec, formula_only in catalog_instances(110)
            if not formula_only} <= set(calls)
    t3, p3 = build_digraph(Transversal(3)), build_digraph(ApPencils(3, 3))
    assert t3.rows == p3.rows
    assert (t3.n, t3.distinct, t3.members) == (p3.n, p3.distinct, p3.members)


@pytest.mark.parametrize("max_order, calls, before", [(110, 135, 150), (500, 311, 336),
                                                      (1000, 382, 415)])
def test_catalog_verify_calls_are_pinned(monkeypatch, max_order, calls, before):
    """One verify_dsrg call per distinct graph, `before` when each spec
    verified its own graph and multiples."""
    counted = count_verify_calls(monkeypatch)
    rows = catalog_rows(max_order=max_order)
    assert len(counted) == calls
    assert sum(not r.formula_only for r in rows) == before


def test_catalog_csv_shape():
    rows = catalog_rows(max_order=40, families=("gdd",), multiples=2)
    text = render_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert all(len(line.split(",")) == 12 for line in lines)
    assert sorted(lines[1:], key=lambda ln: int(ln.split(",")[0])) == lines[1:]


def test_catalog_family_filter(capsys):
    code, stdout, _ = run(capsys, "catalog", "--families", "partition,partition-spiked",
                          "--max-order", "40")
    assert code == 0
    assert "gdd" not in stdout
    assert "partition-spiked" in stdout


def test_catalog_rejects_unknown_family(capsys):
    with pytest.raises(SystemExit):
        main(["catalog", "--families", "nonsense"])


# ---------------------------------------------------------------------------
# iso and spectrum
# ---------------------------------------------------------------------------

def test_iso_cli_isomorphic(tmp_path, capsys):
    code, stdout, _ = run(capsys, "iso", *_iso_files(tmp_path))
    assert code == 0
    lines = stdout.splitlines()
    assert lines[0] == "ISOMORPHIC"
    assert len(lines) == 1 + 36


def test_iso_cli_reports_counters_on_stderr(tmp_path, capsys):
    d1, d2, _ = bundled_iso_fixture()
    code, stdout, stderr = run(capsys, "iso", *_iso_files(tmp_path))
    result = are_isomorphic(d1, d2)
    assert code == 0
    mapping = "".join(f"{u} -> {v}\n" for u, v in enumerate(result.mapping))
    assert stdout == "ISOMORPHIC\n" + mapping
    assert re.fullmatch(r"nodes=\d+ rounds=\d+ depth=\d+\n", stderr)
    assert stderr == f"nodes={result.nodes} rounds={result.rounds} depth={result.depth}\n"


def test_iso_cli_not_isomorphic(tmp_path, capsys):
    code, stdout, _ = run(capsys, "iso", *_iso_files(tmp_path, Digraph.transpose))
    assert code == 1
    assert "NOT ISOMORPHIC" in stdout


def test_iso_cli_budget(tmp_path, capsys):
    code, stdout, _ = run(capsys, "iso", *_iso_files(tmp_path), "--budget", "1")
    assert code == 2
    assert "BUDGET EXCEEDED" in stdout


def test_spectrum_cli(capsys):
    code, stdout, _ = run(capsys, "spectrum", "36", "12", "5", "2", "5")
    assert code == 0
    assert stdout.strip() == "theta 12 0 -3 mult 1 31 4"


def test_spectrum_cli_infeasible(capsys):
    code, stdout, _ = run(capsys, "spectrum", "10", "4", "3", "1", "2")
    assert code == 1
    assert stdout == "infeasible: integer_spectrum fails: delta_not_integer: delta^2=5\n"


@pytest.mark.parametrize("raw, line", [
    (("5", "2", "2", "0", "1"), "no integer spectrum: t = k"),     # the 5-cycle
    (("7", "3", "0", "1", "2"), "no integer spectrum: t = 0"),     # residue tournament
    (("4", "2", "1", "1", "1"), "infeasible: integer_spectrum fails: "
                                 "delta_not_positive: delta^2=0"),
])
def test_spectrum_cli_without_an_integer_spectrum(capsys, raw, line):
    code, stdout, _ = run(capsys, "spectrum", *raw)
    assert (code, stdout) == (0 if line.startswith("no ") else 1, line + "\n")


def test_spectrum_cli_checks_the_dsrg_identities(capsys):
    # an integer spectrum exists, but k(k+mu-lambda) != t+(v-1)mu
    code, stdout, _ = run(capsys, "spectrum", "10", "3", "1", "0", "0")
    assert code == 1
    assert stdout.strip() == \
        "infeasible: degree_identity fails: k(k+mu-lambda)=9 vs t+(v-1)mu=1"


def _spectrum_grid():
    """Every tuple with v <= 8 inside the degree bounds, then seeded ones outside."""
    grid = [(v, k, t, lam, mu) for v in range(1, 9)
            for k, t, lam, mu in itertools.product(range(v), repeat=4)
            if t <= k and lam < k and mu <= k]
    rng = random.Random(3)
    return grid + [tuple(rng.randrange(-1, 9) for _ in range(5)) for _ in range(100)]


def test_spectrum_cli_accepts_exactly_the_feasible_tuples(capsys):
    parser = build_parser()   # built once: main would build it per tuple
    accepted, waived = 0, set()
    for raw in _spectrum_grid():
        code = cli.cmd_spectrum(parser.parse_args(["spectrum", *map(str, raw)]), parser)
        stdout = capsys.readouterr().out
        report = feasibility(*raw)
        bad, s = report.first_failure(), report.spectrum
        if bad:
            line = f"infeasible: {bad.name} fails: {bad.detail}"
        elif s:
            line = f"theta {s.theta0} {s.theta1} {s.theta2} mult {s.m0} {s.m1} {s.m2}"
        else:
            line = f"no integer spectrum: t = {'k' if raw[2] == raw[1] else '0'}"
            waived.add(raw)
        assert (code, stdout) == (0 if report.ok else 1, line + "\n"), raw
        accepted += code == 0
    # 49 with an integer spectrum; the rest have conjugate eigenvalues with
    # 2k = v-1, lambda = mu-1 and t = k(k+1-2mu): the 3-cycle, C5 and QR(7).
    # (8, 5, 4, 3, 3) has an integer spectrum, but its complement has lambda = -1
    assert accepted == 52
    assert waived == {(3, 1, 0, 0, 1), (5, 2, 2, 0, 1), (7, 3, 0, 1, 2)}


def test_the_halves_are_integers_wherever_delta_is():
    """delta^2 = (mu-lambda)^2 + 4(t-mu) makes delta = lambda-mu (mod 2), so
    the spectrum needs no check that lambda-mu+delta is even; and the
    numerators of m1 and m2 sum to delta(v-1), so one divisibility check
    decides both."""
    squares = 0
    for v, k, t, lam, mu in _spectrum_grid():
        disc = (mu - lam) ** 2 + 4 * (t - mu)
        delta = math.isqrt(disc) if disc >= 0 else None
        if delta is not None and delta * delta == disc:
            assert (lam - mu + delta) % 2 == 0, (v, k, t, lam, mu)
            theta1, theta2 = (lam - mu + delta) // 2, (lam - mu - delta) // 2
            assert -(k + theta2 * (v - 1)) + (k + theta1 * (v - 1)) == delta * (v - 1)
            squares += 1
    assert squares == 897
