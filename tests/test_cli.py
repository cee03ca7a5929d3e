import random
import re
import sys
import time

import pytest

from dsrg import (Digraph, DsrgError, TooLargeError, are_isomorphic, build_antiflag_forward,
                  build_digraph, build_gdd, bundled_iso_fixture, from_json, verify_dsrg)
from dsrg import cli, families
from dsrg.cli import CSV_HEADER, _spec_from_args, build_parser, catalog_rows, main, render_csv
from dsrg.families import Gdd, PgAntiflag, catalog_instances


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_build_structure_out(tmp_path, capsys):
    path = tmp_path / "s.json"
    code, _, _ = run(capsys, "build", "--family", "gdd", "--l", "2", "--q", "3",
                     "--structure-out", str(path))
    assert code == 0
    assert from_json(path.read_text()) == build_gdd(2, 3)


def test_build_2design_back(capsys):
    code, stdout, _ = run(capsys, "build", "--family", "2design-back", "--v", "7",
                          "--b", "7", "--k", "3", "--r", "3", "--lambda", "1")
    assert code == 0
    assert "(28, 12, 6, 4, 6) verified" in stdout


def test_build_missing_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["build", "--family", "gdd", "--l", "2"])
    assert err.value.code == 2


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


def test_build_env_budget(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DSRG_BUDGET", "5")
    code, _, stderr = run(capsys, "build", "--family", "gdd", "--l", "2", "--q", "3")
    assert code != 0 and "budget" in stderr
    # an explicit flag wins over the environment
    code, stdout, _ = run(capsys, "build", "--family", "gdd", "--l", "2", "--q", "3",
                          "--block-budget", "1000")
    assert code == 0


def test_build_multiple_size_guard(capsys):
    code, _, stderr = run(capsys, "build", "--family", "gdd", "--l", "2", "--q", "3",
                          "--m", "100000")
    assert code == 1
    assert "verification cap" in stderr


def test_bad_env_budget_is_a_usage_error(capsys, monkeypatch):
    for raw in ("-5", "abc"):
        monkeypatch.setenv("DSRG_BUDGET", raw)
        with pytest.raises(SystemExit) as err:
            main(["build", "--family", "gdd", "--l", "2", "--q", "3"])
        assert err.value.code == 2
        assert "DSRG_BUDGET" in capsys.readouterr().err


def test_negative_budget_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["build", "--family", "gdd", "--l", "2", "--q", "3", "--block-budget", "-5"])
    assert err.value.code == 2


def test_env_budget_is_read_only_by_commands_that_use_it(capsys, monkeypatch):
    monkeypatch.setenv("DSRG_BUDGET", "abc")
    code, stdout, _ = run(capsys, "spectrum", "36", "12", "5", "2", "5")
    assert code == 0
    assert stdout.strip() == "theta 12 0 -3 mult 1 31 4"


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


# -- the file format, decided from the first non-blank line -----------------

def _first_line_format(text):
    """The loader's first rule, which split the whole file into lines."""
    for line in text.splitlines():
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


@pytest.mark.parametrize("sep", ["\n", "\r\n", "\x0c", "\u2028"])
def test_verify_dgr_and_edge_list_with_any_line_separator(tmp_path, capsys, sep):
    d = build_antiflag_forward(build_gdd(2, 3))
    lead = sep + " \t" + sep + "\x0b" + sep
    # dgr/1 needs n on line 1; an edge list may start with blank lines
    for name, text in (("g.dgr", d.to_dgr()), ("g.txt", lead + d.to_edge_list())):
        path = tmp_path / name
        path.write_bytes(text.replace("\n", sep).encode())
        code, stdout, stderr = run(capsys, "verify", str(path))
        assert (code, stderr) == (0, "")
        assert "(36, 12, 5, 2, 5)" in stdout
    path = tmp_path / "lead.dgr"
    path.write_bytes((lead + d.to_dgr().replace("\n", sep)).encode())
    code, _, stderr = run(capsys, "verify", str(path))
    assert (code, stderr) == (1, "error: line 1: expected a vertex count, got ''\n")


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


def test_catalog_verifies_each_built_graph_once(monkeypatch):
    real = verify_dsrg
    calls = []

    def counting(d):
        calls.append(d.n)
        return real(d)

    monkeypatch.setattr("dsrg.cli.verify_dsrg", counting)
    monkeypatch.setattr("dsrg.digraph.verify_dsrg", counting)
    rows = catalog_rows()
    assert len(calls) == sum(not r.formula_only for r in rows)


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
    d1, d2, _ = bundled_iso_fixture()
    p1, p2 = tmp_path / "a.dgr", tmp_path / "b.dgr"
    p1.write_text(d1.to_dgr())
    p2.write_text(d2.to_dgr())
    code, stdout, _ = run(capsys, "iso", str(p1), str(p2))
    assert code == 0
    lines = stdout.splitlines()
    assert lines[0] == "ISOMORPHIC"
    assert len(lines) == 1 + 36


def test_iso_cli_reports_counters_on_stderr(tmp_path, capsys):
    d1, d2, _ = bundled_iso_fixture()
    p1, p2 = tmp_path / "a.dgr", tmp_path / "b.dgr"
    p1.write_text(d1.to_dgr())
    p2.write_text(d2.to_dgr())
    code, stdout, stderr = run(capsys, "iso", str(p1), str(p2))
    result = are_isomorphic(d1, d2)
    assert code == 0
    mapping = "".join(f"{u} -> {v}\n" for u, v in enumerate(result.mapping))
    assert stdout == "ISOMORPHIC\n" + mapping
    assert re.fullmatch(r"nodes=\d+ pruned=\d+ rounds=\d+\n", stderr)
    assert stderr == f"nodes={result.nodes} pruned={result.pruned} rounds={result.rounds}\n"


def test_iso_cli_not_isomorphic(tmp_path, capsys):
    d1, _, _ = bundled_iso_fixture()
    p1, p2 = tmp_path / "a.dgr", tmp_path / "b.dgr"
    p1.write_text(d1.to_dgr())
    p2.write_text(d1.transpose().to_dgr())
    code, stdout, _ = run(capsys, "iso", str(p1), str(p2))
    assert code == 1
    assert "NOT ISOMORPHIC" in stdout


def test_iso_cli_budget(tmp_path, capsys):
    d1, d2, _ = bundled_iso_fixture()
    p1, p2 = tmp_path / "a.dgr", tmp_path / "b.dgr"
    p1.write_text(d1.to_dgr())
    p2.write_text(d2.to_dgr())
    code, stdout, _ = run(capsys, "iso", str(p1), str(p2), "--budget", "1")
    assert code == 2
    assert "BUDGET EXCEEDED" in stdout


def test_spectrum_cli(capsys):
    code, stdout, _ = run(capsys, "spectrum", "36", "12", "5", "2", "5")
    assert code == 0
    assert stdout.strip() == "theta 12 0 -3 mult 1 31 4"


def test_spectrum_cli_infeasible(capsys):
    code, stdout, _ = run(capsys, "spectrum", "10", "4", "3", "1", "2")
    assert code == 1
    assert stdout.strip() == "infeasible: delta^2=5"
