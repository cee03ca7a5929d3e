"""Command-line surface: build, verify, catalog, iso, spectrum.

The catalog enumerates every bundled construction family up to a
maximum order, builds and verifies each instance (tensor multiples
included wherever t = mu), and emits a deterministic table: identical
flags give byte-identical output.  Rows whose parameters come from a
closed form with no underlying structure carry a formula-only marker
instead of a fabricated graph.

The build flags and their usage errors are derived from the family
registry in families.py: one int flag per spec field, and a family
needs every field that has no default and takes no other.  The size
guards of the builders are fixed; iso --budget, the node budget of the
isomorphism search, is the only budget a user sets.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

from .digraph import MAX_VERIFY_ORDER, Digraph, _blow_up, verify_dsrg
from .errors import DsrgError, NotFeasibleError
from .families import (
    FAMILIES,
    FLAG_NAMES,
    FamilySpec,
    _wire_spec,
    build_digraph,
    build_structure,
    catalog_instances,
    expected_params,
)
from .incidence import to_json
from .iso import BUDGET_EXCEEDED, DEFAULT_NODE_BUDGET, ISOMORPHIC, are_isomorphic
from .params import DsrgParams, Spectrum, feasibility, spectrum

CSV_HEADER = "v,k,t,lambda,mu,family,family_params,verified,theta1,theta2,m1,m2"
# every spec field of the registry, in flag order: one int build flag each
_SPEC_FIELDS = tuple(dict.fromkeys(f.name for cls in FAMILIES.values() for f in fields(cls)))


@dataclass(frozen=True)
class CatalogRow:
    params: DsrgParams
    family: str
    family_params: str
    verified: bool
    spectrum: Spectrum | None
    formula_only: bool = False

    def sort_key(self):
        return (self.params.v, self.family, self.family_params)

    def marker(self) -> str:
        return (self.family_params + ";formula-only") if self.formula_only else self.family_params


def _safe_spectrum(p: DsrgParams) -> Spectrum | None:
    try:
        return spectrum(p)
    except NotFeasibleError:
        return None


def _verified_multiples(d: Digraph, max_order: int, multiples: int) -> list[DsrgParams]:
    """verify_dsrg of d and, where t = mu, of its multiples m = 2, 3, ... while
    m <= multiples and m * v <= max_order, in order of m."""
    got = verify_dsrg(d)
    proofs = [got]
    if got.t == got.mu:
        # d is verified with t = mu just above, so each multiple is
        # built without verifying d again and verified once itself
        m = 2
        while m <= multiples and m * got.v <= max_order:
            proofs.append(verify_dsrg(_blow_up(d, m)))
            m += 1
    return proofs


def catalog_rows(max_order: int = 110, families: tuple[str, ...] | None = None,
                 multiples: int = 13) -> list[CatalogRow]:
    """Build, verify and tabulate every family instance with v <= max_order.

    Specs that build equal rows (`transversal q` and `ap-pencils q;l=q`)
    share one proof of the graph and of each multiple; each row is still
    compared with its own spec's expected parameters.  The proofs are
    keyed by the row-class index (n, distinct, members), which fixes the
    rows because classes are numbered by first appearance, and hashes D
    ints, not n.
    """
    rows: list[CatalogRow] = []
    proofs: dict[tuple[int, tuple[int, ...], tuple[int, ...]], list[DsrgParams]] = {}
    for spec, formula_only in catalog_instances(max_order):
        if families is not None and spec.name not in families:
            continue
        expected = expected_params(spec)
        if formula_only:
            rows.append(CatalogRow(expected, spec.name, spec.describe(), False,
                                   _safe_spectrum(expected), formula_only=True))
            continue
        d = build_digraph(spec)
        key = (d.n, d.distinct, d.members)
        if key not in proofs:
            proofs[key] = _verified_multiples(d, max_order, multiples)
        for m, got in enumerate(proofs[key], 1):
            rows.append(CatalogRow(got, spec.name,
                                   spec.describe() + (f";m={m}" if m > 1 else ""),
                                   got == expected.scaled(m), _safe_spectrum(got)))
    rows.sort(key=CatalogRow.sort_key)
    return rows


def _cells(r: CatalogRow, yes: str, no: str, blank: str) -> list[str]:
    """The row's cells in CSV_HEADER order; blank stands in for a missing spectrum."""
    s = r.spectrum
    tail = (s.theta1, s.theta2, s.m1, s.m2) if s else (blank,) * 4
    return [str(c) for c in (*r.params.tuple(), r.family, r.marker(),
                             yes if r.verified else no, *tail)]


def render_csv(rows: list[CatalogRow]) -> str:
    lines = [CSV_HEADER] + [",".join(_cells(r, "true", "false", "")) for r in rows]
    return "\n".join(lines) + "\n"


def render_table(rows: list[CatalogRow]) -> str:
    headers = CSV_HEADER.split(",")
    cells = [_cells(r, "yes", "NO", "-") for r in rows]
    widths = [max(len(h), *(len(row[i]) for row in cells)) if cells else len(h)
              for i, h in enumerate(headers)]
    def fmt(row):
        return "  ".join(val.ljust(w) for val, w in zip(row, widths)).rstrip()
    return "\n".join([fmt(headers)] + [fmt(row) for row in cells]) + "\n"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _spec_from_args(args: argparse.Namespace, parser: argparse.ArgumentParser) -> FamilySpec:
    """The spec of --family from its flags; a missing, foreign or bad value is a usage error."""
    cls = FAMILIES[args.family]
    own = {f.name for f in fields(cls)}
    for name in _SPEC_FIELDS:
        if name not in own and getattr(args, name) is not None:
            parser.error(f"--family {args.family} does not take --{FLAG_NAMES.get(name, name)}")
    values = {}
    for f in fields(cls):
        value = getattr(args, f.name)
        if value is not None:
            values[f.name] = value
        elif f.default is MISSING:
            parser.error(f"--family {args.family} needs --{FLAG_NAMES.get(f.name, f.name)}")
    try:
        return cls(**values)
    except ValueError as exc:
        parser.error(str(exc))
        raise AssertionError  # parser.error exits


def cmd_build(args, parser) -> int:
    spec = _spec_from_args(args, parser)
    # the builder's size guards run before the closed form, whose
    # integers grow with the spec's exponents
    structure = build_structure(spec)
    d = _wire_spec(spec, structure)
    expected = expected_params(spec)
    got = verify_dsrg(d)
    if args.out:
        Path(args.out).write_text(d.to_dgr())
    if args.edges_out:
        Path(args.edges_out).write_text(d.to_edge_list())
    if args.structure_out:
        Path(args.structure_out).write_text(to_json(structure))
    if got == expected:
        print(f"{got} verified")
        return 0
    print(f"expected {expected} but verified {got}")
    return 1


# The first token of a file and, if the first non-blank line has one, its
# second: a line ends at "\n", as in the parsers.  Compiled on first use (re
# caches it), not at import.
_FIRST_TOKENS = r"\S+[^\S\n]*(\S)?"


def _load_digraph(path: str) -> Digraph:
    """dgr/1 if the first non-blank line holds one token, else an edge list."""
    text = Path(path).read_text()
    first = re.search(_FIRST_TOKENS, text)
    if first is None:
        raise DsrgError(f"{path}: empty file")
    if first.group(1) is None:
        return Digraph.from_dgr(text)
    return Digraph.from_edge_list(text)


def cmd_verify(args, parser) -> int:
    d = _load_digraph(args.path)
    print(verify_dsrg(d))
    return 0


def cmd_catalog(args, parser) -> int:
    if args.max_order > MAX_VERIFY_ORDER:
        parser.error(f"--max-order is capped at {MAX_VERIFY_ORDER}")
    families = tuple(args.families.split(",")) if args.families else None
    if families:
        unknown = set(families) - set(FAMILIES)
        if unknown:
            parser.error(f"unknown families: {', '.join(sorted(unknown))}")
    rows = catalog_rows(max_order=args.max_order, families=families,
                        multiples=args.multiples)
    sys.stdout.write(render_table(rows))
    if args.csv:
        Path(args.csv).write_text(render_csv(rows))
    return 0 if all(r.verified or r.formula_only for r in rows) else 1


def cmd_iso(args, parser) -> int:
    d1 = _load_digraph(args.path1)
    d2 = _load_digraph(args.path2)
    result = are_isomorphic(d1, d2, budget=args.budget)
    print(f"nodes={result.nodes} rounds={result.rounds} depth={result.depth}",
          file=sys.stderr)
    if result.status == ISOMORPHIC:
        print("ISOMORPHIC")
        for u, v in enumerate(result.mapping):
            print(f"{u} -> {v}")
        return 0
    if result.status == BUDGET_EXCEEDED:
        print("BUDGET EXCEEDED")
        return 2
    print("NOT ISOMORPHIC")
    return 1


def cmd_spectrum(args, parser) -> int:
    report = feasibility(args.v, args.k, args.t, args.lam, args.mu)
    bad, s = report.first_failure(), report.spectrum
    if bad:
        print(f"infeasible: {bad.name} fails: {bad.detail}")
        return 1
    print(f"theta {s.theta0} {s.theta1} {s.theta2} mult {s.m0} {s.m1} {s.m2}" if s
          else f"no integer spectrum: t = {'k' if args.t == args.k else '0'}")
    return 0


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _budget(raw: str) -> int:
    """argparse type of a budget flag: a nonnegative integer."""
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {raw!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dsrg",
        description="Build, verify and compare directed strongly regular graphs "
                    "constructed on anti-flags of finite incidence structures.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="build one family instance")
    p_build.add_argument("--family", required=True, choices=list(FAMILIES))
    for name in _SPEC_FIELDS:
        p_build.add_argument(f"--{FLAG_NAMES.get(name, name)}", dest=name, type=int)
    p_build.add_argument("--out", help="write the digraph in dgr/1 format")
    p_build.add_argument("--edges-out", help="write the digraph as an edge list")
    p_build.add_argument("--structure-out", help="write the incidence structure as JSON")

    p_verify = sub.add_parser("verify", help="verify a digraph file")
    p_verify.add_argument("path")

    p_cat = sub.add_parser("catalog", help="enumerate, build and verify all families")
    p_cat.add_argument("--max-order", type=int, default=110)
    p_cat.add_argument("--families", help="comma-separated family names")
    p_cat.add_argument("--multiples", type=int, default=13,
                       help="largest tensor multiple per instance")
    p_cat.add_argument("--csv", help="also write the rows as CSV")

    p_iso = sub.add_parser("iso", help="decide isomorphism of two digraph files")
    p_iso.add_argument("path1")
    p_iso.add_argument("path2")
    p_iso.add_argument("--budget", type=_budget, default=DEFAULT_NODE_BUDGET)

    p_spec = sub.add_parser("spectrum", help="integer spectrum of a parameter tuple")
    for name in ("v", "k", "t", "lam", "mu"):
        p_spec.add_argument(name, type=int)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"build": cmd_build, "verify": cmd_verify, "catalog": cmd_catalog,
                "iso": cmd_iso, "spectrum": cmd_spectrum}
    try:
        return handlers[args.command](args, parser)
    except (DsrgError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
