"""Spans and work counters around the library's public names.

`Tracer.install()` wraps every function listed in LAYERS and puts the
wrapper in place of the original in every namespace that holds it:
the module that defines it, each `dsrg` module that imported it by
name, the package namespace and the benchmark's own modules.  Methods
are replaced on the class.  A wrapper records a span only while an op
is open, so checks made between ops are not traced.

A span is (layer, start, end, parent, op id).  Self time is a span's
duration minus its children's; busy time counts only the outermost
span of a layer, so nested calls of one layer are not counted twice.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent


def _count_verify(c, tracer, args, result, exc):
    d = args[0]
    c["entries"] += d.n * d.n
    c["rejects"] += exc is not None
    tracer.verified.add((d.n, hash(d.rows)))


def _count_wire(c, tracer, args, result, exc):
    if result is not None:
        c["vertices"] += result.n
        c["arcs"] += result.edge_count()


def _count_io(c, tracer, args, result, exc):
    text = result if isinstance(result, str) else args[-1]
    c["bytes"] += len(text)


def _count_search(c, tracer, args, result, exc):
    if result is not None:
        c["nodes"] += result.nodes
        c["budget_exceeded"] += result.status == "budget_exceeded"


def _count_blocks(c, tracer, args, result, exc):
    if result is not None:
        c["blocks"] += len(result.blocks)


def _count_rows(c, tracer, args, result, exc):
    if result is not None:
        c["rows"] += len(result)


def _count_bytes(c, tracer, args, result, exc):
    if result is not None:
        c["bytes"] += len(result)


# layer -> (module, name) targets, a work counter, and the counter names.
# "Digraph.x" names a method of dsrg.digraph.Digraph.
LAYERS = {
    "ffield.make_field": ([("dsrg.ffield", "make_field")], None, ()),
    "incidence.build": ([("dsrg.incidence", f) for f in (
        "build_gdd", "build_affine_plane", "build_hyperplane_design",
        "build_partition_structure", "build_fano", "restrict_parallel_classes")],
        _count_blocks, ("blocks",)),
    "incidence.anti_flags": ([("dsrg.incidence", "anti_flags")], None, ()),
    "incidence.verify": ([("dsrg.incidence", f) for f in ("verify_pg", "verify_2design")],
                         None, ()),
    "digraph.wire": ([("dsrg.digraph", f) for f in (
        "build_antiflag_forward", "build_antiflag_backward",
        "build_antiflag_backward_loopy", "build_partition_spiked")],
        _count_wire, ("vertices", "arcs")),
    "digraph.verify": ([("dsrg.digraph", "verify_dsrg")], _count_verify,
                       ("entries", "useful_ratio", "rejects")),
    "digraph.columns": ([("dsrg.digraph", "Digraph.columns")], None, ()),
    "digraph.multiple": ([("dsrg.digraph", "duval_multiple")], None, ()),
    "digraph.io": ([("dsrg.digraph", f"Digraph.{f}") for f in ("to_dgr", "from_dgr")],
                   _count_io, ("bytes",)),
    "families.build": ([("dsrg.families", f) for f in ("build_digraph", "build_structure")],
                       None, ()),
    "params.spectrum": ([("dsrg.params", "spectrum")], None, ()),
    "iso.search": ([("dsrg.iso", "are_isomorphic")], _count_search,
                   ("nodes", "budget_exceeded")),
    "iso.canonical": ([("dsrg.iso", "canonical_form")], None, ()),
    "iso.check": ([("dsrg.iso", f) for f in ("verify_mapping", "apply_mapping")], None, ()),
    "cli.catalog": ([("dsrg.cli", "catalog_rows")], _count_rows, ("rows",)),
    "cli.render": ([("dsrg.cli", f) for f in ("render_table", "render_csv")],
                   _count_bytes, ("bytes",)),
}

# unit and direction of each per-layer metric, in BENCHMARK.json order
STAT_UNITS = {"calls": ("count", "lower"), "busy_s": ("s", "lower"), "self_s": ("s", "lower")}
COUNTER_UNITS = {"entries": ("count", "lower"), "useful_ratio": ("ratio", "higher"),
                 "rejects": ("count", "higher"), "bytes": ("B", "lower"),
                 "vertices": ("count", "lower"), "arcs": ("count", "lower"),
                 "nodes": ("count", "lower"), "budget_exceeded": ("count", "lower"),
                 "blocks": ("count", "lower"), "rows": ("count", "higher")}
RUN_METRICS = {"trace.overhead.ratio": ("ratio", "lower"),
               "trace.coverage.ratio": ("ratio", "higher")}


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric."""
    out = []
    for layer, (_, _, counters) in LAYERS.items():
        out += [(f"{layer}.{s}", *STAT_UNITS[s]) for s in STAT_UNITS]
        out += [(f"{layer}.{c}", *COUNTER_UNITS[c]) for c in counters]
    out += [(name, *spec) for name, spec in RUN_METRICS.items()]
    return out


def _owned(module) -> bool:
    name = getattr(module, "__name__", "")
    if name == "dsrg" or name.startswith("dsrg."):
        return True
    path = getattr(module, "__file__", None)
    return path is not None and Path(path).resolve().parent == BENCH_DIR


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [layer, start, end, parent, op id, outermost]
        self.stack: list[int] = []
        self.op_id = None
        self.open = Counter()
        self.counts = defaultdict(Counter)
        self.verified: set = set()
        self.distinct_verified = 0
        self.passes = 0
        self._undo: list[tuple] = []

    # -- ops and passes ----------------------------------------------------

    def begin_op(self, op_id: int):
        self.op_id = op_id
        self.stack.append(len(self.spans))
        self.spans.append(["op", perf_counter(), 0.0, None, op_id, True])

    def end_op(self):
        self.spans[self.stack.pop()][2] = perf_counter()
        self.op_id = None

    def end_pass(self):
        self.distinct_verified += len(self.verified)
        self.verified.clear()
        self.passes += 1

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, layer: str, fn, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op_id is None:
                return fn(*args, **kwargs)
            span = [layer, 0.0, 0.0, tracer.stack[-1], tracer.op_id,
                    tracer.open[layer] == 0]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            tracer.open[layer] += 1
            result = exc = None
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                span[2] = perf_counter()
                tracer.stack.pop()
                tracer.open[layer] -= 1
                if count is not None:
                    count(tracer.counts[layer], tracer, args, result, exc)

        return traced

    def install(self):
        modules = [m for m in list(sys.modules.values()) if _owned(m)]
        for layer, (targets, count, _) in LAYERS.items():
            for module_name, attr in targets:
                module = sys.modules[module_name]
                if attr.startswith("Digraph."):
                    cls, name = module.Digraph, attr.split(".", 1)[1]
                    raw = cls.__dict__[name]
                    self._undo.append((cls, name, raw))
                    if isinstance(raw, classmethod):
                        setattr(cls, name, classmethod(self._wrap(layer, raw.__func__, count)))
                    else:
                        setattr(cls, name, self._wrap(layer, raw, count))
                    continue
                original = getattr(module, attr)
                wrapped = self._wrap(layer, original, count)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._undo.append((m, key, original))
                            setattr(m, key, wrapped)

    def uninstall(self):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    # -- results -----------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Per-pass layer metrics plus the share of op time under layer spans."""
        child = defaultdict(float)
        for s in self.spans:
            if s[3] is not None:
                child[s[3]] += s[2] - s[1]
        calls, busy, self_t = Counter(), defaultdict(float), defaultdict(float)
        op_time = covered = 0.0
        for i, (layer, start, end, _, _, outermost) in enumerate(self.spans):
            if layer == "op":
                op_time += end - start
                covered += child[i]
                continue
            calls[layer] += 1
            self_t[layer] += end - start - child[i]
            if outermost:
                busy[layer] += end - start
        per = max(self.passes, 1)
        out = {}
        for layer, (_, _, counters) in LAYERS.items():
            out[f"{layer}.calls"] = calls[layer] / per
            out[f"{layer}.busy_s"] = busy[layer] / per
            out[f"{layer}.self_s"] = self_t[layer] / per
            for c in counters:
                out[f"{layer}.{c}"] = self.counts[layer][c] / per
        verify_calls = calls["digraph.verify"]
        out["digraph.verify.useful_ratio"] = (self.distinct_verified / verify_calls
                                             if verify_calls else 0.0)
        out["trace.coverage.ratio"] = covered / op_time if op_time else 0.0
        return out

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        with path.open("w") as fh:
            for layer, start, end, parent, op_id, _ in self.spans:
                fh.write(json.dumps({"name": layer, "start": start - t0, "end": end - t0,
                                     "parent": parent, "op": op_id}) + "\n")
