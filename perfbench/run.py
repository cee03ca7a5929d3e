"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload catalog-500 --seed 1 --seconds 15 --trace 0

Run from the repository root.  The library is imported from ./src in
this process; nothing is installed.  One thread, one closed-loop
caller: each op starts when the previous one and its check are done.
Whole passes over the workload's ops run until --seconds have passed.

Times are at reference speed (see speed.py): each raw time is scaled
by the machine speed sampled around it.  The raw figures are in the
report lines.

--trace 0 prints the end-to-end metrics: one pass (the sum of each
op's median time; checks are not timed), the median op latency, the
set-up time (median over fresh processes of `import dsrg` plus input
generation) and the peak RSS of set-up and the first pass.  --trace 1 runs half the time untraced and
half traced.  It prints per-layer metrics per pass, the tracing
overhead and coverage, and writes the spans to .perfbench-out/.  The
last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import speed
import workloads
from tracer import Tracer, metric_specs

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN = BENCH_DIR / "golden.json"
OUT_DIR = ROOT / ".perfbench-out"
SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 60


@dataclass
class Measured:
    op_ms: list[list[float]] = field(default_factory=list)   # per op, at reference speed
    raw_ms: list[list[float]] = field(default_factory=list)  # per op, as timed
    passes: int = 0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    speed_ratios: list[float] = field(default_factory=list)
    rss_mb: float = 0.0   # peak RSS up to the end of the first pass

    def wall_s(self, raw: bool = False) -> float:
        """One pass: the sum over its ops of each op's median time."""
        per_op = self.raw_ms if raw else self.op_ms
        return sum(statistics.median(samples) for samples in per_op) / 1000.0

    def op_p50_ms(self) -> float:
        """The median op: the mean of the per-op medians in the middle fifth.

        Per-op medians come first, since pooling the samples puts the
        median at the seam of two ops of different cost, where it jumps
        between them.  Averaging the central fifth of ops (a 40%-trimmed
        mean) rather than taking the single middle one cut the run-to-run
        spread on `structures`, whose ops run once or twice a run, from
        0.16 to 0.04.
        """
        medians = sorted(statistics.median(samples) for samples in self.op_ms)
        cut = int(0.4 * len(medians))
        return statistics.fmean(medians[cut:len(medians) - cut])

    def pooled_ms(self) -> list[float]:
        return [x for samples in self.op_ms for x in samples]


def measure(ops, seconds: float, tracer: Tracer | None = None) -> Measured:
    """Whole passes over `ops` until `seconds` have passed; checks are untimed."""
    m = Measured(op_ms=[[] for _ in ops], raw_ms=[[] for _ in ops])
    timed = []   # (op index, start, end, seconds net of speed sampling)
    with speed.Sampler() as sampler:
        start = perf_counter()
        while True:
            for j, op in enumerate(ops):
                m.attempted += 1
                if tracer is not None:
                    tracer.begin_op(m.attempted)
                raised = None
                spent = sampler.spent
                t0 = perf_counter()
                try:
                    out = op.call()
                except Exception as exc:  # a crashing op is a failed op, not a crashed run
                    raised = exc
                t1 = perf_counter()
                timed.append((j, t0, t1, t1 - t0 - (sampler.spent - spent)))
                if tracer is not None:
                    tracer.end_op()
                if raised is not None:
                    reason = f"raised {raised!r}"
                else:
                    try:
                        reason = op.check(out)
                    except Exception as exc:
                        reason = f"check raised {exc!r}"
                out = None   # free the output before the next op, for a steady peak RSS
                if reason:
                    m.failures.append(f"{op.name}: {reason}")
            if tracer is not None:
                tracer.end_pass()
            m.passes += 1
            if m.passes == 1:
                # later passes add allocator fragmentation, so the peak
                # would depend on how many passes fit into the run
                m.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if perf_counter() - start >= seconds:
                break
        sampler.sample()
    for j, t0, t1, net in timed:
        m.raw_ms[j].append(net * 1000.0)
        m.op_ms[j].append(sampler.normalize(t0, t1, net) * 1000.0)
    m.speed_ratios = sampler.ratios
    return m


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text())


def setup(workload: str, seed: int, golden: dict, toy: bool = False):
    """Import the library and generate the inputs.

    Returns the ops and the set-up time at reference speed.
    """
    before = speed.ratio_now()
    t0 = perf_counter()
    import dsrg  # noqa: F401  the import is part of the measured set-up
    ops = workloads.make(workload, seed, golden, toy)
    took = perf_counter() - t0
    return ops, took * (before + speed.ratio_now()) / 2


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time of a fresh interpreter, measured inside it."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__)), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True, cwd=ROOT)
    return float(done.stdout.split()[-1])


def _speed_line(m: Measured) -> str:
    r = m.speed_ratios
    return (f"machine speed / reference: mean {statistics.fmean(r):.3f}, "
            f"min {min(r):.3f}, max {max(r):.3f} over {len(r)} samples")


def end_to_end(m: Measured, setup_s: list[float]) -> tuple[dict, list[str]]:
    pooled = m.pooled_ms()
    rss_mb = m.rss_mb
    metrics = {
        "wall_s": (m.wall_s(), "s"),
        "op_p50_ms": (m.op_p50_ms(), "ms"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    report = [_speed_line(m),
              f"wall_s {m.wall_s():.4f} (raw {m.wall_s(raw=True):.4f}; "
              f"sum of per-op medians over {m.passes} passes)",
              f"op_p50_ms {m.op_p50_ms():.4f} (central fifth of {len(m.op_ms)} per-op "
              f"medians, n={len(pooled)})"]
    if len(pooled) >= 2:
        p90 = statistics.quantiles(pooled, n=10)[-1]
        beyond = sum(x > p90 for x in pooled)
        if beyond >= 10:
            report.append(f"op_p90_ms {p90:.4f} (n={len(pooled)}, {beyond} beyond)")
        else:
            report.append(f"op_p90_ms not reported: n={len(pooled)}, {beyond} beyond p90")
    report.append(f"setup_s {statistics.median(setup_s):.4f} (median of "
                  f"{len(setup_s)} fresh processes: "
                  + ", ".join(f"{s:.4f}" for s in setup_s) + ")")
    report.append(f"peak_rss_mb {rss_mb:.1f} (set-up and first pass)")
    return metrics, report


def traced(ops, seconds: float, workload: str, seed: int) -> tuple[Measured, dict, list[str]]:
    plain = measure(ops, seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        with_trace = measure(ops, seconds / 2, tracer)
    finally:
        tracer.uninstall()
    path = OUT_DIR / f"trace-{workload}-seed{seed}.jsonl"
    tracer.write(path)
    values = tracer.summary()
    untraced_s = plain.wall_s()
    values["trace.overhead.ratio"] = with_trace.wall_s() / untraced_s - 1.0
    units = {name: unit for name, unit, _ in metric_specs()}
    metrics = {name: (values[name], units[name]) for name, _, _ in metric_specs()}
    busy = sorted(((v, k[:-len(".busy_s")]) for k, v in values.items()
                   if k.endswith(".busy_s") and v > 0), reverse=True)
    report = [_speed_line(with_trace),
              f"untraced wall_s {untraced_s:.4f} over {plain.passes} passes; "
              f"traced {with_trace.wall_s():.4f} over {with_trace.passes} passes",
              f"tracing overhead {values['trace.overhead.ratio']:+.2%} of untraced wall_s",
              f"layer spans cover {values['trace.coverage.ratio']:.2%} of traced op time",
              "busy per pass (raw seconds): "
              + ", ".join(f"{k} {v:.4f}" for v, k in busy),
              f"{len(tracer.spans)} spans written to {path.relative_to(ROOT)}"]
    both = Measured(attempted=plain.attempted + with_trace.attempted,
                    failures=plain.failures + with_trace.failures)
    return both, metrics, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "dsrg" / "__init__.py").is_file():
        print(f"error: no library source at {SRC / 'dsrg'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    golden = load_golden()
    ops, setup_s = setup(args.workload, args.seed, golden)
    if args.setup_probe:
        print(f"{setup_s!r}")
        return 0

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(ops)} ops per pass")
    if args.trace:
        m, metrics, report = traced(ops, args.seconds, args.workload, args.seed)
    else:
        samples = [setup_s] + [probe_setup(args.workload, args.seed)
                               for _ in range(SETUP_SAMPLES - 1)]
        m = measure(ops, args.seconds)
        metrics, report = end_to_end(m, samples)
    report.append(f"error_rate {len(m.failures)}/{m.attempted}")
    report += [f"FAILED {f}" for f in m.failures[:20]]
    print("\n".join(report))
    for name, (value, _) in metrics.items():
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is {value}")
    print(json.dumps({
        "correct": not m.failures,
        "attempted": m.attempted,
        "failed": len(m.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
