"""Run one workload of the anyonbraid benchmark and print its metrics.

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 20 --trace 0

Workloads: enumerate, clifford-queries, synth-bfs (see perfbench/README.md).
The run repeats the workload's seeded batch until --seconds have passed,
one operation at a time, and checks every answer exactly.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  A report naming every metric with its
unit, the seed and a digest of the inputs goes to stderr.  A traced run
also writes its spans and accumulators to perfbench/out/.

Exit codes: 0 when every check passed, 1 when a check failed, 2 when the
anyonbraid sources are not in this checkout.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3
SETUP_MAX_SAMPLES = 9
SETUP_BUDGET_S = 2.0
MIN_TRACED_REPS = 2

def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("enumerate", "clifford-queries", "synth-bfs"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def setup_seconds(workload: str) -> list[tuple[float, float]]:
    """Import plus warm-up, each in a fresh interpreter: (raw, calibrated).

    At least SETUP_SAMPLES; cheap set-ups (an import of a few tens of
    milliseconds, dominated by file-system noise) get more, up to
    SETUP_MAX_SAMPLES or SETUP_BUDGET_S of probing.
    """
    out = []
    t0 = time.perf_counter()
    while len(out) < SETUP_SAMPLES or (len(out) < SETUP_MAX_SAMPLES
                                       and time.perf_counter() - t0 < SETUP_BUDGET_S):
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload],
                              capture_output=True, text=True, timeout=150, check=True)
        raw, cal = map(float, proc.stdout.split())
        out.append((raw, cal))
    return out


class Runner:
    """Runs repetitions of one workload and keeps one record per operation."""

    def __init__(self, workloads, workload, ops, clock):
        self.wl = workloads
        self.workload = workload
        self.ops = ops
        self.clock = clock
        self.tracer = None          # set for a traced run
        self.attempted = 0
        self.failed = 0

    def _paused(self):
        return self.tracer.paused() if self.tracer else nullcontext()

    def repetition(self, traced: bool) -> list[dict]:
        w, wl = self.workload, self.wl
        if not w.cold_ops:
            with self._paused():
                wl.clear_caches()
                w.warm()
        if traced:
            self.tracer.reset()
        records = []
        for op in self.ops:
            self.attempted += 1
            with self._paused():
                if w.cold_ops:
                    wl.clear_caches()
                w.prepare(op)
            try:
                with self.tracer.op(op.label) if traced else nullcontext():
                    out, raw, samples = self.clock.measure(w.run, op)
                with self._paused():
                    seconds = self.clock.calibrate(raw, samples)
                    work = w.check(op, out)
            except Exception as exc:  # one operation's failure must not end the run
                self.failed += 1
                kind = "check failed" if isinstance(exc, wl.CheckFailed) else "error"
                sys.stderr.write(f"{kind} in {op.label}: {exc}\n")
                if not isinstance(exc, wl.CheckFailed):
                    traceback.print_exc(file=sys.stderr)
                continue
            records.append({"label": op.label, "kind": op.kind, "raw": raw, "s": seconds,
                            "work": work})
        return records


def _p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _medians_ms(recs: list[dict], group) -> dict:
    groups: dict[str, list[float]] = {}
    for r in recs:
        groups.setdefault(group(r), []).append(r["s"])
    return {f"{g}_ms": (statistics.median(v) * 1e3, "ms") for g, v in sorted(groups.items())}


def end_to_end(name: str, reps: list[list[dict]]) -> tuple[dict, dict]:
    """(metrics for the JSON line, the workload's named metrics for the report)."""
    recs = [r for rep in reps for r in rep]
    if name == "enumerate":
        rep_s = [sum(r["s"] for r in rep) for rep in reps]
        dense = [sum(r["work"] for r in rep if r["label"] != "faithfulness")
                 / sum(r["s"] for r in rep if r["label"] != "faithfulness") for rep in reps]
        symp = [r["work"] / r["s"] for r in recs if r["label"] == "faithfulness"]
        metrics = {"op_p50_ms": statistics.median(rep_s) * 1e3,
                   "throughput_per_s": statistics.median(dense)}
        named = {"enum_matrix_elements_per_s": (metrics["throughput_per_s"], "1/s"),
                 "enum_symplectic_elements_per_s": (statistics.median(symp), "1/s"),
                 **_medians_ms(recs, lambda r: r["label"])}
    elif name == "clifford-queries":
        lat = [r["s"] for r in recs]
        metrics = {"op_p50_ms": statistics.median(lat) * 1e3,
                   "throughput_per_s": len(lat) / sum(lat)}
        named = {"query_p50_ms": (metrics["op_p50_ms"], "ms"),
                 "query_p90_ms": (_p90(lat) * 1e3, "ms"),
                 "queries_per_s": (metrics["throughput_per_s"], "1/s"),
                 "query_samples": (len(lat), "count"),
                 **_medians_ms(recs, lambda r: f"{r['kind']}_{r['label'].split(':')[0]}")}
    else:
        readme_s = [sum(r["s"] for r in rep if r["kind"] == "cli") for rep in reps]
        lat = [r["s"] for r in recs]
        metrics = {"op_p50_ms": statistics.median(readme_s) * 1e3,
                   "throughput_per_s": sum(r["work"] for r in recs) / sum(lat)}
        named = {"synth_p50_ms": (statistics.median(lat) * 1e3, "ms"),
                 "synth_p90_ms": (_p90(lat) * 1e3, "ms"),
                 "bfs_states_per_s": (metrics["throughput_per_s"], "1/s"),
                 "synth_samples": (len(lat), "count"),
                 **_medians_ms([r for r in recs if r["kind"] == "cli"], lambda r: r["label"])}
    return metrics, named


def run_traced(runner: Runner, seconds: float) -> tuple[dict, dict]:
    """Per-layer metrics and the trace record of a traced run.

    The traced repetitions come first, so the first of them is the first
    contact with the inputs and a cache that survives a repetition shows
    as a count that differs in the second.  One untraced repetition after
    them gives the time that trace_overhead_ratio divides by (calibrated,
    so that a change of host speed in between cancels).
    """
    import tracing

    runner.tracer = tracer = tracing.Tracer()
    snaps, walls, traced = [], [], []
    start = time.perf_counter()
    tracer.install()
    while len(snaps) < MIN_TRACED_REPS or time.perf_counter() - start < seconds:
        traced.append(sum(r["s"] for r in runner.repetition(traced=True)))
        snaps.append(tracer.snapshot())
        walls.append(tracer.acc["bench.op"][1])
    tracer.uninstall()
    untraced = sum(r["s"] for r in runner.repetition(traced=False))
    metrics = tracing.layer_metrics(snaps, statistics.median(traced) / untraced)
    problems = tracing.check_repetitions(snaps, walls, metrics["trace_overhead_ratio"])
    trace = {"untraced_s": untraced, "traced_s": traced, "traced_wall_s": walls,
             "wrapper_costs_s": tracer.costs, "repetitions": snaps, "problems": problems,
             "spans": [list(s) for s in tracer.spans]}
    return metrics, trace


def run_untraced(runner: Runner, workload: str, seconds: float, setup: list,
                 units: dict) -> tuple[dict, dict]:
    """End-to-end metrics and the report-only named metrics."""
    reps = []
    start = time.perf_counter()
    while not reps or time.perf_counter() - start < seconds:
        reps.append(runner.repetition(traced=False))
    try:
        metrics, named = end_to_end(workload, reps)
        raw, _ = end_to_end(workload, [[{**r, "s": r["raw"]} for r in rep] for rep in reps])
    except (statistics.StatisticsError, ZeroDivisionError):
        if not runner.failed:
            raise
        # Every operation of some kind failed: there is no time to report.
        metrics = raw = dict.fromkeys(("op_p50_ms", "throughput_per_s"), 0.0)
        named = {}
    named.update({f"{k}_raw": (v, units[k]) for k, v in raw.items()})
    named["setup_s_raw"] = (statistics.median(x[0] for x in setup), "s")
    named["repetitions"] = (len(reps), "count")
    metrics = {"setup_s": statistics.median(x[1] for x in setup),
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
               **metrics}
    return metrics, named


def main(argv=None) -> int:
    args = parse_args(argv)
    import workloads as wl  # exits with code 2 when the sources are missing

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    expected = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    setup = [] if args.trace else setup_seconds(args.workload)
    workload = wl.WORKLOADS[args.workload]
    ops = workload.batch(args.seed)
    digest = wl.inputs_digest(ops)
    workload.warm()
    runner = Runner(wl, workload, ops, calibration.Calibrator(sampling=not args.trace))
    if args.trace:
        metrics, trace = run_traced(runner, args.seconds)
        problems, named = trace["problems"], {}
    else:
        metrics, named = run_untraced(runner, args.workload, args.seconds, setup, units)
        problems = []
    if sorted(metrics) != sorted(expected):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {expected}")
    correct = runner.failed == 0 and not problems

    report = [f"workload {args.workload}  seed {args.seed}  inputs {digest}  trace {args.trace}",
              f"attempted {runner.attempted}  failed {runner.failed}  "
              f"failed_ratio {runner.failed / runner.attempted:.4f}"]
    report += [f"self-test failed: {p}" for p in problems]
    if setup:
        report.append("setup samples, calibrated (s): "
                      + " ".join(f"{s[1]:.4f}" for s in setup))
    for key in expected:
        report.append(f"  {key:40s} {metrics[key]:>16.6g} {units[key]}")
    for key, (value, u) in named.items():
        report.append(f"  {key:40s} {value:>16.6g} {u}")
    if args.trace:
        path = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                    "inputs": digest, **trace}) + "\n")
        report.append(f"trace written to {path.relative_to(ROOT)}")
    sys.stderr.write("\n".join(report) + "\n")

    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in expected},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
