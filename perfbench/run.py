"""The quintic benchmark.

    python3 perfbench/run.py --workload report|sweep|point_queries|all \\
        --seed N --seconds T --trace 0|1

Run from the root of a source checkout: the program is imported from
./src.  Workloads (each runs in fresh child processes, one at a time):

  report         repeated `python -m quintic.cli report` processes; each
                 output is checked against the ROADMAP digest.
  sweep          passes of cohomology.sweep_box over the 12 types at bound
                 SWEEP_BOUND; per-type summaries are checked against a
                 stored table and spot rows against scalar h_all.
  point_queries  one closed-loop client issuing QUERIES_PER_SECOND times
                 T queries from a seeded stream of h_all, bott and rhom
                 queries; answers are checked by
                 Riemann-Roch, Serre duality and expected-answer tables.
                 h_all refusals (ReductionDivergenceError) are failed
                 operations, timed up to their raise.

End-to-end metrics (--trace 0), common to all workloads:

  setup_s           median over fresh children, sampled before and after
                    the workload, of the time from spawn to ready (report: import quintic.cli; sweep
                    and point_queries: also one h_all per type, which
                    fills negative_curves)
  peak_rss_mb       peak RSS of the workload child (median over report
                    processes)
  latency_p50_ms    median wall time of one operation: a report process,
                    a 12-type sweep pass, or a query of any kind
  throughput_per_s  report processes, swept classes, or completed queries
                    per second of program time

The lines above the final JSON line also give the workload-specific
metrics (report_s, sweep_rows_per_s, per-kind query percentiles,
queries_per_s, failed_ratio) with units and sample counts.

--trace 1 runs the workload untraced for half the run length and then the
same amount of work traced, and reports per-layer metrics: span counts and
self times per unit of work (one report process, one sweep pass, one
query), cache hit ratios, sweep rates per type and bound, the import time
of quintic.cli, and the traced-minus-untraced wall time per unit.

Every run writes its full record (seed, report sha256, Python and numpy
versions, nproc, all metrics) to .perfbench_out/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from array import array
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from time import perf_counter

import checks
import inputs
import measure

ROOT = Path.cwd()
CHILD = Path(__file__).resolve().parent / "child.py"
OUT_DIR = ROOT / ".perfbench_out"
PYTHON = sys.executable

WORKLOADS = ("report", "sweep", "point_queries")
# Set-up is sampled SETUP_BEFORE times before the workload and SETUP_AFTER
# times after it, so that its median spans the run.
SETUP_BEFORE, SETUP_AFTER = 3, 2
MIN_REPORTS = 5
# point_queries issues a fixed number of queries per second of run length,
# rather than querying until the time is up: the lru caches, and with them
# peak RSS, then reach the same size however fast the program is.
QUERIES_PER_SECOND = 6000
MIN_QUERIES = 4000
CHILD_TIMEOUT_S = 170
SUITES = ("lattice", "catalog", "mutations", "cohomology", "grassmannian", "chern")

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("latency_p50_ms", "ms"),
    ("throughput_per_s", "1/s"),
)

# (metric, unit, better, source, key).  Sources: per-unit span "calls",
# "self_s" and "failed" totals; "hit" ratio of a cache; "sweep" rate of a
# bound and type; "import" and "overhead" times.
PER_LAYER = (
    ("lattice.box_scan_calls", "count", "lower", "calls", "lattice.box_scan"),
    ("lattice.box_scan_s", "s", "lower", "self_s", "lattice.box_scan"),
    ("lattice.weyl_closure_s", "s", "lower", "self_s", "lattice.weyl_closure"),
    ("surfaces.catalog_s", "s", "lower", "self_s", "surfaces.catalog"),
    ("euler.chi_identity_s", "s", "lower", "self_s", "euler.chi_identity"),
    ("euler.chern_s", "s", "lower", "self_s", "euler.chern"),
    ("mutations.replay_s", "s", "lower", "self_s", "mutations.replay"),
    ("mutations.replay_steps", "count", "lower", "calls", "mutations.replay_steps"),
    ("cohomology.sweep_s", "s", "lower", "self_s", "cohomology.sweep"),
    *(
        (f"cohomology.sweep_rows_per_s.b{bound}.{label}", "1/s", "higher", "sweep", f"b{bound}.{label}")
        for bound in (inputs.REPORT_SWEEP_BOUND, inputs.SWEEP_BOUND)
        for label in inputs.TYPE_LABELS
    ),
    ("cohomology.h_all_calls", "count", "lower", "calls", "cohomology.h_all"),
    ("cohomology.h_all_s", "s", "lower", "self_s", "cohomology.h_all"),
    ("cohomology.h_all_failed", "count", "lower", "failed", "cohomology.h_all"),
    ("cohomology.negative_curves_hit_ratio", "ratio", "higher", "hit", "negative_curves"),
    ("grassmannian.bott_calls", "count", "lower", "calls", "grassmannian.bott"),
    ("grassmannian.bott_s", "s", "lower", "self_s", "grassmannian.bott"),
    ("grassmannian.bott_hit_ratio", "ratio", "higher", "hit", "bott"),
    ("grassmannian.rhom_s", "s", "lower", "self_s", "grassmannian.rhom"),
    ("grassmannian.tensor_s", "s", "lower", "self_s", "grassmannian.tensor"),
    ("grassmannian.lr_hit_ratio", "ratio", "higher", "hit", "lr"),
    ("grassmannian.lefschetz_s", "s", "lower", "self_s", "grassmannian.lefschetz"),
    ("grassmannian.appendix_s", "s", "lower", "self_s", "grassmannian.appendix"),
    *((f"suites.{name}_s", "s", "lower", "self_s", f"suites.{name}") for name in SUITES),
    ("cli.import_s", "s", "lower", "import", None),
    ("trace.overhead_s", "s", "lower", "overhead", None),
)


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


@dataclass
class ChildRun:
    stdout: bytes
    code: int
    wall_s: float
    ready_s: float | None
    rss_mb: float

    def result(self) -> dict:
        return json.loads(self.stdout.splitlines()[-1])


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(argv: list[str], wait_ready: bool = False, program: bool = False) -> ChildRun:
    """Run one child to completion; wall time, time to "ready", peak RSS.

    A nonzero exit is an error of the benchmark, unless the child is the
    program itself (program=True), whose exit code the caller checks.
    """
    start = perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        ready_s = None
        if wait_ready:
            line = proc.stdout.readline()
            ready_s = perf_counter() - start
            if line.strip() != b"ready":
                raise BenchError(f"{argv[1:]} did not get ready: {line[:200]!r}")
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall_s = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
        timer.join()
        proc.stdout.close()
    if proc.returncode != 0 and not program:
        raise BenchError(f"{argv[1:]} exited with code {proc.returncode}")
    return ChildRun(out, proc.returncode, wall_s, ready_s, usage.ru_maxrss / 1024)


def child(*args: str) -> list[str]:
    return [PYTHON, str(CHILD), *args]


def report_process() -> ChildRun:
    return run_child([PYTHON, "-m", "quintic.cli", "report"], program=True)


def check_report_run(run: ChildRun) -> str | None:
    if run.code != 0:
        return f"quintic report exited with code {run.code}"
    return checks.check_report(run.stdout)


def setup_samples(workload: str, count: int) -> list[float]:
    return [run_child(child("setup", workload), wait_ready=True).ready_s for _ in range(count)]


def point_query_count(seconds: float) -> int:
    return max(MIN_QUERIES, round(QUERIES_PER_SECOND * seconds))


def untimed_report(out: "Outcome") -> str:
    """One report process outside the timed region; returns its sha256."""
    run = report_process()
    out.attempted += 1
    out.check(check_report_run(run))
    return checks.sha256(run.stdout)


class Outcome:
    """What one workload run measured and checked."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.metrics: dict[str, tuple[float, str]] = {}
        self.detail: list[tuple[str, float, str, int]] = []
        self.record: dict = {}

    def check(self, problem: str | None) -> None:
        if problem:
            self.failed += 1
            self.problems.append(problem)

    def add_child(self, result: dict) -> None:
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        self.problems += result["problems"]

    def show(self, name: str, value: float, unit: str, samples: int) -> None:
        """A workload-specific figure, printed but not in the final JSON."""
        self.detail.append((name, value, unit, samples))

    def metric(self, name: str, value: float, unit: str, samples: int) -> None:
        """An end-to-end metric of the final JSON."""
        self.metrics[name] = (value, unit)
        self.show(name, value, unit, samples)


# ---------------------------------------------------------------------------
# Untraced workloads.


def bench_report(seed: int, seconds: float) -> Outcome:
    out = Outcome()
    setups = setup_samples("report", SETUP_BEFORE)
    walls, rss, sha = [], [], None
    start = perf_counter()
    while measure.keep_going(walls, perf_counter() - start, seconds, MIN_REPORTS):
        run = report_process()
        out.attempted += 1
        out.check(check_report_run(run))
        sha = checks.sha256(run.stdout)
        walls.append(run.wall_s)
        rss.append(run.rss_mb)
    setups += setup_samples("report", SETUP_AFTER)
    out.record.update(report_sha256=sha, report_s=walls, drift=measure.half_drift(walls))
    out.show("report_s", statistics.median(walls), "s", len(walls))
    out.metric("setup_s", statistics.median(setups), "s", len(setups))
    out.metric("peak_rss_mb", statistics.median(rss), "MB", len(rss))
    out.metric("latency_p50_ms", 1e3 * statistics.median(walls), "ms", len(walls))
    out.metric("throughput_per_s", len(walls) / sum(walls), "1/s", len(walls))
    return out


def bench_sweep(seed: int, seconds: float) -> Outcome:
    out = Outcome()
    setups = setup_samples("sweep", SETUP_BEFORE)
    run = run_child(child("sweep", "--seed", str(seed), "--seconds", str(seconds)), wait_ready=True)
    setups += setup_samples("sweep", SETUP_AFTER)
    result = run.result()
    out.add_child(result)
    passes = result["pass_s"]
    rows_per_s = result["classes"] / sum(passes)
    sha = untimed_report(out)
    out.record.update(
        report_sha256=sha, pass_s=passes, spot_checks=result["spot_checks"],
        bound=inputs.SWEEP_BOUND, drift=measure.half_drift(passes),
    )
    out.show("sweep_rows_per_s", rows_per_s, "1/s", len(passes))
    out.metric("setup_s", statistics.median(setups), "s", len(setups))
    out.metric("peak_rss_mb", run.rss_mb, "MB", 1)
    out.metric("latency_p50_ms", 1e3 * statistics.median(passes), "ms", len(passes))
    out.metric("throughput_per_s", rows_per_s, "1/s", len(passes))
    return out


def read_latencies() -> dict[str, array]:
    samples = {}
    for kind in inputs.KINDS:
        samples[kind] = array("d", (OUT_DIR / f"latency-{kind}.f64").read_bytes())
    return samples


def bench_point_queries(seed: int, seconds: float) -> Outcome:
    out = Outcome()
    setups = setup_samples("point_queries", SETUP_BEFORE)
    queries = point_query_count(seconds)
    run = run_child(
        child("point_queries", "--seed", str(seed), "--units", str(queries)), wait_ready=True
    )
    setups += setup_samples("point_queries", SETUP_AFTER)
    result = run.result()
    out.add_child(result)
    latencies = read_latencies()
    pooled = [x for samples in latencies.values() for x in samples]
    completed = result["attempted"] - result["failed"]
    qps = completed / result["busy_s"]
    sha = untimed_report(out)
    repeats = inputs.repeat_share(seed, result["attempted"])
    out.record.update(
        report_sha256=sha, refused=result["refused"], mismatched=result["mismatched"],
        repeat_share=repeats, table_checked=result["table_checked"], drift=result["drift"],
    )
    names = {"h_all": "h0", "bott": "bott", "rhom": "rhom"}
    for kind, samples in latencies.items():
        for p in (50, 99):
            out.show(f"{names[kind]}_p{p}_us", 1e6 * measure.percentile(samples, p), "us", len(samples))
    out.show("queries_per_s", qps, "1/s", len(pooled))
    for kind, share in repeats.items():
        out.show(f"repeat_share.{kind}", share, "ratio", len(latencies[kind]))
    out.metric("setup_s", statistics.median(setups), "s", len(setups))
    out.metric("peak_rss_mb", run.rss_mb, "MB", 1)
    out.metric("latency_p50_ms", 1e3 * statistics.median(pooled), "ms", len(pooled))
    out.metric("throughput_per_s", qps, "1/s", len(pooled))
    return out


# ---------------------------------------------------------------------------
# Traced runs: per-layer metrics.


def merge_traces(traces: list[dict]) -> dict:
    merged = {"calls": {}, "self_s": {}, "failed": {}, "sweep": {}, "caches": {}}
    for trace in traces:
        for field in ("calls", "self_s", "failed", "sweep", "caches"):
            for key, value in trace[field].items():
                if isinstance(value, list):
                    old = merged[field].get(key, [0] * len(value))
                    merged[field][key] = [a + b for a, b in zip(old, value)]
                else:
                    merged[field][key] = merged[field].get(key, 0) + value
    return merged


def per_layer(trace: dict, units: int, import_s: float, overhead_s: float) -> dict:
    metrics = {}
    for name, unit, _, source, key in PER_LAYER:
        if source in ("calls", "self_s", "failed"):
            value = trace[source].get(key, 0) / units
        elif source == "hit":
            hits, misses = trace["caches"][key]
            value = hits / (hits + misses) if hits + misses else 0.0
        elif source == "sweep":
            classes, seconds = trace["sweep"].get(key, (0, 0.0))
            value = classes / seconds if seconds else 0.0
        elif source == "import":
            value = import_s
        else:
            value = overhead_s
        metrics[name] = (value, unit)
    return metrics


def traced_report(seed: int, seconds: float) -> Outcome:
    out = Outcome()
    plain, traced, traces, imports = [], [], [], []
    start = perf_counter()
    while measure.keep_going(traced, perf_counter() - start, seconds, 2):
        run = report_process()
        out.attempted += 1
        out.check(check_report_run(run))
        plain.append(run.wall_s)
        run = run_child(child("report", "--seed", str(seed), "--index", str(len(traced))))
        result = run.result()
        out.attempted += 1
        out.check(result["problem"])
        traced.append(run.wall_s)
        traces.append(result["trace"])
        imports.append(result["import_s"])
    overhead = statistics.mean(traced) - statistics.mean(plain)
    out.record.update(report_sha256=result["sha256"], units=len(traced))
    out.metrics = per_layer(merge_traces(traces), len(traced), statistics.median(imports), overhead)
    return out


def traced_child(workload: str, seed: int, seconds: float, out: Outcome) -> tuple[dict, dict]:
    """Half a run's work untraced, then the same work traced."""
    base = child(workload, "--seed", str(seed))
    if workload == "sweep":
        plain = run_child([*base, "--seconds", str(seconds / 2)], wait_ready=True).result()
        units = len(plain["pass_s"])
    else:
        units = point_query_count(seconds / 2)
        plain = run_child([*base, "--units", str(units)], wait_ready=True).result()
    traced = run_child([*base, "--units", str(units), "--trace"], wait_ready=True).result()
    for result in (plain, traced):
        out.add_child(result)
    sha = untimed_report(out)
    out.record.update(report_sha256=sha, units=units, spans_dropped=traced["trace"]["spans_dropped"])
    return plain, traced


def traced_sweep(seed: int, seconds: float) -> Outcome:
    out = Outcome()
    plain, traced = traced_child("sweep", seed, seconds, out)
    units = len(traced["pass_s"])
    overhead = statistics.mean(traced["pass_s"]) - statistics.mean(plain["pass_s"])
    out.metrics = per_layer(traced["trace"], units, traced["import_s"], overhead)
    return out


def traced_point_queries(seed: int, seconds: float) -> Outcome:
    out = Outcome()
    plain, traced = traced_child("point_queries", seed, seconds, out)
    units = traced["attempted"]
    overhead = (traced["busy_s"] - plain["busy_s"]) / units
    out.metrics = per_layer(traced["trace"], units, traced["import_s"], overhead)
    return out


BENCHES = {
    ("report", False): bench_report,
    ("sweep", False): bench_sweep,
    ("point_queries", False): bench_point_queries,
    ("report", True): traced_report,
    ("sweep", True): traced_sweep,
    ("point_queries", True): traced_point_queries,
}


# ---------------------------------------------------------------------------


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    started = perf_counter()
    out = BENCHES[workload, trace](seed, seconds)
    env = environment()
    print(
        f"workload {workload}  seed {seed}  trace {int(trace)}  python {env['python']}  "
        f"numpy {env['numpy']}  nproc {env['nproc']}  report sha256 {out.record['report_sha256']}"
    )
    for name, value, unit, samples in out.detail:
        print(f"  {name:<40} {value:>14.6g} {unit:<6} samples={samples}")
    if trace:
        print(f"  per-layer counts and self times are per unit of work; units={out.record['units']}")
        for name, (value, unit) in out.metrics.items():
            print(f"  {name:<40} {value:>14.6g} {unit}")
    ratio = out.failed / out.attempted if out.attempted else 0.0
    print(f"  {'failed/attempted':<40} {out.failed}/{out.attempted}  failed_ratio={ratio:.6g}")
    for problem in out.problems[:10]:
        print(f"  problem: {problem}")
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "wall_s": perf_counter() - started,
        "environment": env,
        "attempted": out.attempted,
        "failed": out.failed,
        "failed_ratio": ratio,
        "problems": out.problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out.metrics.items()},
        "detail": [{"name": n, "value": v, "unit": u, "samples": s} for n, v, u, s in out.detail],
        **out.record,
    }
    results = OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=checks.TABLE_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "quintic" / "cli.py").is_file():
        print(f"error: no quintic sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        outcomes = {w: run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in workloads}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    prefix = len(outcomes) > 1
    summary = {
        "correct": all(not o.problems for o in outcomes.values()),
        "attempted": sum(o.attempted for o in outcomes.values()),
        "failed": sum(o.failed for o in outcomes.values()),
        "metrics": {
            (f"{w}.{name}" if prefix else name): {"value": value, "unit": unit}
            for w, o in outcomes.items()
            for name, (value, unit) in o.metrics.items()
        },
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
