"""Child processes of the benchmark.  run.py starts them one at a time.

    child.py setup WORKLOAD            set up, print "ready", exit
    child.py report                    one traced `quintic report`
    child.py sweep --seed S (--seconds T | --units PASSES) [--trace]
    child.py point_queries --seed S --units QUERIES [--trace]

sweep and point_queries print "ready" once set up.  Every mode except setup
ends by printing one JSON line.  A sweep child runs whole passes for T
seconds, or exactly PASSES passes; a point_queries child issues the first
QUERIES queries of the seed's stream.  Output checks run outside the timed
region, with tracing paused.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter

import checks
import inputs
import measure
from spans import Tracer

OUT_DIR = Path(".perfbench_out")
SPOT_CHECKS = 8
MIN_PASSES = 2
CHUNK = 512
MAX_PROBLEMS = 20


def import_cli() -> float:
    start = perf_counter()
    import quintic.cli  # noqa: F401

    return perf_counter() - start


def warm_up() -> None:
    """One h_all per type, which fills the negative_curves cache."""
    from quintic import cohomology, surfaces
    from quintic.lattice import H

    for t in surfaces.catalog():
        cohomology.h_all(H, t)


def ready() -> None:
    print("ready", flush=True)


def paused(tracer: Tracer | None):
    return contextlib.nullcontext() if tracer is None else tracer.paused()


def finish(result: dict, tracer: Tracer | None, name: str) -> None:
    if tracer is not None:
        tracer.enabled = False
        result["trace"] = tracer.summary()
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write_spans(OUT_DIR / f"spans-{name}.json")
    print(json.dumps(result), flush=True)


def run_report(args) -> None:
    import_s = import_cli()
    import quintic.cli

    tracer = Tracer()
    tracer.install()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = quintic.cli.main(["report"])
    out = buf.getvalue().encode()
    problem = checks.check_report(out) if code == 0 else f"report exit code {code}"
    result = {"import_s": import_s, "sha256": checks.sha256(out), "problem": problem}
    finish(result, tracer, f"report-seed{args.seed}-{args.index}")


def check_sweep(info: dict, expected: list[int], rows: list[int], t) -> str | None:
    """The summary against the table, then spot rows against scalar h_all."""
    from quintic.cohomology import h_all
    from quintic.lattice import DivClass

    arrays = info.pop("arrays")
    problem = checks.check_sweep_summary(info, expected)
    for row in rows:
        if problem:
            break
        coeffs = tuple(int(x) for x in arrays["box"][row])
        got = tuple(int(arrays[h][row]) for h in ("h0", "h1", "h2"))
        problem = checks.check_sweep_row(coeffs, got, h_all(DivClass(coeffs), t), t.label)
    return problem


def run_sweep(args) -> None:
    import_s = import_cli()
    from quintic import cohomology, surfaces

    warm_up()
    types = surfaces.catalog()
    expected = checks.load_expected("sweep")[str(inputs.SWEEP_BOUND)]
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    ready()

    passes, problems = [], []
    attempted = failed = classes = 0
    start = perf_counter()
    while (
        len(passes) < args.units
        if args.units
        else measure.keep_going(passes, perf_counter() - start, args.seconds, MIN_PASSES)
    ):
        if tracer is not None:
            tracer.unit = len(passes)
        pass_s = 0.0
        for t in types:
            attempted += 1
            sweep_index = attempted
            t0 = perf_counter()
            try:
                info = cohomology.sweep_box(t, bound=inputs.SWEEP_BOUND, return_arrays=True)
            except (cohomology.ReductionDivergenceError, cohomology.CohomologyConsistencyError) as exc:
                info, problem = None, f"sweep {t.label}: {type(exc).__name__}: {exc}"
            pass_s += perf_counter() - t0
            if info is not None:
                classes += info["classes"]
                rows = inputs.spot_rows(args.seed, sweep_index, info["classes"], SPOT_CHECKS)
                with paused(tracer):
                    problem = check_sweep(info, expected[t.label], rows, t)
            if problem:
                failed += 1
                if len(problems) < MAX_PROBLEMS:
                    problems.append(problem)
        passes.append(pass_s)

    result = {
        "import_s": import_s,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "pass_s": passes,
        "classes": classes,
        "spot_checks": SPOT_CHECKS,
    }
    finish(result, tracer, f"sweep-seed{args.seed}")


def run_point_queries(args) -> None:
    import_s = import_cli()
    from quintic import cohomology, grassmannian, surfaces
    from quintic.euler import chi_line
    from quintic.lattice import K, DivClass

    warm_up()
    types = surfaces.catalog()
    pool = inputs.rhom_pool()
    bott_uncached = grassmannian.bott.__wrapped__
    rhom_table = checks.load_expected("rhom_pool")
    table = checks.load_expected("point_queries") if args.seed == checks.TABLE_SEED else None
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    ready()

    # Latencies go to flat arrays and then to files, so that the benchmark's
    # own bookkeeping adds little to the child's peak RSS.
    latencies = {kind: array("d") for kind in inputs.KINDS}
    refused = dict.fromkeys(inputs.KINDS, 0)
    chunks, problems = [], []
    mismatched = 0
    chunk_s = 0.0
    for index, query in enumerate(itertools.islice(inputs.query_stream(args.seed), args.units)):
        if index and index % CHUNK == 0:
            chunks.append(chunk_s)
            chunk_s = 0.0
        kind = query[0]
        if tracer is not None:
            tracer.unit = index
        if kind == "h_all":
            d, t = DivClass(query[1]), types[query[2]]
            t0 = perf_counter()
            try:
                answer = cohomology.h_all(d, t)
            except cohomology.ReductionDivergenceError:
                answer = None
            elapsed = perf_counter() - t0
        elif kind == "bott":
            weight = query[1]
            t0 = perf_counter()
            answer = grassmannian.bott(weight, len(weight))
            elapsed = perf_counter() - t0
        else:
            a, b = pool[query[1]][1], pool[query[2]][1]
            t0 = perf_counter()
            answer = grassmannian.rhom(a, b)
            elapsed = perf_counter() - t0
        latencies[kind].append(elapsed)
        chunk_s += elapsed

        with paused(tracer):
            problem = None
            if kind == "h_all":
                if answer is None:
                    refused[kind] += 1
                else:
                    problem = checks.check_h_all(
                        query[1], answer, chi_line(d), cohomology.h_all(K - d, t),
                        table and table[kind].get(str(index)),
                    )
            elif kind == "bott":
                dual = bott_uncached(checks.bott_serre_dual(weight), len(weight))
                problem = checks.check_bott(
                    weight, _bott_json(answer), _bott_json(dual),
                    table and table[kind].get(str(index)),
                )
            else:
                labels = (pool[query[1]][0], pool[query[2]][0])
                expected = rhom_table[f"{query[1]},{query[2]}"]
                problem = checks.check_rhom(labels, answer.to_json(), expected)
        if problem:
            mismatched += 1
            if len(problems) < MAX_PROBLEMS:
                problems.append(problem)

    OUT_DIR.mkdir(exist_ok=True)
    for kind, samples in latencies.items():
        with open(OUT_DIR / f"latency-{kind}.f64", "wb") as fh:
            samples.tofile(fh)
    result = {
        "import_s": import_s,
        "attempted": sum(map(len, latencies.values())),
        "failed": sum(refused.values()) + mismatched,
        "refused": refused,
        "mismatched": mismatched,
        "problems": problems,
        "busy_s": sum(map(sum, latencies.values())),
        "drift": measure.half_drift(chunks),
        "table_checked": table is not None,
    }
    finish(result, tracer, f"point_queries-seed{args.seed}")


def _bott_json(res):
    return None if res is None else [res.degree, res.dim, list(res.weight)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "report", "sweep", "point_queries"))
    parser.add_argument("workload", nargs="?")
    parser.add_argument("--seed", type=int, default=checks.TABLE_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--units", type=int, default=0)
    parser.add_argument("--index", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        import_cli()
        if args.workload != "report":
            warm_up()
        ready()
    elif args.mode == "report":
        run_report(args)
    elif args.mode == "sweep":
        run_sweep(args)
    else:
        run_point_queries(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
