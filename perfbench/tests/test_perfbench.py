"""Tests of the benchmark itself.  From the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
from spans import Tracer  # noqa: E402


def prefix(seed: int, n: int = 2000) -> list:
    return list(itertools.islice(inputs.query_stream(seed), n))


def test_stream_is_deterministic_for_a_seed():
    assert prefix(7) == prefix(7)
    assert inputs.spot_rows(7, 3, 1000, 8) == inputs.spot_rows(7, 3, 1000, 8)
    assert inputs.repeat_share(7, 3000) == inputs.repeat_share(7, 3000)


def test_different_seeds_give_different_inputs():
    assert prefix(7) != prefix(8)
    assert inputs.spot_rows(7, 3, 10**6, 8) != inputs.spot_rows(8, 3, 10**6, 8)


def test_stream_covers_every_kind_within_its_ranges():
    queries = prefix(3, 6000)
    assert {q[0] for q in queries} == set(inputs.KINDS)
    for q in queries:
        if q[0] == "h_all":
            assert max(map(abs, q[1])) <= inputs.H0_MAX_COEFF
            assert 0 <= q[2] < len(inputs.TYPE_LABELS)
        elif q[0] == "bott":
            assert inputs.BOTT_MIN_LEN <= len(q[1]) <= inputs.BOTT_MAX_LEN
            assert max(map(abs, q[1])) <= inputs.BOTT_MAX_ENTRY
    shares = inputs.repeat_share(3, 6000)
    assert shares["rhom"] > 0.5 > shares["h_all"]


def test_type_labels_match_the_catalog():
    from quintic.surfaces import catalog

    assert tuple(t.label for t in catalog()) == inputs.TYPE_LABELS
    assert len(inputs.rhom_pool()) == len(inputs.RHOM_SHAPES) * len(inputs.RHOM_TWISTS)


def test_report_checker_catches_a_flipped_byte():
    import io
    from contextlib import redirect_stdout

    import quintic.cli

    buf = io.StringIO()
    with redirect_stdout(buf):
        assert quintic.cli.main(["report"]) == 0
    out = buf.getvalue().encode()
    assert checks.check_report(out) is None
    flipped = bytes([out[100] ^ 1])
    assert checks.check_report(out[:100] + flipped + out[101:]) is not None
    assert checks.check_report(out[:-1]) is not None


def test_sweep_checkers_catch_planted_errors():
    expected = checks.load_expected("sweep")[str(inputs.SWEEP_BOUND)]["V.2"]
    info = {"type": "V.2", "bound": inputs.SWEEP_BOUND}
    info.update(zip(checks.SWEEP_FIELDS, expected))
    assert checks.check_sweep_summary(info, expected) is None
    assert checks.check_sweep_summary({**info, "effective": info["effective"] + 1}, expected)
    assert checks.check_sweep_row((1, 0, 0, 0, 0), (3, 0, 0), (3, 0, 0), "V.2") is None
    assert checks.check_sweep_row((1, 0, 0, 0, 0), (4, 0, 0), (3, 0, 0), "V.2")


def test_h_all_checker_catches_planted_errors():
    from quintic.cohomology import h_all
    from quintic.euler import chi_line
    from quintic.lattice import K, DivClass
    from quintic.surfaces import catalog

    t = catalog()[0]
    d = DivClass((2, 1, 0, 0, 0))
    answer, dual, chi = h_all(d, t), h_all(K - d, t), chi_line(d)
    assert answer[0] != answer[2]
    assert checks.check_h_all(d.coeffs, answer, chi, dual, list(answer)) is None
    h0, h1, h2 = answer
    assert checks.check_h_all(d.coeffs, (h0 + 1, h1, h2), chi, dual)  # Riemann-Roch
    assert checks.check_h_all(d.coeffs, (h2, h1, h0), chi, dual)  # Serre duality
    assert checks.check_h_all(d.coeffs, answer, chi, dual, [h0, h1 + 1, h2 + 1])  # table


def test_bott_checker_catches_planted_errors():
    from quintic.grassmannian import bott

    weight = (-5, -5, 0, 0, 0)
    res = bott(weight, 5)
    dual = bott(checks.bott_serre_dual(weight), 5)
    answer = [res.degree, res.dim, list(res.weight)]
    dual_answer = [dual.degree, dual.dim, list(dual.weight)]
    assert checks.check_bott(weight, answer, dual_answer, answer) is None
    assert checks.check_bott(weight, [res.degree + 1, res.dim, answer[2]], dual_answer)
    assert checks.check_bott(weight, [res.degree, res.dim + 1, answer[2]], dual_answer)
    assert checks.check_bott(weight, None, dual_answer)
    assert checks.check_bott(weight, answer, dual_answer, [res.degree, res.dim - 1, answer[2]])


def test_rhom_table_matches_the_program_and_catches_planted_errors():
    from quintic.grassmannian import rhom

    table = checks.load_expected("rhom_pool")
    pool = inputs.rhom_pool()
    assert len(table) == len(pool) ** 2
    (la, a), (lb, b) = pool[1], pool[7]
    answer = rhom(a, b).to_json()
    assert checks.check_rhom((la, lb), answer, table["1,7"]) is None
    wrong = {"degrees": {k: v + 1 for k, v in answer["degrees"].items()} or {"0": 1}}
    assert checks.check_rhom((la, lb), wrong, table["1,7"])


def test_point_query_table_leaves_out_refused_inputs():
    table = checks.load_expected("point_queries")
    queries = prefix(checks.TABLE_SEED, 4000)
    tabled = {int(i) for i in table["h_all"]}
    h_all_indices = [i for i, q in enumerate(queries) if q[0] == "h_all"][:1000]
    assert tabled < set(h_all_indices)
    assert all(queries[int(i)][0] == "bott" for i in table["bott"])


def test_tracer_self_time_excludes_children():
    tracer = Tracer()

    def inner():
        time.sleep(0.02)

    inner_traced = tracer.span("inner", inner)

    def outer():
        time.sleep(0.02)
        inner_traced()

    tracer.span("outer", outer)()
    assert tracer.calls == {"inner": 1, "outer": 1}
    assert 0.015 < tracer.self_s["outer"] < 0.035
    assert 0.015 < tracer.self_s["inner"] < 0.035
    (inner_span, outer_span) = tracer.spans
    assert inner_span[1] == outer_span[0]  # parent id
    assert outer_span[1] is None


def test_traced_report_counts_layers_and_keeps_the_digest(tmp_path):
    env = {**run.child_env(), "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "report"],
        cwd=tmp_path, env=env, capture_output=True, check=True, timeout=170,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["problem"] is None
    trace = result["trace"]
    assert trace["calls"]["lattice.box_scan"] == 15
    assert trace["calls"]["mutations.replay_steps"] > 0
    assert set(trace["sweep"]) == {f"b4.{label}" for label in inputs.TYPE_LABELS}
    assert all(trace["calls"][f"suites.{name}"] == 1 for name in run.SUITES)
    assert (tmp_path / ".perfbench_out" / "spans-report-seed1-0.json").is_file()


def test_benchmark_json_lists_the_metrics_run_py_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        row[:3] for row in run.PER_LAYER
    ]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "report", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_percentile_and_drift():
    import measure

    samples = [float(x) for x in range(1, 101)]
    assert measure.percentile(samples, 50) == 50.0
    assert measure.percentile(samples, 99) == 99.0
    assert measure.half_drift([1.0] * 10) == 0.0
    assert not measure.keep_going([1.0] * 10, 5.0, 4.0, 3)
    assert measure.keep_going([1.0] * 2, 5.0, 4.0, 3)
