import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quintic.cli
from quintic.cli import EXIT_INTERNAL, EXIT_PIPE, main

SRC = Path(__file__).resolve().parents[1] / "src"
GOLDEN = Path(__file__).parent / "data" / "report_default_seed.json"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_II3(capsys):
    code, out, _ = run(capsys, "classify", "[[1,1,0,1,1],[0,-1,1,0,0]]")
    assert code == 0
    assert "A2" in out
    assert "[1, 1, 3]" in out
    assert "II.3" in out


def test_classify_json_output(capsys):
    code, out, _ = run(capsys, "--json", "classify", "[[1,1,0,1,1],[0,-1,1,0,0]]")
    assert code == 0
    payload = json.loads(out)
    assert payload["ade"] == [2]
    assert payload["z_lengths"] == [1, 1, 3]
    assert payload["matching_catalog_label"] == "II.3"


def test_classify_empty_set_is_smooth(capsys):
    code, out, _ = run(capsys, "--json", "classify", "[]")
    assert code == 0
    payload = json.loads(out)
    assert payload["ade_label"] == "smooth"
    assert payload["z_lengths"] == [1, 1, 1, 1, 1]


def test_classify_malformed_json_exits_2(capsys):
    code, _, err = run(capsys, "classify", "{bad")
    assert code == 2
    assert "malformed" in err


def test_classify_non_root_exits_2(capsys):
    code, _, err = run(capsys, "classify", "[[1,0,0,0,0]]")
    assert code == 2
    assert "[1, 0, 0, 0, 0] is not a (-2)-class" in err


def test_classify_non_chain_exits_2(capsys):
    # e2-e3, e3-e4, e4-e2 form a cycle
    code, _, err = run(
        capsys, "classify", "[[0,0,-1,1,0],[0,0,0,-1,1],[0,0,1,0,-1]]"
    )
    assert code == 2
    assert "chain" in err
    assert "[0, 0, -1, 1, 0]" in err
    # e2-e1 and e1-e2 meet twice; classes are named in the input's list form
    code, _, err = run(capsys, "classify", "[[0,1,-1,0,0],[0,-1,1,0,0]]")
    assert code == 2
    assert "[0, -1, 1, 0, 0].[0, 1, -1, 0, 0] = 2" in err


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, "verify", "lattice")
    assert code == 0
    assert "PASS" in out


def test_verify_lists_every_check_of_the_golden_report(capsys):
    # the golden file stores each section's details with sorted keys, and
    # verify prints them in the order its suite runs them, so the lines of
    # a section are compared in sorted order
    golden = json.loads(GOLDEN.read_text())
    expected = [
        (
            f"[PASS] suite {section['name']}",
            sorted(
                f"    [{'ok' if value else 'FAIL'}] {key}"
                if isinstance(value, bool)
                else f"    [--] {key}: {value}"
                for key, value in section["details"].items()
            ),
        )
        for section in golden["sections"]
    ]
    code, out, _ = run(capsys, "verify")
    assert code == 0
    *lines, last = out.splitlines()
    assert last == "passed 6, failed 0"
    sections = []
    for line in lines:
        if line.startswith("    "):
            sections[-1][1].append(line)
        else:
            sections.append((line, []))
    assert [(header, sorted(rows)) for header, rows in sections] == expected


def test_verify_unknown_suite_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "nonsense"])
    assert excinfo.value.code == 2


def test_verify_json_is_deterministic(capsys):
    code1, out1, _ = run(capsys, "--json", "verify", "catalog")
    code2, out2, _ = run(capsys, "--json", "verify", "catalog")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["schema"] == 1
    assert payload["summary"]["failed"] == 0
    assert payload["seed"] == 20260808


def test_verify_seed_echoed(capsys):
    code, out, _ = run(capsys, "--json", "--seed", "99", "verify", "chern")
    assert code == 0
    assert json.loads(out)["seed"] == 99


@pytest.mark.parametrize(
    "argv", [["verify"], ["verify", "cohomology"], ["--json", "report"]], ids=" ".join
)
def test_negative_seed_exits_2_with_an_error_line(capsys, argv):
    # random.Random would seed -1 as 1, so the parser refuses it; bad input
    # exits 2 at the parser, not 1 as a failed verification
    with pytest.raises(SystemExit) as excinfo:
        main(["--seed", "-1", *argv])
    assert excinfo.value.code == 2
    _, err = capsys.readouterr()
    assert "error: argument --seed: invalid non_negative_int value: '-1'" in err


def test_bott_section_weight(capsys):
    code, out, _ = run(capsys, "--json", "bott", "1", "0", "0", "0", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["degrees"] == {"0": 5}


def test_bott_serre_dual(capsys):
    code, out, _ = run(capsys, "--json", "bott", "--", "-5", "-5", "0", "0", "0")
    assert code == 0
    assert json.loads(out)["degrees"] == {"6": 1}


def test_bott_vanishing(capsys):
    code, out, _ = run(capsys, "--json", "bott", "--", "0", "-1", "0", "0", "0")
    assert code == 0
    assert json.loads(out)["degrees"] == {}


def test_bott_bad_arity_exits_2(capsys):
    code, _, err = run(capsys, "bott", "1")
    assert code == 2
    assert "between 2 and 8" in err


def test_gram_target7(capsys):
    code, out, _ = run(capsys, "--json", "gram", "--collection", "target7")
    assert code == 0
    payload = json.loads(out)
    assert payload["unitriangular"] is True
    assert payload["gram"][0][1] == 5  # chi(O, F)


def test_gram_lefschetz10(capsys):
    code, out, _ = run(capsys, "--json", "gram", "--collection", "lefschetz10")
    assert code == 0
    payload = json.loads(out)
    assert payload["unitriangular"] is True
    assert len(payload["gram"]) == 10


def test_gram_custom_classes(capsys):
    classes = json.dumps(
        [
            {"label": "O", "rank": 1, "c1": [0, 0, 0, 0, 0], "ch2": [0, 1]},
            {"label": "O(h)", "rank": 1, "c1": [1, 0, 0, 0, 0], "ch2": [1, 2]},
        ]
    )
    code, out, _ = run(capsys, "--json", "gram", "--classes", classes)
    assert code == 0
    payload = json.loads(out)
    assert payload["gram"] == [[1, 3], [0, 1]]


@pytest.mark.parametrize("collection", ["lefschetz10", "target7"])
def test_gram_refuses_a_collection_and_classes_together(capsys, collection):
    # a collection and classes exclude each other; target7 is the default
    # collection, which argparse's exclusion check lets through when the
    # parser holds it as its default
    with pytest.raises(SystemExit) as excinfo:
        main(
            [
                "gram",
                "--collection",
                collection,
                "--classes",
                '[{"rank":1,"c1":[0,0,0,0,0],"ch2":[0,1]}]',
            ]
        )
    assert excinfo.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "argument --classes: not allowed with argument --collection" in err


def test_gram_defaults_to_target7(capsys):
    assert run(capsys, "gram") == run(capsys, "gram", "--collection", "target7")


def test_gram_bad_classes_exits_2(capsys):
    code, _, err = run(capsys, "gram", "--classes", "[{}]")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "[[true,1,0,1,1]]"],
        ["gram", "--classes", '[{"rank":1,"c1":[0,0,0,0,0],"ch2":[1,0]}]'],
        ["gram", "--classes", "[1]"],
        ["gram", "--classes", "{}"],
        ["gram", "--classes", '[{"label":5,"rank":1,"c1":[0,0,0,0,0],"ch2":[0,1]}]'],
    ],
    ids=["bool-coefficient", "zero-denominator", "non-record", "not-a-list", "label"],
)
def test_malformed_input_exits_2_with_message(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_internal_error_exits_70_with_its_type(capsys, monkeypatch):
    def broken(args):
        raise KeyError("lost table entry")

    monkeypatch.setattr(quintic.cli, "cmd_bott", broken)
    code, out, err = run(capsys, "bott", "1", "0")
    assert code == EXIT_INTERNAL == 70
    assert out == ""
    assert err == "internal error: KeyError: 'lost table entry'\n"


def test_report_runs_everything(capsys):
    code, out, _ = run(capsys, "report")
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"] == {"passed": 6, "failed": 0}
    assert [s["name"] for s in payload["sections"]] == [
        "lattice",
        "catalog",
        "mutations",
        "cohomology",
        "grassmannian",
        "chern",
    ]
    assert all(s["status"] == "pass" for s in payload["sections"])


@pytest.mark.parametrize(
    "argv",
    [
        ["bott", "1", "0", "0", "0", "0"],
        ["--json", "gram", "--collection", "start7"],
        ["verify", "catalog"],
        ["--json", "verify", "catalog"],
        ["report"],
    ],
    ids=["emit-human", "emit-json", "verify", "verify-json", "report"],
)
def test_closed_stdout_exits_141_without_traceback(argv):
    # the read end of the pipe is closed before the child starts, so its
    # first write to stdout fails with EPIPE on every run
    read_end, write_end = os.pipe()
    os.close(read_end)
    path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "quintic.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_PIPE == 141
    assert proc.stderr == b""


_NUMPY_PROBE = """
import contextlib, io, json, sys

if sys.argv[1] == "blocked":
    sys.modules["numpy"] = None  # every import of numpy now raises ImportError
import quintic.cli
from quintic.cohomology import h_all, sweep_box
from quintic.lattice import H
from quintic.surfaces import catalog

out = {"h_all": [h_all(H, t) for t in catalog()], "verbs": []}
for argv in (["classify", "[]"], ["bott", "1", "0", "0", "0", "0"],
             ["gram", "--collection", "lefschetz10"]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        out["verbs"].append([quintic.cli.main(argv), buf.getvalue()])
out["numpy_before_sweep"] = sys.modules.get("numpy") is not None
try:
    out["sweep"] = sweep_box(catalog()[0], bound=1)["classes"]
except ImportError:
    out["sweep"] = "ImportError"
out["numpy_after_sweep"] = sys.modules.get("numpy") is not None
print(json.dumps(out))
"""


def _numpy_probe(mode: str) -> dict:
    path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE, mode],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
        check=True,
    )
    return json.loads(proc.stdout)


def test_numpy_loads_only_with_the_first_sweep():
    # only quintic.sweep imports numpy: the CLI, scalar h_all and the point
    # verbs run without it, with the same output where it cannot load, and
    # the first sweep_box loads it
    free, blocked = _numpy_probe("free"), _numpy_probe("blocked")
    assert free["h_all"] == [[3, 0, 0]] * 12
    assert [code for code, _ in free["verbs"]] == [0, 0, 0]
    assert not free["numpy_before_sweep"]
    assert free["sweep"] == 3**5 and free["numpy_after_sweep"]
    assert (blocked["h_all"], blocked["verbs"]) == (free["h_all"], free["verbs"])
    assert blocked["sweep"] == "ImportError"
