import json

import pytest

from quintic.cli import main


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
    assert "non-root" in err


def test_classify_non_chain_exits_2(capsys):
    # e2-e3, e3-e4, e4-e2 form a cycle
    code, _, err = run(
        capsys, "classify", "[[0,0,-1,1,0],[0,0,0,-1,1],[0,0,1,0,-1]]"
    )
    assert code == 2
    assert "chain" in err


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, "verify", "lattice")
    assert code == 0
    assert "PASS" in out


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
