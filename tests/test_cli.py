import json
import os
from pathlib import Path

import numpy as np
import pytest

from dimvar.cli import main

ROOT = Path(__file__).resolve().parent.parent
CASE = str(ROOT / "cases" / "example1.json")
GOLDEN = Path(__file__).resolve().parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_case(tmp_path, doc, name="case.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def base_doc():
    with open(CASE) as fh:
        return json.load(fh)


def test_blend_golden(capsys):
    code, out, _ = run(capsys, "blend", CASE)
    assert code == 0
    assert out == (GOLDEN / "blend_example1.txt").read_text()


def test_check_golden(capsys):
    code, out, _ = run(capsys, "check", CASE)
    assert code == 0
    assert out == (GOLDEN / "check_example1.txt").read_text()


@pytest.mark.parametrize("argv, name", [(["check"], "check"),
                                        (["ctrb", "--blend"], "ctrb_blend"),
                                        (["blend"], "blend")])
@pytest.mark.parametrize("fmt", ["txt", "json"])
def test_float_backend_golden(capsys, argv, name, fmt):
    code, out, _ = run(capsys, argv[0], CASE, *argv[1:], "--backend", "float",
                       *(["--json"] if fmt == "json" else []))
    assert code == 0
    assert out == (GOLDEN / f"{name}_example1_float.{fmt}").read_text()


def test_outputs_deterministic(capsys):
    _, out1, _ = run(capsys, "check", CASE)
    _, out2, _ = run(capsys, "check", CASE)
    assert out1 == out2


def test_blend_json(capsys):
    code, out, _ = run(capsys, "blend", CASE, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 6
    assert doc["alpha"] == {"num": 3, "den": 2}
    assert doc["A"][2][3] == {"num": 1, "den": 2}
    assert doc["B1"][3][0] == {"num": 3, "den": 2}
    assert doc["B2"][2][0] == {"num": 1, "den": 2}


def test_check_json(capsys):
    code, out, _ = run(capsys, "check", CASE, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["realization"]["witness"] == [[{"num": 0, "den": 1},
                                              {"num": 0, "den": 1},
                                              {"num": 1, "den": 1}]]
    assert doc["modeling"]["dim_Cz"] == 4
    assert len(doc["modeling"]["tested"]) == 5


def test_ctrb_blend(capsys):
    code, out, _ = run(capsys, "ctrb", CASE, "--blend", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["rank"] == 4
    # the corrected (3,2) entry of the 6x12 controllability matrix
    assert doc["ctrb_matrix"][2][1] == {"num": 9, "den": 4}
    assert len(doc["ctrb_matrix"][0]) == 12


def test_ctrb_named_system(capsys):
    code, out, _ = run(capsys, "ctrb", CASE, "--system", "sigma2")
    assert code == 0
    assert "rank: 3" in out
    code, _, err = run(capsys, "ctrb", CASE, "--system", "sigma9")
    assert code == 2
    assert "unknown system" in err


def test_reduce(capsys):
    code, out, _ = run(capsys, "reduce", "--vector", "1,1,2,2")
    assert code == 0
    assert out == "[1, 2] (×2)\n"
    code, out, _ = run(capsys, "reduce", "--vector", "0,0,0,3/2,3/2,3/2",
                       "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"irreducible": [{"num": 0, "den": 1},
                                   {"num": 3, "den": 2}],
                   "multiplicity": 3}
    code, _, err = run(capsys, "reduce", "--vector", "1,x,3")
    assert code == 2


def test_simulate_writes_csv(capsys, tmp_path):
    out_path = str(tmp_path / "traj.csv")
    code, out, _ = run(capsys, "simulate", CASE, "--steer", "--out", out_path)
    assert code == 0
    assert "target_class_error" in out
    lines = Path(out_path).read_text().splitlines()
    assert lines[0] == "t,z1,z2,z3,z4,z5,z6"
    assert len(lines) == 1002  # header + 1001 samples at step 1e-3
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert [float(x) for x in first[1:]] == [0, 0, 0, 1, 1, 1]


def test_simulate_unsteered_misses_target(capsys, tmp_path):
    out_path = str(tmp_path / "free.csv")
    code, _, _ = run(capsys, "simulate", CASE, "--out", out_path)
    assert code == 1  # zero input does not hit the class target
    assert Path(out_path).exists()


def test_simulate_json(capsys, tmp_path):
    out_path = str(tmp_path / "traj.csv")
    code, out, _ = run(capsys, "simulate", CASE, "--steer", "--out", out_path,
                       "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["target_class_error"] <= 1e-5
    assert doc["samples"] == 1001


def test_exit_code_missing_file(capsys):
    code, _, err = run(capsys, "check", "/nonexistent/path.json")
    assert code == 2
    assert "error:" in err


def test_exit_code_invalid_json(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    code, _, err = run(capsys, "check", str(p))
    assert code == 2
    assert "invalid JSON" in err


def test_exit_code_missing_sigma2(capsys, tmp_path):
    doc = base_doc()
    del doc["sigma2"]
    code, _, err = run(capsys, "check", write_case(tmp_path, doc))
    assert code == 2
    assert "sigma2" in err


def test_exit_code_bad_matrix_entry(capsys, tmp_path):
    doc = base_doc()
    doc["sigma1"]["A"][0][0] = "1/0"
    code, _, err = run(capsys, "check", write_case(tmp_path, doc))
    assert code == 2


@pytest.mark.parametrize("backend", ["rational", "float"])
@pytest.mark.parametrize("field", ["matrix", "weights", "scenario"])
def test_exit_code_null_entry(capsys, tmp_path, backend, field):
    # a JSON null where a scalar belongs is an input error on both
    # backends, not a traceback
    doc = base_doc()
    if field == "matrix":
        doc["sigma1"]["A"][0][0] = None
    elif field == "weights":
        doc["transient"] = []
    else:
        doc["scenario"]["x_start"] = None
    code, _, err = run(capsys, "simulate", write_case(tmp_path, doc),
                       "--backend", backend, "--out", str(tmp_path / "t.csv"))
    assert code == 2
    assert err.startswith("error: ")


def test_exit_code_nonpositive_weight(capsys, tmp_path):
    doc = base_doc()
    doc["transient"] = {"alpha": "0", "beta": "1"}
    code, _, err = run(capsys, "check", write_case(tmp_path, doc))
    assert code == 2
    assert "positive" in err


def test_exit_code_missing_transient(capsys, tmp_path):
    doc = base_doc()
    del doc["transient"]
    code, _, err = run(capsys, "blend", write_case(tmp_path, doc))
    assert code == 2
    assert "transient" in err


def test_exit_code_condition_fails(capsys, tmp_path):
    # sigma2 with no usable input: realization condition cannot hold
    doc = base_doc()
    doc["sigma2"]["B"] = [["0"], ["0"], ["0"]]
    code, out, _ = run(capsys, "check", write_case(tmp_path, doc))
    assert code == 1
    assert "reason: realization condition not met" in out


def test_exit_code_bad_scenario(capsys, tmp_path):
    doc = base_doc()
    doc["scenario"]["te"] = 0.0
    code, _, err = run(capsys, "simulate", write_case(tmp_path, doc))
    assert code == 2


def test_exit_code_unreachable_simulate(capsys, tmp_path):
    doc = {
        "sigma1": {"A": [["0", "0"], ["0", "0"]], "B": [["1"], ["0"]]},
        "sigma2": {"A": [["0", "0"], ["0", "0"]], "B": [["1"], ["0"]]},
        "transient": {"alpha": "1", "beta": "1"},
        "scenario": {"t0": 0, "te": 1, "x_start": ["0", "0"],
                     "y_target": ["0", "1"]},
    }
    code, _, err = run(capsys, "simulate", write_case(tmp_path, doc),
                       "--steer")
    assert code == 1
    assert "unreachable target" in err


def test_usage_error_exit_code(capsys):
    assert main(["frobnicate"]) == 2
    assert main([]) == 2


def test_version_exit_code(capsys):
    assert main(["--version"]) == 0


def test_reduce_float_backend_tolerance(capsys):
    # a block off by 1e-7 reduces only under a tolerance looser than that
    vector = "1,1.0000001,2,2"
    code, out, _ = run(capsys, "reduce", "--vector", vector, "--backend",
                       "float")
    assert (code, out) == (0, "[1, 1.0000001, 2, 2] (×1)\n")
    code, out, _ = run(capsys, "reduce", "--vector", vector, "--backend",
                       "float", "--tol", "1e-6")
    assert (code, out) == (0, "[1.00000005, 2] (×2)\n")
    code, out, _ = run(capsys, "reduce", "--vector", vector, "--tol", "1e-6")
    assert (code, out) == (0, "[1, 10000001/10000000, 2, 2] (×1)\n")


def test_exit_code_numerical_failure(capsys, tmp_path, monkeypatch):
    import numpy as np

    import dimvar.cli as cli

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(cli, "run_transient_scenario", fail)
    code, out, err = run(capsys, "simulate", CASE, "--steer", "--out",
                         str(tmp_path / "t.csv"))
    assert code == 3
    assert out == ""
    assert err == "numerical failure: Singular matrix\n"


def test_check_large_coprime_blend(capsys, tmp_path):
    # (11, 13) blends on n = 143; the modeling check runs in the
    # 24 coordinates of the blend's invariant subspace
    rng = np.random.default_rng(143)

    def system(dim):
        return {"A": rng.integers(-3, 4, size=(dim, dim)).astype(str).tolist(),
                "B": rng.integers(-3, 4, size=(dim, 1)).astype(str).tolist()}

    doc = {"sigma1": system(11), "sigma2": system(13),
           "transient": {"masses": ["1", "1"]}}
    code, out, err = run(capsys, "check", write_case(tmp_path, doc), "--json")
    assert code in (0, 1)
    assert "Traceback" not in out + err
    modeling = json.loads(out)["modeling"]
    assert modeling["n"] == 143
    assert modeling["dim_Cz"] <= 11 + 13 - 1
    assert all(len(t["vector"]) == 143 for t in modeling["tested"])
