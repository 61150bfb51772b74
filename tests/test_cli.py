import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from dimvar import SubspaceBasis
from dimvar.cli import main
from dimvar.numerics import in_span_columns, rank

ROOT = Path(__file__).resolve().parent.parent
CASE = str(ROOT / "cases" / "example1.json")
MODELING_FAILS = str(ROOT / "cases" / "modeling_fails.json")
REDUCIBLE = str(ROOT / "cases" / "reducible.json")
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


def test_check_ladder_golden(capsys):
    # the seed-0 (7,11) ladder pair, n = 77, s = 17: C_z = R^17 is
    # certified modulo a prime
    code, out, _ = run(capsys, "check", str(ROOT / "cases" / "ladder_7x11.json"))
    assert code == 0
    assert out == (GOLDEN / "check_ladder_7x11.txt").read_text()


@pytest.mark.parametrize("backend", ["rational", "float"])
def test_check_modeling_fails_golden(capsys, backend):
    # sigma2 cancels sigma1's drift and has no input: C_z = span(B1) is
    # below the blend's dimension, so the certificate declines and the
    # lifted A1 B1 is tested for membership
    code, out, _ = run(capsys, "check", MODELING_FAILS, "--backend", backend)
    assert code == 1
    assert out == (GOLDEN / "check_modeling_fails.txt").read_text()
    assert "dim Cz = 1" in out and "  [1, 0] in Cz: no\n" in out
    assert out.endswith("reason: modeling condition fails\n")


@pytest.mark.parametrize("backend, suffix", [("rational", ""),
                                             ("float", "_float")])
def test_check_reducible_golden(capsys, backend, suffix):
    # example1 with sigma2 given as its 2-fold lift: the lift's C2 has
    # dimension 3 < q - dim C1, so realization fails on this form while
    # example1 itself is realizable; the modeling condition still holds
    code, out, _ = run(capsys, "check", REDUCIBLE, "--backend", backend)
    assert code == 1
    assert out == (GOLDEN / "check_reducible.txt").read_text()
    assert "condition met: no\n  dim C1 = 2, dim C2 = 3, q = 6\n" in out
    assert "dim Cz = 4)\n  holds: yes\n" in out
    code, out, _ = run(capsys, "check", REDUCIBLE, "--backend", backend, "--json")
    assert code == 1
    assert out == (GOLDEN / f"check_reducible{suffix}.json").read_text()
    assert run(capsys, "check", CASE, "--backend", backend)[0] == 0


@pytest.mark.parametrize("argv, name", [(["check"], "check"),
                                        (["ctrb", "--blend"], "ctrb_blend"),
                                        (["blend"], "blend")])
@pytest.mark.parametrize("fmt", ["txt", "json"])
def test_float_backend_golden(capsys, argv, name, fmt):
    code, out, _ = run(capsys, argv[0], CASE, *argv[1:], "--backend", "float",
                       *(["--json"] if fmt == "json" else []))
    assert code == 0
    assert out == (GOLDEN / f"{name}_example1_float.{fmt}").read_text()


@pytest.mark.parametrize("argv, name", [(["check"], "check"),
                                        (["ctrb", "--blend"], "ctrb_blend"),
                                        (["blend"], "blend")])
def test_exact_json_golden(capsys, argv, name):
    code, out, _ = run(capsys, argv[0], CASE, *argv[1:], "--json")
    assert code == 0
    assert out == (GOLDEN / f"{name}_example1.json").read_text()


@pytest.mark.parametrize("system", ["sigma1", "sigma2",
                                    pytest.param(None, id="default")])
@pytest.mark.parametrize("backend", ["rational", "float"])
@pytest.mark.parametrize("fmt", ["txt", "json"])
def test_ctrb_system_golden(capsys, system, backend, fmt):
    # without --system, ctrb analyses sigma1
    code, out, _ = run(capsys, "ctrb", CASE,
                       *(["--system", system] if system else []),
                       "--backend", backend,
                       *(["--json"] if fmt == "json" else []))
    assert code == 0
    suffix = "_float" if backend == "float" else ""
    name = f"ctrb_{system or 'sigma1'}_example1{suffix}.{fmt}"
    assert out == (GOLDEN / name).read_text()


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
    # a float block of equal entries keeps them: the mean of three 0.1s
    # is 0.10000000000000002
    code, out, _ = run(capsys, "reduce", "--vector=0.1,0.1,0.1", "--backend",
                       "float", "--json")
    assert code == 0
    assert json.loads(out) == {"irreducible": [0.1], "multiplicity": 3}


@pytest.mark.parametrize("vector", ["1e400", "-1e400", "1,1e400"])
def test_reduce_entry_beyond_float_range(capsys, vector):
    code, out, err = run(capsys, "reduce", f"--vector={vector}", "--backend",
                         "float")
    assert (code, out) == (2, "")
    assert "entry beyond float range" in err and "Traceback" not in err
    code, out, _ = run(capsys, "reduce", f"--vector={vector}")
    assert code == 0 and "(×1)" in out


def test_reduce_parses_each_distinct_token_once(capsys, monkeypatch):
    from dimvar import cli
    parsed, vectors = [], []
    parse, reduce = cli.parse_scalar, cli.reduce_vector
    monkeypatch.setattr(cli, "parse_scalar",
                        lambda tok: parsed.append(tok) or parse(tok))
    monkeypatch.setattr(cli, "reduce_vector",
                        lambda x, tol: vectors.append(x) or reduce(x, tol))
    code, out, _ = run(capsys, "reduce", "--vector", "1/3,1/3,2,2,1/3,1/3,2,2")
    assert (code, out) == (0, "[1/3, 2, 1/3, 2] (×2)\n")
    assert parsed == ["1/3", "2"]
    (x,) = vectors
    assert x[0] is x[1] is x[4] is x[5] and x[2] is x[3] is x[6] is x[7]
    assert x[0] is not x[2]
    # the first bad token in the vector is the one reported
    code, _, err = run(capsys, "reduce", "--vector", "1,y,1,x,y")
    assert code == 2
    assert err == "error: cannot parse vector: Invalid literal for Fraction: 'y'\n"


def test_main_runs_back_to_back_without_leaking(capsys):
    # the parser is built once; every call still parses only its own
    # arguments, and usage errors still exit 2 with the usage on stderr
    from dimvar import cli
    assert cli._build_parser() is cli._build_parser()
    golden = (GOLDEN / "check_example1.txt").read_text()
    golden_float = (GOLDEN / "check_example1_float.json").read_text()
    ctrb_float = (GOLDEN / "ctrb_blend_example1_float.json").read_text()
    vector = "1,1.0000001,2,2"
    calls = [
        (["reduce", "--vector", vector, "--backend", "float", "--tol", "1e-6"],
         0, "[1.00000005, 2] (×2)\n"),
        (["reduce", "--vector", vector, "--backend", "float"],
         0, "[1, 1.0000001, 2, 2] (×1)\n"),
        (["reduce", "--vector", vector],
         0, "[1, 10000001/10000000, 2, 2] (×1)\n"),
        (["check", CASE, "--backend", "float", "--json"], 0, golden_float),
        (["check", CASE], 0, golden),
        (["frobnicate"], 2, ""),
        (["reduce"], 2, ""),
        (["reduce", "--vector", "1,1", "--tol", "0"], 2, ""),
        (["ctrb", CASE, "--blend", "--backend", "float", "--json"],
         0, ctrb_float),
        (["reduce", "--vector", "1,1,2,2"], 0, "[1, 2] (×2)\n"),
        (["check", CASE, "--system", "sigma2"], 2, ""),
    ]
    for _ in range(2):
        for argv, code, want in calls:
            got, out, err = run(capsys, *argv)
            assert got == code, argv
            assert out == want, argv
            if code == 2:
                assert err.startswith("usage: dimvar"), argv
            else:
                assert err == "", argv


def test_ctrb_blend_builds_one_equality_key(capsys, monkeypatch):
    import dimvar
    from dimvar import numerics

    key, builds = numerics.equality_key, []

    def counted(M):
        builds.append(M.shape)
        return key(M)

    for name in dir(dimvar):             # every module that imported it
        module = getattr(dimvar, name)
        if getattr(module, "equality_key", None) is key:
            monkeypatch.setattr(module, "equality_key", counted)
    code, out, _ = run(capsys, "ctrb", CASE, "--blend")
    assert code == 0
    assert out == (ROOT / "perfbench" / "ref" /
                   "ctrb_blend_example1.txt").read_text()
    assert len(builds) == 1


def test_check_multiplies_krylov_products_only_for_subsystems(
        ex1_s1, ex1_s2, ex1_model, capsys, monkeypatch, tmp_path):
    # every controllable subspace is decided by krylov_pivots: no whole
    # Krylov matrix is built, of a subsystem or of the segment system,
    # by `check` on either backend, by check_modeling_condition or by a
    # steered `simulate`
    import dimvar
    from dimvar import check_modeling_condition
    from dimvar import numerics

    product, sizes = numerics._krylov_product, []

    def counted(A, B):
        sizes.append(A.shape[0])
        return product(A, B)

    for name in dir(dimvar):             # every module that imported it
        module = getattr(dimvar, name)
        if getattr(module, "_krylov_product", None) is product:
            monkeypatch.setattr(module, "_krylov_product", counted)
    code, out, _ = run(capsys, "check", CASE)
    assert code == 0
    assert out == (GOLDEN / "check_example1.txt").read_text()
    code, out, _ = run(capsys, "check", CASE, "--backend", "float")
    assert code == 0
    assert out == (GOLDEN / "check_example1_float.txt").read_text()
    assert check_modeling_condition(ex1_s1, ex1_s2, ex1_model).holds
    code, _, _ = run(capsys, "simulate", CASE, "--steer",
                     "--out", str(tmp_path / "t.csv"))
    assert code == 0
    assert sizes == []


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


@pytest.mark.parametrize("backend", ["rational", "float"])
@pytest.mark.parametrize("field,rows", [("A", [["0", "1"], ["0"]]),
                                        ("B", [["0", "1"], ["1"]])])
def test_exit_code_ragged_rows(capsys, tmp_path, backend, field, rows):
    # rows of unequal length are named as such on both backends
    doc = base_doc()
    doc["sigma1"][field] = rows
    code, _, err = run(capsys, "check", write_case(tmp_path, doc),
                       "--backend", backend)
    assert code == 2
    assert "'sigma1' has an unparseable entry: row 1 has 1 entries" in err


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


@pytest.mark.parametrize("argv", [["check"], ["blend"], ["ctrb", "--json"]])
def test_report_failing_while_printed_leaves_stdout_empty(capsys, tmp_path,
                                                          argv):
    # 1e4300 parses to 10^4300, whose 4301 digits exceed Python's
    # int-to-string limit only when the report prints them; check and
    # blend had printed 316 and 61 characters of their reports by then
    doc = base_doc()
    doc["sigma1"]["A"][0][1] = "1e4300"
    code, out, err = run(capsys, argv[0], write_case(tmp_path, doc), *argv[1:])
    assert (code, out) == (2, "")
    assert err.startswith("error: Exceeds the limit (4300 digits)")


@pytest.mark.parametrize("argv", [
    pytest.param(["reduce", "--vector", "1,1,2,2"], id="reduce"),
    pytest.param(["simulate", CASE, "--steer", "--json", "--out", "t.csv"],
                 id="simulate-json")])
def test_failure_after_the_report_leaves_stdout_empty(capsys, tmp_path,
                                                      monkeypatch, argv):
    # a command that fails once its report is printed writes none of it
    import builtins

    import dimvar.cli as cli

    def print_then_fail(*args, **kwargs):
        builtins.print(*args, **kwargs)
        if kwargs.get("file") is None:
            raise OverflowError("after the report")

    monkeypatch.setattr(cli, "print", print_then_fail, raising=False)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (3, "", "numerical failure: after the report\n")


def test_check_large_coprime_blend(capsys, tmp_path):
    # (11, 13) blends on n = 143; the modeling check runs in the
    # 23 segment coordinates of the blend's invariant subspace
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


def _generated_case(tmp_path, p, q, seed, inputs=(1, 1)):
    rng = np.random.default_rng(seed)

    def system(dim, n_inputs):
        return {"A": rng.integers(-3, 4, size=(dim, dim)).astype(str).tolist(),
                "B": rng.integers(-3, 4, size=(dim, n_inputs)).astype(str).tolist()}

    doc = {"sigma1": system(p, inputs[0]), "sigma2": system(q, inputs[1]),
           "transient": {"alpha": "3/2", "beta": "1/3"}}
    return write_case(tmp_path, doc, f"case_{p}_{q}.json")


@pytest.mark.parametrize("backend", ["rational", "float"])
@pytest.mark.parametrize("p,q,inputs", [(5, 7, (1, 1)), (6, 10, (2, 1)),
                                        (7, 11, (1, 2))])
def test_ctrb_blend_rank_equals_check_dim_cz(capsys, tmp_path, backend, p, q,
                                             inputs):
    # `ctrb --blend` and `check` decide C_z on the same segment system,
    # so they report one dimension on each backend
    path = _generated_case(tmp_path, p, q, seed=p * q, inputs=inputs)
    code, out, _ = run(capsys, "ctrb", path, "--blend", "--json",
                       "--backend", backend)
    assert code == 0
    ctrb_rank = json.loads(out)["rank"]
    code, out, _ = run(capsys, "check", path, "--json", "--backend", backend)
    assert code in (0, 1)
    assert json.loads(out)["modeling"]["dim_Cz"] == ctrb_rank


def test_ctrb_blend_large_coprime(capsys, tmp_path):
    # (11, 13): the n = 143 Krylov matrix is printed, its pivots come
    # from the 23-dimensional segment system
    path = _generated_case(tmp_path, 11, 13, seed=143)
    code, out, _ = run(capsys, "ctrb", path, "--blend", "--json")
    assert code == 0
    payload = json.loads(out)
    code, out, _ = run(capsys, "check", path, "--json")
    assert payload["rank"] == json.loads(out)["modeling"]["dim_Cz"]
    frac = lambda x: Fraction(x["num"], x["den"])
    K = np.array([[frac(x) for x in row] for row in payload["ctrb_matrix"]],
                 dtype=object)
    basis = np.array([[frac(x) for x in col] for col in payload["basis"]],
                     dtype=object).T
    assert K.shape == (143, 286) and basis.shape == (143, payload["rank"])
    # the basis is independent and spans the blocks A^j B, j < 24, of
    # each channel; by Cayley-Hamilton on the 23-dimensional segment
    # system, later blocks add no rank
    assert rank(basis) == payload["rank"]
    first = np.hstack([K[:, :24], K[:, 143:167]])
    assert all(in_span_columns(SubspaceBasis(143, basis), first))
    assert len(payload["class_reps"]) == payload["rank"]


_FILE_COMMANDS = {"check": ["check"], "ctrb": ["ctrb"],
                  "ctrb-blend": ["ctrb", "--blend"], "blend": ["blend"],
                  "simulate": ["simulate", "--steer"]}
_ALL = tuple(_FILE_COMMANDS)
_WEIGHTED = ("check", "ctrb-blend", "blend", "simulate")
_BOTH = ("rational", "float")
_MALFORMED = [
    # name, path into example1, value, subcommands, backends, message
    ("notes-int", ["notes"], 5, _ALL, _BOTH, "'notes' must be a list"),
    ("notes-str", ["notes"], "abc", _ALL, _BOTH, "'notes' must be a list"),
    ("notes-ints", ["notes"], [1, 2], _ALL, _BOTH, "'notes' must be a list"),
    ("ragged", ["sigma1", "A"], [["0", "1"], ["0"]], _ALL, _BOTH,
     "'sigma1' has an unparseable entry: row 1"),
    ("string-row", ["sigma1", "A"], ["01", "00"], _ALL, _BOTH,
     "'sigma1' has an unparseable entry: '01' is a string"),
    ("string-vector", ["scenario", "x_start"], "01", ("simulate",), _BOTH,
     "bad scenario: 'x_start': '01' is a string"),
    ("bool-entry", ["sigma1", "A", 0, 1], True, _ALL, _BOTH,
     "'sigma1' has an unparseable entry: Invalid literal for Fraction: "
     "'True'"),
    ("bool-target", ["scenario", "y_target", 0], False, ("simulate",), _BOTH,
     "bad scenario: 'y_target': Invalid literal for Fraction: 'False'"),
    ("null-matrix", ["sigma1", "B"], None, _ALL, _BOTH, "'sigma1'"),
    ("null-entry", ["sigma1", "A", 0, 0], None, _ALL, _BOTH, "'sigma1'"),
    ("nan-entry", ["sigma1", "A", 0, 0], "nan", _ALL, _BOTH, "'sigma1'"),
    ("inf-entry", ["sigma1", "B", 1, 0], "inf", _ALL, _BOTH, "'sigma1'"),
    ("transient-list", ["transient"], ["3/2", "1/2"], _WEIGHTED, _BOTH,
     "'transient'"),
    ("transient-str", ["transient"], "abc", _WEIGHTED, _BOTH, "'transient'"),
    ("string-masses", ["transient"], {"masses": "12"}, _WEIGHTED, _BOTH,
     "'transient' has an unparseable entry: '12' is a string"),
    ("both-weight-forms", ["transient", "masses"], ["1", "1"], _WEIGHTED,
     _BOTH, "'transient' has both masses and alpha/beta"),
    ("scenario-list", ["scenario"], [0, 1], ("simulate",), _BOTH,
     "bad scenario"),
    ("scenario-int", ["scenario"], 5, ("simulate",), _BOTH, "bad scenario"),
    ("huge-entry", ["sigma1", "A", 0, 1], "1e400", _ALL, ("float",),
     "'sigma1' has an entry beyond float range"),
    ("huge-entry", ["sigma1", "A", 0, 1], "1e400", ("simulate",),
     ("rational",), "'sigma1' has an entry beyond float range"),
    ("huge-weight", ["transient", "alpha"], "1e400", _WEIGHTED, ("float",),
     "'transient' has an entry beyond float range"),
    ("huge-weight", ["transient", "beta"], "1e400", ("simulate",),
     ("rational",), "'transient' has an entry beyond float range"),
    ("huge-start", ["scenario", "x_start"], ["1e400", "1"], ("simulate",),
     _BOTH, "'scenario' has an entry beyond float range"),
    ("huge-target", ["scenario", "y_target", 2], "-1e400", ("simulate",),
     _BOTH, "'scenario' has an entry beyond float range"),
    ("nan-te", ["scenario", "te"], "nan", ("simulate",), _BOTH,
     "bad scenario: non-finite"),
    ("inf-te", ["scenario", "te"], "inf", ("simulate",), _BOTH,
     "bad scenario: non-finite"),
    ("nan-t0", ["scenario", "t0"], "nan", ("simulate",), _BOTH,
     "bad scenario: non-finite"),
    ("inf-step", ["scenario", "step"], "inf", ("simulate",), _BOTH,
     "bad scenario: non-finite"),
    ("bool-t0", ["scenario", "t0"], False, ("simulate",), _BOTH,
     "bad scenario: 't0': False is a boolean"),
    ("bool-te", ["scenario", "te"], True, ("simulate",), _BOTH,
     "bad scenario: 'te': True is a boolean"),
    ("bool-step", ["scenario", "step"], True, ("simulate",), _BOTH,
     "bad scenario: 'step': True is a boolean"),
]


@pytest.mark.parametrize("path,value,command,backend,message", [
    pytest.param(path, value, command, backend, message,
                 id=f"{name}-{command}-{backend}")
    for name, path, value, commands, backends, message in _MALFORMED
    for command in commands for backend in backends])
def test_malformed_input_exits_2(capsys, tmp_path, path, value, command,
                                 backend, message):
    # every malformed file is an input error, reported before any output
    doc = base_doc()
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    name, *options = _FILE_COMMANDS[command]
    code, out, err = run(capsys, name, write_case(tmp_path, doc), *options,
                         "--backend", backend,
                         *(["--out", str(tmp_path / "t.csv")]
                           if name == "simulate" else []))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "Traceback" not in err
    assert message in err


@pytest.mark.parametrize("transient", [{"masses": ["1e400", "1"]},
                                       {"alpha": "1e-400", "beta": "1"}])
@pytest.mark.parametrize("command,backend", [("check", "float"),
                                             ("simulate", "float"),
                                             ("simulate", "rational")])
def test_weight_that_rounds_to_zero_exits_2(capsys, tmp_path, transient,
                                            command, backend):
    # in floats the weight would be 0.0 and drop one system from the blend
    doc = base_doc()
    doc["transient"] = transient
    path = write_case(tmp_path, doc)
    code, out, err = run(capsys, command, path, "--backend", backend,
                         *(["--out", str(tmp_path / "t.csv")]
                           if command == "simulate" else []))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "'transient'" in err
    # the rational check computes in Fractions, where the weight is not 0
    assert run(capsys, "check", path)[0] == 0


def test_simulate_refuses_too_many_steps(capsys, tmp_path):
    # 10^9 RK4 steps would need about 48 GB of states; refused at once
    doc = base_doc()
    doc["scenario"]["step"] = 1e-9
    code, out, err = run(capsys, "simulate", write_case(tmp_path, doc),
                         "--out", str(tmp_path / "t.csv"))
    assert (code, out) == (2, "")
    assert "bad scenario: horizon longer than" in err
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("command", [["check", CASE], ["reduce", "--vector",
                                                       "1,1"]])
@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
def test_tol_must_be_positive_and_finite(capsys, command, tol):
    # nan and inf once gave dim C1 = 0, -1 was accepted, and 0 fell back
    # to the default tolerance
    code, out, err = run(capsys, *command, "--tol", tol)
    assert code == 2
    assert out == ""
    assert "--tol: must be a positive, finite number" in err


@pytest.mark.parametrize("backend", ["rational", "float"])
def test_simulate_ignores_tol(capsys, tmp_path, backend):
    # simulate decides at the default tolerance whatever --tol says
    out_path = str(tmp_path / "t.csv")
    runs = []
    for tol in ([], ["--tol", "1e-3"]):
        code, out, _ = run(capsys, "simulate", CASE, "--steer", "--json",
                           "--backend", backend, "--out", out_path, *tol)
        runs.append((code, out, Path(out_path).read_text()))
    assert runs[0][0] == 0
    assert runs[1] == runs[0]


@pytest.mark.parametrize("backend", ["rational", "float"])
def test_simulate_refuses_beyond_double_precision(capsys, tmp_path, backend):
    # (11, 13), n = 143: the steering map's numerical rank is below the
    # 23 dimensions of C, so the run refuses with exit 3
    rng = np.random.default_rng([0, 11, 13, 0])

    def system(dim):
        return {"A": rng.integers(-3, 4, size=(dim, dim)).astype(str).tolist(),
                "B": rng.integers(-3, 4, size=(dim, 1)).astype(str).tolist()}

    doc = {"sigma1": system(11), "sigma2": system(13),
           "transient": {"masses": ["1", "1"]},
           "scenario": {"t0": 0, "te": 1,
                        "x_start": rng.integers(-3, 4, 11).astype(str).tolist(),
                        "y_target": rng.integers(-3, 4, 13).astype(str).tolist()}}
    out_path = tmp_path / "t.csv"
    code, out, err = run(capsys, "simulate", write_case(tmp_path, doc),
                         "--steer", "--backend", backend, "--out",
                         str(out_path))
    assert code == 3
    assert out == ""
    assert err.startswith("numerical failure: steering map has numerical "
                          "rank ")
    assert "below dim C = 23" in err
    assert not out_path.exists()


@pytest.mark.parametrize("backend", ["rational", "float"])
def test_unreachable_simulate_names_the_realization_check(capsys, tmp_path,
                                                          backend):
    doc = {
        "sigma1": {"A": [["0", "0"], ["0", "0"]], "B": [["1"], ["0"]]},
        "sigma2": {"A": [["0", "0"], ["0", "0"]], "B": [["1"], ["0"]]},
        "transient": {"alpha": "1", "beta": "1"},
        "scenario": {"t0": 0, "te": 1, "x_start": ["0", "0"],
                     "y_target": ["0", "1"]},
    }
    code, out, err = run(capsys, "simulate", write_case(tmp_path, doc),
                         "--steer", "--backend", backend)
    assert code == 1
    assert out == ""
    assert err.startswith("unreachable target: required displacement leaves "
                          "the controllable subspace")
    assert "realizable=" in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_simulate_overflowing_free_response_exits_3(capsys, tmp_path):
    # e^800 overflows double precision: a numerical failure, not a miss
    doc = base_doc()
    doc["sigma1"]["A"] = [["800", "1"], ["0", "0"]]
    code, out, err = run(capsys, "simulate", write_case(tmp_path, doc),
                         "--steer", "--out", str(tmp_path / "t.csv"))
    assert code == 3
    assert err == "numerical failure: free response overflows\n"


@pytest.mark.parametrize("argv, message", [
    (["simulate", "{case}", "--out", "{dir}/t.csv"], "trajectory overflows"),
    (["ctrb", "{case}", "--blend", "--backend", "float", "--json"],
     "Krylov matrix overflows"),
    (["check", "{case}", "--backend", "float"], "rank test overflows"),
    (["ctrb", "{case}", "--system", "sigma1", "--backend", "float"],
     "rank test overflows"),
    (["check", "{big_B}", "--backend", "float"], "rank test overflows"),
    (["ctrb", "{big_B}", "--backend", "float"], "rank test overflows"),
    (["ctrb", "{big_B}", "--blend", "--backend", "float"],
     "rank test overflows")])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_float_run_exits_3(capsys, tmp_path, argv, message):
    # with sigma1's A[0][1] = -1e300 ({case}) the unsteered run, the
    # blend's float Krylov matrix and the staircase's residual norms
    # overflow, and with its B[0][0] = 1e300 ({big_B}) the residual
    # norms do: a numerical failure, with numpy's overflow warnings as
    # errors too, and no output
    doc = base_doc()
    doc["sigma1"]["A"][0][1] = "-1e300"
    case = write_case(tmp_path, doc)
    doc = base_doc()
    doc["sigma1"]["B"][0][0] = "1e300"
    big_B = write_case(tmp_path, doc, "big_B.json")
    argv = [a.replace("{case}", case).replace("{big_B}", big_B)
            .replace("{dir}", str(tmp_path)) for a in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == f"numerical failure: {message}\n"
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("backend", ["rational", "float"])
def test_check_leaves_the_blend_unbuilt(capsys, monkeypatch, backend):
    import dimvar.cli as cli
    models, build = [], cli.build_transient_model

    def kept(*args, **kwargs):
        models.append(build(*args, **kwargs))
        return models[-1]

    monkeypatch.setattr(cli, "build_transient_model", kept)
    code, _, _ = run(capsys, "check", CASE, "--backend", backend)
    assert code == 0 and len(models) == 1
    assert "base" not in models[0].__dict__


@pytest.mark.parametrize("backend", ["rational", "float"])
def test_check_decides_each_subsystem_subspace_once(capsys, monkeypatch,
                                                    backend):
    # one krylov_pivots each for the 2- and 3-dimensional subsystems;
    # the 4-dimensional segment system of the blend is asked once of the
    # modular certificate, which proves C_z = R^4 on exact input, and
    # goes to krylov_pivots on floats
    import dimvar.realization as realization
    calls, certified = [], []
    inner, certify = realization.krylov_pivots, realization._certify_full_krylov

    def counted(A, B, tol):
        calls.append(A.shape[0])
        return inner(A, B, tol)

    def asked(A, B, scale):
        certified.append((A.shape[0], certify(A, B, scale)))
        return certified[-1][1]

    monkeypatch.setattr(realization, "krylov_pivots", counted)
    monkeypatch.setattr(realization, "_certify_full_krylov", asked)
    code, out, _ = run(capsys, "check", CASE, "--backend", backend)
    assert code == 0
    if backend == "rational":
        assert sorted(calls) == [2, 3] and certified == [(4, True)]
    else:
        assert sorted(calls) == [2, 3, 4] and certified == [(4, False)]


@pytest.mark.parametrize("argv, code", [
    (["check", CASE], 0),
    (["check", CASE, "--backend", "float"], 0),
    (["ctrb", CASE], 0),
    (["ctrb", CASE, "--blend"], 0),
    (["blend", CASE], 0),
    (["reduce", "--vector", "1,1,2,2"], 0),
    (["simulate", CASE], 1),
    (["simulate", CASE, "--steer"], 0),
])
def test_cli_never_loads_scipy(tmp_path, argv, code):
    # a fresh interpreter: no command imports scipy, since steering
    # solves by numpy's QR
    cmd = argv + (["--out", str(tmp_path / "t.csv")]
                  if argv[0] == "simulate" else [])
    script = (
        "import contextlib, io, sys\n"
        "from dimvar.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main({cmd!r})\n"
        "print(code, 'scipy' in sys.modules)\n")
    r = subprocess.run([sys.executable, "-c", script], capture_output=True,
                       text=True, check=True)
    assert r.stdout.split() == [str(code), "False"]


def test_cli_imports_only_numpy_beyond_the_standard_library():
    # import cost is gated: importing the CLI in a fresh interpreter
    # loads no third-party module but numpy (the modules the interpreter
    # loaded at startup, such as site's .pth hooks, are not counted)
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import dimvar.cli\n"
        "top = {m.split('.')[0] for m in set(sys.modules) - before}\n"
        "print(*sorted(top - set(sys.stdlib_module_names)))\n")
    r = subprocess.run([sys.executable, "-c", script], capture_output=True,
                       text=True, check=True)
    assert r.stdout.split() == ["dimvar", "numpy"]


def _without(*path):
    """An edit of a case document that deletes the field at ``path``."""
    def edit(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        del target[path[-1]]
        return doc
    return edit


def _three_row_B(doc):
    doc["sigma1"]["B"] = [["0"], ["1"], ["0"]]
    return doc


@pytest.mark.parametrize("edit, command, message", [
    pytest.param(lambda doc: [doc], "check", "top level must be an object",
                 id="top-level-list"),
    pytest.param(_without("sigma1", "B"), "check",
                 "'sigma1' is missing field 'B'", id="missing-B"),
    pytest.param(_three_row_B, "check", "sigma1: B has 3 rows, A has 2",
                 id="B-rows"),
    pytest.param(_without("transient", "beta"), "check",
                 "'transient' is missing field 'beta'", id="missing-beta"),
    pytest.param(_without("scenario"), "simulate",
                 "missing field 'scenario'", id="missing-scenario"),
    pytest.param(_without("scenario", "t0"), "simulate",
                 "'scenario' is missing field 't0'", id="missing-t0"),
])
def test_incomplete_case_exits_2(capsys, tmp_path, edit, command, message):
    path = write_case(tmp_path, edit(base_doc()))
    code, out, err = run(capsys, command, path,
                         *(["--out", str(tmp_path / "t.csv")]
                           if command == "simulate" else []))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err


def test_simulate_unwritable_out_exits_2(capsys, tmp_path):
    out_path = tmp_path / "missing" / "t.csv"
    code, out, err = run(capsys, "simulate", CASE, "--steer", "--out",
                         str(out_path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {out_path}: ")
    assert not out_path.parent.exists()


def test_tol_must_be_a_number(capsys):
    code, out, err = run(capsys, "check", CASE, "--tol", "abc")
    assert (code, out) == (2, "")
    assert "--tol: must be a positive, finite number, got 'abc'" in err


def _with(*path_and_value):
    """An edit of a case document that sets the field at a path."""
    *path, value = path_and_value

    def edit(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        return doc
    return edit


def _two_faults(doc):
    """sigma1 beyond float range, and sigma2 unparseable."""
    doc["sigma1"]["A"][0][1] = "1e400"
    doc["sigma2"]["A"][0][0] = "x"
    return doc


def _float_error(value):
    """Python's message for float(value), which differs by version."""
    try:
        float(value)
    except TypeError as exc:
        return str(exc)


_FLOAT_RANGE = "has an entry beyond float range"
_INPUT_ERRORS = [
    # id, edit of example1 (None: no file is written; a str is written
    # as the file's text), argv, the last line of stderr; {case} is the
    # edited file and {dir} the directory it is written to
    ("missing-file", None, ["check", "{case}"],
     "error: cannot read {case}: [Errno 2] No such file or directory: "
     "'{case}'"),
    ("invalid-json", lambda doc: "{not json", ["check", "{case}"],
     "error: {case}: invalid JSON at line 1: Expecting property name "
     "enclosed in double quotes"),
    ("top-level-list", lambda doc: [doc], ["check", "{case}"],
     "error: {case}: top level must be an object"),
    ("notes-int", _with("notes", 5), ["blend", "{case}"],
     "error: {case}: 'notes' must be a list of strings"),
    ("missing-sigma1", _without("sigma1"), ["check", "{case}"],
     "error: {case}: missing field 'sigma1'"),
    ("missing-sigma2", _without("sigma2"),
     ["ctrb", "{case}", "--system", "sigma2"],
     "error: {case}: missing field 'sigma2'"),
    ("missing-transient", _without("transient"), ["blend", "{case}"],
     "error: {case}: missing field 'transient'"),
    ("missing-scenario", _without("scenario"),
     ["simulate", "{case}", "--out", "{dir}/t.csv"],
     "error: {case}: missing field 'scenario'"),
    ("missing-B", _without("sigma1", "B"), ["check", "{case}"],
     "error: {case}: 'sigma1' is missing field 'B'"),
    ("missing-beta", _without("transient", "beta"), ["check", "{case}"],
     "error: {case}: 'transient' is missing field 'beta'"),
    ("missing-t0", _without("scenario", "t0"),
     ["simulate", "{case}", "--out", "{dir}/t.csv"],
     "error: {case}: 'scenario' is missing field 't0'"),
    ("zero-denominator", _with("sigma1", "A", 0, 0, "1/0"),
     ["check", "{case}"],
     "error: {case}: 'sigma1' has an unparseable entry: Fraction(1, 0)"),
    ("ragged", _with("sigma1", "A", [["0", "1"], ["0"]]),
     ["ctrb", "{case}"],
     "error: {case}: 'sigma1' has an unparseable entry: row 1 has 1 "
     "entries, row 0 has 2"),
    ("A-not-square", _with("sigma1", "A", [["0", "1"]]), ["check", "{case}"],
     "error: {case}: sigma1: A must be square"),
    ("B-rows", _three_row_B, ["check", "{case}"],
     "error: {case}: sigma1: B has 3 rows, A has 2"),
    ("transient-list", _with("transient", ["3/2", "1/2"]),
     ["check", "{case}"],
     "error: {case}: 'transient' has an unparseable entry: list indices "
     "must be integers or slices, not str"),
    ("nonpositive-weight", _with("transient", "alpha", "0"),
     ["check", "{case}"],
     "error: {case}: transient weights must be strictly positive"),
    ("weight-0-in-floats", _with("transient", "alpha", "1e-400"),
     ["check", "{case}", "--backend", "float"],
     "error: {case}: 'transient' has a weight that is 0 in floats"),
    ("sigma1-float-range", _with("sigma1", "A", 0, 1, "1e400"),
     ["check", "{case}", "--backend", "float"],
     f"error: {{case}}: 'sigma1' {_FLOAT_RANGE}"),
    ("sigma2-float-range", _with("sigma2", "A", 0, 0, "1e400"),
     ["ctrb", "{case}", "--system", "sigma2", "--backend", "float"],
     f"error: {{case}}: 'sigma2' {_FLOAT_RANGE}"),
    ("transient-float-range", _with("transient", "beta", "1e400"),
     ["simulate", "{case}", "--out", "{dir}/t.csv"],
     f"error: {{case}}: 'transient' {_FLOAT_RANGE}"),
    # the first faulty system is reported, whichever backend parses it
    ("two-faults-check-float", _two_faults, ["check", "{case}", "--backend",
                                             "float"],
     f"error: {{case}}: 'sigma1' {_FLOAT_RANGE}"),
    ("two-faults-simulate", _two_faults,
     ["simulate", "{case}", "--out", "{dir}/t.csv"],
     f"error: {{case}}: 'sigma1' {_FLOAT_RANGE}"),
    ("scenario-float-range", _with("scenario", "x_start", ["1e400", "1"]),
     ["simulate", "{case}", "--out", "{dir}/t.csv"],
     f"error: {{case}}: 'scenario' {_FLOAT_RANGE}"),
    ("scenario-int", _with("scenario", 5),
     ["simulate", "{case}", "--out", "{dir}/t.csv"],
     "error: {case}: bad scenario: 'int' object is not subscriptable"),
    ("empty-horizon", _with("scenario", "te", 0.0),
     ["simulate", "{case}", "--out", "{dir}/t.csv"],
     "error: {case}: bad scenario: empty horizon: te=0.0 <= t0=0.0"),
    ("bool-t0", _with("scenario", "t0", False),
     ["simulate", "{case}", "--out", "{dir}/t.csv"],
     "error: {case}: bad scenario: 't0': False is a boolean, not a number"),
    ("string-te", _with("scenario", "te", "abc"),
     ["simulate", "{case}", "--out", "{dir}/t.csv"],
     "error: {case}: bad scenario: 'te': could not convert string to "
     "float: 'abc'"),
    ("list-step", _with("scenario", "step", []),
     ["simulate", "{case}", "--out", "{dir}/t.csv"],
     f"error: {{case}}: bad scenario: 'step': {_float_error([])}"),
    ("string-x_start", _with("scenario", "x_start", "01"),
     ["simulate", "{case}", "--out", "{dir}/t.csv"],
     "error: {case}: bad scenario: 'x_start': '01' is a string, not a "
     "list of scalars"),
    ("long-horizon", _with("scenario", "step", 1e-9),
     ["simulate", "{case}", "--out", "{dir}/t.csv"],
     "error: {case}: bad scenario: horizon longer than 1000000 steps"),
    ("both-weight-forms", _with("transient", "masses", ["1", "1"]),
     ["check", "{case}"],
     "error: {case}: 'transient' has both masses and alpha/beta"),
    ("x_start-length", _with("sigma1", base_doc()["sigma2"]),
     ["simulate", "{case}", "--out", "{dir}/t.csv"],
     "error: {case}: bad scenario: dimension mismatch between sigma1 and "
     "x_start"),
    ("y_target-length", _with("sigma2", base_doc()["sigma1"]),
     ["simulate", "{case}", "--out", "{dir}/t.csv"],
     "error: {case}: bad scenario: dimension mismatch between sigma2 and "
     "y_target"),
    ("unknown-system", None, ["ctrb", CASE, "--system", "sigma3"],
     "error: unknown system name: 'sigma3' (expected sigma1 or sigma2)"),
    ("unparseable-vector", None, ["reduce", "--vector", "1,x"],
     "error: cannot parse vector: Invalid literal for Fraction: 'x'"),
    ("vector-float-range", None,
     ["reduce", "--vector", "1e400", "--backend", "float"],
     "error: vector has an entry beyond float range"),
    ("unwritable-out", None,
     ["simulate", CASE, "--out", "{dir}/missing/t.csv"],
     "error: cannot write {dir}/missing/t.csv: [Errno 2] No such file or "
     "directory: '{dir}/missing/t.csv'"),
    ("tol-not-a-number", None, ["check", CASE, "--tol", "abc"],
     "dimvar check: error: argument --tol: must be a positive, finite "
     "number, got 'abc'"),
    # a decimal exponent beyond 4300 is refused before 10**exponent is built
    ("huge-exponent-sigma1", _with("sigma1", "A", 0, 0, "1e999999999"),
     ["check", "{case}"],
     "error: {case}: 'sigma1' has an unparseable entry: decimal exponent "
     "beyond 4300 in '1e999999999'"),
    ("huge-exponent-weight", _with("transient", "beta", "1e-999999999"),
     ["blend", "{case}"],
     "error: {case}: 'transient' has an unparseable entry: decimal "
     "exponent beyond 4300 in '1e-999999999'"),
    ("huge-exponent-scenario",
     _with("scenario", "x_start", ["0", "1E+999999999"]),
     ["simulate", "{case}", "--out", "{dir}/t.csv"],
     "error: {case}: bad scenario: 'x_start': decimal exponent beyond 4300 "
     "in '1E+999999999'"),
    ("huge-exponent-vector", None, ["reduce", "--vector", "1,1e999999999"],
     "error: cannot parse vector: decimal exponent beyond 4300 in "
     "'1e999999999'"),
]


@pytest.mark.parametrize("edit, argv, line", [
    pytest.param(*row[1:], id=row[0]) for row in _INPUT_ERRORS])
def test_input_error_messages(capsys, tmp_path, edit, argv, line):
    # every input error exits 2 before any output, with this message;
    # argparse puts its usage before its own
    case = tmp_path / "case.json"
    if edit is not None:
        doc = edit(base_doc())
        case.write_text(doc if isinstance(doc, str) else json.dumps(doc))

    def fill(text):
        return text.replace("{case}", str(case)).replace("{dir}", str(tmp_path))

    start = time.perf_counter()
    code, out, err = run(capsys, *map(fill, argv))
    assert (code, out) == (2, "")
    assert err == fill(line) + "\n" or (
        err.startswith("usage: ") and err.endswith("\n" + fill(line) + "\n"))
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("transient", [
    pytest.param({"alpha": "3/2", "beta": "1/2"}, id="alpha-beta"),
    pytest.param({"masses": ["1", "2"]}, id="masses"),
    pytest.param({"masses": ["1", "1"], "alpha": "1", "beta": "1"},
                 id="both-forms"),
    pytest.param({"masses": "12"}, id="string-masses"),
    pytest.param({"masses": ["1", "1", "1"]}, id="three-masses"),
    pytest.param({"masses": ["1", "0"]}, id="zero-weight"),
    pytest.param({"alpha": "1"}, id="missing-beta"),
    pytest.param({"alpha": True, "beta": "1"}, id="boolean")])
def test_case_file_and_api_read_weights_alike(ex1_s1, ex1_s2, transient):
    # a 'transient' section is refused exactly when build_transient_model
    # refuses its fields as keyword arguments, and otherwise both give
    # the same weights
    from dimvar import build_transient_model, cli
    try:
        weights = cli._section({"transient": transient}, "transient",
                               "case.json", cli._weights)
    except cli.InputError:
        with pytest.raises(ValueError):
            build_transient_model(ex1_s1, ex1_s2, **transient)
    else:
        model = build_transient_model(ex1_s1, ex1_s2, **transient)
        assert model.weights == (weights["alpha"], weights["beta"])
        assert all(isinstance(w, Fraction) for w in model.weights)


# where example1 is mutated, and what a field may become
_MUTABLE = [(), ("sigma1",), ("sigma1", "A"), ("sigma1", "A", 0),
            ("sigma1", "A", 0, 1), ("sigma1", "B"), ("sigma1", "B", 1, 0),
            ("sigma2", "A"), ("sigma2", "A", 2, 1), ("sigma2", "B", 1),
            ("transient",), ("transient", "alpha"), ("transient", "beta"),
            ("transient", "masses"), ("scenario",), ("scenario", "t0"),
            ("scenario", "te"), ("scenario", "x_start"),
            ("scenario", "x_start", 0), ("scenario", "y_target"),
            ("scenario", "y_target", 2), ("scenario", "step"),
            ("scenario", "quad_steps"), ("notes",), ("notes", 0)]
_VALUES = [None, True, False, "abc", "", [], {}, [[1], [1, 2]], [[[1]]],
           [["1", "2"]], float("inf"), 10**400, "nan", "inf", "-inf", "1/0",
           1e-300, "1e-300", 1e300, "-1e300", "0", 0, -1, "-3/2", 2.5,
           {"alpha": "1"}]
_COMMANDS = [["check"], ["ctrb"], ["ctrb", "--system", "sigma2"],
             ["ctrb", "--blend"], ["blend"], ["simulate"],
             ["simulate", "--steer"], ["reduce"]]


def _mutated(rng):
    """example1 with one or two fields replaced, and a description."""
    doc, done = base_doc(), []
    for _ in range(rng.choice((1, 2))):
        path, value = rng.choice(_MUTABLE), rng.choice(_VALUES)
        if not path:
            doc = value
        else:
            parent = doc
            try:
                for key in path[:-1]:
                    parent = parent[key]
                parent[path[-1]]     # replace only what exists
                parent[path[-1]] = value
            except (KeyError, IndexError, TypeError):
                continue
        done.append((path, value))
    return doc, done


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_mutated_inputs_never_escape_main(capsys, tmp_path):
    # seeded mutations of example1's fields, through every subcommand on
    # both backends: a usage or input error exits 2 with "error: ...",
    # a numerical failure exits 3, and no exception escapes main, also
    # where entries near 1e300 overflow float products with numpy's
    # overflow warnings as errors
    import random
    rng = random.Random(6)
    out_path = str(tmp_path / "t.csv")
    codes = set()
    for case in range(300):
        doc, done = _mutated(rng)
        command = rng.choice(_COMMANDS)
        argv = command + ["--backend", rng.choice(("rational", "float"))]
        argv += ["--json"] if rng.random() < 0.5 else []
        if command[0] == "reduce":
            text = json.dumps(done[-1][1] if done else 1).strip("[]")
            argv.append(f"--vector={text}")
        else:
            path = tmp_path / "case.json"
            path.write_text(json.dumps(doc))
            argv.insert(1, str(path))
        if command[0] == "simulate":
            argv += ["--out", out_path]
        try:
            code = main(argv)
        except Exception as exc:
            pytest.fail(f"case {case}: {argv} on {done} raised {exc!r}")
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3), (case, argv, done)
        if code == 2:
            assert err.startswith("error: "), (case, argv, done, err)
        codes.add(code)
    assert codes == {0, 1, 2, 3}
