"""End-to-end acceptance checks.

Each test covers one headline capability and prints a single pass/fail
line so a full run doubles as a checklist.  Tolerances are pinned here
and intentionally not imported from the library.
"""

import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import rand_rational_vector, rand_system
from dimvar import (LinSys, Scenario, build_transient_model,
                    check_modeling_condition, check_realization, ctrb_matrix,
                    ctrb_subspace, j_matrix, kalman_decomposition, kron,
                    lift_system, mat, mat_equivalent, min_energy_control,
                    ones_vector, rank, rk4_integrate, run_transient_scenario,
                    second_stp, stp_action, vec, vec_add, vec_equivalent)
from dimvar.numerics import SubspaceBasis, in_span_columns, inverse, to_float

ROOT = Path(__file__).resolve().parent.parent
CASE = str(ROOT / "cases" / "example1.json")
GOLDEN = Path(__file__).resolve().parent / "golden"

S1 = LinSys("sigma1", mat([[0, 1], [0, 0]]), mat([[0], [1]]))
S2 = LinSys("sigma2", mat([[0, 0, 1], [0, 0, 0], [0, 1, 0]]),
            mat([[0], [1], [0]]))


def report(num, ok, label):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {label}")
    assert ok, f"criterion {num} failed: {label}"


def test_criterion_01_blend_matrices_exact():
    model = build_transient_model(S1, S2, alpha=Fraction(3, 2),
                                  beta=Fraction(1, 2))
    A_expect = mat([
        ["0", "0", "0", "1/2", "3/4", "3/4"],
        ["0", "0", "0", "1/2", "3/4", "3/4"],
        ["0", "0", "0", "1/2", "1/2", "1/2"],
        ["0", "0", "0", "0", "0", "0"],
        ["0", "0", "1/4", "1/4", "0", "0"],
        ["0", "0", "1/4", "1/4", "0", "0"]])
    ok = (np.array_equal(model.base.A, A_expect)
          and model.B1_star[:, 0].tolist() == [0, 0, 0] + [Fraction(3, 2)] * 3
          and model.B2_star[:, 0].tolist() == [0, 0, Fraction(1, 2),
                                               Fraction(1, 2), 0, 0]
          and all(isinstance(x, Fraction) for x in model.base.A.flat))
    report(1, ok, "blend model matrices exact on dimension 6")


def test_criterion_02_blend_ctrb_matrix():
    model = build_transient_model(S1, S2, alpha=Fraction(3, 2),
                                  beta=Fraction(1, 2))
    A = model.base.A
    C = np.hstack([ctrb_matrix(A, model.B1_star),
                   ctrb_matrix(A, model.B2_star)])
    # independent recomputation, column by column
    expect_cols = []
    for Bj in (model.B1_star, model.B2_star):
        col = Bj[:, 0]
        for _ in range(6):
            expect_cols.append(col)
            col = A @ col
    ok = C.shape == (6, 12)
    ok = ok and all(np.array_equal(C[:, j], expect_cols[j]) for j in range(12))
    ok = ok and C[2, 1] == Fraction(9, 4)
    ok = ok and rank(C) == 4
    listed = mat([["0", "3", "0", "1/4"],
                  ["0", "3", "0", "1/4"],
                  ["0", "9/4", "1/2", "1/4"],
                  ["3/2", "0", "1/2", "0"],
                  ["3/2", "3/8", "0", "1/4"],
                  ["3/2", "3/8", "0", "1/4"]])
    Cz = ctrb_subspace(A, model.base.B).basis
    ok = ok and all(in_span_columns(Cz, listed)) and all(
        in_span_columns(SubspaceBasis(6, listed), Cz.basis))
    report(2, ok, "6x12 blend controllability matrix exact, (3,2)=9/4, "
                  "rank 4, span matches")


def test_criterion_03_realization_witness():
    rep = check_realization(S1, S2)
    ok = (rep.realizable and rep.q == 3 and rep.witness.dim == 1
          and rep.witness.basis[:, 0].tolist() == [0, 0, 1])
    report(3, ok, "realization condition holds with witness [0, 0, 1]")


def test_criterion_04_modeling_condition_example():
    model = build_transient_model(S1, S2, alpha=Fraction(3, 2),
                                  beta=Fraction(1, 2))
    mc = check_modeling_condition(S1, S2, model)
    ok = mc.holds and len(mc.tested_vectors) == 5 and mc.dim_Cz == 4
    ok = ok and all(b for _, b in mc.tested_vectors)
    report(4, ok, "all 5 lifted basis vectors lie in the blend's "
                  "controllable subspace")


def test_criterion_05_modeling_condition_random():
    rng = random.Random(20240901)
    mus = [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]
    t_start = time.monotonic()
    ok = True
    for i in range(100):
        s1 = rand_system(rng, rng.randint(1, 3))
        s2 = rand_system(rng, rng.randint(1, 3))
        mu = mus[i % 3]
        model = build_transient_model(s1, s2, alpha=mu, beta=1 - mu)
        if not check_modeling_condition(s1, s2, model).holds:
            ok = False
            break
    elapsed = time.monotonic() - t_start
    ok = ok and elapsed < 30.0
    report(5, ok, f"modeling condition holds on 100 random convex blends "
                  f"({elapsed:.1f}s)")


def test_criterion_06_lifting_preserves_rank():
    rng = random.Random(20240902)
    ok = True
    for _ in range(200):
        s = rand_system(rng, rng.randint(1, 4), rng.randint(1, 2))
        k = rng.randint(1, 3)
        lifted = lift_system(s, s.dim * k)
        if rank(ctrb_matrix(lifted.A, lifted.B)) != rank(ctrb_matrix(s.A, s.B)):
            ok = False
            break
    report(6, ok, "lifting preserves controllability rank on 200 random "
                  "systems")


def test_criterion_07_mixdim_class_laws():
    rng = random.Random(20240903)
    ok = True
    for _ in range(200):  # equivalence + addition well-defined on classes
        x = rand_rational_vector(rng, rng.randint(1, 4))
        y = rand_rational_vector(rng, rng.randint(1, 4))
        a, b = rng.randint(1, 3), rng.randint(1, 3)
        xa, yb = kron(x, ones_vector(a)), kron(y, ones_vector(b))
        ok = ok and vec_equivalent(xa, x) and vec_equivalent(x, xa)
        ok = ok and vec_equivalent(vec_add(xa, yb), vec_add(x, y))
        if not ok:
            break
    from conftest import rand_rational_matrix
    for _ in range(200):  # product and action well-defined on classes
        A = rand_rational_matrix(rng, rng.randint(1, 3), rng.randint(1, 3))
        B = rand_rational_matrix(rng, rng.randint(1, 3), rng.randint(1, 3))
        x = rand_rational_vector(rng, rng.randint(1, 4))
        a, b = rng.randint(1, 2), rng.randint(1, 2)
        lifted = second_stp(kron(A, j_matrix(a)), kron(B, j_matrix(b)))
        ok = ok and mat_equivalent(lifted, second_stp(A, B))
        acted = stp_action(kron(A, j_matrix(a)), kron(x, ones_vector(b)))
        ok = ok and vec_equivalent(acted, stp_action(A, x))
        if not ok:
            break
    report(7, ok, "mixed-dimension operations are class-consistent "
                  "(200 cases per law)")


def test_criterion_08_steering_accuracy():
    t_start = time.monotonic()
    rng = np.random.default_rng(20240904)
    ok = True
    done = 0
    while done < 50:
        n = int(rng.integers(1, 5))
        A = rng.uniform(-1, 1, (n, n))
        B = rng.uniform(-1, 1, (n, int(rng.integers(1, 3))))
        C = np.hstack([np.linalg.matrix_power(A, k) @ B for k in range(n)])
        sv = np.linalg.svd(C, compute_uv=False)
        if sv.min() < 0.1 * sv.max():
            continue
        z0 = rng.uniform(-1, 1, n)
        zt = rng.uniform(-1, 1, n)
        u = min_energy_control(A, B, z0, zt, 0.0, 1.0)
        tr = rk4_integrate(A, B, u, z0, 0.0, 1.0, 1e-3)
        err = np.max(np.abs(tr.states[-1] - zt))
        ok = ok and err <= 1e-6 * (1 + np.max(np.abs(zt)))
        done += 1
    sc = Scenario(0.0, 1.0, vec([0, 1]), vec([1, 1, 1]))
    traj, _ = run_transient_scenario(S1, S2, sc, alpha="3/2", beta="1/2")
    ok = ok and traj.target_class_error <= 1e-5
    elapsed = time.monotonic() - t_start
    ok = ok and elapsed < 60.0
    report(8, ok, f"minimum-energy steering accurate on 50 random systems "
                  f"and the class target ({elapsed:.1f}s)")


def test_criterion_09_kalman_structure():
    rng = random.Random(20240905)
    ok = True
    for _ in range(100):  # exact zero lower-left block, 100 random systems
        s = rand_system(rng, rng.randint(1, 4), rng.randint(1, 2))
        kd = kalman_decomposition(s.A, s.B)
        k = kd.ctrb_dim
        Abar = kd.T @ s.A @ inverse(kd.T)
        Bbar = kd.T @ s.B
        ok = ok and all(Abar[i, j] == 0
                        for i in range(k, s.dim) for j in range(k))
        ok = ok and all(x == 0 for x in Bbar[k:, :].flat)
        if not ok:
            break
    # uncontrollable coordinates evolve autonomously under any input
    A = np.diag([0.5, -2.0])
    B = np.array([[1.0], [0.0]])
    u = lambda t: np.array([3.0 * math.exp(0.5 * (1.0 - t))])
    tr = rk4_integrate(A, B, u, np.array([1.0, 1.0]), 0.0, 1.0, 1e-3)
    ok = ok and abs(tr.states[-1, 1] - math.exp(-2.0)) <= 1e-8
    report(9, ok, "Kalman decomposition exact; uncontrollable block "
                  "autonomous")


def test_criterion_10_cli_contract(tmp_path):
    ok = True
    for cmd, golden in (("blend", "blend_example1.txt"),
                        ("check", "check_example1.txt")):
        r = subprocess.run([sys.executable, "-m", "dimvar.cli", cmd, CASE],
                           capture_output=True, text=True)
        ok = ok and r.returncode == 0
        ok = ok and r.stdout == (GOLDEN / golden).read_text()
    # exit-code contract: 1 = condition fails, 2 = input error
    with open(CASE) as fh:
        doc = json.load(fh)
    doc["sigma2"]["B"] = [["0"], ["0"], ["0"]]
    failing = tmp_path / "failing.json"
    failing.write_text(json.dumps(doc))
    r = subprocess.run([sys.executable, "-m", "dimvar.cli", "check",
                        str(failing)], capture_output=True, text=True)
    ok = ok and r.returncode == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    r = subprocess.run([sys.executable, "-m", "dimvar.cli", "check",
                        str(bad)], capture_output=True, text=True)
    ok = ok and r.returncode == 2
    r = subprocess.run([sys.executable, "-m", "dimvar.cli", "simulate", CASE,
                        "--steer", "--out", str(tmp_path / "t.csv")],
                       capture_output=True, text=True)
    ok = ok and r.returncode == 0 and (tmp_path / "t.csv").exists()
    report(10, ok, "CLI output byte-identical to golden files; exit codes "
                   "0/1/2 honored")
