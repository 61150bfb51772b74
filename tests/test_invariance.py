"""A feedback-invariance oracle for the transient check.

A controllable subspace does not change under state feedback A -> A + BF
or an invertible input change B -> BG (Wonham, Linear Multivariable
Control, ch. 1).  The blend inherits this: alpha (A1 + B1 F1) lifted is
alpha A1 lifted plus the blend's own input alpha B1 (x) 1_k times the
lifted gain F1 (x) 1_k^T / k, and likewise for sigma2.  So C1, C2 and
C_z, and with them both decisions and every dimension, are unchanged
under independent (F_i, G_i) per subsystem; scaling both weights by one
c > 0 changes no span either.  Each backend's transformed runs are
compared with its own run on the given pair, so the oracle needs no
exact reference; every float run is also compared with the exact run on
the same pair, given or transformed.
"""

import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from dimvar import LinSys, build_transient_model, check_transient

CASES = Path(__file__).resolve().parents[1] / "cases"
PAIRS = [(2, 3), (3, 4), (3, 5), (4, 6), (5, 7), (7, 11)]


def _unimodular(rng, m):
    """A seeded integer m x m matrix of determinant +-1: a signed
    permutation times unit triangular factors."""
    G = np.eye(m, dtype=np.int64)[rng.permutation(m)] * rng.choice([-1, 1], m)
    for _ in range(2):
        U = np.triu(rng.integers(-3, 4, (m, m)), 1) + np.eye(m, dtype=np.int64)
        G = G @ (U if rng.random() < 0.5 else U.T)
    return G


def _systems(exact, *pairs):
    """LinSys for each (name, A, B) of integer arrays, on one backend."""
    conv = (np.vectorize(Fraction, otypes=[object]) if exact
            else (lambda M: np.asarray(M, dtype=float)))
    return [LinSys(name, conv(A), conv(B)) for name, A, B in pairs]


def _corpus():
    """(p, q, [(A1, B1), (A2, B2)]) integer pairs: seeded random ones
    from (2,3) to (7,11) with one or two inputs each, dense or with
    about two thirds of the entries zero, and `cases/modeling_fails.json`,
    whose modeling condition fails."""
    for p, q in PAIRS:
        for inputs in ((1, 1), (2, 1), (1, 2), (2, 2)):
            for sparse in (False, True):
                rng = np.random.default_rng([17, p, q, *inputs, sparse])
                pair = []
                for d, m in zip((p, q), inputs):
                    A, B = rng.integers(-3, 4, (d, d)), rng.integers(-3, 4, (d, m))
                    if sparse:
                        A *= rng.random((d, d)) < 0.35
                        B *= rng.random((d, m)) < 0.5
                    pair.append((A, B))
                yield rng, pair
    doc = json.loads((CASES / "modeling_fails.json").read_text())
    yield np.random.default_rng(17), [
        tuple(np.array(doc[k][x], dtype=object).astype(int) for x in "AB")
        for k in ("sigma1", "sigma2")]


def _decisions(s1, s2, **weights):
    real, modeling = check_transient(s1, s2, build_transient_model(s1, s2, **weights))
    return (real.realizable, modeling.holds, real.dim_C1, real.dim_C2,
            modeling.dim_Cz)


@pytest.mark.parametrize("exact", [True, False])
def test_decisions_are_invariant_under_feedback_and_input_change(exact):
    outcomes, runs = set(), 0
    for rng, pair in _corpus():
        given = [("s", A, B) for A, B in pair]
        plain = _decisions(*_systems(exact, *given), masses=(1, 1))
        if not exact:
            # floats reach the exact decisions on the given pairs; exact
            # C_z = R^s is certified without krylov_pivots, so a fault
            # that every run of krylov_pivots shares still shows here
            assert plain == _decisions(*_systems(True, *given), masses=(1, 1))
        for _ in range(2):
            moved = []
            for A, B in pair:
                F = rng.integers(-20, 21, (B.shape[1], len(A)))
                moved.append(("s", A + B @ F, B @ _unimodular(rng, B.shape[1])))
            c = int(rng.integers(1, 5))
            got = _decisions(*_systems(exact, *moved), alpha=c, beta=c)
            assert got == plain
            if not exact:
                # and on every transformed pair, whose Krylov columns
                # grow with the gain
                assert got == _decisions(*_systems(True, *moved), alpha=c, beta=c)
            runs += 1
        outcomes.add(plain[:2])
    assert runs == 98
    assert {(True, True), (False, True), (True, False)} <= outcomes
