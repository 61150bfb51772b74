"""Seeded differential checks of the constructions that follow an
operand's backend: the mixed-dimension products against their Kronecker
definitions, exact solve/inverse against the identity, and every entry
point where a pair's operands meet, on mixed operands, against the
all-float call."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import rand_rational_matrix, rand_system
from dimvar import (LinSys, Scenario, SubspaceBasis, build_transient_model,
                    check_modeling_condition, check_realization,
                    direct_sum_check, j_matrix, kalman_decomposition,
                    lift_system, ones_vector, project_system,
                    run_transient_scenario, second_stp, stp_action,
                    stp_action_matrix, stp_identity_action,
                    systems_equivalent, vec_add)
from dimvar.numerics import (as_backend, common_backend, eye, inverse, rank,
                             solve, zeros)


def _rational(rng, rows, cols):
    return np.array([[Fraction(rng.randint(-9, 9), rng.randint(1, 12))
                      for _ in range(cols)] for _ in range(rows)], dtype=object)


def _same(got, want, exact):
    """Equal entry for entry: Fraction for Fraction, or bit for bit."""
    assert got.shape == want.shape and got.dtype == want.dtype
    if exact:
        assert all(isinstance(x, Fraction) for x in got.flat)
        assert np.array_equal(got, want)
    else:
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("exact", [True, False])
def test_products_match_kronecker_definitions(exact):
    rng = random.Random(41 if exact else 43)

    def operand(rows, cols):
        M = _rational(rng, rows, cols)
        return M if exact else M.astype(float) * rng.uniform(0.1, 10)

    J = lambda k: j_matrix(k, exact)
    ones = lambda k: ones_vector(k, exact)
    for _ in range(40):
        A = operand(rng.randint(1, 5), rng.randint(1, 6))
        B = operand(rng.randint(1, 6), rng.randint(1, 3))
        x, y = operand(rng.randint(1, 6), 1)[:, 0], operand(rng.randint(1, 6), 1)[:, 0]
        n, p, r, s = A.shape[1], B.shape[0], x.shape[0], y.shape[0]
        t = math.lcm(n, p)
        _same(second_stp(A, B),
              np.kron(A, J(t // n)) @ np.kron(B, J(t // p)), exact)
        _same(stp_action_matrix(A, B),
              np.kron(A, J(t // n)) @ np.kron(B, ones(t // p).reshape(-1, 1)),
              exact)
        t = math.lcm(n, r)
        _same(stp_action(A, x), np.kron(A, J(t // n)) @ np.kron(x, ones(t // r)),
              exact)
        _same(stp_identity_action(A, x),
              np.kron(A, eye(t // n, exact)) @ np.kron(x, ones(t // r)), exact)
        t = math.lcm(r, s)
        _same(vec_add(x, y),
              np.kron(x, ones(t // r)) + np.kron(y, ones(t // s)), exact)


def test_as_backend_and_common_backend():
    exact, floats = _rational(random.Random(1), 2, 2), np.zeros((2, 2))
    for X in (np.eye(3), np.arange(6).reshape(2, 3), [[1, 2]], np.zeros((4, 0))):
        E, F = as_backend(X, exact), as_backend(X, floats)
        assert E.dtype == object and all(type(x) is Fraction for x in E.flat)
        assert F.dtype == float and np.array_equal(E, F)
    assert type(as_backend(0, exact)) is Fraction
    assert type(as_backend(Fraction(1, 3), floats)) is float
    assert as_backend(Fraction(1, 3), floats) == 1 / 3
    a, b = common_backend(exact, exact[0])
    assert a is exact and b.dtype == object
    a, b = common_backend(exact, floats)
    assert a.dtype == b.dtype == float


def test_exact_solve_and_inverse_seeded():
    rng = random.Random(47)
    for n in range(1, 11):
        for _ in range(3):
            A = _rational(rng, n, n)
            if rank(A) < n:
                continue
            Ainv = inverse(A)
            assert all(isinstance(x, Fraction) for x in Ainv.flat)
            assert np.array_equal(A @ Ainv, eye(n))
            b = _rational(rng, n, 3)
            X = solve(A, b)
            assert X.shape == (n, 3) and np.array_equal(A @ X, b)
            x = solve(A, b[:, 0])
            assert x.shape == (n,) and np.array_equal(A @ x, b[:, 0])
            assert all(isinstance(v, Fraction) for v in x)


def test_exact_solve_singular_raises():
    rng = random.Random(53)
    for n in range(2, 9):
        S = _rational(rng, n, n - 1) @ _rational(rng, n - 1, n)
        with pytest.raises(ValueError, match="matrix is singular"):
            solve(S, _rational(rng, n, 1)[:, 0])
        with pytest.raises(ValueError, match="matrix is singular"):
            inverse(S)


@pytest.mark.parametrize("exact", [True, False])
def test_zero_dimensional_solve_inverse_and_kalman(exact):
    # the right-hand side of a 0 x 0 system has no rows to reshape
    Z = zeros((0, 0), exact)
    dtype = object if exact else float
    assert inverse(Z).shape == (0, 0) and inverse(Z).dtype == dtype
    x = solve(Z, zeros((0, 1), exact)[:, 0])
    assert x.shape == (0,) and x.dtype == dtype
    assert solve(Z, zeros((0, 3), exact)).shape == (0, 3)
    kd = kalman_decomposition(Z, zeros((0, 2), exact))
    assert kd.ctrb_dim == 0 and kd.T.shape == (0, 0)
    assert kd.A22.shape == (0, 0) and kd.B_top.shape == (0, 2)


@pytest.mark.parametrize("exact", [True, False])
def test_solve_refuses_a_non_square_matrix(exact):
    with pytest.raises(ValueError, match="A must be square"):
        solve(zeros((2, 3), exact), zeros((2,), exact))
    with pytest.raises(ValueError, match="A must be square"):
        inverse(zeros((2, 3), exact))


def test_float_solve_and_inverse_call_numpy():
    rng = np.random.default_rng(59)
    for n in range(1, 7):
        A = rng.uniform(-1, 1, (n, n)) + n * np.eye(n)
        b = rng.uniform(-1, 1, (n, 2))
        assert solve(A, b).tobytes() == np.linalg.solve(A, b).tobytes()
        assert solve(A, b[:, 0]).shape == (n,)
        Ainv = inverse(A)
        assert Ainv.dtype == float
        assert Ainv.tobytes() == np.linalg.inv(A).tobytes()
        assert np.allclose(A @ Ainv, np.eye(n))


def _floats(s):
    return LinSys(s.name, s.A.astype(float), s.B.astype(float))


def _same_floats(got, want):
    assert got.dtype == want.dtype == float, (got.dtype, want.dtype)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


# seeded integer pairs (p, q, inputs of sigma1, inputs of sigma2)
_PAIRS = [(2, 3, 1, 1), (3, 2, 1, 1), (2, 4, 1, 2), (3, 4, 2, 1),
          (4, 6, 1, 1), (3, 3, 1, 1)]


def _mixed_pairs():
    """For each seeded exact pair: the all-float pair and both mixes.
    Every third sigma2 has B = 0, so dim C2 = 0."""
    rng = random.Random(67)
    for p, q, m1, m2 in _PAIRS:
        for i in range(3):
            e1, e2 = rand_system(rng, p, m1), rand_system(rng, q, m2)
            if i == 2:
                e2 = LinSys(e2.name, e2.A, e2.B * 0)
            f1, f2 = _floats(e1), _floats(e2)
            yield (f1, f2), [(e1, f2), (f1, e2)]


def test_mixed_pairs_match_the_all_float_pair():
    # an exact sigma1 with a float sigma2, and the reverse, decide and
    # build on floats, bit for bit as the all-float pair does
    for (f1, f2), mixes in _mixed_pairs():
        real = check_realization(f1, f2)
        model = build_transient_model(f1, f2, masses=(1, 2))
        modeling = check_modeling_condition(f1, f2, model)
        x = np.linspace(-1.0, 1.0, f1.dim)
        y = np.linspace(1.0, -0.5, f2.dim)
        scenario = Scenario(t0=0.0, te=0.5, x_start=x, y_target=y, step=0.01)
        traj, outcome = run_transient_scenario(f1, f2, scenario, masses=(1, 2))
        for s1, s2 in mixes:
            got = check_realization(s1, s2)
            assert (got.realizable, got.q, got.dim_C1, got.dim_C2,
                    got.notes) == (real.realizable, real.q, real.dim_C1,
                                   real.dim_C2, real.notes)
            _same_floats(got.witness.basis, real.witness.basis)
            m = build_transient_model(s1, s2, masses=(1, 2))
            _same_floats(m.A, model.A)
            _same_floats(m.B, model.B)
            assert m.weights == model.weights
            got = check_modeling_condition(s1, s2, m)
            assert (got.holds, got.dim_Cz) == (modeling.holds, modeling.dim_Cz)
            for (v, b), (w, c) in zip(got.tested_vectors,
                                      modeling.tested_vectors, strict=True):
                _same_floats(v, w)
                assert b == c
            t, o = run_transient_scenario(s1, s2, scenario, masses=(1, 2))
            _same_floats(t.states, traj.states)
            assert (t.endpoint_error, o.target_class_error) == (
                traj.endpoint_error, outcome.target_class_error)
            assert o.realization.realizable == outcome.realization.realizable


def test_mixed_direct_sum_check_matches_floats():
    rng = random.Random(71)
    for q in range(1, 6):
        for k in range(q + 1):
            U = rand_rational_matrix(rng, q, k)
            V = rand_rational_matrix(rng, q, q - k)
            if k and rng.random() < 0.3:        # a dependent pair
                V[:, :1] = U[:, :1] * 2
            want = direct_sum_check(SubspaceBasis(q, U.astype(float)),
                                    SubspaceBasis(q, V.astype(float)), q)
            for a, b in ((U, V.astype(float)), (U.astype(float), V)):
                assert direct_sum_check(SubspaceBasis(q, a),
                                        SubspaceBasis(q, b), q) == want


def test_mixed_kalman_decomposition_matches_floats():
    rng = random.Random(73)
    for n in range(1, 6):
        for m in (1, 2):
            s = rand_system(rng, n, m)
            want = kalman_decomposition(s.A.astype(float), s.B.astype(float))
            got = kalman_decomposition(s.A, s.B.astype(float))
            assert got.ctrb_dim == want.ctrb_dim
            for name in ("T", "A11", "A12", "A22", "B_top"):
                _same_floats(getattr(got, name), getattr(want, name))


def test_mixed_systems_equivalent_matches_floats():
    # both systems are promoted before either is stripped, so an exact
    # system meets a float one as the all-float pair does; a lift whose
    # A is off by 1e-13 is equivalent in floats only
    rng = random.Random(83)
    for p, k in ((2, 3), (3, 2), (1, 4), (2, 1)):
        s = rand_system(rng, p, 2)
        lifted = lift_system(s, p * k)
        near = lifted.A.copy()
        near[0, -1] += Fraction(1, 10**13)
        pairs = [(s, lifted), (lifted, s), (s, rand_system(rng, p, 2)),
                 (LinSys(s.name, near, lifted.B), s)]
        for e1, e2 in pairs:
            want = systems_equivalent(_floats(e1), _floats(e2))
            assert systems_equivalent(e1, _floats(e2)) == want
            assert systems_equivalent(_floats(e1), e2) == want
        assert want and not systems_equivalent(*pairs[-1])
    A = np.array([[Fraction(1, 2), Fraction(1, 2) + Fraction(1, 10**13)],
                  [Fraction(1, 2), Fraction(1, 2)]], dtype=object)
    exact = LinSys("exact", A, np.array([[Fraction(1)], [Fraction(1)]],
                                        dtype=object))
    floats = LinSys("float", np.array([[1.0]]), np.array([[1.0]]))
    assert systems_equivalent(exact, floats)
    assert systems_equivalent(floats, exact)
    assert systems_equivalent(_floats(exact), floats)


def test_mixed_project_system_returns_float_representatives():
    rng = random.Random(79)
    for p, k in ((2, 3), (3, 2), (1, 4), (2, 1)):
        lifted = lift_system(rand_system(rng, p, 2), p * k)
        want = project_system(_floats(lifted))
        assert want.multiplier_stripped >= k
        for A, B in ((lifted.A, lifted.B.astype(float)),
                     (lifted.A.astype(float), lifted.B)):
            got = project_system(LinSys(lifted.name, A, B))
            assert got.multiplier_stripped == want.multiplier_stripped
            _same_floats(got.sys.A, want.sys.A)
            _same_floats(got.sys.B, want.sys.B)
