"""Seeded differential checks of the constructions that follow an
operand's backend: the mixed-dimension products against their Kronecker
definitions, and exact solve/inverse against the identity."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from dimvar import (j_matrix, ones_vector, second_stp, stp_action,
                    stp_action_matrix, stp_identity_action, vec_add)
from dimvar.numerics import (as_backend, common_backend, eye, inverse, rank,
                             solve)


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
