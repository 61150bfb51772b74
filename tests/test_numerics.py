import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import rand_rational_matrix
from dimvar import (SubspaceBasis, column_space_basis, in_span, j_matrix,
                    kron, mat, matrix_exponential_apply, ones_vector,
                    parse_scalar, rank, vec)
from dimvar.numerics import (DEFAULT_TOL, _echelon, eye, in_span_columns,
                             inverse, pivot_columns, solve, spans_equal,
                             to_float, zeros)


def test_parse_scalar_grammar():
    assert parse_scalar("3") == 3
    assert parse_scalar("3/2") == Fraction(3, 2)
    assert parse_scalar("0.75") == Fraction(3, 4)
    assert parse_scalar(" -7/3 ") == Fraction(-7, 3)
    with pytest.raises(ValueError):
        parse_scalar("abc")


def test_mat_and_vec_parse_strings_on_both_backends():
    assert mat([["3/2", "0.75"]], exact=False).tolist() == [[1.5, 0.75]]
    assert vec(["3/2", "-1/3", 2, 0.1], exact=False).tolist() == \
        [1.5, -1 / 3, 2.0, 0.1]
    assert vec(["3/2", "0.75"]).tolist() == [Fraction(3, 2), Fraction(3, 4)]
    with pytest.raises(ValueError):
        mat([["abc"]], exact=False)


def test_ones_and_j():
    assert ones_vector(3).tolist() == [1, 1, 1]
    assert j_matrix(1).tolist() == [[1]]
    J2 = j_matrix(2)
    assert np.array_equal(J2 @ J2, J2)  # idempotent
    assert np.array_equal(j_matrix(3) @ ones_vector(3), ones_vector(3))
    with pytest.raises(ValueError):
        j_matrix(0)
    with pytest.raises(ValueError):
        ones_vector(0)


def test_kron_identity_and_block():
    B = mat([[1, 2], [3, 4]])
    assert np.array_equal(kron(eye(1), B), B)
    # [[0,1],[0,0]] (x) J_3: upper-right 3x3 block all 1/3
    K = kron(mat([[0, 1], [0, 0]]), j_matrix(3))
    assert K.shape == (6, 6)
    for i in range(3):
        for j in range(3):
            assert K[i, 3 + j] == Fraction(1, 3)
    assert sum(1 for x in K.flat if x != 0) == 9
    # column vector case
    v = kron(mat([[0], [1]]), ones_vector(3).reshape(-1, 1))
    assert v[:, 0].tolist() == [0, 0, 0, 1, 1, 1]


def test_kron_associativity_random():
    rng = random.Random(7)
    for _ in range(20):
        A = rand_rational_matrix(rng, rng.randint(1, 3), rng.randint(1, 3))
        B = rand_rational_matrix(rng, rng.randint(1, 3), rng.randint(1, 3))
        C = rand_rational_matrix(rng, rng.randint(1, 2), rng.randint(1, 2))
        assert np.array_equal(kron(kron(A, B), C), kron(A, kron(B, C)))


@pytest.mark.parametrize("a", range(1, 7))
@pytest.mark.parametrize("b", range(1, 7))
def test_j_kron_multiplicativity(a, b):
    assert np.array_equal(kron(j_matrix(a), j_matrix(b)), j_matrix(a * b))


def test_rank_basic():
    assert rank(zeros((3, 3))) == 0
    assert rank(eye(4)) == 4
    M = mat([[1, 2], [2, 4]])
    assert rank(M) == 1


def test_rank_transpose_random():
    rng = random.Random(11)
    for _ in range(40):
        M = rand_rational_matrix(rng, rng.randint(1, 8), rng.randint(1, 8),
                                 -5, 5)
        assert rank(M) == rank(M.T)


def test_rank_backends_agree():
    rng = random.Random(13)
    for _ in range(40):
        M = rand_rational_matrix(rng, rng.randint(1, 8), rng.randint(1, 8),
                                 -5, 5)
        assert rank(M) == rank(to_float(M))


def test_column_space_basis():
    S = column_space_basis(mat([[0, 1], [1, 0]]))
    assert S.dim == 2
    S = column_space_basis(mat([[1, 2], [2, 4]]))
    assert S.dim == 1
    assert S.basis[:, 0].tolist() == [1, 2]
    # basis columns always independent
    rng = random.Random(17)
    for _ in range(30):
        M = rand_rational_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        S = column_space_basis(M)
        assert rank(S.basis) == S.dim


def test_in_span():
    S = column_space_basis(mat([[0], [1]]))
    assert in_span(S, vec([0, 0]))
    assert not in_span(S, vec([1, 0]))
    assert in_span(SubspaceBasis.zero(2), vec([0, 0]))
    with pytest.raises(ValueError):
        in_span(S, vec([1, 2, 3]))


def test_solve_and_inverse_exact():
    A = mat([[2, 1], [1, 1]])
    x = solve(A, vec([3, 2]))
    assert x.tolist() == [1, 1]
    assert np.array_equal(A @ inverse(A), eye(2))
    with pytest.raises(ValueError):
        solve(mat([[1, 1], [1, 1]]), vec([1, 0]))


def test_matrix_exponential_apply():
    v = np.array([1.0, 2.0])
    out = matrix_exponential_apply(np.zeros((2, 2)), 3.0, v)
    assert np.allclose(out, v)
    out = matrix_exponential_apply(np.array([[1.0]]), 1.0, np.array([1.0]))
    assert abs(out[0] - np.e) < 1e-8
    # nilpotent: e^{A} = I + A exactly
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    out = matrix_exponential_apply(A, 1.0, np.array([0.0, 1.0]))
    assert np.allclose(out, [1.0, 1.0], atol=1e-12)
    with pytest.raises(TypeError):
        matrix_exponential_apply(mat([[1]]), 1.0, vec([1]))


def _rank_in_span(S, w):
    """The membership rule in_span has always used: appending w keeps
    the rank (a nonempty S)."""
    return rank(np.hstack([S.basis, w.reshape(-1, 1)])) == S.dim


def test_in_span_columns_exact_matches_one_column_tests():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(1, 7)
        S = column_space_basis(rand_rational_matrix(rng, n, rng.randint(1, 4)))
        if S.dim == 0:
            continue
        members = S.basis @ rand_rational_matrix(rng, S.dim, 2)
        W = np.hstack([members, rand_rational_matrix(rng, n, 3),
                       zeros((n, 1))])
        got = in_span_columns(S, W)
        assert got == [in_span(S, W[:, j]) for j in range(W.shape[1])]
        assert got == [_rank_in_span(S, W[:, j]) for j in range(W.shape[1])]
        assert all(got[:2]) and got[-1]


def test_in_span_columns_float_near_threshold():
    # members of span(S) pushed off it along a direction orthogonal to S,
    # by amounts bisected onto the one-column test's threshold: the
    # columns just inside and just outside must be decided as by their
    # own rank tests
    rng = np.random.default_rng(29)
    for _ in range(30):
        n = int(rng.integers(2, 8))
        d = int(rng.integers(1, n))
        S = column_space_basis(rng.normal(size=(n, d)) *
                               10.0 ** rng.integers(-3, 4))
        off = np.linalg.svd(S.basis)[0][:, -1]     # orthogonal to S
        cols = []
        for _ in range(3):
            w = S.basis @ rng.normal(size=S.dim)
            lo, hi = 0.0, float(np.max(np.abs(w))) * 1e-6
            while _rank_in_span(S, w + hi * off):
                hi *= 2
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if _rank_in_span(S, w + mid * off) else (lo, mid)
            cols += [w, w + lo * off, w + hi * off, w + 1e3 * hi * off]
        W = np.column_stack(cols)
        got = in_span_columns(S, W)
        assert got == [_rank_in_span(S, W[:, j]) for j in range(W.shape[1])]
        assert got == [in_span(S, W[:, j]) for j in range(W.shape[1])]
        assert got == [True, True, False, False] * 3


def test_in_span_columns_float_basis_below_column_threshold():
    # S's second pivot (1e-9) falls under the rank threshold of every
    # [S | w_j] (3e-9 and more), so the one-column rank test drops it:
    # it then rejects the member e1 and accepts e3; the multi-column
    # test must give every column that same answer
    S = SubspaceBasis(3, np.array([[1.0, 0.0], [0.0, 1e-9], [0.0, 0.0]]))
    W = np.array([[1.0, 0.0, 1e3], [0.0, 0.0, 0.0], [0.0, 1.0, 1e3]])
    got = in_span_columns(S, W)
    assert got == [_rank_in_span(S, W[:, j]) for j in range(3)]
    assert got == [False, True, True]


def test_in_span_columns_zero_basis_and_shapes():
    Z = SubspaceBasis.zero(2)
    assert in_span_columns(Z, mat([[0, 1], [0, 0]])) == [True, False]
    assert in_span_columns(Z, np.array([[1e-13], [0.0]])) == [True]
    S = column_space_basis(mat([[0], [1]]))
    assert in_span_columns(S, zeros((2, 0))) == []
    with pytest.raises(ValueError):
        in_span_columns(S, zeros((3, 1)))


def _fraction_echelon(M, ncols=None):
    """Reference: the Fraction Gaussian elimination the exact backend
    used before fraction-free elimination (first nonzero entry of a
    column as pivot; rows with a nonzero entry below it reduced)."""
    A = np.array([[Fraction(x) for x in row] for row in M],
                 dtype=object).reshape(M.shape)
    m, n = A.shape
    piv_row, pivots = 0, []
    for c in range(n if ncols is None else ncols):
        if piv_row >= m:
            break
        sel = next((piv_row + i for i, a in enumerate(A[piv_row:, c]) if a != 0),
                   None)
        if sel is None:
            continue
        if sel != piv_row:
            A[[piv_row, sel]] = A[[sel, piv_row]]
        p = A[piv_row, c]
        for r in range(piv_row + 1, m):
            if A[r, c] != 0:
                A[r, c:] = A[r, c:] - (A[r, c] / p) * A[piv_row, c:]
        pivots.append(c)
        piv_row += 1
    return piv_row, pivots, A


def _mixed(rng, rows, cols):
    return np.array([[Fraction(rng.randint(-9, 9), rng.randint(1, 12))
                      for _ in range(cols)] for _ in range(rows)], dtype=object)


def _exact_corpus():
    """Seeded exact matrices: mixed denominators 1-12, rank-deficient
    products of thin factors, sparse matrices, zero rows and columns,
    wide and tall shapes, 1x1, and object arrays of plain ints."""
    rng = random.Random(31)
    out = [mat([[0]]), mat([[Fraction(3, 7)]]), np.array([[5]], dtype=object),
           np.array([[0]], dtype=object)]
    for _ in range(25):
        out.append(_mixed(rng, rng.randint(1, 8), rng.randint(1, 8)))
    for _ in range(25):
        m, n = rng.randint(2, 9), rng.randint(2, 9)
        k = rng.randint(1, min(m, n) - 1) if min(m, n) > 2 else 1
        out.append(_mixed(rng, m, k) @ _mixed(rng, k, n))
    for _ in range(60):
        # sparse, as the blocks of the modeling check's matrices are
        m, n = rng.randint(2, 8), rng.randint(2, 8)
        out.append(np.where([[rng.random() < 0.35 for _ in range(n)]
                             for _ in range(m)], _mixed(rng, m, n), Fraction(0)))
    for _ in range(15):
        M = _mixed(rng, rng.randint(2, 8), rng.randint(2, 8))
        M[rng.randrange(M.shape[0]), :] = Fraction(0)
        M[:, rng.randrange(M.shape[1])] = Fraction(0)
        out.append(M)
    for shape in ((1, 9), (2, 11), (9, 1), (12, 3), (3, 12)):
        out.append(_mixed(rng, *shape))
        out.append(_mixed(rng, shape[0], 1) @ _mixed(rng, 1, shape[1]))
    for _ in range(15):
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        ints = np.array([[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)],
                        dtype=object)
        if m > 1:
            ints[rng.randrange(m), :] = 0
        out.append(ints)
    return out


def test_exact_elimination_matches_fraction_reference():
    for M in _exact_corpus():
        r, piv, _ = _fraction_echelon(M)
        assert rank(M) == r and pivot_columns(M) == piv
        S = column_space_basis(M)
        assert S.dim == r and np.array_equal(S.basis, M[:, piv])
        for ncols in range(M.shape[1] + 1):
            ref = _fraction_echelon(M, ncols)
            got = _echelon(M, DEFAULT_TOL, ncols=ncols)
            assert got[:2] == ref[:2]
            # same zero pattern of the reduced rows, entry for entry
            assert np.array_equal(got[2] == 0, ref[2] == 0)


def test_exact_elimination_empty_shapes():
    for shape in ((0, 0), (0, 3), (3, 0)):
        M = np.zeros(shape, dtype=object)
        assert rank(M) == 0 and pivot_columns(M) == []
        assert _echelon(M, DEFAULT_TOL)[:2] == (0, [])


def test_exact_in_span_columns_matches_fraction_reference():
    rng = random.Random(37)
    for M in _exact_corpus():
        S = column_space_basis(M)
        m = M.shape[0]
        if S.dim == 0:
            continue
        W = np.hstack([S.basis @ _mixed(rng, S.dim, 2), _mixed(rng, m, 2),
                       np.zeros((m, 1), dtype=object),
                       np.array([[rng.randint(-3, 3)] for _ in range(m)],
                                dtype=object)])
        expected = [_fraction_echelon(np.hstack([S.basis, W[:, j:j + 1]]))[0]
                    == S.dim for j in range(W.shape[1])]
        assert in_span_columns(S, W) == expected
        assert expected[:2] == [True, True] and expected[4]
        assert spans_equal(S, column_space_basis(M[:, ::-1]))
