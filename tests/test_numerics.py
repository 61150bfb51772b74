import math
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import rand_rational_matrix
from dimvar import (SubspaceBasis, column_space_basis, in_span, j_matrix,
                    kron, mat, ones_vector, parse_scalar, rank, vec)
from dimvar.numerics import (_PRIME, _bareiss, _certify_full_krylov,
                             _integer_scaled, _krylov_integers,
                             _krylov_product, equality_key,
                             eye, in_span_columns, inverse, krylov_pivots,
                             pivot_columns, solve, to_float, zeros)
from dimvar.realization import build_transient_model
from dimvar.systems import LinSys


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


def test_vector_arguments_take_one_column_only():
    # a vector may come as an n x 1 column; a second column is refused,
    # not dropped
    from dimvar import embed, reduce_vector, stp_action, stp_identity_action
    e1 = mat([[1], [0]])
    S = SubspaceBasis(2, e1)
    two = np.hstack([e1, mat([[0], [1]])])
    A = eye(2)
    assert in_span(S, e1)
    assert embed(e1, 3).tolist() == [1, 0, 0]
    assert reduce_vector(e1).irreducible.tolist() == [1, 0]
    assert stp_action(A, e1).tolist() == [1, 0]
    assert stp_identity_action(A, e1).tolist() == [1, 0]
    for f in (lambda v: in_span(S, v), lambda v: embed(v, 3), reduce_vector,
              lambda v: stp_action(A, v), lambda v: stp_identity_action(A, v)):
        for bad in (two, np.zeros((2, 1, 1)), np.float64(1.0)):
            with pytest.raises(ValueError):
                f(bad)


def test_solve_and_inverse_exact():
    A = mat([[2, 1], [1, 1]])
    x = solve(A, vec([3, 2]))
    assert x.tolist() == [1, 1]
    assert np.array_equal(A @ inverse(A), eye(2))
    with pytest.raises(ValueError):
        solve(mat([[1, 1], [1, 1]]), vec([1, 0]))


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


def test_in_span_columns_full_exact_subspace_in_closed_form():
    # independent columns filling R^n span it: every column is a member
    # (the modeling check answers such a C_z without this call); the
    # shape check and the float rule are unchanged
    rng = random.Random(31)
    cases = []
    while len(cases) < 25:
        n = rng.randint(1, 7)
        S = column_space_basis(rand_rational_matrix(rng, n, n + rng.randint(0, 2)))
        if S.dim == n:
            W = np.hstack([rand_rational_matrix(rng, n, 3), zeros((n, 1))])
            cases.append((S, W, [_rank_in_span(S, W[:, j]) for j in range(4)]))
    for S, W, ref in cases:
        assert in_span_columns(S, W) == ref == [True] * 4
        with pytest.raises(ValueError):
            in_span_columns(S, zeros((S.dim + 1, 1)))
    Q = SubspaceBasis(3, np.linalg.qr(np.arange(9.0).reshape(3, 3) + np.eye(3))[0])
    assert in_span_columns(Q, np.array([[1.0], [2.0], [3.0]])) == [True]


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


def _member_at_column_threshold(S, w):
    """w's own test: [S | w] has no pivot in w, S's rank taken at the
    threshold of [S | w] (S's columns possibly dependent)."""
    return S.dim not in pivot_columns(np.hstack([S.basis, w.reshape(-1, 1)]))


def test_in_span_columns_float_basis_below_column_threshold():
    # S's second pivot (1e-9) falls under the rank threshold of every
    # [S | w_j] (3e-9 and more), so there S is span(e1): the member e1
    # is inside, e3 and (1e3, 0, 1e3) are not
    S = SubspaceBasis(3, np.array([[1.0, 0.0], [0.0, 1e-9], [0.0, 0.0]]))
    W = np.array([[1.0, 0.0, 1e3], [0.0, 0.0, 0.0], [0.0, 1.0, 1e3]])
    got = in_span_columns(S, W)
    assert got == [_member_at_column_threshold(S, W[:, j]) for j in range(3)]
    assert got == [True, False, False]
    assert in_span_columns(S, S.basis[:, :1]) == [True]


def test_in_span_columns_dependent_and_ill_scaled_bases():
    # seeded bases with duplicated columns, columns scaled by integers
    # (zero included) and columns scaled by 10^[-8, 8], on both backends:
    # the zero vector and S's own columns are members, exact answers are
    # rank([S | w]) == rank(S) and float ones each column's own test
    rng = np.random.default_rng(47)
    for case in range(240):
        n, d = int(rng.integers(2, 9)), int(rng.integers(1, 6))
        M = rng.integers(-3, 4, size=(n, d)).astype(float)
        kind = case % 3
        if kind == 0:
            M = M[:, rng.integers(0, d, size=d + 2)]
        elif kind == 1:
            M = M * rng.integers(-3, 4, size=d)
        else:
            M = M * 10.0 ** rng.uniform(-8, 8, size=d)
        k = M.shape[1]
        W = np.hstack([np.zeros((n, 1)), M, M @ rng.integers(-2, 3, size=(k, 2)),
                       rng.integers(-3, 4, size=(n, 2))])
        for exact in (True, False):
            S, V = SubspaceBasis(n, mat(M.tolist(), exact)), mat(W.tolist(), exact)
            got = in_span_columns(S, V)
            assert got[:k + 1] == [True] * (k + 1)
            if exact:
                ref = [rank(np.hstack([S.basis, V[:, j:j + 1]])) == rank(S.basis)
                       for j in range(V.shape[1])]
            else:
                ref = [_member_at_column_threshold(S, V[:, j])
                       for j in range(V.shape[1])]
            assert got == ref
    # dependent columns (1, 0) and (2, 0): e1 is a member, e2 is not
    for exact in (True, False):
        for n in (2, 3):
            S = SubspaceBasis(n, eye(n, exact)[:, [0, 0]] * vec([1, 2], exact))
            assert in_span_columns(S, eye(n, exact)[:, :2]) == [True, False]


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
            got = _bareiss(_integer_scaled(M)[0], ncols=ncols)
            assert got[:2] == ref[:2]
            # same zero pattern of the reduced rows, entry for entry
            assert np.array_equal(got[2] == 0, ref[2] == 0)


def test_exact_elimination_empty_shapes():
    for shape in ((0, 0), (0, 3), (3, 0)):
        M = np.zeros(shape, dtype=object)
        assert rank(M) == 0 and pivot_columns(M) == []
        assert _bareiss(M)[:2] == (0, [])


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
        T = column_space_basis(M[:, ::-1])
        assert all(in_span_columns(S, T.basis))
        assert all(in_span_columns(T, S.basis))


def _reference_key(M):
    """L * x for each entry, L the lcm of every denominator in M."""
    flat = M.ravel().tolist()
    L = math.lcm(*(x.denominator for x in flat))
    Z = [x.numerator * (L // x.denominator) for x in flat]
    fits = all(-2**63 <= z < 2**63 for z in Z)
    return np.array(Z, dtype=np.int64 if fits else object).reshape(M.shape)


def _assert_key_matches_reference(M):
    key, ref = equality_key(M), _reference_key(M)
    assert key.dtype == ref.dtype and key.shape == ref.shape
    assert key.tolist() == ref.tolist()
    assert [type(z) for z in key.ravel().tolist()] == \
        [type(z) for z in ref.ravel().tolist()]


def test_equality_key_of_strided_views():
    rng = random.Random(13)
    A0 = np.array([[Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                    for _ in range(4)] for _ in range(4)], dtype=object)
    A = np.repeat(np.repeat(A0, 3, axis=0), 3, axis=1)   # shared objects
    assert len({id(e) for e in A.ravel()}) <= 16
    v = A.reshape(4, 3, 4, 3)
    for M in (A, A.T, A[::2], A[1::3, ::-2], v, v[:1, ::2, :1, :1],
              v[:1, :, :1, :1], v[:, 0, :, 0], v[:, :, :1, :1],
              A.reshape(12, 12, 1)[::5]):
        _assert_key_matches_reference(M)
    assert equality_key(A.T).tolist() == equality_key(A).T.tolist()


def test_equality_key_of_empty_arrays():
    for shape in ((5, 0), (0,), (0, 3), (2, 0, 2)):
        M = np.empty(shape, dtype=object)
        _assert_key_matches_reference(M)
        assert equality_key(M).dtype == np.int64
    assert equality_key(np.zeros((5, 0))) is None
    assert equality_key(np.ones(3)) is None


def test_equality_key_of_ints_mixed_with_fractions():
    half = Fraction(1, 2)
    M = np.array([[1, half, 3], [half, -4, Fraction(5, 3)]], dtype=object)
    _assert_key_matches_reference(M)
    assert equality_key(M).tolist() == [[6, 3, 18], [3, -24, 10]]
    _assert_key_matches_reference(np.array([0, 7, -2**40], dtype=object))


def test_equality_key_of_equal_values_in_distinct_and_shared_objects():
    shared = Fraction(2, 7)
    x = np.array([shared, Fraction(2, 7), shared, Fraction(4, 14), shared,
                  Fraction(-1, 3), Fraction(-1, 3), 0, Fraction(0)],
                 dtype=object)
    assert len({id(e) for e in x}) == 7
    _assert_key_matches_reference(x)
    key = equality_key(x)
    assert (key[:5] == key[0]).all() and key[5] == key[6] != key[0]
    assert key[7] == key[8] == 0


def test_equality_key_beyond_int64_falls_back_to_python_ints():
    big = 10**30
    x = np.array([Fraction(big, big + 7), Fraction(1, 3), 2**63 - 1],
                 dtype=object)
    x = np.concatenate([x, x[::-1]])
    _assert_key_matches_reference(x)
    assert equality_key(x).dtype == object
    edge = np.array([2**63 - 1, -2**63, Fraction(1)], dtype=object)
    _assert_key_matches_reference(edge)
    assert equality_key(edge).dtype == np.int64
    _assert_key_matches_reference(np.array([2**63, 1], dtype=object))
    _assert_key_matches_reference(np.array([-2**63 - 1, 1], dtype=object))


def test_equality_key_keeps_near_equal_large_values_apart():
    a, b = Fraction(10**12, 7), Fraction(10**12 + 1, 7)
    A = kron(np.array([[a, b], [b, a]], dtype=object), j_matrix(3))
    _assert_key_matches_reference(A)
    key = equality_key(A)
    assert key[0, 0] != key[0, 3] and key[0, 0] == key[3, 3]
    x = kron(np.array([a, b], dtype=object), ones_vector(3))
    _assert_key_matches_reference(x)
    assert equality_key(x).tolist() == [10**12] * 3 + [10**12 + 1] * 3


def test_equality_key_of_few_shared_objects_without_runs():
    # a few objects repeated everywhere, no two neighbours alike
    rng = random.Random(38)
    pool = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(7)]
    M = np.array([[pool[(3 * i + 5 * j) % 7] for j in range(100)]
                  for i in range(100)], dtype=object)
    assert len({id(e) for e in M.ravel()}) == 7
    _assert_key_matches_reference(M)
    for b, dtype in ((Fraction(-5, 7), np.int64),
                     (Fraction(10**30, 7), object)):
        x = np.array([Fraction(2, 3), b] * 500, dtype=object)
        _assert_key_matches_reference(x)
        assert equality_key(x).dtype == dtype


def test_float_rank_refuses_non_finite_data():
    for bad in (np.nan, np.inf, -np.inf):
        M = np.array([[bad, 1.0], [1.0, 1.0]])
        with pytest.raises(np.linalg.LinAlgError, match="overflows"):
            rank(M)
        with pytest.raises(np.linalg.LinAlgError, match="overflows"):
            pivot_columns(M.T)
    # finite data whose residual norm overflows
    with pytest.raises(np.linalg.LinAlgError, match="rank test overflows"):
        pivot_columns(np.array([[1e300, 0.0], [1e300, 1.0]]))


def _krylov_corpus():
    """Seeded exact (A, B): 1-3 inputs, entries k/d with d in 2, 3, 7,
    general, block-triangular (uncontrollable), with B = [b, Ab, ...]
    (one long chain) or with B = [b, 0, ...] (chain 0 alone); then the
    segment systems of the seed-0 benchmark ladder pairs blended with
    weights 3/2 and 1/3."""
    rng = random.Random(24)
    for n in range(1, 9):
        for m in (1, 2, 3):
            for kind in ("general", "split", "chain", "split chain", "zero"):
                d = rng.choice((2, 3, 7))
                A, B = (np.array([[Fraction(rng.randint(-4, 4), d)
                                   for _ in range(cols)] for _ in range(n)],
                                 dtype=object) for cols in (n, m))
                if "split" in kind and n > 1:
                    k = rng.randint(1, n - 1)
                    A[k:, :k] = Fraction(0)
                    B[k:] = Fraction(0)
                if "chain" in kind:
                    for i in range(1, m):
                        B[:, i] = A @ B[:, i - 1]
                if kind == "zero":
                    B[:, 1:] = Fraction(0)
                yield A, B
    to_frac = np.vectorize(Fraction, otypes=[object])
    for p, q, count in ((4, 6, 24), (5, 6, 6), (5, 7, 6)):
        for i in range(count):
            g = np.random.default_rng([0, p, q, i])
            s1, s2 = (LinSys(name, to_frac(g.integers(-3, 4, size=(dim, dim))),
                             to_frac(g.integers(-3, 4, size=(dim, 1))))
                      for name, dim in (("s1", p), ("s2", q)))
            model = build_transient_model(s1, s2, alpha=Fraction(3, 2),
                                          beta=Fraction(1, 3))
            yield model.A * model.lengths, model.B


def test_saturated_krylov_pivots_match_whole_product_elimination():
    # eliminating the first ceil(n/m) blocks of the exact Krylov product,
    # and the whole product only when they have rank below n and their
    # last block pivots, gives the pivots, K's columns and span of one
    # `_bareiss` of the whole product, entry type and value
    past_first_blocks = 0
    for A, B in _krylov_corpus():
        n, m = B.shape
        piv_ref = _bareiss(np.hstack([Z for Z, _ in _krylov_integers(A, B)]))[1]
        W_ref = _krylov_product(A, B)[:, piv_ref]
        piv, W, S = krylov_pivots(A, B)
        assert piv == piv_ref
        for got in (W, S.basis):
            assert got.shape == W_ref.shape
            assert all(type(x) is Fraction and x == y
                       for x, y in zip(got.flat, W_ref.flat))
        past_first_blocks += bool(piv) and piv[-1] // m >= -(-n // m)
    # some chains outlast the ceil(n/m) blocks that are eliminated first
    assert past_first_blocks >= 5


def test_krylov_pivots_exact_edge_shapes():
    for n, m in ((0, 0), (0, 2), (3, 0), (1, 1)):
        A = np.full((n, n), Fraction(0), dtype=object)
        B = np.full((n, m), Fraction(0), dtype=object)
        piv, W, S = krylov_pivots(A, B)
        assert piv == [] and W.shape == S.basis.shape == (n, 0)


def test_krylov_certificate_prime_and_int64_bound():
    assert _PRIME < 2**26 and 2048 * (_PRIME - 1) ** 2 < 2**63
    assert all(_PRIME % k for k in range(2, math.isqrt(_PRIME) + 1))
    # a residue matmul of 2048 terms could overflow: refused unbuilt
    empty = np.empty((0, 0), dtype=object)
    assert not _certify_full_krylov(empty, np.empty((2048, 1), dtype=object), [])


def _certify(A, B, scale):
    """The certificate on exact (A, B) as integers over one denominator,
    the form a transient model holds; floats as given."""
    if A.dtype == object:
        Z = _integer_scaled(np.hstack([A, B]))[0]
        A, B = Z[:, :A.shape[1]], Z[:, A.shape[1]:]
    return _certify_full_krylov(A, B, scale)


def test_krylov_certificate_is_sound_and_decides_the_corpus():
    # rank n mod the prime proves rank n; on this corpus it is exact
    for A, B in _krylov_corpus():
        n = B.shape[0]
        scale = np.arange(1, n + 1)
        full = len(krylov_pivots(A * scale, B)[0]) == n
        assert _certify(A, B, scale) == full
        assert not _certify(to_float(A), to_float(B), scale)


def test_krylov_certificate_edge_cases():
    P = _PRIME
    frac = np.vectorize(Fraction, otypes=[object])
    one = np.array([[Fraction(0)]], dtype=object)
    # n = 0: the empty Krylov matrix has full rank 0
    assert _certify(np.empty((0, 0), dtype=object),
                    np.empty((0, 2), dtype=object), [])
    # B = 0 and B = [[p]]: rank 0 mod the prime, undecided
    assert not _certify(frac([[1, 2], [3, 4]]), frac([[0], [0]]), [1, 1])
    assert not _certify(one, frac([[P]]), [1])
    # negative numerators and numerators beyond int64, over denominators
    assert not _certify(one, frac([[-P * 2**70]]), [1])
    assert not _certify(one, np.array([[Fraction(-P, 3)]]), [1])
    assert _certify(one, frac([[-(2**70) - 1]]), [1])
    assert _certify(one, np.array([[Fraction(2**64 + 1, 7)]]), [1])
    # Krylov determinant P: rank 2 over Q, 1 mod the prime
    A, B = frac([[0, 0], [P, 0]]), frac([[1], [0]])
    assert not _certify(A, B, [1, 1])
    assert len(krylov_pivots(A, B)[0]) == 2
    # the column scale enters mod the prime: diag(P, 1) kills A's column 0
    A = frac([[0, 1], [1, 0]])
    assert _certify(A, B, [1, 1])
    assert not _certify(A, B, [P, 1])
    assert len(krylov_pivots(A * np.array([P, 1]), B)[0]) == 2


def _modular_reference(K):
    """The certificate's own elimination loop before it called
    `_bareiss`, kept as a reference: (rank, pivots, reduced copy) of the
    int64 residues K modulo the prime."""
    K, r, pivots = K.copy(), 0, []
    for c in range(K.shape[1]):
        rows = K[r:, c].nonzero()[0]
        if rows.size:
            K[[r, r + rows[0]]] = K[[r + rows[0], r]]
            K[r + 1:, c:] = (K[r + 1:, c:] * K[r, c]
                             - K[r + 1:, c, None] * K[r, c:]) % _PRIME
            pivots.append(c)
            r += 1
    return r, pivots, K


def _residues(Z):
    return (np.asarray(Z, dtype=object) % _PRIME).astype(np.int64)


def _residue_corpus():
    """int64 residue matrices: the `_krylov_corpus` Krylov matrices with
    a column scale, seeded ones from 0 x k and k x 0 up to 12 x 24, with
    zero columns and of low rank modulo the prime."""
    for A, B in _krylov_corpus():
        scale = np.arange(1, B.shape[0] + 1)
        yield _residues(np.hstack([Z for Z, _ in _krylov_integers(A * scale, B)]))
    rng = np.random.default_rng(27)
    yield from (np.zeros(shape, np.int64) for shape in ((0, 0), (0, 3), (3, 0)))
    for m in range(1, 13):
        for k in (1, m, 2 * m):
            R = rng.integers(0, _PRIME, size=(m, k))
            yield R
            R = R.copy()
            R[:, rng.random(k) < 0.4] = 0
            yield R
            r = int(rng.integers(1, m + 1))
            yield rng.integers(0, _PRIME, (m, r)) @ rng.integers(0, _PRIME, (r, k)) % _PRIME


def _dependent_only_modulo_the_prime():
    """(integer M, its residues): a last column that is an integer
    combination of the others plus the prime times a unit vector, so
    independent over Q and dependent modulo the prime."""
    rng = random.Random(27)
    for m in range(1, 9):
        for k in range(1, m + 1):
            M = np.array([[rng.randint(-9, 9) for _ in range(k)] for _ in range(m)],
                         dtype=object)
            M[:, k - 1] = M[:, :k - 1] @ [rng.randint(-5, 5) for _ in range(k - 1)]
            M[rng.randrange(m), k - 1] += _PRIME
            yield M, _residues(M)


def test_bareiss_on_residues_matches_the_modular_reference():
    # an int64 input is eliminated modulo the prime, as the certificate's
    # own loop did: same rank, pivots and reduced residues, input untouched
    count = 0
    for K in _residue_corpus():
        copy = K.copy()
        r, piv, R = _bareiss(K)
        r_ref, piv_ref, R_ref = _modular_reference(K)
        assert (r, piv) == (r_ref, piv_ref)
        assert R.dtype == np.int64 and np.array_equal(R, R_ref)
        assert np.array_equal(K, copy)
        count += 1
    assert count == 267
    for M, K in _dependent_only_modulo_the_prime():
        r, piv, _ = _bareiss(K)
        assert (r, piv) == _modular_reference(K)[:2]
        assert r == _bareiss(M)[0] - 1 == M.shape[1] - 1


def _prefix_corpus():
    """Seeded exact matrices, as many columns as rows or more (the shape
    of the prefix test) and fewer, Fractions and plain ints: general,
    deficient (a column combining the ones before it) and dependent
    only modulo the prime (a column holding the prime, or such a
    combination plus the prime in one entry)."""
    rng = random.Random(46)
    for trial in range(240):
        m = rng.randint(1, 7)
        k = rng.randint(max(1, m - 2), 2 * m + 1)
        M = (_mixed(rng, m, k) if trial % 2 else
             np.array([[rng.randint(-4, 4) for _ in range(k)] for _ in range(m)],
                      dtype=object))
        c = rng.randrange(min(m, k))
        kind = trial % 8 // 2
        if kind == 1 and c:
            M[:, c] = M[:, :c] @ [rng.randint(-3, 3) for _ in range(c)]
        if kind == 2:
            M[:, c] = 0
            M[rng.randrange(m), c] = _PRIME
        if kind == 3 and c:
            M[:, c] = M[:, :c] @ [rng.randint(-3, 3) for _ in range(c)]
            M[rng.randrange(m), c] += _PRIME
        yield M


def _prefix_krylov_corpus():
    """Seeded exact (A, B) with one and two inputs: general, with an
    uncontrollable block, and with B's first column multiplied by the
    prime, so that its chain vanishes modulo the prime only."""
    rng = random.Random(47)
    for n in range(1, 8):
        for m in (1, 2):
            for kind in ("general", "split", "prime"):
                A, B = _mixed(rng, n, n), _mixed(rng, n, m)
                if kind == "split" and n > 1:
                    k = rng.randint(1, n - 1)
                    A[k:, :k] = Fraction(0)
                    B[k:] = Fraction(0)
                if kind == "prime":
                    B[:, 0] *= _PRIME
                yield A, B


def test_full_pivot_sets_proved_modulo_the_prime_match_elimination():
    # pivot_columns and krylov_pivots take the first rows(M) columns as
    # the pivots when they have rank rows(M) modulo the prime, and
    # eliminate over Q otherwise: both equal one `_bareiss` of the whole
    # matrix, also where columns are dependent only modulo the prime
    def prefix_full(K):
        m = K.shape[0]
        return m <= K.shape[1] and _modular_reference(
            _residues(_reference_key(K[:, :m])))[0] == m

    seen = set()
    for M in _prefix_corpus():
        piv = pivot_columns(M)
        assert piv == _bareiss(_integer_scaled(M)[0])[1]
        full = piv == list(range(M.shape[0]))
        assert full or not prefix_full(M)      # the prime never overstates
        seen.add(("matrix", full, prefix_full(M)))
    for A, B in _prefix_krylov_corpus():
        K = np.hstack([Z for Z, _ in _krylov_integers(A, B)])
        piv_ref = _bareiss(K)[1]
        piv, W, S = krylov_pivots(A, B)
        assert piv == piv_ref
        W_ref = _krylov_product(A, B)[:, piv_ref]
        assert all(type(x) is Fraction and x == y for x, y in zip(W.flat, W_ref.flat))
        assert W.shape == S.basis.shape == W_ref.shape
        full = piv == list(range(len(A)))
        assert full or not prefix_full(K)
        seen.add(("krylov", full, prefix_full(K)))
    # full sets proved by the prime, full sets that only elimination
    # finds, and deficient sets, for both routines
    assert seen == {(kind, full, proved) for kind in ("matrix", "krylov")
                    for full, proved in ((True, True), (True, False),
                                         (False, False))}


def test_input_matrices_take_one_rule():
    # B is one 1-D input column or a matrix with A's rows, wherever it is
    # taken: a 3-D B is refused, a B with other rows is "incompatible
    # dimensions", and a 1-D B gives what its column gives
    from dimvar import (ctrb_matrix, ctrb_subspace, kalman_decomposition,
                        min_energy_control, reduce_matrix_vec, rk4_integrate,
                        stp_action_matrix)
    with pytest.raises(ValueError, match=r"not shape \(2, 1, 1\)"):
        LinSys("x", eye(2), zeros((2, 1, 1)))
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    z0, z1 = np.zeros(2), np.ones(2)
    uses = {
        "LinSys": lambda B: LinSys("x", A, B).B,
        "ctrb_matrix": lambda B: ctrb_matrix(A, B),
        "ctrb_subspace": lambda B: ctrb_subspace(A, B).matrix,
        "kalman_decomposition": lambda B: kalman_decomposition(A, B).B_top,
        "rk4_integrate": lambda B: rk4_integrate(
            A, B, lambda t: np.ones(1), z0, 0.0, 0.1, 0.01).states,
        "min_energy_control": lambda B: min_energy_control(
            A, B, z0, z1, 0.0, 1.0),
        "stp_action_matrix": lambda B: stp_action_matrix(A, B),
    }
    b = np.array([0.0, 1.0])
    for name, use in uses.items():
        assert np.array_equal(use(b), use(b[:, None])), name
        with pytest.raises(ValueError, match="shape"):
            use(np.ones((2, 1, 1)))
    with pytest.raises(ValueError, match="B has 3 rows, A has 2"):
        uses.pop("LinSys")(np.ones((3, 1)))
    del uses["stp_action_matrix"]           # acts on B's class, any rows
    for name, use in uses.items():
        with pytest.raises(ValueError, match="incompatible dimensions"):
            use(np.ones((3, 1)))
    assert reduce_matrix_vec(vec([1, 1])).tolist() == [[1]]
    with pytest.raises(ValueError, match="shape"):
        reduce_matrix_vec(zeros((2, 1, 1)))


def test_subspace_shapes_are_checked():
    with pytest.raises(ValueError, match="basis must be ambient_dim x k"):
        SubspaceBasis(3, eye(2))
    with pytest.raises(ValueError, match="basis must be ambient_dim x k"):
        SubspaceBasis(2, vec([1, 0]))
