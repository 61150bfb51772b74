import math
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import rand_rational_matrix, rand_rational_vector
from dimvar import (DEFAULT_TOL, LinSys, j_matrix, kron, lift_system, mat,
                    mat_equivalent, mat_vec_equivalent, ones_vector,
                    project_system, reduce_matrix, reduce_matrix_vec,
                    reduce_vector, second_stp, stp_action, stp_action_matrix,
                    stp_identity_action, systems_equivalent, vec, vec_add,
                    vec_equivalent, vec_sub)
from dimvar.numerics import Tolerance, equality_key, eye, inverse, zeros


def test_reduce_vector_basic():
    assert reduce_vector(vec([1, 1, 2, 2])).irreducible.tolist() == [1, 2]
    mv = reduce_vector(vec(["0", "0", "0", "3/2", "3/2", "3/2"]))
    assert mv.irreducible.tolist() == [0, Fraction(3, 2)]
    assert mv.multiplicity == 3
    assert reduce_vector(vec([1, 2, 3])).irreducible.tolist() == [1, 2, 3]


def test_reduce_vector_idempotent():
    rng = random.Random(3)
    for _ in range(50):
        x = rand_rational_vector(rng, rng.randint(1, 12))
        r = reduce_vector(x).irreducible
        assert reduce_vector(r).irreducible.tolist() == r.tolist()


def test_reduce_vector_mixed_factors():
    # reducible by 2 and by 3 through different intermediate orders
    x = kron(vec([5]), ones_vector(12))
    assert reduce_vector(x).irreducible.tolist() == [5]


def test_vec_equivalent_basic():
    assert vec_equivalent(vec([1, 2]), vec([1, 1, 2, 2]))
    assert not vec_equivalent(vec([1, 2]), vec([1, 2, 3]))
    assert vec_equivalent(vec([1, 1]), vec([1, 1, 1]))


def test_vec_equivalent_is_equivalence_relation():
    rng = random.Random(5)
    for _ in range(200):
        x = rand_rational_vector(rng, rng.randint(1, 6))
        a, b, c = (rng.randint(1, 3) for _ in range(3))
        xa = kron(x, ones_vector(a))
        xb = kron(x, ones_vector(b))
        xc = kron(x, ones_vector(c))
        assert vec_equivalent(xa, xa)                      # reflexive
        assert vec_equivalent(xa, xb) == vec_equivalent(xb, xa)
        assert vec_equivalent(xa, xb) and vec_equivalent(xb, xc)
        assert vec_equivalent(xa, xc)                      # transitive


def test_vec_add():
    assert vec_add(vec([1, 2]), vec([1, 2, 3])).tolist() == [2, 2, 3, 4, 5, 5]
    assert vec_add(vec([1]), vec([1, 2])).tolist() == [2, 3]
    x = vec([3, -1, 4])
    assert vec_sub(x, x).tolist() == [0, 0, 0]


def test_vec_add_class_consistency():
    rng = random.Random(9)
    for _ in range(200):
        x = rand_rational_vector(rng, rng.randint(1, 4))
        y = rand_rational_vector(rng, rng.randint(1, 4))
        a, b = rng.randint(1, 3), rng.randint(1, 3)
        lifted = vec_add(kron(x, ones_vector(a)), kron(y, ones_vector(b)))
        assert vec_equivalent(lifted, vec_add(x, y))


def test_reduce_matrix():
    rep = reduce_matrix(j_matrix(4))
    assert rep.irreducible.tolist() == [[1]]
    assert rep.multiplier == 4
    A = mat([[1, 2], [3, 4]])
    assert mat_equivalent(A, kron(A, j_matrix(2)))


def test_mat_equivalent_example_systems():
    A1 = mat([[0, 1], [0, 0]])
    A2 = mat([[0, 0, 1], [0, 0, 0], [0, 1, 0]])
    assert not mat_equivalent(A1, A2)


def test_mat_vec_equivalent():
    B = mat([[0], [1]])
    assert mat_vec_equivalent(B, kron(B, ones_vector(2).reshape(-1, 1)))
    assert mat_vec_equivalent(mat([[0], [1]]), mat([[0], [0], [1], [1]]))
    assert not mat_vec_equivalent(mat([[0], [1]]), mat([[0], [1], [0]]))
    assert reduce_matrix_vec(mat([[0], [0], [1], [1]])).tolist() == [[0], [1]]


def test_second_stp():
    A = rand_rational_matrix(random.Random(1), 2, 3)
    B = rand_rational_matrix(random.Random(2), 3, 2)
    assert np.array_equal(second_stp(A, B), A @ B)  # matching dims
    assert np.array_equal(second_stp(j_matrix(2), j_matrix(3)), j_matrix(6))
    assert np.array_equal(second_stp(A, eye(3)), A)


def test_second_stp_class_consistency():
    rng = random.Random(21)
    for _ in range(200):
        A = rand_rational_matrix(rng, rng.randint(1, 3), rng.randint(1, 3))
        B = rand_rational_matrix(rng, rng.randint(1, 3), rng.randint(1, 3))
        a, b = rng.randint(1, 2), rng.randint(1, 2)
        lifted = second_stp(kron(A, j_matrix(a)), kron(B, j_matrix(b)))
        assert mat_equivalent(lifted, second_stp(A, B))


def test_stp_action():
    A = mat([[1, 2], [3, 4]])
    x = vec([5, 6])
    assert np.array_equal(stp_action(A, x), A @ x)
    out = stp_action(eye(2), vec([1, 2, 3, 4]))
    assert out.tolist() == [Fraction(3, 2), Fraction(3, 2),
                            Fraction(7, 2), Fraction(7, 2)]


def test_stp_action_class_invariance():
    rng = random.Random(33)
    for _ in range(200):
        A = rand_rational_matrix(rng, rng.randint(1, 3), rng.randint(1, 3))
        x = rand_rational_vector(rng, rng.randint(1, 6))
        a, b = rng.randint(1, 2), rng.randint(1, 3)
        lifted = stp_action(kron(A, j_matrix(a)), kron(x, ones_vector(b)))
        assert vec_equivalent(lifted, stp_action(A, x))


def test_stp_action_matrix():
    A = mat([[1, 0], [0, 1]])
    B = mat([[1, 2], [3, 4]])
    assert np.array_equal(stp_action_matrix(A, B), B)
    # Example-sized mixed case: 2x2 acting on a 3-vector
    A1 = mat([[0, 1], [0, 0]])
    B2 = mat([[0], [1], [0]])
    out = stp_action_matrix(A1, B2)
    expect = [Fraction(1, 3)] * 3 + [0, 0, 0]
    assert out[:, 0].tolist() == expect
    # column-by-column consistency with the vector action
    rng = random.Random(41)
    for _ in range(30):
        A = rand_rational_matrix(rng, rng.randint(1, 3), rng.randint(1, 3))
        B = rand_rational_matrix(rng, rng.randint(1, 4), rng.randint(1, 3))
        out = stp_action_matrix(A, B)
        for j in range(B.shape[1]):
            assert out[:, j].tolist() == stp_action(A, B[:, j]).tolist()


def test_stp_identity_action():
    A = mat([[1, 2], [3, 4]])
    assert np.array_equal(stp_identity_action(A, vec([5, 6])), A @ vec([5, 6]))
    out = stp_identity_action(eye(2), vec([1, 2, 3, 4]))
    assert out.tolist() == [1, 2, 3, 4]


def test_identity_action_commutes_with_lifting():
    # T acting on y (x) 1_a equals (T y) (x) 1_a for square T
    rng = random.Random(43)
    for _ in range(50):
        m = rng.randint(1, 4)
        T = rand_rational_matrix(rng, m, m)
        y = rand_rational_vector(rng, m)
        a = rng.randint(1, 3)
        lhs = stp_identity_action(T, kron(y, ones_vector(a)))
        rhs = kron(T @ y, ones_vector(a))
        assert lhs.tolist() == rhs.tolist()


def test_identity_action_invertible_on_classes():
    rng = random.Random(47)
    done = 0
    while done < 50:
        m = rng.randint(1, 3)
        T = rand_rational_matrix(rng, m, m)
        from dimvar import rank
        if rank(T) < m:
            continue
        x = rand_rational_vector(rng, rng.randint(1, 6))
        y = stp_identity_action(inverse(T), stp_identity_action(T, x))
        assert vec_equivalent(y, x)
        done += 1


# -- factor stripping against a scalar reference ----------------------------

def _ref_block_constant(X, s, j, tol):
    """Every entry equals the first entry of its s x s (j) or s x 1 block."""
    t = s if j else 1
    m, n = X.shape
    for i in range(m):
        for c in range(n):
            a, first = X[i, c], X[i - i % s, c - c % t]
            if X.dtype == object:
                ok = a == first
            else:
                a, first = float(a), float(first)
                ok = abs(a - first) <= max(tol.abs,
                                           tol.rel * max(abs(a), abs(first)))
            if not ok:
                return False
    return True


def _ref_block_rep(X, s, j):
    """First entry (exact) or mean (float) of each block, times s for J."""
    t = s if j else 1
    m, n = X.shape
    rows = []
    for i in range(0, m, s):
        row = []
        for c in range(0, n, t):
            block = [X[i + a, c + b] for a in range(s) for b in range(t)]
            v = block[0] if X.dtype == object else sum(block) / len(block)
            row.append(v * t)
        rows.append(row)
    return np.array(rows, dtype=X.dtype).reshape(m // s, n // t)


def _ref_strip(parts, tol=DEFAULT_TOL):
    """Largest divisor first, entry by entry, repeated until none strips."""
    reps = [X for X, _ in parts]
    mult = 1
    while True:
        g = 0
        for X, (_, j) in zip(reps, parts):
            g = math.gcd(g, X.shape[0], X.shape[1] if j else 0)
        for s in range(g, 1, -1):
            if g % s == 0 and all(_ref_block_constant(X, s, j, tol)
                                  for X, (_, j) in zip(reps, parts)):
                reps = [_ref_block_rep(X, s, j) for X, (_, j) in zip(reps, parts)]
                mult *= s
                break
        else:
            return reps, mult


def _assert_same(got, want):
    assert got.shape == want.shape
    if want.dtype == object:
        assert got.dtype == object and got.tolist() == want.tolist()
        assert [type(e) for e in got.flat] == [type(e) for e in want.flat]
    else:
        assert np.allclose(got, want, rtol=1e-14, atol=0.0)


def _check_strip_matches_reference(A, B, x, tol=DEFAULT_TOL):
    (rx,), _ = _ref_strip([(x.reshape(-1, 1), False)], tol)
    _assert_same(reduce_vector(x, tol).irreducible, rx[:, 0])
    (ra,), ka = _ref_strip([(A, True)], tol)
    rep = reduce_matrix(A, tol)
    _assert_same(rep.irreducible, ra)
    assert rep.multiplier == ka
    (rb,), _ = _ref_strip([(B, False)], tol)
    _assert_same(reduce_matrix_vec(B, tol), rb)
    (rsa, rsb), ks = _ref_strip([(A, True), (B, False)], tol)
    if A.shape[0] == A.shape[1]:
        prj = project_system(LinSys("s", A, B), tol)
        _assert_same(prj.sys.A, rsa)
        _assert_same(prj.sys.B, rsb)
        assert prj.multiplier_stripped == ks


@pytest.mark.parametrize("exact", [True, False])
def test_strip_matches_reference_on_lifts(exact):
    rng = random.Random(31 if exact else 37)
    for trial in range(60):
        p, k = rng.randint(1, 3), rng.choice([1, 2, 3, 4, 6, 12])
        inputs = rng.randint(0, 2)
        s = LinSys("s", rand_rational_matrix(rng, p, p),
                   rand_rational_matrix(rng, p, inputs))
        big = lift_system(s, p * k)
        A, B = big.A.copy(), big.B
        x = kron(rand_rational_vector(rng, p), ones_vector(k))
        if trial % 4 == 0:                 # break one block
            A[-1, 0] += 1
            x[-1] += 1
        if not exact:
            A, B, x = (M.astype(float) for M in (A, B, x))
        _check_strip_matches_reference(A, B, x)


def test_strip_matches_reference_near_tolerance():
    # strips 2, then 2 again: the block means fall within the tolerance
    x = np.array([0, 8e-13, 8e-13, 1.6e-12])
    assert reduce_vector(x).irreducible.tolist() == [8e-13]
    assert reduce_vector(x).multiplicity == 4
    eps = DEFAULT_TOL.rel
    for x in (x,
              np.array([1.0, 1.0 + 0.9 * eps, 1.0, 1.0 + 0.9 * eps]),
              np.array([1.0, 1.0 + 1.1 * eps, 1.0, 1.0 + 1.1 * eps]),
              np.array([0.0, 0.9e-12, 2.0, 2.0 + 1.9 * eps]),
              np.arange(8) * 1e-12 / 7,
              np.arange(12) * 3e-13):
        A = np.outer(x, x[::-1])
        _check_strip_matches_reference(A, np.column_stack([x, 2 * x]), x)
    loose = Tolerance(rel=1e-6, abs=1e-8)
    x = np.kron([1.0, -2.0, 3.0], np.ones(6)) * (1 + 1e-7 * np.arange(18))
    _check_strip_matches_reference(np.outer(x, x), x.reshape(-1, 1), x, loose)


def test_strip_matches_reference_zero_input_columns():
    A = kron(mat([[1, 2], [3, 4]]), j_matrix(3))
    for B in (np.zeros((6, 0), dtype=object), np.zeros((6, 0))):
        A_ = A if B.dtype == object else A.astype(float)
        _check_strip_matches_reference(A_, B, A_[:, 0])
        assert project_system(LinSys("s", A_, B)).sys.B.shape == (2, 0)


def test_strip_matches_reference_non_square():
    rng = random.Random(41)
    for _ in range(20):
        A0 = rand_rational_matrix(rng, rng.randint(1, 3), rng.randint(1, 3))
        A = kron(A0, j_matrix(rng.choice([1, 2, 3, 4])))
        for M in (A, A.astype(float), np.hstack([A, A]), A[:, :1]):
            (ra,), ka = _ref_strip([(M, True)])
            rep = reduce_matrix(M)
            _assert_same(rep.irreducible, ra)
            assert rep.multiplier == ka


def _rebuilt(X, rng, blocks, s, j, share=1.0):
    """X with the entries of `blocks` random s-blocks (s x s with j, else
    s x 1), each with probability `share`, replaced by equal but
    distinct objects: the identity tokens then change inside a block."""
    X = X.copy()
    t = s if j else 1
    for _ in range(blocks if X.size else 0):
        bi, bc = rng.randrange(X.shape[0] // s), rng.randrange(X.shape[1] // t)
        for a in range(s):
            for b in range(t):
                if rng.random() < share:
                    e = X[bi * s + a, bc * t + b]
                    X[bi * s + a, bc * t + b] = Fraction(e.numerator,
                                                         e.denominator)
    return X


def test_strip_matches_reference_on_partly_shared_objects():
    # the token step finds a factor that divides the true one, the key
    # step the rest; every block mix of shared and rebuilt objects must
    # end where the entry-by-entry reference does
    rng = random.Random(61)
    for trial in range(80):
        p, k = rng.randint(1, 3), rng.choice([2, 3, 4, 6, 12])
        s = LinSys("s", rand_rational_matrix(rng, p, p),
                   rand_rational_matrix(rng, p, rng.randint(0, 2)))
        big = lift_system(s, p * k)
        x = kron(rand_rational_vector(rng, p), ones_vector(k))
        share = rng.choice([0.3, 1.0])
        A = _rebuilt(big.A, rng, rng.randint(1, 3), k, True, share)
        B = _rebuilt(big.B, rng, rng.randint(0, 2), k, False, share)
        x = _rebuilt(x.reshape(-1, 1), rng, rng.randint(1, 2), k, False,
                     share)[:, 0]
        assert len({id(e) for e in A.flat}) > len({id(e) for e in big.A.flat})
        if trial % 4 == 0:                 # break one block
            A[-1, 0] += 1
            x[-1] += 1
        _check_strip_matches_reference(A, B, x)
        if A.shape[0] > 1:                 # a non-square J part
            M = A[:, :A.shape[1] // 2 or 1]
            (ra,), ka = _ref_strip([(M, True)])
            rep = reduce_matrix(M)
            _assert_same(rep.irreducible, ra)
            assert rep.multiplier == ka


def test_strip_matches_reference_on_ints_mixed_with_fractions():
    # 1 and Fraction(1) are equal but distinct objects of two types; a
    # representative keeps the type of each block's first entry
    rng = random.Random(67)
    for trial in range(60):
        p, k = rng.randint(1, 3), rng.choice([1, 2, 3, 4])
        vals = [rng.choice([0, 1, -2]) for _ in range(p * p + 2 * p)]
        A0 = np.array(vals[:p * p], dtype=object).reshape(p, p)
        B0 = np.array(vals[p * p:p * p + p], dtype=object).reshape(p, 1)
        x0 = np.array(vals[p * p + p:], dtype=object)
        A, B, x = (np.array([rng.choice([e, Fraction(e)]) for e in M.flat],
                            dtype=object).reshape(M.shape)
                   for M in (np.repeat(np.repeat(A0, k, 0), k, 1),
                             np.repeat(B0, k, 0), np.repeat(x0, k)))
        if trial % 3 == 0:                 # zero-column B, jointly with A
            B = np.zeros((p * k, 0), dtype=object)
        _check_strip_matches_reference(A, B, x)


@pytest.mark.parametrize("exact", [True, False])
def test_strip_matches_reference_on_0x0_and_1x1(exact):
    cast = (lambda M: M) if exact else (lambda M: M.astype(float))
    for A, B in ((np.zeros((0, 0), dtype=object), np.zeros((0, 2), dtype=object)),
                 (mat([["3/2"]]), mat([["-1", "2"]])),
                 (mat([["3/2"]]), np.zeros((1, 0), dtype=object))):
        A, B = cast(A), cast(B)
        (ra,), ka = _ref_strip([(A, True)])
        rep = reduce_matrix(A)
        _assert_same(rep.irreducible, ra)
        assert rep.multiplier == ka == 1
        (rsa, rsb), ks = _ref_strip([(A, True), (B, False)])
        prj = project_system(LinSys("s", A, B))
        _assert_same(prj.sys.A, rsa)
        _assert_same(prj.sys.B, rsb)
        assert prj.multiplier_stripped == ks == 1
        if A.size:
            _check_strip_matches_reference(A, B, A[0])


def test_float_representative_of_equal_entries_is_exact():
    # the mean of three 0.1s is 0.10000000000000002; the first entry
    # plus the mean offset from it is 0.1
    mv = reduce_vector(np.full(3, 0.1))
    assert mv.irreducible.tolist() == [0.1] and mv.multiplicity == 3
    rng = np.random.default_rng(71)
    for _ in range(28):
        n, k = int(rng.integers(1, 8)), int(rng.integers(2, 7))
        x0, A0 = rng.normal(size=n), rng.normal(size=(n, n))
        mv = reduce_vector(np.repeat(x0, k))
        assert mv.multiplicity == k
        assert mv.irreducible.tobytes() == x0.tobytes()
        rep = reduce_matrix(np.repeat(np.repeat(A0, k, 0), k, 1))
        assert rep.multiplier == k
        assert rep.irreducible.tobytes() == (A0 * k).tobytes()


# -- exact comparison keys ---------------------------------------------------

def _check_every_entry_point(A, B, x, A0, B0, x0, equivalent):
    """All stripping entry points on (A, B, x) against the scalar
    reference, and every class equality against (A0, B0, x0)."""
    _check_strip_matches_reference(A, B, x)
    s, s0 = LinSys("s", A, B), LinSys("s0", A0, B0)
    assert vec_equivalent(x, x0) is equivalent
    assert mat_equivalent(A, A0) is equivalent
    assert mat_vec_equivalent(B, B0) is equivalent
    assert systems_equivalent(s, s0) is equivalent


def test_keys_keep_near_equal_large_values_apart():
    # a 1e-9 relative tolerance would merge a and b; exact keys must not
    a, b = Fraction(10**12, 7), Fraction(10**12 + 1, 7)
    x = kron(np.array([a, b], dtype=object), ones_vector(3))
    assert reduce_vector(x).irreducible.tolist() == [a, b]
    A0 = np.array([[a, b], [b, a]], dtype=object)
    A = kron(A0, j_matrix(3))
    rep = reduce_matrix(A)
    assert rep.irreducible.tolist() == A0.tolist() and rep.multiplier == 3
    B = np.column_stack([x, x[::-1]])
    assert reduce_matrix_vec(B).tolist() == [[a, b], [b, a]]
    assert project_system(LinSys("s", A, B)).multiplier_stripped == 3
    # against the class of the all-a objects, which a tolerance would join
    full = np.full((2, 2), a, dtype=object)
    _check_every_entry_point(A, B, x, full, full, full[0], False)
    _check_every_entry_point(A, B, x, A0, B[::3], x[::3], True)


def test_keys_beyond_int64_fall_back_to_python_ints():
    big = 10**30
    x0 = np.array([Fraction(big, big + 7), Fraction(big + 1, big + 7),
                   Fraction(-big, 3)], dtype=object)
    assert equality_key(x0).dtype == object
    assert equality_key(vec([1, "2/3"])).dtype == np.int64
    x = kron(x0, ones_vector(4))
    A0 = np.outer(x0, x0[::-1])
    A = kron(A0, j_matrix(4))
    B = np.column_stack([x, -x])
    assert reduce_vector(x).irreducible.tolist() == x0.tolist()
    assert reduce_matrix(A).irreducible.tolist() == A0.tolist()
    _check_every_entry_point(A, B, x, A0, B[::4], x0, True)
    bumped, A_bumped = x.copy(), A.copy()
    bumped[-1] += Fraction(1, big)
    A_bumped[-1, 0] += Fraction(1, big)
    _check_every_entry_point(A_bumped, np.column_stack([bumped, -x]), bumped,
                             A0, B[::4], x0, False)


def test_keys_of_plain_int_and_mixed_object_arrays():
    x = np.array([1, Fraction(1), 1, Fraction(1), 2, 2, 2, 2], dtype=object)
    mv = reduce_vector(x)
    assert mv.irreducible.tolist() == [1, 2] and mv.multiplicity == 4
    assert type(mv.irreducible[0]) is int
    A0 = np.array([[1, -2], [0, 3]], dtype=object)
    A = np.repeat(np.repeat(A0, 3, axis=0), 3, axis=1)    # A0 (x) 1 1^T
    B = np.repeat(np.array([[5], [5]], dtype=object), 3, axis=0)
    assert reduce_matrix(A).irreducible.tolist() == (3 * A0).tolist()
    _check_every_entry_point(A, B, x, 3 * A0, B[::3], x[::4], True)
    _check_every_entry_point(A, B, x, A0, B[::3] + 1, x[::-4], False)


def test_keys_of_equal_fractions_that_are_distinct_objects():
    # parsed entry by entry, so no two entries are the same object
    x = vec(["1/3", "1/3", "1/3", "-2/5", "-2/5", "-2/5"])
    assert len({id(e) for e in x}) == 6
    assert reduce_vector(x).irreducible.tolist() == [Fraction(1, 3),
                                                     Fraction(-2, 5)]
    base = [["1/6", "0"], ["5/4", "-7"]]
    A = mat([[e for e in row for _ in range(3)] for row in base
             for _ in range(3)])
    B = mat([["2/9"]] * 3 + [["1"]] * 3)
    A0 = 3 * mat(base)
    assert reduce_matrix(A).irreducible.tolist() == A0.tolist()
    _check_every_entry_point(A, B, x, A0, mat([["2/9"], ["1"]]), x[::3], True)


def test_strip_keys_match_reference_up_to_n130():
    rng = random.Random(59)
    cases = ((10, 13), (13, 10), (5, 26), (26, 5), (2, 65), (65, 2),
             (1, 130), (3, 40), (4, 30), (6, 20), (12, 10), (7, 16))
    for p, k in cases:
        s = LinSys("s", np.array([[Fraction(rng.randint(-4, 4), rng.randint(1, 6))
                                   for _ in range(p)] for _ in range(p)],
                                 dtype=object),
                   rand_rational_matrix(rng, p, rng.randint(1, 2)))
        big = lift_system(s, p * k)
        A, B = big.A.copy(), big.B.copy()
        x = kron(rand_rational_vector(rng, p), ones_vector(k))
        if rng.random() < 0.5:                 # break one block
            i, j = rng.randrange(p * k), rng.randrange(p * k)
            A[i, j] += Fraction(1, 10**12)
            B[i, 0] += 1
            x[j] += Fraction(1, 7)
        # the same values as distinct objects
        A_, B_, x_ = (np.array([Fraction(str(e)) for e in M.flat],
                               dtype=object).reshape(M.shape)
                      for M in (A, B, x))
        _check_strip_matches_reference(A, B, x)
        _check_strip_matches_reference(A_, B_, x_)
        assert systems_equivalent(LinSys("a", A, B), LinSys("b", A_, B_))
        assert mat_equivalent(A, A_) and vec_equivalent(x, x_)


def test_vec_add_takes_vectors_or_single_columns():
    x, y = vec([1, 2]), vec([1, 1, 1])
    assert vec_add(x[:, None], y).tolist() == vec_add(x, y).tolist()
    assert vec_sub(x, y[:, None]).tolist() == [0, 0, 0, 1, 1, 1]
    for bad in (mat([[1, 2], [3, 4]]), mat([[1, 2]]), zeros((2, 1, 1))):
        with pytest.raises(ValueError):
            vec_add(bad, y)


def test_reduce_vector_refuses_an_empty_vector():
    with pytest.raises(ValueError, match="empty vector"):
        reduce_vector(vec([]))


def test_empty_and_non_positive_dimensions_are_refused_by_name():
    # each refusal names the dimensions instead of dividing by zero
    s = LinSys("s", mat([[0, 1], [0, 0]]), mat([[0], [1]]))
    for n in (0, -2, 1, 3):
        with pytest.raises(ValueError, match=f"cannot lift dimension 2 to {n}"):
            lift_system(s, n)
    A, empty = mat([[1, 2], [3, 4]]), vec([])
    for call in (lambda: vec_add(empty, vec([1])),
                 lambda: vec_add(vec([1]), empty),
                 lambda: vec_sub(empty, empty),
                 lambda: stp_action(A, empty),
                 lambda: stp_action_matrix(A, zeros((0, 2))),
                 lambda: stp_identity_action(A, empty),
                 lambda: second_stp(A, zeros((0, 2))),
                 lambda: second_stp(zeros((2, 0)), A)):
        with pytest.raises(ValueError, match=r"empty operand: dimensions \d+ and \d+"):
            call()
