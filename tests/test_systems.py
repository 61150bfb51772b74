import math
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import rand_rational_matrix, rand_system
from dimvar import (LinSys, apply_pseudo_transform, build_transient_model,
                    ctrb_matrix, kalman_decomposition, kron, lift_system, mat,
                    ones_vector, project_system, rank, systems_equivalent,
                    vec)
from dimvar.numerics import eye, inverse, j_matrix


def test_linsys_validation():
    with pytest.raises(ValueError):
        LinSys("bad", mat([[1, 2]]), mat([[1]]))
    with pytest.raises(ValueError):
        LinSys("bad", mat([[1]]), mat([[1], [2]]))
    s = LinSys("ok", mat([[1]]), vec([2]))  # 1-D B becomes a column
    assert s.B.shape == (1, 1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_linsys_refuses_non_finite_floats(bad):
    # a NaN or inf in A or B is refused where the system is built, so a
    # float decision such as check_transient never runs on it
    A, B = np.zeros((2, 2)), np.ones((2, 1))
    for name, args in (("A", (np.array([[bad]]), np.ones((1, 1)))),
                       ("A", (np.diag([1.0, bad]), B)),
                       ("B", (A, np.array([1.0, bad])))):
        with pytest.raises(ValueError, match="^s: A and B must be finite$"):
            LinSys("s", *args)
    LinSys("s", mat([[1, 2], [3, 4]]), vec([1, 2]))  # exact: always finite


def test_lift_example1(ex1_s1, ex1_s2):
    l1 = lift_system(ex1_s1, 6)
    assert l1.A.shape == (6, 6)
    for i in range(3):
        for j in range(3):
            assert l1.A[i, 3 + j] == Fraction(1, 3)
    assert l1.B[:, 0].tolist() == [0, 0, 0, 1, 1, 1]
    l2 = lift_system(ex1_s2, 6)
    assert l2.A[0, 4] == l2.A[1, 5] == Fraction(1, 2)
    assert l2.A[4, 2] == l2.A[5, 3] == Fraction(1, 2)
    assert l2.B[:, 0].tolist() == [0, 0, 1, 1, 0, 0]
    assert lift_system(ex1_s1, 2) is ex1_s1
    with pytest.raises(ValueError):
        lift_system(ex1_s1, 5)


def test_lifting_an_empty_system_is_refused_by_name():
    # no n is a multiple k*p of p = 0: refused by name, not by n % 0
    empty = LinSys("z", np.zeros((0, 0)), np.zeros((0, 1)))
    for n in (0, 3):
        with pytest.raises(ValueError, match=f"cannot lift dimension 0 to {n}"):
            lift_system(empty, n)


def test_project_round_trip(ex1_s1):
    for k in (1, 2, 3):
        rep = project_system(lift_system(ex1_s1, 2 * k))
        assert rep.multiplier_stripped == k
        assert np.array_equal(rep.sys.A, ex1_s1.A)
        assert np.array_equal(rep.sys.B, ex1_s1.B)


def test_project_irreducible():
    s = LinSys("s", mat([[1, 2], [3, 4]]), mat([[1], [0]]))
    assert project_system(s).multiplier_stripped == 1


def test_systems_equivalent(ex1_s1, ex1_s2):
    assert systems_equivalent(ex1_s1, lift_system(ex1_s1, 6))
    assert not systems_equivalent(ex1_s1, ex1_s2)
    other = LinSys("o", mat([[1, 0], [0, 1]]), mat([[1], [0]]))
    assert not systems_equivalent(ex1_s1, other)


def test_systems_equivalent_on_lift_family():
    rng = random.Random(51)
    for _ in range(20):
        s = rand_system(rng, rng.randint(1, 3))
        family = [lift_system(s, s.dim * k) for k in (1, 2, 3)]
        for a in family:
            for b in family:
                assert systems_equivalent(a, b)


def test_lifting_preserves_ctrb_rank():
    rng = random.Random(53)
    for _ in range(50):
        s = rand_system(rng, rng.randint(1, 4))
        k = rng.randint(1, 3)
        lifted = lift_system(s, s.dim * k)
        r0 = rank(ctrb_matrix(s.A, s.B))
        assert rank(ctrb_matrix(lifted.A, lifted.B)) == r0
        # the lifted controllability matrix is the original (x) 1_k
        assert np.array_equal(ctrb_matrix(lifted.A, lifted.B)[:, :s.dim],
                              kron(ctrb_matrix(s.A, s.B)[:, :s.dim],
                                   ones_vector(k).reshape(-1, 1)))


def test_apply_pseudo_transform_identity_and_permutation(ex1_s1):
    same = apply_pseudo_transform(ex1_s1, eye(2))
    assert np.array_equal(same.A, ex1_s1.A)
    P = mat([[0, 1], [1, 0]])
    sw = apply_pseudo_transform(ex1_s1, P)
    assert sw.A.tolist() == [[0, 0], [1, 0]]
    assert sw.B[:, 0].tolist() == [1, 0]


def test_apply_pseudo_transform_round_trip():
    rng = random.Random(57)
    done = 0
    while done < 20:
        m = rng.randint(1, 3)
        T = rand_rational_matrix(rng, m, m)
        if rank(T) < m:
            continue
        s = rand_system(rng, m * rng.randint(1, 2))
        back = apply_pseudo_transform(apply_pseudo_transform(s, T), inverse(T))
        assert np.array_equal(back.A, s.A)
        assert np.array_equal(back.B, s.B)
        done += 1


def test_apply_pseudo_transform_errors(ex1_s1):
    with pytest.raises(ValueError):
        apply_pseudo_transform(ex1_s1, mat([[1, 1], [1, 1]]))  # singular
    s6 = lift_system(ex1_s1, 6)
    with pytest.raises(ValueError):
        apply_pseudo_transform(s6, eye(4))  # 4 does not divide 6


def test_pseudo_transform_reaches_kalman_form(ex1_model):
    base = ex1_model.base
    kd = kalman_decomposition(base.A, base.B)
    transformed = apply_pseudo_transform(base, kd.T)
    k = kd.ctrb_dim
    assert all(transformed.A[i, j] == 0
               for i in range(k, base.dim) for j in range(k))
    assert all(transformed.B[i, j] == 0
               for i in range(k, base.dim) for j in range(base.n_inputs))


@pytest.mark.parametrize("exact", [True, False])
def test_lift_and_blend_match_kronecker_reference(exact):
    # replication gives the Kronecker products entry for entry, Fraction
    # for Fraction in exact and bit for bit in float
    rng = random.Random(31)
    for p, q in ((2, 3), (4, 6), (3, 3), (2, 6)):
        s1, s2 = rand_system(rng, p, 2), rand_system(rng, q, 1)
        if not exact:
            s1, s2 = (LinSys(s.name, s.A.astype(float) * rng.uniform(0.1, 10),
                             s.B.astype(float)) for s in (s1, s2))
        n = math.lcm(p, q)
        J = {d: j_matrix(n // d, exact) for d in (p, q)}
        ones = {d: ones_vector(n // d, exact).reshape(-1, 1) for d in (p, q)}
        l1 = lift_system(s1, n)
        assert np.array_equal(l1.A, np.kron(s1.A, J[p]))
        assert np.array_equal(l1.B, np.kron(s1.B, ones[p]))
        for alpha, beta in ((Fraction(3, 2), Fraction(1, 2)), (0.3, 0.7)):
            model = build_transient_model(s1, s2, alpha=alpha, beta=beta)
            a, b = model.weights
            assert np.array_equal(model.base.A, a * np.kron(s1.A, J[p]) +
                                  b * np.kron(s2.A, J[q]))
            assert np.array_equal(model.base.B, np.hstack([
                a * np.kron(s1.B, ones[p]), b * np.kron(s2.B, ones[q])]))
            if exact:
                assert all(isinstance(x, Fraction) for x in model.base.A.flat)


def _blend_reference(s1, s2, a, b):
    """The blend from its definition: Kronecker products on R^n."""
    n = math.lcm(s1.dim, s2.dim)
    exact = s1.A.dtype == object
    J = {s.dim: j_matrix(n // s.dim, exact) for s in (s1, s2)}
    ones = {s.dim: ones_vector(n // s.dim, exact).reshape(-1, 1)
            for s in (s1, s2)}
    return (a * np.kron(s1.A, J[s1.dim]) + b * np.kron(s2.A, J[s2.dim]),
            np.hstack([a * np.kron(s1.B, ones[s1.dim]),
                       b * np.kron(s2.B, ones[s2.dim])]))


def _identical(got, want):
    """Same shape and dtype, and entry for entry the same type and bits."""
    assert got.shape == want.shape and got.dtype == want.dtype
    if got.dtype == object:
        assert [type(x) for x in got.flat] == [type(x) for x in want.flat]
        assert got.tolist() == want.tolist()
    else:
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("exact", [True, False])
def test_blend_on_segments_matches_kronecker_reference(exact):
    # the blend is summed once per pair of segments of the common
    # refinement of the k-blocks and m-blocks, then repeated; entries
    # and their types equal the Kronecker definition's
    rng = random.Random(47)
    dims = ((2, 6), (3, 9), (4, 4), (5, 7), (6, 10), (11, 13), (7, 2))
    weights = (dict(masses=(1, 1)), dict(masses=(1, 2)),
               dict(alpha=Fraction(3, 2), beta=Fraction(1, 3)),
               dict(alpha="0.7", beta=2))
    for p, q in dims:
        for kw in weights:
            s1, s2 = (LinSys(f"s{d}", rand_rational_matrix(rng, d, d, -9, 9)
                             / rng.randint(1, 7),
                             rand_rational_matrix(rng, d, rng.randint(1, 2)))
                      for d in (p, q))
            if not exact:       # ill-scaled floats, signed zeros included
                s1, s2 = (LinSys(s.name, s.A.astype(float)
                                 * 10.0 ** rng.uniform(-8, 8),
                                 s.B.astype(float) * -rng.uniform(0.1, 10))
                          for s in (s1, s2))
            model = build_transient_model(s1, s2, **kw)
            A, B = _blend_reference(s1, s2, *model.weights)
            _identical(model.base.A, A)
            _identical(model.base.B, B)
            if exact:
                assert all(type(x) is Fraction for x in model.base.A.flat)


def test_exact_blend_is_built_from_integer_numerators():
    # the segment values equal the Fraction formula alpha a1 / k +
    # beta a2 / m and [alpha b1 | beta b2], entry for entry and as
    # Fractions, for Fraction entries, two inputs and non-unit weights
    rng = random.Random(46)
    for p, q in ((2, 3), (4, 6), (5, 7), (3, 9), (6, 4)):
        for kw in (dict(alpha=Fraction(2), beta=Fraction(1, 3)),
                   dict(masses=(1, 2)), dict(alpha="0.7", beta=5)):
            s1, s2 = (LinSys(f"s{d}", rand_rational_matrix(rng, d, d, -9, 9)
                             / rng.randint(1, 7),
                             rand_rational_matrix(rng, d, 2) / rng.randint(1, 5))
                      for d in (p, q))
            model = build_transient_model(s1, s2, **kw)
            n = math.lcm(p, q)
            alpha, beta = model.weights
            rows = list(zip(*model.rows))
            A = np.array([[alpha * s1.A[a, b] / (n // p) + beta * s2.A[c, d] / (n // q)
                           for b, d in rows] for a, c in rows], dtype=object)
            B = np.array([[alpha * x for x in s1.B[a]] + [beta * x for x in s2.B[c]]
                          for a, c in rows], dtype=object)
            _identical(model.A, A)
            _identical(model.B, B)
            assert all(type(x) is Fraction for x in [*model.A.flat, *model.B.flat])


def test_systems_equivalent_needs_equal_input_counts():
    s1 = LinSys("a", eye(2), mat([[1], [0]]))
    s2 = LinSys("b", eye(2), eye(2))
    with pytest.raises(ValueError, match="input counts differ"):
        systems_equivalent(s1, s2)


def test_pseudo_transform_needs_a_square_T():
    s = LinSys("a", eye(2), mat([[1], [0]]))
    with pytest.raises(ValueError, match="T must be square"):
        apply_pseudo_transform(s, mat([[1, 0]]))
