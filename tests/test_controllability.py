import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import rand_rational_matrix, rand_system
from dimvar import (LinSys, build_transient_model, check_modeling_condition,
                    ctrb_matrix, ctrb_subspace, in_span, kalman_decomposition,
                    lift_system, mat, quotient_ctrb_subspace, rank, vec,
                    vec_equivalent)
from dimvar import SubspaceBasis, realization
from dimvar.controllability import _class_reps
from dimvar.mixdim import reduce_vector
from dimvar.numerics import (DEFAULT_TOL, krylov_pivots, pivot_columns,
                             to_float, zeros)

# the blend controllability matrix of the running example, frozen from
# an exact recomputation (column k+1 = A* times column k, checked by
# hand for the first columns of each input channel)
EX1_CZ_B1 = [
    ["0", "3", "9/16", "27/32", "9/64", "27/128"],
    ["0", "3", "9/16", "27/32", "9/64", "27/128"],
    ["0", "9/4", "3/8", "9/16", "3/32", "9/64"],
    ["3/2", "0", "0", "0", "0", "0"],
    ["3/2", "3/8", "9/16", "3/32", "9/64", "3/128"],
    ["3/2", "3/8", "9/16", "3/32", "9/64", "3/128"],
]
EX1_CZ_B2 = [
    ["0", "1/4", "3/8", "3/32", "3/32", "3/128"],
    ["0", "1/4", "3/8", "3/32", "3/32", "3/128"],
    ["1/2", "1/4", "1/4", "1/16", "1/16", "1/64"],
    ["1/2", "0", "0", "0", "0", "0"],
    ["0", "1/4", "1/16", "1/16", "1/64", "1/64"],
    ["0", "1/4", "1/16", "1/16", "1/64", "1/64"],
]


def test_ctrb_matrix_example1(ex1_s1, ex1_s2):
    C1 = ctrb_matrix(ex1_s1.A, ex1_s1.B)
    assert C1.tolist() == [[0, 1], [1, 0]]
    C2 = ctrb_matrix(ex1_s2.A, ex1_s2.B)
    assert rank(C2) == 3


def test_ctrb_matrix_example1_blend(ex1_model):
    A, B1, B2 = ex1_model.base.A, ex1_model.B1_star, ex1_model.B2_star
    grouped = np.hstack([ctrb_matrix(A, B1), ctrb_matrix(A, B2)])
    expect = np.hstack([mat(EX1_CZ_B1), mat(EX1_CZ_B2)])
    assert np.array_equal(grouped, expect)
    # the corrected entry at row 3 of the second column: row 3 of A
    # dotted with B1 gives (1/2)(3/2) = 9/4
    assert grouped[2, 1] == Fraction(9, 4)


def _fraction_krylov(A, B):
    """Reference: [B, AB, ..., A^{n-1}B] by plain Fraction products."""
    blocks = [B]
    for _ in range(A.shape[0] - 1):
        blocks.append(A @ blocks[-1])
    return np.hstack(blocks)


def test_ctrb_matrix_matches_fraction_products(monkeypatch):
    # the (p + q - g)-dimensional segment system the modeling check
    # forms for a (5,7) pair with weights 3/2 and 1/3, (A diag(lengths),
    # B); the modular certificate, which proves it full, reads the
    # model's own numerators N_A, N_B and lengths, and no subsystem's
    # _krylov_columns runs
    seen = []
    certify, columns = realization._certify_full_krylov, realization._krylov_columns

    def spy(A, B, tol):
        seen.append((A, B, None))
        return columns(A, B, tol)

    def certify_spy(A, B, scale):
        seen.append((A, B, scale))
        return certify(A, B, scale)

    monkeypatch.setattr(realization, "_krylov_columns", spy)
    monkeypatch.setattr(realization, "_certify_full_krylov", certify_spy)
    rng = random.Random(41)
    s1, s2 = rand_system(rng, 5, 2), rand_system(rng, 7)
    model = build_transient_model(s1, s2, alpha=Fraction(3, 2),
                                  beta=Fraction(1, 3))
    check_modeling_condition(s1, s2, model)
    assert [len(A) for A, *_ in seen] == [11]
    At, Bt = model.A * model.lengths, model.B
    assert seen[0][0] is model.N_A and seen[0][1] is model.N_B
    assert seen[0][2] is model.lengths
    assert At.shape == (11, 11) and Bt.shape == (11, 3)
    assert max(x.denominator for x in At.flat) > 1
    for A, B in ((At, Bt), (At, Bt[:, :1]), (model.base.A, model.base.B)):
        C = ctrb_matrix(A, B)
        ref = _fraction_krylov(A, B)
        assert C.shape == ref.shape
        assert all(isinstance(x, Fraction) for x in C.flat)
        assert all(x == y for x, y in zip(C.flat, ref.flat))
    ints = np.array([[1, 2], [0, -3]], dtype=object)
    C = ctrb_matrix(ints, np.array([[1], [1]], dtype=object))
    assert C.tolist() == [[1, 3], [1, -3]]
    assert all(isinstance(x, Fraction) for x in C.flat)


def test_float_ctrb_matrix_refuses_overflow():
    # A B = (1e400, 1e200) overflows double precision, not rationals
    A, B = mat([["1e200", "0"], ["1", "0"]]), mat([["1e200"], ["0"]])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(np.linalg.LinAlgError, match="overflows"):
            ctrb_matrix(to_float(A), to_float(B))
    assert ctrb_matrix(A, B)[0, 1] == Fraction(10**400)


def _rational_system(rng, n, m, uncontrollable, dens):
    """A seeded exact (A, B) with entries k / d, d in `dens`; an
    uncontrollable one is block-triangular with B zero below the block."""
    def draw(rows, cols):
        return np.array([[Fraction(rng.randint(-4, 4), rng.choice(dens))
                          for _ in range(cols)] for _ in range(rows)],
                        dtype=object)
    A, B = draw(n, n), draw(n, m)
    if uncontrollable and n > 1:
        k = rng.randint(1, n - 1)
        A[k:, :k] = Fraction(0)
        B[k:] = Fraction(0)
    return A, B


def test_krylov_pivots_matches_krylov_basis_of_ctrb_matrix():
    # pivots from the integer Krylov product against an independent
    # reference, the `pivot_columns` of the Fraction Krylov matrix: the
    # same pivots and columns, entry type and value, which are also the
    # span (exact); K's columns at the pivots bit-identical (float)
    rng = random.Random(53)
    for case in range(72):
        n, m = rng.randint(1, 12), case % 4
        A, B = _rational_system(rng, n, m, uncontrollable=case % 3 == 0,
                                dens=(1,) if case % 2 else (1, 2, 3, 7))
        piv, W, S = krylov_pivots(A, B)
        K = ctrb_matrix(A, B)
        ref_piv = pivot_columns(K)
        assert piv == ref_piv and S.basis is W
        assert W.shape == K[:, ref_piv].shape
        for x, y in zip(W.flat, K[:, ref_piv].flat):
            assert type(x) is type(y) and x == y
        for Af, Bf in ((A.astype(float), B.astype(float)), (A, B.astype(float))):
            fpiv, Wf, Q = krylov_pivots(Af, Bf)
            ref = ctrb_matrix(Af, Bf)[:, fpiv]
            assert Wf.dtype == Q.basis.dtype == ref.dtype == float
            assert Wf.tobytes() == ref.tobytes() and Q.dim == len(fpiv)
    ints = np.array([[1, 2], [0, -3]], dtype=object)
    piv, W, S = krylov_pivots(ints, np.array([[1], [1]], dtype=object))
    assert piv == [0, 1] and S.basis.tolist() == [[1, 3], [1, -3]]
    assert all(isinstance(x, Fraction) for x in S.basis.flat)


def test_ctrb_subspace_example1(ex1_s1, ex1_model):
    assert ctrb_subspace(ex1_s1.A, ex1_s1.B).rank == 2
    res = ctrb_subspace(ex1_model.base.A, ex1_model.base.B)
    assert res.rank == 4
    # span equality with the four listed vectors (mutual inclusion)
    listed = mat([["0", "3", "0", "1/4"],
                  ["0", "3", "0", "1/4"],
                  ["0", "9/4", "1/2", "1/4"],
                  ["3/2", "0", "1/2", "0"],
                  ["3/2", "3/8", "0", "1/4"],
                  ["3/2", "3/8", "0", "1/4"]])
    from dimvar.numerics import SubspaceBasis, in_span_columns
    assert all(in_span_columns(res.basis, listed))
    assert all(in_span_columns(SubspaceBasis(6, listed), res.basis.basis))


def test_ctrb_subspace_zero_input():
    s = LinSys("free", mat([[1, 2], [3, 4]]), zeros((2, 1)))
    assert ctrb_subspace(s.A, s.B).rank == 0


@pytest.mark.parametrize("exact", [True, False])
def test_zero_dimensional_system(exact):
    # the number of inputs is read from B, so a 0 x 0 A with inputs has
    # rank 0 and no class representatives on both backends
    s = LinSys("empty", zeros((0, 0), exact), zeros((0, 2), exact))
    res = ctrb_subspace(s.A, s.B)
    assert res.rank == 0 and res.matrix.shape == (0, 2)
    assert res.basis.dim == res.span.dim == 0
    assert res.span.basis.dtype == (object if exact else float)
    assert quotient_ctrb_subspace(s).reps == []


@pytest.mark.parametrize("A,B", [(zeros((2, 2)), zeros((3, 1))),
                                 (zeros((2, 3)), zeros((2, 1))),
                                 (zeros((2, 2)), zeros((3,)))])
def test_incompatible_dimensions_are_refused(A, B):
    for f in (ctrb_matrix, ctrb_subspace, kalman_decomposition):
        with pytest.raises(ValueError, match="incompatible dimensions"):
            f(A, B)


def test_cayley_hamilton_cutoff():
    rng = random.Random(61)
    for _ in range(30):
        s = rand_system(rng, rng.randint(1, 5))
        C = ctrb_matrix(s.A, s.B)
        extended = [C]
        block = C[:, -s.n_inputs:]
        for _ in range(s.dim + 1):
            block = s.A @ block
            extended.append(block)
        assert rank(np.hstack(extended)) == rank(C)


def test_ctrb_rank_invariant_under_transform():
    rng = random.Random(63)
    done = 0
    while done < 30:
        n = rng.randint(1, 4)
        T = rand_rational_matrix(rng, n, n)
        if rank(T) < n:
            continue
        s = rand_system(rng, n)
        from dimvar.numerics import inverse
        A2 = T @ s.A @ inverse(T)
        B2 = T @ s.B
        assert rank(ctrb_matrix(A2, B2)) == rank(ctrb_matrix(s.A, s.B))
        done += 1


def test_quotient_ctrb_example1(ex1_s1):
    qc = quotient_ctrb_subspace(ex1_s1)
    reps = sorted(tuple(r.irreducible.tolist()) for r in qc.reps)
    assert reps == [(0, 1), (1, 0)]
    assert qc.ambient_class_dim == 2


def test_quotient_ctrb_lift_invariance():
    rng = random.Random(67)
    for _ in range(30):
        s = rand_system(rng, rng.randint(1, 3))
        k = rng.randint(2, 3)
        lifted = lift_system(s, s.dim * k)
        reps0 = quotient_ctrb_subspace(s).reps
        reps1 = quotient_ctrb_subspace(lifted).reps
        assert len(reps0) == len(reps1)
        for r1 in reps1:
            assert any(vec_equivalent(r1.irreducible, r0.irreducible)
                       for r0 in reps0)


def test_quotient_ctrb_input_free():
    s = LinSys("free", mat([[1, 0], [0, 2]]), zeros((2, 0)))
    assert quotient_ctrb_subspace(s).reps == []


def _class_reps_reference(S, tol):
    """One `reduce_vector` per column."""
    return [reduce_vector(S.basis[:, j], tol) for j in range(S.dim)]


def test_class_reps_match_per_column_reduction():
    rng = random.Random(71)
    big, near = 10**30, Fraction(10**12 + 1, 7)
    for trial in range(60):
        n = rng.choice([6, 12, 24])
        cols = []
        for _ in range(rng.randint(1, 6)):
            k = rng.choice([d for d in (1, 2, 3, 4, 6, 12) if n % d == 0])
            v = [Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                 for _ in range(n // k)]
            if trial % 4 == 1:                  # near-equal large values
                v = [Fraction(10**12, 7) if x > 0 else near for x in v]
            if trial % 4 == 2 and rng.random() < 0.5:   # beyond int64
                v[0] = Fraction(big, big + 7)
            cols.append(np.repeat(np.array(v, dtype=object), k))
            if rng.random() < 0.5:              # an equivalent column
                cols.append(cols[rng.randrange(len(cols))].copy())
        rng.shuffle(cols)
        basis = np.column_stack(cols)
        for B in (basis, to_float(basis)):
            S = SubspaceBasis(n, B)
            got = _class_reps(S, DEFAULT_TOL)
            ref = _class_reps_reference(S, DEFAULT_TOL)
            assert len(got) == len(ref) == S.dim  # equivalent ones kept
            for g, r in zip(got, ref):
                assert g.value.tolist() == r.value.tolist()
                assert g.irreducible.tolist() == r.irreducible.tolist()
                assert g.irreducible.dtype == r.irreducible.dtype
                assert [type(x) for x in g.irreducible.tolist()] == \
                    [type(x) for x in r.irreducible.tolist()]


def test_quotient_rank_equals_representative_rank():
    rng = random.Random(69)
    for _ in range(30):
        s0 = rand_system(rng, rng.randint(1, 3))
        lifted = lift_system(s0, s0.dim * rng.randint(1, 3))
        from dimvar import project_system
        rep = project_system(lifted).sys
        n_classes = len(quotient_ctrb_subspace(lifted).reps)
        assert n_classes == ctrb_subspace(rep.A, rep.B).rank


def test_scaled_float_reps_match_rank():
    # integer systems times 10^e, e in -12..-4, half of them lifted: at
    # these scales distinct representatives are within Tolerance.abs of
    # each other, and each pivot column still keeps its own
    rng = np.random.default_rng(73)
    for i in range(90):
        p, m = int(rng.integers(1, 5)), int(rng.integers(1, 3))
        scale = 10.0 ** (-12 + i % 9)
        s = LinSys("s", rng.integers(-3, 4, (p, p)) * scale,
                   rng.integers(-3, 4, (p, m)) * scale)
        if i % 2:
            s = lift_system(s, p * int(rng.integers(2, 4)))
        assert len(quotient_ctrb_subspace(s).reps) == \
            len(krylov_pivots(s.A, s.B)[0])


def test_kalman_decomposition_controllable(ex1_s1):
    kd = kalman_decomposition(ex1_s1.A, ex1_s1.B)
    assert kd.ctrb_dim == 2
    assert kd.A22.size == 0


def test_kalman_decomposition_split():
    A = mat([[1, 0], [0, 2]])
    B = mat([[1], [0]])
    kd = kalman_decomposition(A, B)
    assert kd.ctrb_dim == 1
    assert kd.A11.tolist() == [[1]]
    assert kd.A22.tolist() == [[2]]


def test_kalman_decomposition_blend(ex1_model):
    kd = kalman_decomposition(ex1_model.base.A, ex1_model.base.B)
    assert kd.ctrb_dim == 4
    assert kd.A22.shape == (2, 2)


def test_kalman_zero_blocks_exact():
    rng = random.Random(71)
    for _ in range(100):
        s = rand_system(rng, rng.randint(1, 4), rng.randint(1, 2))
        kd = kalman_decomposition(s.A, s.B)
        k = kd.ctrb_dim
        from dimvar.numerics import inverse
        Abar = kd.T @ s.A @ inverse(kd.T)
        Bbar = kd.T @ s.B
        assert all(Abar[i, j] == 0 for i in range(k, s.dim) for j in range(k))
        assert all(x == 0 for x in Bbar[k:, :].flat)
        assert rank(ctrb_matrix(kd.A11, kd.B_top)) == k


def test_kalman_zero_blocks_float():
    rng = random.Random(73)
    for _ in range(30):
        n = rng.randint(1, 4)
        s = rand_system(rng, n)
        A, B = to_float(s.A), to_float(s.B)
        kd = kalman_decomposition(A, B)
        k = kd.ctrb_dim
        Abar = kd.T @ A @ np.linalg.inv(kd.T)
        if 0 < k < n:
            assert np.max(np.abs(Abar[k:, :k])) <= 1e-9


def test_kalman_completion_float_threshold():
    # pivots of 4e-9 clear the float threshold of a 3 x 3 candidate
    # (3e-9) but not that of the whole 3 x 5 matrix [basis | I_3]
    # (5e-9): the one-pass completion must keep the first one
    A = np.diag([1.0, 2.0, 3.0])
    B = 4e-9 * np.array([[1.0], [1.0], [0.0]])
    kd = kalman_decomposition(A, B)
    assert kd.ctrb_dim == 2 and kd.T.shape == (3, 3)
    assert np.max(np.abs((kd.T @ A @ np.linalg.inv(kd.T))[2:, :2])) <= 1e-12
    assert np.max(np.abs((kd.T @ B)[2:])) <= 1e-20
