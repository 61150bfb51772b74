import dataclasses
import hashlib
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import rand_rational_matrix, rand_system
from dimvar import (DEFAULT_TOL, LinSys, SubspaceBasis,
                    augment_with_zero_dynamics,
                    build_transient_model, check_modeling_condition,
                    check_realization, check_transient, column_space_basis,
                    ctrb_matrix,
                    ctrb_subspace, direct_sum_check, embed, embed_subspace,
                    in_span, kron, mat, ones_vector, rank, vec)
from dimvar.controllability import _class_reps
from dimvar.numerics import eye, krylov_pivots, zeros
from dimvar.realization import _segments

EXAMPLE1 = Path(__file__).resolve().parents[1] / "cases" / "example1.json"


def test_augment_with_zero_dynamics(ex1_s1):
    aug = augment_with_zero_dynamics(ex1_s1, 3)
    assert aug.A.tolist() == [[0, 1, 0], [0, 0, 0], [0, 0, 0]]
    assert aug.B[:, 0].tolist() == [0, 1, 0]
    assert augment_with_zero_dynamics(ex1_s1, 2) is ex1_s1
    assert rank(ctrb_matrix(aug.A, aug.B)) == rank(ctrb_matrix(ex1_s1.A, ex1_s1.B))
    with pytest.raises(ValueError):
        augment_with_zero_dynamics(aug, 2)


def test_embed():
    assert embed(vec([3, 4]), 3).tolist() == [3, 4, 0]
    assert embed(vec([3, 4]), 2).tolist() == [3, 4]
    with pytest.raises(ValueError):
        embed(vec([1, 2, 3]), 2)


def test_embed_subspace(ex1_s1):
    C1 = column_space_basis(ctrb_matrix(ex1_s1.A, ex1_s1.B))
    S = embed_subspace(C1, 3)
    assert S.ambient_dim == 3
    cols = sorted(S.basis[:, j].tolist() for j in range(S.dim))
    assert cols == [[0, 1, 0], [1, 0, 0]]


def test_direct_sum_check():
    e = eye(3)
    U = SubspaceBasis(3, e[:, :2])
    V = SubspaceBasis(3, e[:, 2:])
    assert direct_sum_check(U, V, 3)
    W = SubspaceBasis(3, e[:, :1])
    assert not direct_sum_check(W, W, 3)
    assert direct_sum_check(SubspaceBasis(3, e), SubspaceBasis.zero(3), 3)
    with pytest.raises(ValueError):
        direct_sum_check(U, SubspaceBasis.zero(2), 3)


def test_check_realization_example1(ex1_s1, ex1_s2):
    rep = check_realization(ex1_s1, ex1_s2)
    assert rep.realizable
    assert rep.q == 3 and rep.dim_C1 == 2 and rep.dim_C2 == 3
    assert rep.witness.dim == 1
    assert rep.witness.basis[:, 0].tolist() == [0, 0, 1]
    # witness always complements the embedded C1
    C1 = column_space_basis(ctrb_matrix(ex1_s1.A, ex1_s1.B))
    assert direct_sum_check(embed_subspace(C1, 3), rep.witness, 3)


def test_check_realization_no_input(ex1_s1):
    dead = LinSys("dead", mat([[0, 0, 1], [0, 0, 0], [0, 1, 0]]),
                  zeros((3, 1)))
    rep = check_realization(ex1_s1, dead)
    assert not rep.realizable


def test_check_realization_equal_dims():
    s1 = LinSys("a", mat([[0, 1], [0, 0]]), mat([[0], [1]]))
    s2 = LinSys("b", mat([[0, 0], [1, 0]]), mat([[1], [0]]))
    rep = check_realization(s1, s2)
    assert rep.realizable
    assert rep.witness.dim == 0  # embedded C1 already fills the space


def test_check_realization_swaps_roles(ex1_s1, ex1_s2):
    rep = check_realization(ex1_s2, ex1_s1)
    assert rep.realizable
    assert rep.q == 3
    assert "swapped" in rep.notes


def test_realization_monotone_in_C2():
    rng = random.Random(81)
    for _ in range(30):
        s1 = rand_system(rng, rng.randint(1, 3))
        s2 = rand_system(rng, rng.randint(s1.dim, 4))
        base = check_realization(s1, s2).realizable
        extra = LinSys(s2.name, s2.A,
                       np.hstack([s2.B, rand_rational_matrix(rng, s2.dim, 1)]))
        grown = check_realization(s1, extra).realizable
        if base:
            assert grown


def test_realization_invariant_under_input_transform():
    rng = random.Random(83)
    done = 0
    while done < 30:
        s1 = rand_system(rng, rng.randint(1, 3))
        s2 = rand_system(rng, rng.randint(s1.dim, 4), n_inputs=2)
        V = rand_rational_matrix(rng, 2, 2)
        if rank(V) < 2:
            continue
        s2t = LinSys(s2.name, s2.A, s2.B @ V)
        assert (check_realization(s1, s2).realizable ==
                check_realization(s1, s2t).realizable)
        done += 1


def test_build_transient_model_example1(ex1_s1, ex1_s2, ex1_model):
    expect_A = mat([
        ["0", "0", "0", "1/2", "3/4", "3/4"],
        ["0", "0", "0", "1/2", "3/4", "3/4"],
        ["0", "0", "0", "1/2", "1/2", "1/2"],
        ["0", "0", "0", "0", "0", "0"],
        ["0", "0", "1/4", "1/4", "0", "0"],
        ["0", "0", "1/4", "1/4", "0", "0"]])
    assert np.array_equal(ex1_model.base.A, expect_A)
    assert ex1_model.B1_star[:, 0].tolist() == [0, 0, 0] + [Fraction(3, 2)] * 3
    assert ex1_model.B2_star[:, 0].tolist() == [0, 0, Fraction(1, 2),
                                                Fraction(1, 2), 0, 0]
    assert ex1_model.dim == 6
    assert ex1_model.input_split == (1, 1)


def test_build_transient_model_masses(ex1_s1, ex1_s2):
    m = build_transient_model(ex1_s1, ex1_s2, masses=(2, 2))
    assert m.weights == (Fraction(1, 2), Fraction(1, 2))
    from dimvar import lift_system
    avg = (lift_system(ex1_s1, 6).A + lift_system(ex1_s2, 6).A) / Fraction(2)
    assert np.array_equal(m.base.A, avg)


def test_build_transient_model_weight_validation(ex1_s1, ex1_s2):
    with pytest.raises(ValueError):
        build_transient_model(ex1_s1, ex1_s2, alpha=1, beta=0)
    with pytest.raises(ValueError):
        build_transient_model(ex1_s1, ex1_s2, masses=(1, 0))
    with pytest.raises(ValueError):
        build_transient_model(ex1_s1, ex1_s2, alpha=1)
    # a string is refused as a row of masses, not read digit by digit,
    # and masses given with alpha or beta are refused, not preferred
    for weights in ({"masses": "12"}, {"masses": (1, 1), "alpha": 1},
                    {"masses": (1, 1), "beta": 1}):
        with pytest.raises(ValueError):
            build_transient_model(ex1_s1, ex1_s2, **weights)
    small = build_transient_model(ex1_s1, ex1_s2, alpha=1,
                                  beta=Fraction(1, 1000))
    assert small.weights[1] == Fraction(1, 1000)


def test_model_stays_rational():
    rng = random.Random(85)
    for _ in range(20):
        s1 = rand_system(rng, rng.randint(1, 3))
        s2 = rand_system(rng, rng.randint(1, 3))
        m = build_transient_model(s1, s2, alpha=Fraction(3, 2),
                                  beta=Fraction(1, 2))
        assert all(isinstance(x, Fraction) for x in m.base.A.flat)
        assert all(isinstance(x, Fraction) for x in m.base.B.flat)


def test_check_modeling_condition_example1(ex1_s1, ex1_s2, ex1_model):
    rep = check_modeling_condition(ex1_s1, ex1_s2, ex1_model)
    assert rep.holds
    assert rep.n == 6 and rep.dim_Cz == 4
    tested = sorted(tuple(int(x) for x in v) for v, _ in rep.tested_vectors)
    assert tested == [(0, 0, 0, 0, 1, 1), (0, 0, 0, 1, 1, 1),
                      (0, 0, 1, 1, 0, 0), (1, 1, 0, 0, 0, 0),
                      (1, 1, 1, 0, 0, 0)]
    assert all(ok for _, ok in rep.tested_vectors)


@pytest.mark.parametrize("exact", [True, False])
def test_modeling_condition_leaves_the_blend_unbuilt(ex1_s1, ex1_s2, exact):
    # the check runs on the model's segment system; the n x n blend is
    # built only when read, once
    s1, s2 = (s if exact else LinSys(s.name, s.A.astype(float),
                                     s.B.astype(float))
              for s in (ex1_s1, ex1_s2))
    model = build_transient_model(s1, s2, masses=(1, 2))
    assert check_modeling_condition(s1, s2, model).holds
    assert "base" not in model.__dict__
    assert model.base is model.base


def test_check_modeling_condition_vacuous():
    s1 = LinSys("a", mat([[1]]), zeros((1, 1)))
    s2 = LinSys("b", mat([[1, 0], [0, 1]]), zeros((2, 1)))
    m = build_transient_model(s1, s2, alpha=1, beta=1)
    rep = check_modeling_condition(s1, s2, m)
    assert rep.holds and rep.tested_vectors == []


def test_mu_blend_always_satisfies_modeling_condition():
    # convex blends never violate the necessary condition
    rng = random.Random(87)
    for _ in range(100):
        s1 = rand_system(rng, rng.randint(1, 3))
        s2 = rand_system(rng, rng.randint(1, 3))
        mu = Fraction(rng.randint(1, 3), 4)
        m = build_transient_model(s1, s2, alpha=mu, beta=1 - mu)
        assert check_modeling_condition(s1, s2, m).holds


def _int_system(rng, name, dim, n_inputs, exact=True):
    A = rng.integers(-3, 4, size=(dim, dim))
    B = rng.integers(-3, 4, size=(dim, n_inputs))
    if exact:
        to_frac = np.vectorize(Fraction, otypes=[object])
        return LinSys(name, to_frac(A), to_frac(B))
    return LinSys(name, A.astype(float), B.astype(float))


def _direct_modeling(s1, s2, model):
    """The modeling check written out on the n-dimensional blend."""
    Cz = ctrb_subspace(model.base.A, model.base.B)
    tested = []
    for s in (s1, s2):
        C = ctrb_subspace(s.A, s.B).basis.basis
        for j in range(C.shape[1]):
            v = kron(C[:, j], ones_vector(model.dim // s.dim))
            tested.append((v, in_span(Cz.basis, v)))
    return Cz.rank, tested


@pytest.mark.parametrize("dims,inputs,weights", [
    ((2, 3), (1, 1), {"masses": (1, 1)}),
    ((2, 3), (2, 1), {"alpha": Fraction(3, 2), "beta": Fraction(1, 2)}),
    ((4, 6), (1, 2), {"masses": (1, 3)}),
    ((4, 6), (1, 1), {"alpha": Fraction(3, 2), "beta": Fraction(1, 2)}),
    ((5, 6), (1, 1), {"masses": (1, 1)}),
    ((5, 6), (2, 1), {"alpha": Fraction(2), "beta": Fraction(1, 3)}),
    ((5, 7), (1, 1), {"masses": (2, 1)}),
    ((6, 10), (1, 1), {"alpha": Fraction(3, 2), "beta": Fraction(1, 2)}),
])
def test_modeling_condition_matches_direct_computation(dims, inputs, weights):
    # the check in the (p + q - gcd(p, q)) segment coordinates against
    # the n-dimensional Krylov computation, on two seeds per case
    p, q = dims
    for seed in range(2):
        rng = np.random.default_rng([seed, p, q, *inputs])
        s1 = _int_system(rng, "s1", p, inputs[0])
        s2 = _int_system(rng, "s2", q, inputs[1])
        model = build_transient_model(s1, s2, **weights)
        rep = check_modeling_condition(s1, s2, model)
        dim_Cz, tested = _direct_modeling(s1, s2, model)
        assert rep.dim_Cz == dim_Cz
        assert rep.dim_Cz <= p + q - math.gcd(p, q)
        assert rep.holds == all(ok for _, ok in tested)
        assert len(rep.tested_vectors) == len(tested)
        for (v, ok), (v_ref, ok_ref) in zip(rep.tested_vectors, tested):
            assert np.array_equal(v, v_ref) and ok is ok_ref


@pytest.mark.parametrize("exact", [True, False])
def test_modeling_condition_detects_missing_vectors(exact):
    # sigma2 cancels sigma1's drift (A = A1 - A1 = 0) and has no input,
    # so Cz = span(B1) misses the lifted A1 B1
    A1 = mat([[0, 1], [0, 0]], exact)
    s1 = LinSys("a", A1, mat([[0], [1]], exact))
    s2 = LinSys("b", -A1, zeros((2, 1), exact))
    model = build_transient_model(s1, s2, alpha=1, beta=1)
    rep = check_modeling_condition(s1, s2, model)
    assert not rep.holds and rep.dim_Cz == 1
    assert [ok for _, ok in rep.tested_vectors] == [True, False]
    if exact:
        dim_Cz, tested = _direct_modeling(s1, s2, model)
        assert dim_Cz == 1
        assert [ok for _, ok in tested] == [True, False]


def _certificate_spy(monkeypatch):
    """Record each answer of the modular full-rank certificate."""
    from dimvar import realization
    answers, real = [], realization._certify_full_krylov
    monkeypatch.setattr(realization, "_certify_full_krylov",
                        lambda *args: answers.append(real(*args)) or answers[-1])
    return answers


def test_modeling_falls_back_where_the_prime_divides_a_minor(monkeypatch):
    # integer Krylov matrices that are singular modulo the certificate's
    # prime but not over Q: the certificate declines, and the exact
    # elimination gives the n-dimensional reference's dim C_z, holds and
    # tested vectors; negative and beyond-int64 numerators, B = 0
    from dimvar.numerics import _PRIME as P
    answers = _certificate_spy(monkeypatch)

    def system(A, B):
        return LinSys("s", mat(A), mat(B))

    pairs = [
        # B = [[P]]: Krylov matrix [P], rank 0 mod P
        (system([[0]], [[P]]), system([[1]], [[0]]), False),
        (system([[0]], [["-%d/3" % P]]), system([[1]], [[0]]), False),
        (system([[2]], [[-P * 2**70]]), system([[-1]], [[0]]), False),
        # a 2 x 2 Krylov determinant of P
        (system([[0, 0], [P, 0]], [[1], [0]]), system([[0, 0], [0, 0]], [[0], [0]]), False),
        # (2,3): sigma1's input P b and none for sigma2, C_z = R^4
        (system([[0, 0], [1, 2]], [[2 * P], [-P]]),
         system([[-2, -2, 2], [2, -1, -1], [2, 0, -1]], [[0], [0], [0]]), False),
        # B = 0: C_z = 0, and C1 = C2 = 0 lift no vector to test
        (system([[0, 1], [0, 0]], [[0], [0]]), system([[1, 0], [0, 1]], [[0], [0]]), False),
        # far from the prime, also beyond int64: certified
        (system([[0]], [[-(2**70) - 1]]), system([[1]], [[0]]), True),
    ]
    for s1, s2, certified in pairs:
        B_full = s1.B.any() or s2.B.any()
        answers.clear()
        model = build_transient_model(s1, s2, alpha=Fraction(3, 2),
                                      beta=Fraction(1, 3))
        rep = check_modeling_condition(s1, s2, model)
        assert answers == [certified]
        dim_Cz, tested = _direct_modeling(s1, s2, model)
        assert rep.dim_Cz == dim_Cz == (len(model.lengths) if B_full else 0)
        assert rep.holds == all(ok for _, ok in tested)
        assert len(rep.tested_vectors) == len(tested)
        for (v, ok), (v_ref, ok_ref) in zip(rep.tested_vectors, tested):
            assert np.array_equal(v, v_ref) and ok is ok_ref


def test_exact_check_at_scale_needs_no_segment_elimination(monkeypatch,
                                                            tmp_path, capsys):
    # the seed-0 (23,29) pair of the ladder's generator, n = 667: the
    # certificate proves C_z = R^51 by its int64 residue elimination, so
    # no exact `_bareiss` runs on the 51-row segment system, and both
    # backends decide alike
    from dimvar import cli, numerics
    doc = _ladder_doc(np.random.default_rng([0, 23, 29, 0]), 23, 29)
    path = tmp_path / "case.json"
    path.write_text(json.dumps(doc))
    calls, real = [], numerics._bareiss
    monkeypatch.setattr(numerics, "_bareiss", lambda M, *a, **k: calls.append(
        (M.shape[0], M.dtype == object)) or real(M, *a, **k))
    answers = _certificate_spy(monkeypatch)
    out = {}
    for backend in ("rational", "float"):
        assert cli.main(["check", str(path), "--json", "--backend", backend]) == 0
        r = json.loads(capsys.readouterr().out)
        out[backend] = [r["realization"][k] for k in ("realizable", "dim_C1", "dim_C2")] + \
            [r["modeling"][k] for k in ("holds", "dim_Cz")]
    assert answers == [True, False]     # exact certified; floats decline
    assert (51, False) in calls and (51, True) not in calls
    assert out["rational"] == out["float"] == [True, 23, 29, True, 51]


def _ladder_doc(rng, p, q):
    """A case file of the benchmark ladder: an integer pair with one
    input each, masses (1, 1)."""
    doc = {"transient": {"masses": ["1", "1"]}}
    for name, dim in (("sigma1", p), ("sigma2", q)):
        s = _int_system(rng, name, dim, 1)
        doc[name] = {"A": s.A.astype(str).tolist(), "B": s.B.astype(str).tolist()}
    return doc


@pytest.mark.parametrize("exact", [True, False])
def test_full_blend_subspace_needs_no_membership_test(monkeypatch, tmp_path,
                                                       capsys, exact):
    # a C_z of s independent columns is R^s: check_modeling_condition
    # and `dimvar check` answer every lifted vector without testing it,
    # on example1 and the seed-0 benchmark ladder pairs
    from dimvar import cli, realization
    docs = [json.loads(EXAMPLE1.read_text())]
    for p, q, count in ((4, 6, 24), (5, 6, 6), (5, 7, 6)):
        docs += [_ladder_doc(np.random.default_rng([0, p, q, i]), p, q)
                 for i in range(count)]
    calls, real = [], realization.in_span_columns
    monkeypatch.setattr(realization, "in_span_columns",
                        lambda *args: calls.append(args) or real(*args))
    path = tmp_path / "case.json"
    for doc in docs:
        s1, s2 = (LinSys(k, mat(doc[k]["A"], exact), mat(doc[k]["B"], exact))
                  for k in ("sigma1", "sigma2"))
        model = build_transient_model(s1, s2, **cli._weights(doc["transient"]))
        rep = check_modeling_condition(s1, s2, model)
        assert rep.dim_Cz == len(model.lengths) and rep.holds
        assert len(rep.tested_vectors) >= 2
        path.write_text(json.dumps(doc))
        argv = ["check", str(path)] + ([] if exact else ["--backend", "float"])
        assert cli.main(argv) in (0, 1)
        assert f"dim Cz = {rep.dim_Cz})" in capsys.readouterr().out
    assert len(docs) == 37 and calls == []


def test_modeling_condition_rejects_foreign_model(ex1_s1, ex1_s2, ex1_model):
    two_inputs = LinSys("sigma2", ex1_s2.A, np.hstack([ex1_s2.B, ex1_s2.B]))
    with pytest.raises(ValueError):
        check_modeling_condition(ex1_s1, two_inputs, ex1_model)
    with pytest.raises(ValueError):
        check_modeling_condition(ex1_s2, ex1_s1, ex1_model)


def test_float_check_agrees_with_exact_on_ladder():
    # seeded integer systems with one input each and masses (1, 1), as
    # in the benchmark ladder; n = 12, 30 and 35
    mismatches = []
    for p, q in ((4, 6), (5, 6), (5, 7)):
        for seed in range(3):
            for i in range(12):
                rng = np.random.default_rng([seed, p, q, i])
                e1 = _int_system(rng, "s1", p, 1)
                e2 = _int_system(rng, "s2", q, 1)
                f1 = LinSys("s1", e1.A.astype(float), e1.B.astype(float))
                f2 = LinSys("s2", e2.A.astype(float), e2.B.astype(float))
                out = []
                for s1, s2 in ((e1, e2), (f1, f2)):
                    model = build_transient_model(s1, s2, masses=(1, 1))
                    real = check_realization(s1, s2)
                    mod = check_modeling_condition(s1, s2, model)
                    out.append([real.dim_C1, real.dim_C2, mod.dim_Cz,
                                real.realizable, mod.holds])
                if out[0] != out[1]:
                    mismatches.append((p, q, seed, i, out))
    assert mismatches == []


@pytest.mark.parametrize("dims,cases", [
    ((2, 3), 6), ((4, 6), 6), ((5, 7), 6), ((7, 11), 1)])
def test_segment_ctrb_matches_blend_elimination(dims, cases):
    # the blend's Krylov pivots, basis and class representatives from
    # the (p + q - g)-dimensional segment system equal those of the
    # n-dimensional elimination; n = 6, 12, 35 and 77
    p, q = dims
    rng = random.Random(p * 100 + q)
    combos = [(inputs, weights) for weights in (
        {"alpha": Fraction(3, 2), "beta": Fraction(1, 3)}, {"masses": (1, 2)})
        for inputs in ((1, 1), (2, 1), (1, 2))][:cases]
    for inputs, weights in combos:
        s1, s2 = rand_system(rng, p, inputs[0]), rand_system(rng, q, inputs[1])
        model = build_transient_model(s1, s2, **weights)
        A, B = model.base.A, model.base.B
        (starts, _), (piv, _, S) = (_segments(p, q),
                                    krylov_pivots(model.A * model.lengths, model.B))
        assert len(starts) == S.ambient_dim == p + q - math.gcd(p, q)
        ref = ctrb_subspace(A, B)
        K = ref.matrix
        # a pivot column of K equals no earlier column: its first match
        assert piv == [next(c for c in range(K.shape[1]) if all(K[:, c] == b))
                       for b in ref.basis.basis.T]
        basis = K[:, piv]
        assert basis.shape == ref.basis.basis.shape
        for x, y in zip(basis.flat, ref.basis.basis.flat):
            assert type(x) is type(y) and x == y
        # C_z = E span(Ks): the segment basis repeated by segment length
        _, lengths = _segments(p, q)
        assert np.array_equal(np.repeat(S.basis, lengths, axis=0), basis)
        reps = _class_reps(SubspaceBasis(model.dim, basis), DEFAULT_TOL)
        ref_reps = _class_reps(ref.basis, DEFAULT_TOL)
        assert [(r.multiplicity, r.irreducible.tolist()) for r in reps] == \
            [(r.multiplicity, r.irreducible.tolist()) for r in ref_reps]


def test_embed_subspace_refuses_a_smaller_space():
    with pytest.raises(ValueError, match="cannot embed ambient 3 into 2"):
        embed_subspace(SubspaceBasis(3, eye(3)), 2)


def _plain(x):
    """A report as nested lists and values: arrays by dtype, shape and
    entries, so that two reports compare with ==."""
    if dataclasses.is_dataclass(x):
        return {f.name: _plain(getattr(x, f.name)) for f in dataclasses.fields(x)}
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tolist()
    if isinstance(x, (list, tuple)):
        return [_plain(y) for y in x]
    return x


def _case(exact, path=EXAMPLE1):
    """The systems and model of a case file, on one backend."""
    from dimvar import cli
    doc = json.loads(Path(path).read_text())
    s1, s2 = (LinSys(k, mat(doc[k]["A"], exact), mat(doc[k]["B"], exact))
              for k in ("sigma1", "sigma2"))
    return s1, s2, build_transient_model(s1, s2, **cli._weights(doc["transient"]))


@pytest.mark.parametrize("exact", [True, False])
def test_check_transient_decides_each_subsystem_subspace_once(monkeypatch,
                                                              exact):
    # one krylov_pivots each for the 2- and 3-dimensional subsystems,
    # and one question to the certificate for the 4-dimensional segment
    # system, which proves C_z = R^4 on exact input; floats decide it by
    # krylov_pivots.  The two separate checks find C1 and C2 twice.
    from dimvar import realization
    s1, s2, model = _case(exact)
    calls, inner = [], realization.krylov_pivots
    monkeypatch.setattr(realization, "krylov_pivots",
                        lambda A, B, tol: calls.append(A.shape[0]) or inner(A, B, tol))
    answers = _certificate_spy(monkeypatch)
    real, modeling = check_transient(s1, s2, model)
    assert real.realizable and modeling.holds
    assert sorted(calls) == ([2, 3] if exact else [2, 3, 4])
    assert answers == [exact]
    calls.clear()
    check_realization(s1, s2)
    check_modeling_condition(s1, s2, model)
    assert sorted(calls) == ([2, 2, 3, 3] if exact else [2, 2, 3, 3, 4])


@pytest.mark.parametrize("exact", [True, False])
def test_check_transient_equals_the_two_checks(exact):
    # seeded integer pairs of either order and up to two inputs each,
    # example1 and the case whose modeling condition fails
    def both(s1, s2, model):
        return _plain(check_transient(s1, s2, model)), _plain(
            (check_realization(s1, s2), check_modeling_condition(s1, s2, model)))

    outcomes = set()
    for p, q, inputs, weights in [
            (2, 3, (1, 1), {"masses": (1, 1)}),
            (3, 2, (2, 1), {"alpha": Fraction(3, 2), "beta": Fraction(1, 2)}),
            (4, 6, (1, 2), {"masses": (1, 3)}),
            (6, 4, (1, 1), {"masses": (2, 1)}),
            (5, 7, (1, 1), {"alpha": Fraction(2), "beta": Fraction(1, 3)})]:
        for seed in range(3):
            rng = np.random.default_rng([seed, p, q, *inputs])
            s1 = _int_system(rng, "s1", p, inputs[0], exact)
            s2 = _int_system(rng, "s2", q, inputs[1], exact)
            # a zero input, so that some blends are not controllable
            if seed == 2:
                s2 = LinSys("s2", s2.A, s2.B * 0)
            got, want = both(s1, s2, build_transient_model(s1, s2, **weights))
            assert got == want
            outcomes.add((got[0]["realizable"], got[1]["holds"]))
    for path in (EXAMPLE1, EXAMPLE1.parent / "modeling_fails.json"):
        got, want = both(*_case(exact, path))
        assert got == want
        outcomes.add((got[0]["realizable"], got[1]["holds"]))
    assert {(True, True), (False, True), (True, False)} <= outcomes


@pytest.mark.parametrize("exact", [True, False])
def test_check_transient_refuses_a_foreign_model_as_the_modeling_check(exact):
    s1, s2, model = _case(exact)
    two_inputs = LinSys("sigma2", s2.A, np.hstack([s2.B, s2.B]))
    for a, b, message in ((s1, two_inputs, "these systems' inputs"),
                          (s2, s1, "these systems")):
        errors = []
        for check in (check_transient, check_modeling_condition):
            with pytest.raises(ValueError) as info:
                check(a, b, model)
            errors.append(str(info.value))
        assert errors == [f"model was not built from {message}"] * 2


# sha256 of `dimvar check` on the (31,37) ladder pair, as printed
# before `check` ran on check_transient
_CHECK_31x37 = {
    "txt": "6708f627cb9242b8443be0e48021cc86f3b4ea078fa56ed34d11766122e83dc2",
    "json": "dc8c9a74dc363556dd8c6c9c005bcf0472dfacfae2f31cc1310610720e62fd80"}


def test_check_at_scale_is_pinned(tmp_path, capsys):
    # the seed-0 (31,37) pair of the ladder's generator, n = 1147: the
    # exact text and JSON outputs keep their digests, and the float
    # backend reaches the same decisions
    from dimvar import cli
    path = tmp_path / "case.json"
    path.write_text(json.dumps(
        _ladder_doc(np.random.default_rng([0, 31, 37, 0]), 31, 37)))
    out, decisions = {}, []
    for fmt, backend in (("txt", "rational"), ("json", "rational"),
                         ("json", "float")):
        argv = ["check", str(path), "--backend", backend]
        assert cli.main(argv + (["--json"] if fmt == "json" else [])) == 0
        out[fmt, backend] = capsys.readouterr().out
        if fmt == "json":
            r = json.loads(out[fmt, backend])
            decisions.append(
                [r["realization"][k] for k in ("realizable", "dim_C1", "dim_C2")]
                + [r["modeling"][k] for k in ("holds", "dim_Cz")])
    for fmt, digest in _CHECK_31x37.items():
        assert hashlib.sha256(
            out[fmt, "rational"].encode()).hexdigest() == digest, fmt
    assert decisions == [[True, 31, 37, True, 67]] * 2
