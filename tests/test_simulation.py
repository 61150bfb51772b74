import csv
import math
import random

import numpy as np
import pytest

from conftest import rand_system
from dimvar import (LinSys, Scenario, Trajectory,
                    UnreachableTargetError, export_trajectory, in_span,
                    mat, min_energy_control, rk4_integrate,
                    run_transient_scenario, vec)
from dimvar.controllability import ctrb_matrix, ctrb_subspace
from dimvar.numerics import rank, to_float
from dimvar.simulation import MAX_STEPS, _rk4_step_map


def test_scenario_validation():
    Scenario(0.0, 1.0, np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError):
        Scenario(1.0, 1.0, np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError):
        Scenario(0.0, 1.0, np.zeros(2), np.zeros(2), step=-0.1)
    with pytest.raises(ValueError):
        Scenario(0.0, 0.005, np.zeros(2), np.zeros(2), step=1e-3)


def test_scenario_step_count_is_bounded():
    from dimvar.simulation import MAX_STEPS, _rk4_step_map
    with pytest.raises(ValueError, match=f"longer than {MAX_STEPS} steps"):
        Scenario(0.0, 1.0, np.zeros(2), np.zeros(2), step=1e-9)
    with pytest.raises(ValueError, match="longer than"):
        Scenario(-1e308, 1e308, np.zeros(2), np.zeros(2), step=1.0)
    Scenario(0.0, 1.0, np.zeros(2), np.zeros(2), step=2.0 / MAX_STEPS)


def test_rk4_autonomous_decay():
    A = np.array([[-1.0]])
    B = np.zeros((1, 1))
    tr = rk4_integrate(A, B, lambda t: np.zeros(1), np.array([1.0]),
                       0.0, 1.0, 1e-3)
    assert abs(tr.times[-1] - 1.0) < 1e-12
    assert abs(tr.states[-1, 0] - math.exp(-1.0)) < 1e-10


def test_rk4_nilpotent_with_input():
    # double integrator driven by u = 1: exact cubic/quadratic answer
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    B = np.array([[0.0], [1.0]])
    tr = rk4_integrate(A, B, lambda t: np.ones(1), np.zeros(2),
                       0.0, 2.0, 1e-3)
    assert abs(tr.states[-1, 0] - 2.0) < 1e-10   # t^2/2
    assert abs(tr.states[-1, 1] - 2.0) < 1e-12   # t


def test_rk4_steps_share_one_length():
    # step is the largest step: 10.5 steps of 1e-3 become 11 of 0.0105/11
    tr = rk4_integrate(np.zeros((1, 1)), np.zeros((1, 1)),
                       lambda t: np.zeros(1), np.array([3.0]),
                       0.0, 0.0105, 1e-3)
    assert abs(tr.times[-1] - 0.0105) < 1e-15
    assert len(tr.times) == 12  # 11 steps + start
    h = 0.0105 / 11
    assert h <= 1e-3
    assert np.max(np.abs(np.diff(tr.times) - h)) < 1e-15


def test_rk4_is_fourth_order():
    A = np.array([[0.0, 1.0], [-2.0, -0.5]])
    z0 = np.array([1.0, 0.0])
    errs = []
    w, V = np.linalg.eig(A)          # e^A = V diag(e^w) V^-1
    exact = (V @ (np.exp(w) * np.linalg.solve(V, z0))).real
    for h in (1e-2, 5e-3):
        tr = rk4_integrate(A, np.zeros((2, 1)), lambda t: np.zeros(1),
                           z0, 0.0, 1.0, h)
        errs.append(np.max(np.abs(tr.states[-1] - exact)))
    ratio = errs[0] / errs[1]
    assert 12.0 < ratio < 20.0  # halving h divides the error by ~16


def test_min_energy_double_integrator_oracle():
    # steer (0,0) -> (1,0) on [0,1]: the minimum-energy input is
    # u(t) = 6 - 12t, and the stage inputs are its values at the stage
    # times t_0, t_0 + h/2, t_1, ...
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    B = np.array([[0.0], [1.0]])
    u = min_energy_control(A, B, np.zeros(2), np.array([1.0, 0.0]), 0.0, 1.0)
    tr = rk4_integrate(A, B, u, np.zeros(2), 0.0, 1.0, 1e-3)
    stages = np.empty(2 * len(tr.times) - 1)
    stages[0::2] = tr.times
    stages[1::2] = (tr.times[:-1] + tr.times[1:]) / 2
    assert u.shape == (2001, 1)
    assert np.max(np.abs(u[:, 0] - (6 - 12 * stages))) < 1e-10
    assert np.max(np.abs(tr.states[-1] - [1.0, 0.0])) < 1e-9
    with pytest.raises(ValueError, match="empty horizon"):
        min_energy_control(A, B, np.zeros(2), np.ones(2), 1.0, 1.0)


def test_min_energy_random_controllable():
    rng = np.random.default_rng(91)
    done = 0
    while done < 20:
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
        assert np.max(np.abs(tr.states[-1] - zt)) < 1e-6 * (1 + np.max(np.abs(zt)))
        done += 1


def test_min_energy_unreachable():
    A = np.diag([1.0, 2.0])
    B = np.array([[1.0], [0.0]])  # second coordinate uncontrollable
    with pytest.raises(UnreachableTargetError) as exc:
        min_energy_control(A, B, np.zeros(2), np.array([0.0, 1.0]), 0.0, 1.0)
    assert np.max(np.abs(exc.value.residual)) > 0.1


@pytest.mark.parametrize("t0", [0.0, 0.25])
def test_min_energy_without_inputs(t0):
    # B = 0: the subspace is {0}, so only the free response is reached,
    # with the zero input
    A = np.diag([-1.0, 0.5])
    B = np.zeros((2, 1))
    z0 = np.array([1.0, -2.0])
    free = np.exp(np.diag(A) * (1.0 - t0)) * z0
    u = min_energy_control(A, B, z0, free, t0, 1.0)
    assert u.shape[1] == 1 and not u.any()
    with pytest.raises(UnreachableTargetError) as exc:
        min_energy_control(A, B, z0, free + [0.0, 0.1], t0, 1.0)
    assert np.max(np.abs(exc.value.residual - [0.0, 0.1])) < 1e-12


def test_segment_steering_without_inputs():
    # Bs = 0: the zero input when the target is the run's free response,
    # else UnreachableTargetError with the residual repeated onto R^n
    from dimvar.simulation import _run_steps, _segment_steering
    As, Bs = np.diag([-1.0, 0.5, 2.0]), np.zeros((3, 2))
    lengths = np.array([1, 2, 3])
    m, h = 100, 0.01
    P, R = _rk4_step_map(As, Bs, h)
    zeta0 = np.array([1.0, -1.0, 0.5])
    stages = np.zeros((2 * m + 1, 2))
    free = _run_steps(P, R, stages, zeta0)[-1]
    U = _segment_steering(As, Bs, lengths, P, R, m, h, zeta0, free)
    assert U.shape == stages.shape and not U.any()
    with pytest.raises(UnreachableTargetError) as exc:
        _segment_steering(As, Bs, lengths, P, R, m, h, zeta0,
                          free + [0.0, 0.1, 0.0])
    assert np.max(np.abs(exc.value.residual
                         - [0, 0.1, 0.1, 0, 0, 0])) < 1e-12


def test_min_energy_uncontrollable_but_consistent():
    # target reachable because the uncontrollable part drifts there itself
    A = np.diag([1.0, -1.0])
    B = np.array([[1.0], [0.0]])
    z0 = np.array([0.0, 1.0])
    zt = np.array([1.0, math.exp(-1.0)])
    u = min_energy_control(A, B, z0, zt, 0.0, 1.0)
    tr = rk4_integrate(A, B, u, z0, 0.0, 1.0, 1e-3)
    assert np.max(np.abs(tr.states[-1] - zt)) < 1e-8


def test_uncontrollable_block_autonomy():
    # inputs never disturb the uncontrollable coordinate
    A = np.diag([0.5, -2.0])
    B = np.array([[1.0], [0.0]])
    u = lambda t: np.array([3.0 * math.exp(0.5 * (1.0 - t))])
    tr = rk4_integrate(A, B, u, np.array([1.0, 1.0]), 0.0, 1.0, 1e-3)
    assert abs(tr.states[-1, 1] - math.exp(-2.0)) < 1e-8


def test_run_transient_scenario_example1(ex1_s1, ex1_s2):
    sc = Scenario(0.0, 1.0, vec([0, 1]), vec([1, 1, 1]))
    traj, out = run_transient_scenario(ex1_s1, ex1_s2, sc,
                                       alpha="3/2", beta="1/2")
    assert out.realization.realizable
    assert out.model.dim == 6
    assert traj.states.shape[1] == 6
    assert traj.endpoint_error < 1e-6
    assert traj.target_class_error < 1e-5
    assert np.array_equal(traj.states[0],
                          [0, 0, 0, 1, 1, 1])  # lifted start state


def test_run_transient_scenario_forward_consistency(ex1_s1, ex1_s2):
    # a target produced by a forward (unsteered) run is steered back to
    # within tolerance
    sc0 = Scenario(0.0, 1.0, vec([1, 0]), vec([0, 0, 0]))
    free, _ = run_transient_scenario(ex1_s1, ex1_s2, sc0,
                                     alpha="3/2", beta="1/2", steer=False)
    z_end = free.states[-1]
    y = np.array([z_end[0:2].mean(), z_end[2:4].mean(), z_end[4:6].mean()])
    sc1 = Scenario(0.0, 1.0, vec([1, 0]), y)
    traj, out = run_transient_scenario(ex1_s1, ex1_s2, sc1,
                                       alpha="3/2", beta="1/2")
    assert traj.target_class_error < 1e-5


def test_run_transient_scenario_dim_checks(ex1_s1, ex1_s2):
    with pytest.raises(ValueError):
        run_transient_scenario(ex1_s1, ex1_s2,
                               Scenario(0.0, 1.0, vec([0, 1, 0]),
                                        vec([1, 1, 1])),
                               alpha=1, beta=1)
    with pytest.raises(ValueError):
        run_transient_scenario(ex1_s1, ex1_s2,
                               Scenario(0.0, 1.0, vec([0, 1]), vec([1, 1])),
                               alpha=1, beta=1)


def test_run_transient_scenario_unreachable():
    # both blended inputs push the same single direction
    s1 = LinSys("a", mat([[0, 0], [0, 0]]), mat([[1], [0]]))
    s2 = LinSys("b", mat([[0, 0], [0, 0]]), mat([[1], [0]]))
    sc = Scenario(0.0, 1.0, vec([0, 0]), vec([0, 1]))
    with pytest.raises(UnreachableTargetError) as exc:
        run_transient_scenario(s1, s2, sc, alpha=1, beta=1)
    assert "realizable" in str(exc.value)


def _same_report(got, want):
    """Two RealizationReports equal in every field, witness included."""
    assert (got.realizable, got.q, got.dim_C1, got.dim_C2, got.notes) == (
        want.realizable, want.q, want.dim_C1, want.dim_C2, want.notes)
    assert got.witness.ambient_dim == want.witness.ambient_dim
    assert got.witness.basis.dtype == want.witness.basis.dtype
    assert got.witness.basis.shape == want.witness.basis.shape
    assert np.array_equal(got.witness.basis, want.witness.basis)


@pytest.mark.parametrize("exact", [True, False], ids=["rational", "float"])
def test_realization_is_decided_when_first_read(monkeypatch, exact):
    # a run decides no realization: a steered run's one krylov_pivots is
    # the segment system's, an unsteered run has none, and the first read
    # of outcome.realization adds the two subsystems' _krylov_columns; a
    # target out of reach decides it at once, for the error message
    from dimvar import check_realization, realization, simulation
    rng = random.Random(13)
    pairs = [(LinSys("sigma1", mat([[0, 1], [0, 0]]), mat([[0], [1]])),
              LinSys("sigma2", mat([[0, 0, 1], [0, 0, 0], [0, 1, 0]]),
                     mat([[0], [1], [0]]))),
             (LinSys("a", mat([[0, 0], [0, 0]]), mat([[1], [0]])),
              LinSys("b", mat([[0, 0], [0, 0]]), mat([[1], [0]])))]
    pairs += [(rand_system(rng, p), rand_system(rng, q))
              for p, q in ((2, 3), (3, 2), (4, 6), (5, 3))]
    calls, unreachable = [], []

    def spy(inner):
        return lambda A, B, *args: calls.append(len(A)) or inner(A, B, *args)

    monkeypatch.setattr(simulation, "krylov_pivots", spy(simulation.krylov_pivots))
    monkeypatch.setattr(realization, "_krylov_columns",
                        spy(realization._krylov_columns))
    for s1, s2 in pairs:
        if not exact:
            s1, s2 = (LinSys(s.name, to_float(s.A), to_float(s.B))
                      for s in (s1, s2))
        want = check_realization(s1, s2)
        sc = Scenario(0.0, 1.0, np.zeros(s1.dim), np.ones(s2.dim))
        for steer in (True, False):
            calls.clear()
            try:
                _, out = run_transient_scenario(s1, s2, sc, masses=(1, 1),
                                                steer=steer)
            except UnreachableTargetError as exc:
                assert steer and calls[1:] == [s1.dim, s2.dim]
                assert (f"realizable={want.realizable}, dim_C1={want.dim_C1}, "
                        f"dim_C2={want.dim_C2}") in str(exc)
                unreachable.append(s1.name)
                continue
            assert len(calls) == steer
            first = out.realization
            assert calls[steer:] == [s1.dim, s2.dim]
            _same_report(first, want)
            assert out.realization is first
            assert len(calls) == steer + 2
        # the report reads the systems as they were when the run was made
        _, out = run_transient_scenario(s1, s2, sc, masses=(1, 1), steer=False)
        s1.A[...] = 0
        s1.B[...] = 0
        after = check_realization(s1, s2)
        assert (after.dim_C1, after.dim_C2) != (want.dim_C1, want.dim_C2)
        _same_report(out.realization, want)
    assert unreachable == ["a"]


def test_simulation_class_consistency_under_lift(ex1_s1, ex1_s2):
    # running against the pre-lifted second system lands in the same class
    from dimvar import lift_system
    sc = Scenario(0.0, 1.0, vec([0, 1]), vec([1, 1, 1]))
    _, out1 = run_transient_scenario(ex1_s1, ex1_s2, sc, alpha="3/2",
                                     beta="1/2")
    sc2 = Scenario(0.0, 1.0, vec([0, 1]),
                   np.kron(np.array([1.0, 1.0, 1.0]), np.ones(2)))
    _, out2 = run_transient_scenario(ex1_s1, lift_system(ex1_s2, 6), sc2,
                                     alpha="3/2", beta="1/2")
    assert out2.target_class_error < 1e-5
    assert out1.model.dim == out2.model.dim == 6


def test_export_trajectory_round_trip(tmp_path):
    tr = Trajectory(times=np.array([0.0, 0.1, 0.2]),
                    states=np.array([[1.0, 2.0], [1 / 3, -2e-17],
                                     [0.1 + 0.2, 4.0]]))
    path = tmp_path / "out.csv"
    export_trajectory(tr, path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "z1", "z2"]
    assert len(rows) == 4
    back = np.array([[float(x) for x in r] for r in rows[1:]])
    assert np.array_equal(back[:, 0], tr.times)
    assert np.array_equal(back[:, 1:], tr.states)  # 17 digits are lossless


def test_export_trajectory_empty(tmp_path):
    tr = Trajectory(times=np.array([]), states=np.array([]))
    path = tmp_path / "empty.csv"
    export_trajectory(tr, path)
    assert path.read_text() == "t\n"


def _smooth_input(B, eta, t0=-math.inf, te=math.inf):
    """t -> B^T (eta cos(k (1 - t)))_k on [t0, te], zero outside it."""
    freqs = np.arange(len(eta))

    def u(t):
        if t < t0 or t > te:
            return np.zeros(B.shape[1])
        return B.T @ (eta * np.cos(freqs * (1.0 - t)))
    return u


def _grid(t0, te, step):
    """(times, h) of the uniform grid, one step at a time: the fewest m
    steps of ``step`` that pass te - t0 - 1e-15 max(1, |te|), and more
    while h = (te - t0) / m exceeds step; then m steps of length h, at
    t0 + k h, the last one te."""
    span, m = te - t0 - 1e-15 * max(1.0, abs(te)), 0
    while m * step < span or (m and (te - t0) / m > step):
        m += 1
    h = (te - t0) / max(m, 1)
    times = [t0 + k * h for k in range(m)] + [te if m else t0]
    return np.array(times), h


def _rk4_reference(A, B, u, z, t0, te, step):
    """The per-stage RK4 loop: u is called at every stage of every step."""
    def f(t, z):
        return A @ z + B @ np.asarray(u(t), dtype=float)

    times, h = _grid(t0, te, step)
    states = [z.copy()]
    for t in times[:-1]:
        k1 = f(t, z)
        k2 = f(t + h / 2, z + (h / 2) * k1)
        k3 = f(t + h / 2, z + (h / 2) * k2)
        k4 = f(t + h, z + h * k3)
        z = z + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        states.append(z.copy())
    return times, np.array(states)


@pytest.mark.parametrize("p,q", [(2, 3), (2, 5), (4, 6)])
@pytest.mark.parametrize("window,te", [((0.0, 1.0), 1.0),
                                       ((0.0, 0.9995), 0.9995),
                                       ((0.25, 0.7), 1.0)])
def test_rk4_matches_per_stage_reference(p, q, window, te):
    # an input that switches on and off inside the run
    from dimvar import build_transient_model
    rng = random.Random(1000 * p + q)
    model = build_transient_model(rand_system(rng, p), rand_system(rng, q),
                                  masses=(1, 1))
    A, B = to_float(model.base.A), to_float(model.base.B)
    nrng = np.random.default_rng(p * q)
    eta = nrng.uniform(-1, 1, model.dim)
    z0 = nrng.uniform(-1, 1, model.dim)
    u = _smooth_input(B, eta, *window)
    tr = rk4_integrate(A, B, u, z0, 0.0, te, 1e-3)
    times, states = _rk4_reference(A, B, u, z0, 0.0, te, 1e-3)
    assert np.array_equal(tr.times, times)
    scale = np.max(np.abs(states))
    assert np.max(np.abs(tr.states - states)) <= 1e-9 * scale


@pytest.mark.parametrize("t0,te,step", [(0.0, 1.0, 1e-3),
                                        (0.0, 0.9995, 1e-3),
                                        (0.3, 2.7, 0.007),
                                        (-1.0, 1.0, 1 / 3),
                                        (0.0, 0.0105, 1e-3)])
def test_rk4_times_and_stage_calls(t0, te, step):
    # times are those of the uniform grid; a plain callable is called
    # once at each distinct stage time
    calls = []

    def u(t):
        calls.append(t)
        return np.array([math.sin(t)])

    A = np.array([[0.0, 1.0], [-1.0, -0.1]])
    B = np.array([[0.0], [1.0]])
    tr = rk4_integrate(A, B, u, np.array([1.0, 0.0]), t0, te, step)
    times, states = _rk4_reference(A, B, lambda t: np.array([math.sin(t)]),
                                   np.array([1.0, 0.0]), t0, te, step)
    assert np.array_equal(tr.times, times)
    assert np.max(np.abs(tr.states - states)) <= 1e-12
    h = _grid(t0, te, step)[1]
    mids = [t + h / 2 for t in times[:-1]]
    assert calls == sorted(list(times) + mids)


def test_rk4_takes_stage_inputs_as_one_array():
    # the inputs at the stage times, as one array, give the run of the
    # callable bit for bit, here with t0 != 0 and steps shorter than step;
    # an array of another shape is refused
    calls = []

    def u(t):
        calls.append(t)
        return np.array([math.sin(3 * t), math.cos(t)])

    A = np.array([[0.0, 1.0, 0.0], [-1.0, -0.1, 0.5], [0.2, 0.0, -0.3]])
    B = np.array([[0.0, 1.0], [1.0, 0.0], [0.5, -1.0]])
    z0 = np.array([1.0, 0.0, -1.0])
    tr = rk4_integrate(A, B, u, z0, 0.3, 1.2345, 0.01)
    assert tr.times[-1] - tr.times[-2] < 0.01
    U = np.array([u(t) for t in list(calls)])
    assert U.shape == (2 * len(tr.times) - 1, 2)
    by_array = rk4_integrate(A, B, U, z0, 0.3, 1.2345, 0.01)
    assert np.array_equal(by_array.times, tr.times)
    assert np.array_equal(by_array.states, tr.states)
    for bad in (U[:-1], U[:, :1], U.ravel(), U[None]):
        with pytest.raises(ValueError, match="^input array of shape"):
            rk4_integrate(A, B, bad, z0, 0.3, 1.2345, 0.01)


def _near_grid_point(delta):
    # te = ten accumulated steps of 0.1 from 0, one ulp below 1, moved
    # by delta
    return 0.0, sum([0.1] * 10) + delta, 0.1


@pytest.mark.parametrize("t0,te,step", [
    (1e9, 1e9 + 1e-3, 1e-6),        # t + step would round: 1001 steps
    (1e6, 1e6 + 1.0, 1e-3),
    (0.0, 1.0, 0.125),              # te a multiple of step, exactly
    (2.0, 2.0 + 64 * 2.0**-10, 2.0**-10),
    _near_grid_point(1e-15),
    _near_grid_point(-1e-15),
    _near_grid_point(5e-16),
    (0.0, 1e-3, 1e-3),              # one step
    (0.0, 31e-3, 1e-3),             # 31-33 steps: around a power of 2
    (0.0, 32e-3, 1e-3),
    (0.0, 33e-3, 1e-3),
    (0.0, 32.5e-3, 1e-3),
])
def test_rk4_times_are_the_accumulated_grid(t0, te, step):
    # the grid of m accumulated steps of one length h, t0 + k h, which
    # `_grid` builds one time at a time
    tr = rk4_integrate(np.array([[-1.0]]), np.ones((1, 1)),
                       lambda t: np.array([math.cos(t)]), np.array([1.0]),
                       t0, te, step)
    times = _grid(t0, te, step)[0]
    assert np.array_equal(tr.times, times)
    assert tr.states.shape == (len(times), 1)


@pytest.mark.parametrize("t0,te,step", [(0.0, math.inf, 1e-3),
                                        (0.0, math.nan, 1e-3),
                                        (math.nan, 1.0, 1e-3),
                                        (-math.inf, 1.0, 1e-3),
                                        (0.0, 1.0, math.inf),
                                        (0.0, 1.0, math.nan)])
def test_rk4_refuses_non_finite_times(t0, te, step):
    with pytest.raises(ValueError, match="non-finite time"):
        rk4_integrate(np.zeros((1, 1)), np.zeros((1, 1)),
                      lambda t: np.zeros(1), np.zeros(1), t0, te, step)


@pytest.mark.parametrize("t0,te,step", [(0.0, 1e300, 1.0),
                                        (0.0, 1.0, 0.5 / MAX_STEPS),
                                        (-1e308, 1e308, 1.0),
                                        # t + step == t: the grid stalls
                                        (1e9, 1e9 + 1.0, 1e-9)])
def test_rk4_refuses_more_than_max_steps(t0, te, step):
    with pytest.raises(ValueError, match=f"longer than {MAX_STEPS} steps"):
        rk4_integrate(np.zeros((1, 1)), np.zeros((1, 1)),
                      lambda t: np.zeros(1), np.zeros(1), t0, te, step)


def _rk4_per_step(A, B, u, z, t0, te, step):
    """The RK4 run with its steps applied one at a time, P z + forcing."""
    times, h = _grid(t0, te, step)
    m = len(times) - 1
    stages = np.empty(2 * m + 1)
    stages[0::2] = times
    stages[1::2] = times[:-1] + h / 2
    U = np.array([u(s) for s in stages])
    X = np.hstack([U[0:-1:2], U[1::2], U[2::2]])
    P, R = _rk4_step_map(A, B, h)
    states = np.empty((m + 1, z.size))
    states[0] = z
    states[1:] = X @ R.T
    rows = list(states)
    for prev, nxt in zip(rows[:-1], rows[1:]):
        nxt += P.dot(prev)
    return times, states


@pytest.mark.parametrize("p,q", [(1, 2), (3, 4), (5, 7)])
@pytest.mark.parametrize("steps", [1, 31, 32, 33, 1000])
@pytest.mark.parametrize("shortened", [False, True])
@pytest.mark.parametrize("shift", [0.0, 30.0, -2000.0])
def test_rk4_scan_matches_per_step_loop(p, q, steps, shortened, shift):
    # seeded blends of dimension 2, 12 and 35; shift 30 makes A strongly
    # unstable, shift -2000 makes the state fall by about 3x per step
    from dimvar import build_transient_model
    rng = random.Random(100 * p + q)
    model = build_transient_model(rand_system(rng, p), rand_system(rng, q),
                                  masses=(1, 1))
    n = model.dim
    A = to_float(model.base.A) + shift * np.eye(n)
    B = to_float(model.base.B)
    nrng = np.random.default_rng(n + steps)
    te = (steps - 0.5 * shortened) * 1e-3
    u = _smooth_input(B, nrng.uniform(-1, 1, n))
    z0 = nrng.uniform(-1, 1, n)
    tr = rk4_integrate(A, B, u, z0, 0.0, te, 1e-3)
    times, states = _rk4_per_step(A, B, u, z0, 0.0, te, 1e-3)
    assert np.array_equal(tr.times, times)
    assert np.max(np.abs(tr.states - states)) <= 1e-12 * np.max(np.abs(states))


def _export_per_value(tr, path):
    """The per-value CSV writer that export_trajectory must match."""
    n = tr.states.shape[1] if tr.states.ndim == 2 and tr.states.size else 0
    with open(path, "w") as fh:
        header = "t" + "".join(f",z{i + 1}" for i in range(n))
        fh.write(header + "\n")
        for t, row in zip(tr.times, tr.states):
            fh.write(f"{t:.17g}" + "".join(f",{x:.17g}" for x in row) + "\n")


def test_export_trajectory_matches_per_value_writer(tmp_path):
    rng = np.random.default_rng(5)
    states = rng.standard_normal((50, 4)) * 10.0 ** rng.integers(-300, 300, (50, 4))
    states[0] = [0.0, -0.0, math.nan, math.inf]
    states[1] = [-math.inf, 5e-324, -5e-324, 1 / 3]
    tr = Trajectory(times=np.linspace(0.0, 0.049, 50), states=states)
    export_trajectory(tr, tmp_path / "new.csv")
    _export_per_value(tr, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_export_trajectory_reuses_repeated_columns_bit_for_bit(tmp_path):
    # segment values repeated over uneven lengths, as a blend run writes
    # them, beside adjacent columns equal in value but not in bits
    rng = np.random.default_rng(11)
    values = rng.standard_normal((40, 5)) * 10.0 ** rng.integers(-20, 20, (40, 5))
    states = np.repeat(values, [3, 1, 4, 2, 5], axis=1)
    zero = np.zeros((40, 1))
    nan = np.full((40, 1), math.nan)
    states = np.hstack([states, zero, -zero, zero, nan, nan, -nan, states[:, :2]])
    tr = Trajectory(times=np.linspace(0.0, 0.39, 40), states=states)
    export_trajectory(tr, tmp_path / "new.csv")
    _export_per_value(tr, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@pytest.mark.parametrize("t0,te", [(0.5, 1.5), (-1.0, 0.0), (2.0, 2.7)])
def test_min_energy_shifted_horizon(t0, te):
    # a horizon that does not start at 0 must still hit the target
    rng = np.random.default_rng(1)
    A = rng.standard_normal((4, 4))
    B = rng.standard_normal((4, 2))
    z0 = rng.standard_normal(4)
    zt = rng.standard_normal(4)
    u = min_energy_control(A, B, z0, zt, t0, te)
    tr = rk4_integrate(A, B, u, z0, t0, te, 1e-3)
    assert np.max(np.abs(tr.states[-1] - zt)) <= 1e-8


# -- steering on the segment system ----------------------------------

def _seeded_case(seed, p, q, i, step=1e-3, te=1.0):
    """Integer systems of dimensions p and q with one input each, and an
    integer start and target: the benchmark's steering cases."""
    rng = np.random.default_rng([seed, p, q, i, 1])
    s1, s2 = (LinSys(name, rng.integers(-3, 4, (d, d)).astype(float),
                     rng.integers(-3, 4, (d, 1)).astype(float))
              for name, d in (("sigma1", p), ("sigma2", q)))
    sc = Scenario(0.0, te, rng.integers(-3, 4, p).astype(float),
                  rng.integers(-3, 4, q).astype(float), step=step)
    return s1, s2, sc


def test_scenario_leaves_the_blend_unbuilt():
    # the run integrates the model's segment system, never the n x n blend
    s1, s2, sc = _seeded_case(0, 2, 3, 0)
    _, outcome = run_transient_scenario(s1, s2, sc, masses=(1, 1))
    assert "base" not in outcome.model.__dict__


@pytest.mark.parametrize("seed", range(4))
def test_steering_reaches_seeded_5_7_targets(seed):
    # n = 35: the least-squares design reaches every target of seeds
    # 0-3; the Gramian design missed 15 of these 32
    for i in range(8):
        traj, _ = run_transient_scenario(*_seeded_case(seed, 5, 7, i),
                                         masses=(1, 1))
        assert traj.target_class_error < 1e-5


@pytest.mark.parametrize("seed", range(4))
def test_steering_runs_seeded_7_11_cases(seed):
    # n = 77: no case raises (the Gramian design missed all 32 by up to 9e5)
    for i in range(8):
        traj, _ = run_transient_scenario(*_seeded_case(seed, 7, 11, i),
                                         masses=(1, 1))
        assert traj.states.shape == (1001, 77)
        assert math.isfinite(traj.target_class_error)


def test_steering_refuses_beyond_double_precision():
    # (11, 13): G's numerical rank is below dim C = 23, so the run
    # refuses instead of ending far from the target
    for i in range(2):
        with pytest.raises(np.linalg.LinAlgError,
                           match=r"numerical rank \d+ below dim C = 23 "
                                 r"\(sigma_1/sigma_r = "):
            run_transient_scenario(*_seeded_case(0, 11, 13, i), masses=(1, 1))


def test_unreachable_target_residual_is_an_n_vector():
    # seed 1, case 1 of (2, 3) asks for a displacement outside C
    s1, s2, sc = _seeded_case(1, 2, 3, 1)
    with pytest.raises(UnreachableTargetError, match="realizable=") as exc:
        run_transient_scenario(s1, s2, sc, masses=(1, 1))
    residual = exc.value.residual
    assert residual.shape == (6,)
    assert np.max(np.abs(residual)) > 1e-8
    # a lifted vector: constant on every segment of (2, 3)
    assert residual[0] == residual[1] and residual[4] == residual[5]


@pytest.mark.parametrize("p,q,te", [(2, 3, 1.0), (4, 6, 0.9995),
                                    (5, 7, 1.0), (3, 4, 0.0305)])
def test_unsteered_segment_run_matches_n_dimensional_rk4(p, q, te):
    from dimvar import build_transient_model
    s1, s2, sc = _seeded_case(3, p, q, 0, te=te)
    traj, out = run_transient_scenario(s1, s2, sc, masses=(1, 1),
                                       steer=False)
    n = out.model.dim
    A, B = to_float(out.model.base.A), to_float(out.model.base.B)
    ref = rk4_integrate(A, B, lambda t: np.zeros(B.shape[1]),
                        np.kron(sc.x_start, np.ones(n // p)), 0.0, te, sc.step)
    assert np.array_equal(traj.times, ref.times)
    assert np.array_equal(traj.states[0], ref.states[0])
    assert (np.max(np.abs(traj.states - ref.states))
            <= 1e-12 * np.max(np.abs(ref.states)))


def _weighted_map(P, R, m, h, left, right):
    """G W^-1/2, built one step at a time, later steps first, and the
    scaling W^-1/2 of the stage inputs it acts on."""
    r, c = right.shape[1], R.shape[1] // 3
    Pc, Rc = left.T @ P @ right, left.T @ R
    G = np.zeros((r, 2 * m + 1, c))
    w = np.zeros(2 * m + 1)
    later = np.eye(r)
    for j in reversed(range(m)):
        block = later @ Rc
        for slot in range(3):
            G[:, 2 * j + slot] += block[:, slot * c:(slot + 1) * c]
            w[2 * j + slot] += h / 6 * (4 if slot == 1 else 1)
        later = later @ Pc
    scale = np.repeat(1 / np.sqrt(w), c)
    return G.reshape(r, -1) * scale, scale


def _dense_least_norm(P, R, m, h, left, right, dc):
    """The least Simpson-weighted-norm stage inputs from the per-step G,
    solved with a pseudo-inverse."""
    Gw, scale = _weighted_map(P, R, m, h, left, right)
    return (np.linalg.pinv(Gw) @ dc * scale).reshape(-1, R.shape[1] // 3)


def _steering_design(s1, s2, te, step):
    """The run's step map, step count and step length (P, R, m, h), and
    the dual pair (left, right) of its controllable subspace, as
    `_segment_steering` builds them."""
    from dimvar import build_transient_model
    model = build_transient_model(s1, s2, masses=(1, 1))
    lengths, As, Bs = model.lengths, model.A * model.lengths, model.B
    As, Bs = to_float(As), to_float(Bs)
    times, h = _grid(0.0, te, step)
    sq = np.sqrt(lengths)[:, None]
    Q = ctrb_subspace(As * sq / sq.T, Bs * sq).span.basis
    return (*_rk4_step_map(As, Bs, h), len(times) - 1, h), sq * Q, Q / sq


@pytest.mark.parametrize("p,q,i", [(2, 3, 0), (2, 5, 1), (4, 6, 2),
                                   (3, 4, 3), (2, 2, None)])
@pytest.mark.parametrize("te,step", [(1.0, 1e-3), (0.9995, 1e-3),
                                     (0.0333, 1e-3), (2.0, 0.125)])
def test_least_norm_inputs_match_dense_reference(p, q, i, te, step):
    # pins the doubling: G's blocks P^k R, the stage sums and a step
    # that does not divide te against a per-step loop, at n <= 12; (2, 2)
    # has one uncontrollable mode, so G acts on a proper subspace
    from dimvar.simulation import _least_norm_inputs, _run_steps
    if i is None:
        s1 = s2 = LinSys("d", np.diag([-1.0, -2.0]), np.array([[1.0], [0.0]]))
    else:
        s1, s2, _ = _seeded_case(0, p, q, i)
    design, left, right = _steering_design(s1, s2, te, step)
    assert right.shape[1] == (1 if i is None else len(right))
    dc = np.random.default_rng(p * q).uniform(-1, 1, right.shape[1])
    U = _least_norm_inputs(*design, left, right, dc)
    ref = _dense_least_norm(*design, left, right, dc)
    assert np.linalg.norm(U - ref) <= 1e-8 * np.linalg.norm(ref)
    end = _run_steps(*design[:2], U, np.zeros(len(right)))[-1]
    assert np.max(np.abs(end - right @ dc)) <= 1e-8 * np.max(np.abs(dc))


@pytest.mark.parametrize("p,q", [(4, 6), (5, 7)])
def test_least_norm_inputs_match_lstsq(p, q):
    # the raw QR's triangle and reflectors give the minimum-norm solution
    # of the Simpson-weighted G u = dc that lstsq finds on the same G
    from dimvar.simulation import _least_norm_inputs
    s1, s2, _ = _seeded_case(0, p, q, 0)
    design, left, right = _steering_design(s1, s2, 1.0, 1e-3)
    dc = np.random.default_rng(p * q).uniform(-1, 1, right.shape[1])
    U = _least_norm_inputs(*design, left, right, dc)
    Gw, scale = _weighted_map(*design, left, right)
    ref = (np.linalg.lstsq(Gw, dc, rcond=None)[0] * scale).reshape(U.shape)
    assert np.linalg.norm(U - ref) <= 1e-9 * np.linalg.norm(ref)


def test_least_norm_inputs_refuse_a_rank_deficient_map():
    # the second mode takes 1e-20 of the input: on the whole plane G has
    # numerical rank 1, so the design refuses instead of dividing by it
    from dimvar.simulation import _least_norm_inputs
    s = LinSys("d", np.diag([-1.0, -2.0]), np.array([[1.0], [1e-20]]))
    design, _, _ = _steering_design(s, s, 1.0, 1e-3)
    with pytest.raises(np.linalg.LinAlgError,
                       match=r"numerical rank 1 below dim C = 2 "
                             r"\(sigma_1/sigma_r = "):
        _least_norm_inputs(*design, np.eye(2), np.eye(2), np.ones(2))


# passes of seeds 0-15 x 8 cases at the 1e-5 class-error bound: (2, 3)
# seed 1 case 1 is unreachable, and at (7, 11) inputs up to 6.5e10 put the
# forward run's rounding near the bound
STEERING_CORPUS = {(2, 3): 127, (2, 5): 128, (4, 6): 128, (5, 7): 128,
                   (7, 11): 127}


@pytest.mark.parametrize("p,q", list(STEERING_CORPUS))
def test_steering_corpus_pass_count(p, q):
    passed = 0
    for seed in range(16):
        for i in range(8):
            try:
                traj, _ = run_transient_scenario(*_seeded_case(seed, p, q, i),
                                                 masses=(1, 1))
            except UnreachableTargetError:
                continue
            passed += traj.target_class_error <= 1e-5
    assert passed >= STEERING_CORPUS[p, q]


@pytest.mark.parametrize("shape", [(2, 2), (1, 4), (2, 3)])
def test_state_arrays_of_other_shapes_are_refused(monkeypatch, shape):
    # a state is 1-D or one column; a (2, 3) array is not a 6-state
    # start, so its entries are never read as one
    from dimvar import simulation
    n = math.prod(shape)
    A = np.diag(np.ones(n - 1), 1)
    B = np.eye(n)[:, -1]
    bad, good = np.zeros(shape), np.zeros(n)
    with pytest.raises(ValueError, match="one column"):
        rk4_integrate(A, B, lambda t: np.zeros(1), bad, 0.0, 0.1, 0.01)
    for z0, z_target in ((bad, good), (good, bad)):
        with pytest.raises(ValueError, match="one column"):
            min_energy_control(A, B, z0, z_target, 0.0, 1.0)
    s = LinSys("s", mat(A.astype(int)), mat(B.astype(int)[:, None]))
    monkeypatch.setattr(simulation, "build_transient_model",
                        lambda *args, **kwargs: pytest.fail("blend built"))
    for start, target in ((bad, good), (good, bad)):
        with pytest.raises(ValueError, match="one column"):
            run_transient_scenario(s, s, Scenario(0.0, 1.0, start, target),
                                   alpha=1, beta=1)
    # an n x 1 column is still a state
    traj = rk4_integrate(A, B, lambda t: np.zeros(1), good[:, None], 0.0,
                         0.1, 0.01)
    assert traj.states.shape == (11, n)


def test_time_grid_does_not_drift_at_large_t0():
    # at t0 = 2^40 a step of 3e-4 rounds to one ulp, 2^-12, so adding
    # step to t would take about 1.17e6 steps for a horizon of 0.95e6
    # nominal steps; the uniform grid ends on te after the fewest steps
    # of at most step: 950000, although the end test's tolerance
    # 1e-15 te, 3.7 steps here, would stop at
    # ceil((285 - 1.0995e-3) / 3e-4) = 949997
    from dimvar.simulation import _time_grid
    t0, step = 2.0**40, 3e-4
    te = t0 + 0.95e6 * step
    assert te - t0 <= MAX_STEPS * step       # passes _check_times
    times, h = _time_grid(t0, te, step)
    assert len(times) == 950000 + 1
    assert times[0] == t0 and times[-1] == te and h == 285 / 950000
    assert np.all(np.diff(times) > 0)


def test_time_grid_steps_never_exceed_step():
    # step is the largest step, also where the end test's tolerance
    # 1e-15 max(1, |te|) is not small beside it; a grid whose steps
    # were at most step already keeps every time
    from dimvar.simulation import _time_grid
    rng = np.random.default_rng(46)
    grids = [(1e9, 1e9 + 1e-3, 1e-6), (2.0**40, 2.0**40 + 0.95e6 * 3e-4, 3e-4)]
    for _ in range(300):
        t0 = float(rng.choice([0.0, -1.0, 1.0])) * 10.0 ** rng.uniform(-3, 12)
        step = 10.0 ** rng.uniform(-7, 0)
        grids.append((t0, t0 + step * float(rng.choice(
            [rng.integers(1, 5000), rng.uniform(0.5, 5000)])), step))
    for t0, te, step in grids:
        times, h = _time_grid(t0, te, step)
        assert times.size > 1 and h <= step and times[-1] == te
        ref, h_ref = _grid(t0, te, step)
        assert np.array_equal(times, ref) and h == h_ref
    assert len(_time_grid(*grids[0])[0]) == 1001 + 1    # 1000 steps before
    times, h = _time_grid(0.0, 1.0, 1e-3)
    assert h == 1e-3 and np.array_equal(times, np.linspace(0.0, 1.0, 1001))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_systems_are_refused_by_name(bad):
    # rk4_integrate and min_energy_control take A and Bfull without a
    # LinSys: a NaN or infinity is an input error naming its argument,
    # not a NaN trajectory or a numerical failure
    A, B = np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0], [1.0]])
    for name, args in (("A", (np.array([[0.0, bad], [0.0, 0.0]]), B)),
                       ("Bfull", (A, np.array([[bad], [1.0]])))):
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            rk4_integrate(*args, lambda t: np.zeros(1), np.zeros(2),
                          0.0, 0.1, 0.01)
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            min_energy_control(*args, np.zeros(2), np.ones(2), 0.0, 1.0)


@pytest.mark.parametrize("t0,te", [(0.0, 0.0), (0.0, 1e-17), (0.0, -1e-3),
                                   (1.0, 1.0 + 2 * 2.0**-52)])
def test_rk4_without_a_step_returns_the_start(t0, te):
    # a horizon within the end test's tolerance, or a reversed one, has
    # no step: the start alone, and no input design
    A, B = np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0], [1.0]])
    tr = rk4_integrate(A, B, lambda t: np.ones(1), np.array([1.0, 2.0]),
                       t0, te, 1e-3)
    assert np.array_equal(tr.times, [t0])
    assert np.array_equal(tr.states, [[1.0, 2.0]])
    with pytest.raises(ValueError, match="empty horizon"):
        min_energy_control(A, B, np.zeros(2), np.ones(2), t0, te)


def test_each_run_builds_one_step_map(monkeypatch, ex1_s1, ex1_s2):
    # step 1e-3 does not divide te = 0.9995, and still every step of a
    # run shares one RK4 map
    from dimvar import simulation
    lengths = []
    step_map = simulation._rk4_step_map

    def spy(A, B, h):
        lengths.append(h)
        return step_map(A, B, h)

    monkeypatch.setattr(simulation, "_rk4_step_map", spy)
    A, B = np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0], [1.0]])
    rk4_integrate(A, B, lambda t: np.ones(1), np.zeros(2), 0.0, 0.9995, 1e-3)
    assert lengths == [0.9995 / 1000]
    run_transient_scenario(ex1_s1, ex1_s2,
                           Scenario(0.0, 0.9995, vec([0, 1]), vec([1, 1, 1])),
                           alpha="3/2", beta="1/2")
    assert lengths == [0.9995 / 1000] * 2
    min_energy_control(A, B, np.zeros(2), np.ones(2), 0.0, 0.9995)
    assert lengths == [0.9995 / 1000] * 3


_A2, _B2 = np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([0.0, 1.0])
_GOOD, _LONG = np.zeros(2), np.ones(3)


@pytest.mark.parametrize("call, mismatch", [
    (lambda: rk4_integrate(_A2, _B2, lambda t: np.zeros(1), _LONG, 0.0, 0.1,
                           0.01), "A and z0"),
    (lambda: min_energy_control(_A2, _B2, _LONG, _GOOD, 0.0, 1.0), "A and z0"),
    (lambda: min_energy_control(_A2, _B2, _GOOD, _LONG, 0.0, 1.0),
     "A and z_target"),
], ids=["rk4_integrate", "min_energy_z0", "min_energy_z_target"])
def test_continuous_design_refuses_a_state_of_another_length(call, mismatch):
    # a 3-entry state for a 2-state A is refused by the call itself,
    # with a message naming both, not by numpy's matmul or broadcast
    with pytest.raises(ValueError, match=f"^dimension mismatch between {mismatch}$"):
        call()


def test_scenario_states_of_another_length_name_their_system(ex1_s1, ex1_s2):
    for start, target, mismatch in ((vec([0, 1, 0]), vec([1, 1, 1]),
                                     "sigma1 and x_start"),
                                    (vec([0, 1]), vec([1, 1]),
                                     "sigma2 and y_target")):
        with pytest.raises(ValueError, match=f"^dimension mismatch between {mismatch}$"):
            run_transient_scenario(ex1_s1, ex1_s2,
                                   Scenario(0.0, 1.0, start, target),
                                   alpha=1, beta=1)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_states_are_refused(ex1_s1, ex1_s2, bad):
    # a NaN or inf state is refused by name, not carried through the run
    A, B = np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0], [1.0]])
    with pytest.raises(ValueError, match="^z0 must be finite$"):
        rk4_integrate(A, B, lambda t: np.zeros(1), np.array([bad, 0.0]),
                      0.0, 0.1, 0.01)
    for z0, z_target, name in ((np.array([bad, 0.0]), np.zeros(2), "z0"),
                               (np.zeros(2), np.array([0.0, bad]),
                                "z_target")):
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            min_energy_control(A, B, z0, z_target, 0.0, 1.0)
    for start, target, name in ((np.array([0.0, bad]), vec([1, 1, 1]),
                                 "x_start"),
                                (vec([0, 1]), np.array([1.0, bad, 1.0]),
                                 "y_target")):
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            run_transient_scenario(ex1_s1, ex1_s2,
                                   Scenario(0.0, 1.0, start, target),
                                   alpha=1, beta=1)
