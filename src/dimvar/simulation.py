"""End-to-end transient scenarios.

A steered scenario runs on the blend's segment system, which the
`TransientModel` holds: the blend started from a lifted state stays
constant on the p + q - gcd(p, q) segments of R^n, so its state is
carried as one value per segment and repeated onto R^n only for the
trajectory and the class error.  The steering inputs are designed for
the RK4 run itself: the run is linear in its stage inputs, so they are
the least Simpson-weighted-norm solution of z_m = Phi z_0 + G u, from
one QR, with no matrix exponential and no Gramian.  A target that
leaves the controllable subspace raises UnreachableTargetError; a G of
lower numerical rank than that subspace raises numpy's LinAlgError.

One RK4 step of dz/dt = A z + B u(t) is one precomputed linear map,
z+ = P z + (forcing from the step's three stage inputs).  The time grid
is uniform: m steps of one length h <= step, so a run has one step map,
and its m steps are applied together by a doubling scan, about
2 log2(m) matmuls with the powers P, P^2, P^4, ..., not one Python step
at a time.

`min_energy_control` is the same design for any (A, B): the stage
inputs of its RK4 run, which `rk4_integrate` takes in place of an input
callable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .mixdim import reduce_vector, vec_sub
from .numerics import (Tolerance, _finite, _input_matrix, _one_column,
                       krylov_pivots, to_float)
from .realization import (RealizationReport, TransientModel,
                          build_transient_model, check_realization)
from .systems import LinSys

# block-constancy tolerance for reducing floating endpoints to a class
CLASS_REDUCTION_TOL = Tolerance(rel=0.0, abs=1e-6)
# most RK4 steps of one scenario: each step keeps a state and a CSV row
MAX_STEPS = 10**6


class UnreachableTargetError(ValueError):
    """Raised when the required displacement d leaves the controllable
    subspace; ``residual`` holds its component d - Q Q^T d orthogonal
    to that subspace (Q an orthonormal basis of it), an n-vector."""

    def __init__(self, message: str, residual: np.ndarray):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class Scenario:
    """Parameters of one steered transient run.

    The horizon te - t0 must hold between 10 and MAX_STEPS steps.
    """

    t0: float
    te: float
    x_start: np.ndarray
    y_target: np.ndarray
    step: float = 1e-3

    def __post_init__(self):
        _check_times(self.t0, self.te, self.step)
        if self.te <= self.t0:
            raise ValueError(f"empty horizon: te={self.te} <= t0={self.t0}")
        if self.te - self.t0 < 10 * self.step:
            raise ValueError("horizon shorter than 10 integration steps")


def _check_times(t0: float, te: float, step: float) -> None:
    """Refuse non-finite times, a step that is not positive and a
    horizon te - t0 longer than MAX_STEPS steps."""
    if not all(map(math.isfinite, (t0, te, step))):
        raise ValueError(f"non-finite time: t0={t0}, te={te}, step={step}")
    if step <= 0:
        raise ValueError("step must be positive")
    if te - t0 > MAX_STEPS * step:
        raise ValueError(f"horizon longer than {MAX_STEPS} steps")


def _finite_input(M: np.ndarray, name: str) -> np.ndarray:
    """M, else ValueError naming it when it is not finite."""
    if not _finite(M):
        raise ValueError(f"{name} must be finite")
    return M


def _state(z, n: int, name: str, of: str = "A") -> np.ndarray:
    """z as a finite float vector of `of`'s n states, else ValueError
    naming z."""
    if len(z := _one_column(np.asarray(z, dtype=float))) != n:
        raise ValueError(f"dimension mismatch between {of} and {name}")
    return _finite_input(z, name)


@dataclass
class Trajectory:
    """Time-stamped states from numerical integration."""

    times: np.ndarray
    states: np.ndarray  # shape (len(times), n)
    endpoint_error: float = math.nan
    target_class_error: float = math.nan


def _rk4_step_map(A: np.ndarray, Bfull: np.ndarray, h: float):
    """(P, R) with one classical RK4 step of dz/dt = A z + B u(t) equal
    to z+ = P z + R [u(t); u(t + h/2); u(t + h)]."""
    H = h * A
    H2 = H @ H
    H3 = H2 @ H
    eye = np.eye(A.shape[0])
    P = eye + H + H2 / 2 + H3 / 6 + H2 @ H2 / 24
    Q0 = (h / 6) * (eye + H + H2 / 2 + H3 / 4)
    Qmid = (h / 6) * (4 * eye + 2 * H + H2 / 2)
    return P, np.hstack([Q0 @ Bfull, Qmid @ Bfull, (h / 6) * Bfull])


def _time_grid(t0: float, te: float, step: float):
    """(times, h): the fewest m >= ceil((te - t0 - tol) / step) steps of
    one length h = (te - t0) / m <= step, tol = 1e-15 max(1, |te|), at
    the times t0 + k h with the last one te (numpy's linspace).  A
    horizon of at most tol, or a reversed one, has no step: [t0] alone."""
    span = te - t0 - 1e-15 * max(1.0, abs(te))
    m = math.ceil(span / step) if span > 0 else 0
    while m and (te - t0) / m > step:     # tol is not small beside step
        m += 1
    return np.linspace(t0, te, m + 1), (te - t0) / max(m, 1)


def _scan(P: np.ndarray, Z: np.ndarray) -> None:
    """Replace each row j of Z by sum_(i<=j) P^(j-i) Z[i], in place.

    With z_0 in row 0 and the forcings f_0, ..., f_(m-1) in rows 1..m,
    the rows become the states z_0, ..., z_m of z_(k+1) = P z_k + f_k.
    A work-efficient doubling scan (Brent and Kung 1982): for d = 1, 2,
    4, ... each row 2kd - 1 adds P^d times row (2k - 1)d - 1, so it sums
    its 2d rows; then for d = ..., 2, 1 each row (2k + 1)d - 1 adds P^d
    times row 2kd - 1, which by then sums all rows up to itself.  About
    2 log2(m) matmuls with P, P^2, P^4, ..., and 2m row products in all,
    replace the m steps.
    """
    rounds, d = [], 1
    while 2 * d <= len(Z):
        # rows are states, so z P^T is P z
        power = rounds[-1][1] @ rounds[-1][1] if rounds else P.T
        rows = Z[2 * d - 1::2 * d]
        rows += Z[d - 1::2 * d][:len(rows)] @ power
        rounds.append((d, power))
        d *= 2
    for d, power in reversed(rounds):
        rows = Z[3 * d - 1::2 * d]
        rows += Z[2 * d - 1::2 * d][:len(rows)] @ power


def _run_steps(P: np.ndarray, R: np.ndarray, U: np.ndarray,
               z: np.ndarray) -> np.ndarray:
    """States z_0, ..., z_m of the steps z+ = P z + R [three stage
    inputs] from z_0 = z, with stage inputs U: one row per distinct stage
    time t_0, t_0 + h/2, t_1, ..., t_m.  The forcings are formed at once
    and applied by `_scan`."""
    states = np.empty((len(U) // 2 + 1, z.size))
    states[0] = z
    states[1:] = np.hstack([U[0:-1:2], U[1::2], U[2::2]]) @ R.T
    _scan(P, states)
    return states


def rk4_integrate(A: np.ndarray, Bfull: np.ndarray, u, z0: np.ndarray,
                  t0: float, te: float, step: float) -> Trajectory:
    """Classical fixed-step RK4 for dz/dt = A z + B u(t).

    ``step`` is the largest step: the m steps share one length h, at
    most step (see _time_grid), and the last lands on te; a horizon of
    at most 1e-15 max(1, |te|), or a reversed one, gives the single
    sample t0.  ``u`` is either a
    callable t -> input vector, called once per distinct stage time
    t_0, t_0 + h/2, t_1, ..., t_m, or the inputs there as one array of
    2m + 1 rows and one column per input, as `min_energy_control`
    returns them.  Each step is its exact linear map (see
    _rk4_step_map), and the steps are applied together by a doubling
    scan over the powers of P (see _scan).  Non-finite times, a step
    that is not positive and a horizon of more than MAX_STEPS steps
    raise ValueError, as do a Bfull without A's rows (a 1-D Bfull is
    one input), a non-finite A or Bfull, a z0 that is not a finite
    vector or one column of A's size and an input array of another shape.
    """
    _check_times(t0, te, step)
    A = _finite_input(np.asarray(A, dtype=float), "A")
    Bfull = _finite_input(_input_matrix(A, np.asarray(Bfull, dtype=float)), "Bfull")
    z = _state(z0, len(A), "z0")

    times, h = _time_grid(t0, te, step)
    # distinct stage times t_0, t_0 + h/2, t_1, ..., t_m
    stages = np.empty(2 * times.size - 1)
    stages[0::2] = times
    stages[1::2] = times[:-1] + h / 2
    shape = (stages.size, Bfull.shape[1])
    if callable(u):
        U = np.reshape([np.asarray(u(s), dtype=float) for s in stages], shape)
    elif (U := np.asarray(u, dtype=float)).shape != shape:
        raise ValueError(f"input array of shape {U.shape}, expected {shape}")
    P, R = _rk4_step_map(A, Bfull, h)
    return Trajectory(times=times, states=_run_steps(P, R, U, z))


def _reachable_part(d, left, right, lengths):
    """The coordinates left^T d of d in span(right), left^T right = I.
    Raises UnreachableTargetError with the residual d - right left^T d,
    repeated by ``lengths`` onto R^n, when its max-abs exceeds
    1e-8 max(1, max |d|)."""
    dc = left.T @ d
    residual = np.repeat(d - right @ dc, lengths)
    worst = float(np.max(np.abs(residual)))
    if worst > 1e-8 * max(1.0, np.max(np.abs(d))):
        raise UnreachableTargetError(
            "required displacement leaves the controllable subspace "
            f"(uncontrollable residual, max |r| = {worst:.3e})",
            residual=residual)
    return dc


def _power_blocks(P: np.ndarray, R: np.ndarray, count: int) -> np.ndarray:
    """(P^k R)^T for k = 0, ..., count - 1, stacked as row blocks, by
    doubling: once the first k blocks are in place, the next k are them
    times (P^k)^T, so about log2(count) matmuls replace count - 1."""
    w = R.shape[1]
    Z = np.empty((w * count, R.shape[0]))
    Z[:w] = R.T
    k, PkT = 1, np.ascontiguousarray(P.T)
    while k < count:
        j = min(k, count - k)
        Z[w * k:w * (k + j)] = Z[:w * j] @ PkT
        k, PkT = k + j, PkT @ PkT
    return Z


def _least_norm_inputs(P: np.ndarray, R: np.ndarray, m: int, h: float,
                       left: np.ndarray, right: np.ndarray,
                       dc: np.ndarray) -> np.ndarray:
    """Stage inputs U (rows as in `_run_steps`) of least Simpson-weighted
    norm  h/6 sum_j (|u_2j|^2 + 4 |u_2j+1|^2 + |u_2j+2|^2)  whose run of
    m steps (P, R) of length h from 0 ends at ``right @ dc``.

    The columns of ``right`` span an invariant subspace of P that holds
    the range of R, and left^T right = I; there a step is
    x+ = Pc x + Rc [three stage inputs] with Pc = left^T P right and
    Rc = left^T R.  The end state is G u, where step j's block of G is
    Pc^(m-1-j) Rc, built by `_power_blocks`, and the blocks of two steps
    that share a stage time add.  With the weights W, the minimum-norm v
    of (G W^-1/2) v = dc is Q [y; 0] with R^T y = dc, from numpy's raw
    (Householder) QR of (G W^-1/2)^T: R is its upper triangle, and its r
    reflectors are applied to [y; 0], so neither Q nor G G^T is formed;
    u = W^-1/2 v.  Raises LinAlgError when G overflows or R's smallest
    singular value is at most max(shape) eps sigma_1: G has a lower
    numerical rank than dim right, so no input reliably reaches that
    subspace.
    """
    r, c = right.shape[1], R.shape[1] // 3
    Z = _power_blocks(left.T @ P @ right, left.T @ R, m)
    Z = Z.reshape(m, 3, c, r)[::-1]      # step 0's block first
    Gt = np.zeros((2 * m + 1, c, r))     # G^T, one row block per stage
    Gt[0:-1:2] = Z[:, 0]
    Gt[1::2] = Z[:, 1]
    Gt[2::2] += Z[:, 2]
    del Z                                # QR reuses its pages: fewer faults
    w = np.full(2 * m + 1, 2.0)          # composite Simpson weights
    w[1::2], w[[0, -1]] = 4.0, 1.0
    scale = 1 / np.sqrt(w * h / 6)
    Gt *= scale[:, None, None]
    if not np.isfinite(Gt).all():
        raise np.linalg.LinAlgError("steering map overflows")
    house, tau = np.linalg.qr(Gt.reshape(-1, r), mode="raw")
    Rt = np.triu(house[:, :r].T)
    sv = np.linalg.svd(Rt, compute_uv=False)
    cut = max(house.shape) * np.finfo(float).eps * sv[0]
    if sv[-1] <= cut:
        raise np.linalg.LinAlgError(
            f"steering map has numerical rank "
            f"{np.count_nonzero(sv > cut)} below dim C = {r} "
            f"(sigma_1/sigma_r = {sv[0] / sv[-1]:.3e})")
    v = np.zeros(house.shape[1])
    for k in range(r):                   # R^T y = dc, y in v[:r]
        v[k] = (dc[k] - Rt[:k, k] @ v[:k]) / Rt[k, k]
    house = np.ascontiguousarray(house)  # reflector k is row house[k, k:],
    np.fill_diagonal(house, 1)           # contiguous, with its leading 1
    for k in reversed(range(r)):         # v = Q [y; 0]
        v[k:] -= tau[k] * (house[k, k:] @ v[k:]) * house[k, k:]
    return v.reshape(2 * m + 1, c) * scale[:, None]


def _segment_steering(As: np.ndarray, Bs: np.ndarray, lengths: np.ndarray,
                      P: np.ndarray, R: np.ndarray, m: int, h: float,
                      zeta0: np.ndarray, zeta_star: np.ndarray) -> np.ndarray:
    """Stage inputs that steer the RK4 run of m steps (P, R) of length h
    (see `_rk4_step_map`) of the segment system (As, Bs) from zeta0 to
    zeta_star.

    The controllable subspace is decided in the isometric coordinates
    D zeta, D = diag(sqrt(lengths)), where norms equal those on R^n:
    Q is the orthonormal `krylov_pivots` span of (D As D^-1, D Bs), so
    right = D^-1 Q spans it in segment values and left = D Q is dual to
    it.  The displacement d = zeta_star - P^m zeta0, from the run's free
    response, must lie in it (`_reachable_part`).  A d that overflows
    raises LinAlgError.
    """
    sq = np.sqrt(lengths)[:, None]
    Q = krylov_pivots(As * sq / sq.T, Bs * sq)[2].basis
    d = zeta_star - np.linalg.matrix_power(P, m) @ zeta0
    if not np.isfinite(d).all():
        raise np.linalg.LinAlgError("free response overflows")
    dc = _reachable_part(d, sq * Q, Q / sq, lengths)
    if Q.shape[1] == 0:
        return np.zeros((2 * m + 1, Bs.shape[1]))
    return _least_norm_inputs(P, R, m, h, sq * Q, Q / sq, dc)


def min_energy_control(A: np.ndarray, Bfull: np.ndarray, z0: np.ndarray,
                       z_target: np.ndarray, t0: float, te: float,
                       step: float = 1e-3) -> np.ndarray:
    """Stage inputs of least Simpson-weighted norm that steer the RK4 run
    of dz/dt = A z + B u(t) over [t0, te] from z0 to z_target.

    The steering of `run_transient_scenario` for any (A, B): the rows
    are the inputs at `rk4_integrate`'s distinct stage times, so
    ``rk4_integrate(A, Bfull, u, z0, t0, te, step)`` with the returned
    u ends at z_target up to round-off.  Times, A, Bfull and the states
    are checked as by `rk4_integrate`, and a horizon of no step raises
    ValueError.  A displacement outside the controllable subspace raises
    UnreachableTargetError with its residual; a steering map of lower
    numerical rank than that subspace raises LinAlgError.
    """
    _check_times(t0, te, step)
    times, h = _time_grid(t0, te, step)
    if times.size == 1:
        raise ValueError(f"empty horizon: no step from t0={t0} to te={te}")
    A = _finite_input(np.asarray(A, dtype=float), "A")
    Bfull = _finite_input(_input_matrix(A, np.asarray(Bfull, dtype=float)), "Bfull")
    z0, z_target = _state(z0, len(A), "z0"), _state(z_target, len(A), "z_target")
    return _segment_steering(A, Bfull, np.ones(len(A), dtype=int),
                             *_rk4_step_map(A, Bfull, h), times.size - 1, h,
                             z0, z_target)


@dataclass(frozen=True)
class RealizationOutcome:
    """Scenario-level summary attached to a steered run.

    ``realization`` is `check_realization` of the run's two systems,
    decided on first read from copies of their arrays taken when the
    run was made; the run itself never reads it.
    """

    _realization: object = field(repr=False, compare=False)
    model: TransientModel
    endpoint_error: float
    target_class_error: float

    @cached_property
    def realization(self) -> RealizationReport:
        return self._realization()


def _class_error(z_end: np.ndarray, y_target: np.ndarray) -> float:
    """Distance between the class of z_end and the class of y_target.

    z_end is reduced with tolerance-based block constancy, then both
    representatives are compared on their lcm dimension.
    """
    r = reduce_vector(z_end, CLASS_REDUCTION_TOL).irreducible
    diff = vec_sub(r, y_target)
    return float(np.max(np.abs(diff))) if diff.size else 0.0


def run_transient_scenario(s1: LinSys, s2: LinSys, sc: Scenario,
                           alpha=None, beta=None, masses=None,
                           steer: bool = True):
    """Run a full steered transient between two systems.

    Builds the blend model and runs RK4 on its segment system (see
    `TransientModel`), one value per segment, from the lifted start's
    segment values: its entries at the model's sigma1 ``rows``.  With
    ``steer`` the stage inputs are designed on the run itself
    (`_segment_steering`), otherwise the input is zero.  The states are
    repeated onto R^n for the trajectory and the class error; the
    endpoint error compares the end values with the target's entries at
    the sigma2 ``rows``.  Returns (Trajectory, RealizationOutcome); no
    step reads the realization check, so the outcome decides it only
    when its ``realization`` is first read.

    Raises ValueError, before the blend is built, unless x_start and
    y_target are finite vectors (or columns) of sigma1's and sigma2's
    sizes; UnreachableTargetError, with the realization check in its
    message, when the target leaves the controllable subspace; and
    LinAlgError when the steering map's numerical rank is below that
    subspace's dimension.
    """
    x_start = _state(sc.x_start, s1.dim, "x_start", s1.name)
    y_target = _state(sc.y_target, s2.dim, "y_target", s2.name)
    model = build_transient_model(s1, s2, alpha=alpha, beta=beta,
                                  masses=masses)
    As, Bs = to_float(model.A * model.lengths), to_float(model.B)
    zeta0, zeta_star = x_start[model.rows[0]], y_target[model.rows[1]]
    times, h = _time_grid(sc.t0, sc.te, sc.step)
    m = times.size - 1
    P, R = _rk4_step_map(As, Bs, h)
    U = np.zeros((2 * m + 1, Bs.shape[1]))
    if steer:
        try:
            U = _segment_steering(As, Bs, model.lengths, P, R, m, h, zeta0,
                                  zeta_star)
        except UnreachableTargetError as exc:
            report = check_realization(s1, s2)
            raise UnreachableTargetError(
                f"{exc} -- realization check: realizable="
                f"{report.realizable}, dim_C1={report.dim_C1}, "
                f"dim_C2={report.dim_C2}", residual=exc.residual) from exc
    zetas = _run_steps(P, R, U, zeta0)
    if not np.isfinite(zetas).all():
        raise np.linalg.LinAlgError("trajectory overflows")
    traj = Trajectory(times=times,
                      states=np.repeat(zetas, model.lengths, axis=1))
    traj.endpoint_error = float(np.max(np.abs(zetas[-1] - zeta_star)))
    traj.target_class_error = _class_error(traj.states[-1], y_target)
    s1, s2 = (LinSys(s.name, s.A.copy(), s.B.copy()) for s in (s1, s2))
    outcome = RealizationOutcome(lambda: check_realization(s1, s2), model,
                                 traj.endpoint_error, traj.target_class_error)
    return traj, outcome


def export_trajectory(tr: Trajectory, path) -> None:
    """Write the trajectory as CSV: header t,z1,...,zn then one row per
    sample, 17 significant digits (lossless float round trip).

    Each column is formatted once, and a column bit-equal to the one
    before it (a segment's repeat in a blend run) reuses its strings;
    bits, not values, since 0.0 and -0.0 print apart and NaN != NaN.
    """
    n = tr.states.shape[1] if tr.states.ndim == 2 and tr.states.size else 0
    cols = np.vstack([tr.times, tr.states.reshape(len(tr.times), n).T],
                     dtype=float)
    bits, text = cols.view(np.uint64), []
    for j, col in enumerate(cols):
        same = j and np.array_equal(bits[j], bits[j - 1])
        text.append(text[-1] if same else ["%.17g" % x for x in col.tolist()])
    with open(path, "w") as fh:
        fh.write("t" + "".join(f",z{i + 1}" for i in range(n)) + "\n")
        fh.write("".join(",".join(r) + "\n" for r in zip(*text)))
