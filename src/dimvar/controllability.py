"""Controllability machinery.

Kalman controllability matrix and subspace, the quotient-space version
(class representatives of the basis columns), the controllability
decomposition into controllable/uncontrollable blocks, and finite-
horizon Gramians for minimum-energy steering.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np
import scipy.linalg

from .mixdim import MixVector, _reps_equal, reduce_vector
from .numerics import (DEFAULT_TOL, SubspaceBasis, Tolerance,
                       _integer_scaled, as_backend, column_space_basis,
                       common_backend, float_only, inverse, is_exact,
                       pivot_columns)
from .systems import LinSys


def ctrb_matrix(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Horizontal concatenation [B, AB, ..., A^{n-1}B].

    Exact inputs are multiplied in integers: with L the lcm of the
    denominators of [A | B], block j of [LB, (LA)LB, ...] is
    L^(j+1) A^j B, and is divided back into Fractions.
    """
    n = A.shape[0]
    if A.shape != (n, n) or B.shape[0] != n:
        raise ValueError("incompatible dimensions")
    if B.ndim == 1:
        B = B.reshape(-1, 1)
    A, B = common_backend(A, B)
    exact = is_exact(A)
    if exact:
        Z, L = _integer_scaled(np.hstack([A, B]))
        A, B = Z[:, :n], Z[:, n:]
    blocks = [B]
    for _ in range(n - 1):
        blocks.append(A @ blocks[-1])
    C = np.hstack(blocks)
    if not exact:
        return C
    dens = [L ** (c // B.shape[1] + 1) for c in range(C.shape[1])]
    return np.array([[Fraction(x, d) for x, d in zip(row, dens)] for row in C],
                    dtype=object).reshape(C.shape)


@dataclass(frozen=True)
class CtrbResult:
    """Controllability matrix with its rank and pivot-column basis."""

    matrix: np.ndarray
    rank: int
    basis: SubspaceBasis


def ctrb_subspace(A: np.ndarray, B: np.ndarray,
                  tol: Tolerance = DEFAULT_TOL) -> CtrbResult:
    """Controllable subspace span{B, AB, ...} with a pivot-column basis."""
    C = ctrb_matrix(A, B)
    basis = column_space_basis(C, tol)
    return CtrbResult(matrix=C, rank=basis.dim, basis=basis)


@dataclass(frozen=True)
class QuotientCtrb:
    """Controllable subspace on the quotient space.

    ``reps`` are pairwise non-equivalent irreducible representatives of
    a basis of the controllable subspace.
    """

    reps: list[MixVector]
    ambient_class_dim: int


def quotient_ctrb_subspace(s: LinSys, tol: Tolerance = DEFAULT_TOL) -> QuotientCtrb:
    """Class representatives of the controllable-subspace basis.

    Each pivot-basis column is reduced to its irreducible member and
    duplicates (equivalent classes) are dropped.
    """
    res = ctrb_subspace(s.A, s.B, tol)
    return QuotientCtrb(reps=_class_reps(res.basis, tol), ambient_class_dim=s.dim)


def _class_reps(S: SubspaceBasis, tol: Tolerance) -> list[MixVector]:
    """Irreducible members of S's basis columns, equivalent ones dropped."""
    reps: list[MixVector] = []
    for j in range(S.dim):
        mv = reduce_vector(S.basis[:, j], tol)
        if not any(_reps_equal(mv.irreducible, r.irreducible, tol) for r in reps):
            reps.append(mv)
    return reps


@dataclass(frozen=True)
class KalmanDecomp:
    """Controllability decomposition T A T^-1 = [[A11, A12], [0, A22]].

    T B has zero rows below the controllable block; (A11, B_top) is
    controllable by construction.
    """

    T: np.ndarray
    A11: np.ndarray
    A12: np.ndarray
    A22: np.ndarray
    B_top: np.ndarray
    ctrb_dim: int


def kalman_decomposition(A: np.ndarray, B: np.ndarray,
                         tol: Tolerance = DEFAULT_TOL) -> KalmanDecomp:
    """Build the controllability decomposition.

    The transformation assembles the controllability pivot basis,
    completed to a full basis by standard unit vectors chosen greedily
    by lowest index; T is the inverse of that column assembly, so the
    result is deterministic and exact on the rational backend.
    """
    res = ctrb_subspace(A, B, tol)
    V = res.basis.basis
    n, k = V.shape
    I = as_backend(np.eye(n), A)
    chosen = []
    if k < n:
        # one elimination of [V | I_n] makes the greedy choice; the
        # relative tolerance is scaled so that every column meets the
        # float threshold of an n x n candidate, as when testing one
        # unit vector at a time
        piv = pivot_columns(np.hstack([V, I]),
                            replace(tol, rel=tol.rel * n / (n + k)))
        chosen = [p - k for p in piv if p >= k]
    P = np.hstack([V, I[:, chosen]])
    T = inverse(P)
    Ab = T @ A @ P
    Bb = T @ (B if B.ndim == 2 else B.reshape(-1, 1))
    return KalmanDecomp(T=T, A11=Ab[:k, :k], A12=Ab[:k, k:], A22=Ab[k:, k:],
                        B_top=Bb[:k, :], ctrb_dim=k)


@dataclass(frozen=True)
class Gramian:
    """Finite-horizon controllability Gramian over [t0, te]."""

    W: np.ndarray
    t0: float
    te: float


def ctrb_gramian(A: np.ndarray, B: np.ndarray, t0: float, te: float,
                 quad_steps: int = 512) -> Gramian:
    """W = int_{t0}^{te} e^{A tau} B B^T e^{A^T tau} dtau.

    Van Loan's block exponential ("Computing integrals involving the
    matrix exponential", 1978): the exponential of
    [[-A, B B^T], [0, A^T]] (te - t0) is [[., E12], [0, E22]] and
    W(0, te - t0) = E22^T E12; a nonzero t0 conjugates that by
    e^{A t0}.  ``quad_steps`` is accepted and ignored.
    """
    if te <= t0:
        raise ValueError(f"empty horizon: te={te} <= t0={t0}")
    A, B = float_only("Gramian", A, B)
    if B.ndim == 1:
        B = B.reshape(-1, 1)
    n = A.shape[0]
    E = scipy.linalg.expm(np.block([[-A, B @ B.T], [np.zeros((n, n)), A.T]])
                          * (te - t0))
    W = E[n:, n:].T @ E[:n, n:]
    if t0 != 0.0:
        F = scipy.linalg.expm(A * t0)
        W = F @ W @ F.T
    W = 0.5 * (W + W.T)  # kill asymmetric round-off
    return Gramian(W=W, t0=t0, te=te)
