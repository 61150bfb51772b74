"""Controllability machinery.

Kalman controllability matrix and subspace, the quotient-space version
(the class representative of each basis column), and the controllability
decomposition into controllable/uncontrollable blocks.  Minimum-energy
steering needs no Gramian: `simulation` solves for the inputs of its
RK4 run directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mixdim import MixVector, _largest_factor, reduce_vector
from .numerics import (DEFAULT_TOL, SubspaceBasis, Tolerance, _input_matrix,
                       _krylov_product, common_backend, complete_basis,
                       equality_key, krylov_pivots)
from .systems import LinSys


def ctrb_matrix(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """[B, AB, ..., A^{n-1}B] by `numerics._krylov_product`: in integers
    on exact inputs; a float product that overflows raises LinAlgError."""
    return _krylov_product(A, _input_matrix(A, B))


@dataclass(frozen=True)
class CtrbResult:
    """Controllability matrix with its rank and pivot-column basis.

    ``span`` is a basis of the same subspace from `krylov_pivots`: the
    pivot columns on the exact backend, orthonormal columns on floats.
    """

    matrix: np.ndarray
    rank: int
    basis: SubspaceBasis
    span: SubspaceBasis


def ctrb_subspace(A: np.ndarray, B: np.ndarray,
                  tol: Tolerance = DEFAULT_TOL) -> CtrbResult:
    """Controllable subspace span{B, AB, ...} with a pivot-column basis:
    `ctrb_matrix` for the matrix and `krylov_pivots` for the rest (on
    exact input each multiplies the integer Krylov product)."""
    C = ctrb_matrix(A, B)
    piv, W, span = krylov_pivots(A, _input_matrix(A, B), tol)
    return CtrbResult(matrix=C, rank=len(piv),
                      basis=SubspaceBasis(len(C), W), span=span)


@dataclass(frozen=True)
class QuotientCtrb:
    """Controllable subspace on the quotient space: ``reps`` holds the
    irreducible representative of each column of a basis of it."""

    reps: list[MixVector]
    ambient_class_dim: int


def quotient_ctrb_subspace(s: LinSys, tol: Tolerance = DEFAULT_TOL) -> QuotientCtrb:
    """One class representative per pivot column: each column of the
    controllable subspace's pivot basis reduced to its irreducible member."""
    W = krylov_pivots(s.A, s.B, tol)[1]
    return QuotientCtrb(reps=_class_reps(SubspaceBasis(s.dim, W), tol),
                        ambient_class_dim=s.dim)


def _class_reps(S: SubspaceBasis, tol: Tolerance) -> list[MixVector]:
    """Each basis column of S with its irreducible member; exact columns
    strip on their slices of one key of S."""
    K = equality_key(S.basis)
    cuts = [0 if K is None else _largest_factor([(K[:, j:j + 1], False)])
            for j in range(S.dim)]
    return [MixVector(value=x, irreducible=x[::s] if s else
                      reduce_vector(x, tol).irreducible)
            for x, s in zip(S.basis.T, cuts)]


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

    T^-1 = P is `complete_basis` of the controllable subspace's `span`
    from `krylov_pivots`.  On the exact backend that is the pivot basis
    completed by the lowest-index unit vectors, so the result is
    deterministic and exact; on floats T is orthogonal (T^-1 = T^T) and
    its first ctrb_dim rows are an orthonormal basis of the subspace.
    """
    A, B = common_backend(A, _input_matrix(A, B))
    V = krylov_pivots(A, B, tol)[2].basis
    P, T = complete_basis(V)
    Ab, Bb, k = T @ A @ P, T @ B, V.shape[1]
    return KalmanDecomp(T=T, A11=Ab[:k, :k], A12=Ab[:k, k:], A22=Ab[k:, k:],
                        B_top=Bb[:k, :], ctrb_dim=k)
