"""State-space models and their movement between dimensions.

A system (A, B) of dimension p lifts to dimension n = k*p as
(A (x) J_k, B (x) 1_k); conversely the projecting representative strips
the largest common factor from A and B jointly.  Systems are equivalent
when they share the same irreducible representative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import mixdim
from .numerics import (DEFAULT_TOL, Tolerance, _columns, _finite,
                       as_backend, common_backend, inverse, rank)


@dataclass(frozen=True)
class LinSys:
    """A linear control system dx/dt = A x + B u.

    B must have A's rows; a 1-D B is stored as one input column, and B
    may have zero columns for input-free augmentation blocks.  A float A
    or B with a NaN or an infinity raises ValueError.
    """

    name: str
    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        n = self.A.shape[0]
        if self.A.shape != (n, n):
            raise ValueError(f"{self.name}: A must be square")
        B = _columns(self.B)
        if B.shape[0] != n:
            raise ValueError(f"{self.name}: B has {B.shape[0]} rows, A has {n}")
        if not _finite(self.A, B):
            raise ValueError(f"{self.name}: A and B must be finite")
        object.__setattr__(self, "B", B)

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.B.shape[1]


@dataclass(frozen=True)
class QuotientSysRep:
    """Irreducible representative of a system class."""

    sys: LinSys
    multiplier_stripped: int


def lift_system(s: LinSys, n: int) -> LinSys:
    """Lift (A, B) from dimension p >= 1 to dimension n = k*p."""
    p = s.dim
    if not p or n < p or n % p:
        raise ValueError(f"cannot lift dimension {p} to {n}: not a positive multiple")
    if n == p:
        return s
    k = n // p
    return LinSys(name=s.name, A=mixdim._kron_j(s.A, k),
                  B=mixdim._replicate(s.B, k, False))


def project_system(s: LinSys, tol: Tolerance = DEFAULT_TOL) -> QuotientSysRep:
    """Strip the largest common factor k with A = A0 (x) J_k and
    B = B0 (x) 1_k.

    A and B reduce jointly so the representative is a well-formed
    system (independent reduction could produce mismatched dimensions).
    """
    (A, B), mult = mixdim._strip_factors([(s.A, True), (s.B, False)], tol)
    return QuotientSysRep(sys=LinSys(s.name, A, B), multiplier_stripped=mult)


def systems_equivalent(s1: LinSys, s2: LinSys,
                       tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff both systems, promoted to their `common_backend` before
    either is stripped, project to the same irreducible (A, B)."""
    if s1.n_inputs != s2.n_inputs:
        raise ValueError("input counts differ")
    A1, B1, A2, B2 = common_backend(s1.A, s1.B, s2.A, s2.B)
    (A1, B1), _ = mixdim._strip_factors([(A1, True), (B1, False)], tol)
    (A2, B2), _ = mixdim._strip_factors([(A2, True), (B2, False)], tol)
    return mixdim._reps_equal(A1, A2, tol) and mixdim._reps_equal(B1, B2, tol)


def apply_pseudo_transform(s: LinSys, T: np.ndarray) -> LinSys:
    """Transform the system by the dimension-matched member of <T>.

    With m = dim(T) dividing n = dim(s), the member T~ = T (x) I_{n/m}
    acts as a genuine coordinate change: returns (T~ A T~^-1, T~ B).
    """
    n = s.dim
    m = T.shape[0]
    if T.shape != (m, m):
        raise ValueError("T must be square")
    if n % m != 0:
        raise ValueError(f"transform dimension {m} does not divide system dimension {n}")
    if rank(T) < m:
        raise ValueError("T is singular")
    T, A, B = common_backend(T, s.A, s.B)
    Tt = np.kron(T, as_backend(np.eye(n // m), T))
    return LinSys(name=s.name, A=Tt @ A @ inverse(Tt), B=Tt @ B)
