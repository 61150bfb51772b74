"""Transient-realization decision procedures.

Given two systems of different dimensions, decide whether a transient
between them is realizable (the smaller system's controllable subspace,
zero-embedded into the larger space, can be completed to the whole
space by part of the larger system's controllable subspace), build the
blended transient model on the lcm dimension, and check the necessary
modeling condition (the blend's controllable subspace, proved full
modulo a prime or decided on its segment system as for ``dimvar ctrb
--blend``, must contain both lifted subsystem subspaces).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .numerics import (DEFAULT_TOL, SubspaceBasis, Tolerance,
                       _certify_full_krylov, _one_column, as_backend,
                       common_backend, in_span_columns, krylov_pivots,
                       pivot_columns, rank, unit_columns, vec)
from .systems import LinSys


def augment_with_zero_dynamics(s: LinSys, q: int) -> LinSys:
    """Pad a p-dimensional system to dimension q with zero dynamics.

    The added coordinates satisfy dx/dt = 0 and receive no input, so
    the controllable subspace is unchanged.
    """
    p = s.dim
    if q < p:
        raise ValueError(f"cannot augment dimension {p} down to {q}")
    if q == p:
        return s
    A = np.full((q, q), as_backend(0, s.A))
    A[:p, :p] = s.A
    B = np.full((q, s.n_inputs), as_backend(0, s.B))
    B[:p, :] = s.B
    return LinSys(name=s.name, A=A, B=B)


def embed(v: np.ndarray, n: int) -> np.ndarray:
    """Zero-pad a vector (or one column) into R^n."""
    v = _one_column(v)
    m = v.shape[0]
    if n < m:
        raise ValueError(f"cannot embed dimension {m} into {n}")
    out = np.full(n, as_backend(0, v))
    out[:m] = v
    return out


def embed_subspace(S: SubspaceBasis, n: int) -> SubspaceBasis:
    """Zero-pad every basis column into R^n."""
    if n < S.ambient_dim:
        raise ValueError(f"cannot embed ambient {S.ambient_dim} into {n}")
    out = np.full((n, S.dim), as_backend(0, S.basis))
    out[:S.ambient_dim, :] = S.basis
    return SubspaceBasis(n, out)


def direct_sum_check(U: SubspaceBasis, V: SubspaceBasis, q: int,
                     tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff U and V intersect trivially and together fill R^q; U and
    V of independent columns, since their dims are column counts."""
    if U.ambient_dim != q or V.ambient_dim != q:
        raise ValueError("ambient dimensions must equal q")
    if U.dim + V.dim != q:
        return False
    return rank(np.hstack(common_backend(U.basis, V.basis)), tol) == q


@dataclass(frozen=True)
class RealizationReport:
    """Outcome of the transient-realization check.

    ``witness`` spans the complement chosen inside the target system's
    controllable subspace; when ``realizable`` is False the sufficient
    condition was not met (the check is not a proof of impossibility).
    """

    realizable: bool
    q: int
    dim_C1: int
    dim_C2: int
    witness: SubspaceBasis
    notes: str = ""


def check_realization(s1: LinSys, s2: LinSys,
                      tol: Tolerance = DEFAULT_TOL) -> RealizationReport:
    """Decide the sufficient realization condition with a witness.

    Realizable iff rank([embed(C1) | C2 basis]) = q, where C1 and C2 are
    the controllable subspaces and q the larger dimension, decided by
    one `pivot_columns` (on floats, the staircase's residual test).  C1
    enters as its `span` (orthonormal on floats) and C2 as its
    pivot-basis columns, on floats each scaled to largest |entry| 1
    (`unit_columns`).  The witness is the C2 columns
    at the pivots past dim C1, so embed(C1) (+) witness = R^q; on the
    exact backend these are the lowest-index columns that extend C1.
    When dim(s1) > dim(s2) the roles are swapped and noted.
    """
    return _realization(s1, s2, _subsystem_ctrb(s1, s2, tol), tol)


def _subsystem_ctrb(s1: LinSys, s2: LinSys, tol: Tolerance):
    """The `krylov_pivots` of s1 and s2, on their `common_backend`."""
    A1, B1, A2, B2 = common_backend(s1.A, s1.B, s2.A, s2.B)
    return krylov_pivots(A1, B1, tol), krylov_pivots(A2, B2, tol)


def _realization(s1: LinSys, s2: LinSys, ctrb: tuple,
                 tol: Tolerance) -> RealizationReport:
    """`check_realization` on the subsystems' `_subsystem_ctrb`."""
    notes = ("direct sum interpreted as trivial subspace intersection; "
             "condition is sufficient only")
    if s1.dim > s2.dim:
        ctrb = ctrb[::-1]
        notes = f"roles swapped: {s1.name} has larger dimension; " + notes
    (piv1, _, C1), (piv2, W, _) = ctrb
    q, r = max(s1.dim, s2.dim), len(piv1)
    piv = pivot_columns(np.hstack([embed_subspace(C1, q).basis,
                                   unit_columns(W)]), tol)
    realizable = len(piv) == q
    witness = W[:, [p - r for p in piv if p >= r and realizable]]
    return RealizationReport(realizable=realizable, q=q, dim_C1=r,
                             dim_C2=len(piv2), witness=SubspaceBasis(q, witness),
                             notes=notes)


@dataclass(frozen=True)
class TransientModel:
    """The blend alpha (A1 (x) J) + beta (A2 (x) J), with the weighted
    input channels side by side, on its s segments (`_segments`).

    ``A`` (s x s) and ``B`` hold its values there, ``lengths`` the
    segment lengths and ``rows`` the sigma1 and sigma2 row each segment
    reads.  With E the n x s segment indicator, ``base`` = (E A E^T,
    E B) is built on first read, and base.A E = E As: the blend on
    range E is the segment system (As, B), As = A diag(lengths).  The
    blend's Krylov matrix is E ctrb(As, B), E is injective and blocks
    past s never pivot: both pivot alike, and C_z = E span ctrb(As, B).
    """

    A: np.ndarray
    B: np.ndarray
    lengths: np.ndarray
    rows: tuple
    name: str
    weights: tuple
    source_dims: tuple[int, int]
    input_split: tuple[int, int]

    @property
    def dim(self) -> int:
        return math.lcm(*self.source_dims)

    @cached_property
    def base(self) -> LinSys:
        e = np.repeat(np.arange(len(self.lengths)), self.lengths)
        return LinSys(name=self.name, A=self.A[np.ix_(e, e)], B=self.B[e])

    @property
    def B1_star(self) -> np.ndarray:
        return self.base.B[:, :self.input_split[0]]

    @property
    def B2_star(self) -> np.ndarray:
        return self.base.B[:, self.input_split[0]:]


def _segments(p: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Starts and lengths of the p + q - gcd(p, q) segments of R^n,
    n = lcm(p, q): the common refinement of its blocks of length n/p
    and of length n/q, starting at the multiples of both lengths.  The
    blend and every lifted vector are constant on each segment.
    """
    n = math.lcm(p, q)
    starts = sorted({*range(0, n, n // p), *range(0, n, n // q)})
    return np.array(starts), np.diff(starts + [n])


def build_transient_model(s1: LinSys, s2: LinSys, alpha=None, beta=None,
                          masses=None) -> TransientModel:
    """Blend two systems on n = lcm(p, q), on their `common_backend`.

    Weights come either from formal masses (m1, m2), giving the convex
    pair m1/(m1+m2), m2/(m1+m2), or directly as (alpha, beta), as in a
    case file: both forms together are refused, and the pair is read by
    `vec` (a string is refused) and must be strictly positive.

    A = alpha A1 (x) J_k + beta A2 (x) J_m (k = n/p, m = n/q) is
    constant on the blocks of the p + q - gcd(p, q) segments of
    `_segments`.  Each segment pair is summed once, as
    alpha * (a1 * (1/k)) + beta * (a2 * (1/m)) in the Kronecker
    product's operand order, and kept on the segments (`TransientModel`).
    """
    if (masses is None) == (alpha is None) or (alpha is None) != (beta is None):
        raise ValueError("provide either masses or both alpha and beta")
    a, b = vec([alpha, beta] if masses is None else masses)
    if a <= 0 or b <= 0:
        raise ValueError("weights must be strictly positive")
    alpha, beta = (a, b) if masses is None else (a / (a + b), b / (a + b))
    p, q = s1.dim, s2.dim
    n = math.lcm(p, q)
    k, m = n // p, n // q
    A1, B1, A2, B2 = common_backend(s1.A, s1.B, s2.A, s2.B)
    alpha, beta = as_backend(alpha, A1), as_backend(beta, A2)
    starts, lengths = _segments(p, q)
    i, j = starts // k, starts // m
    A1 = alpha * (A1 * as_backend(Fraction(1, k), A1))
    A2 = beta * (A2 * as_backend(Fraction(1, m), A2))
    A = A1.take(i, 0).take(i, 1) + A2.take(j, 0).take(j, 1)
    B = np.hstack([(alpha * B1).take(i, 0), (beta * B2).take(j, 0)])
    return TransientModel(A=A, B=B, lengths=lengths, rows=(i, j),
                          name=f"blend({s1.name},{s2.name})",
                          weights=(alpha, beta), source_dims=(p, q),
                          input_split=(s1.n_inputs, s2.n_inputs))


@dataclass(frozen=True)
class ModelingReport:
    """Outcome of the necessary modeling condition.

    Every lifted basis vector of the two subsystems' controllable
    subspaces must lie in the blend's controllable subspace.
    """

    holds: bool
    n: int
    tested_vectors: list
    dim_Cz: int


def check_modeling_condition(s1: LinSys, s2: LinSys, model: TransientModel,
                             tol: Tolerance = DEFAULT_TOL) -> ModelingReport:
    """Check that the blend's controllable subspace contains both
    subsystems' controllable subspaces after lifting to dimension n.

    v (x) 1_k lies in C_z = E span ctrb(As, B) iff v at the sigma1 rows
    of ``model.rows`` lies in span ctrb(As, B) (w (x) 1_m: w at the
    sigma2 rows).  C_z = R^s, proved by `_certify_full_krylov` (exact
    input) or found by `krylov_pivots` of (As, B), holds all lifted
    vectors; a smaller C_z tests them by one `in_span_columns`, each
    column scaled to largest |entry| 1 by `unit_columns`.
    """
    return _modeling(s1, s2, model, _subsystem_ctrb(s1, s2, tol), tol)


def _modeling(s1: LinSys, s2: LinSys, model: TransientModel, ctrb: tuple,
              tol: Tolerance) -> ModelingReport:
    """`check_modeling_condition` on the subsystems' `_subsystem_ctrb`."""
    if model.source_dims != (s1.dim, s2.dim):
        raise ValueError("model was not built from these systems")
    if model.input_split != (s1.n_inputs, s2.n_inputs):
        raise ValueError("model was not built from these systems' inputs")
    full = _certify_full_krylov(model.A, model.B, model.lengths)
    S = None if full else krylov_pivots(model.A * model.lengths, model.B, tol)[2]
    columns = np.hstack([W[rows] for (_, W, _), rows in zip(ctrb, model.rows)])
    inside = ([True] * columns.shape[1] if full or S.dim == S.ambient_dim
              else in_span_columns(S, unit_columns(columns), tol))
    lifted = np.repeat(columns, model.lengths, axis=0).T
    return ModelingReport(holds=all(inside), n=model.dim,
                          tested_vectors=list(zip(lifted, inside)),
                          dim_Cz=len(model.lengths) if full else S.dim)


def check_transient(s1: LinSys, s2: LinSys, model: TransientModel,
                    tol: Tolerance = DEFAULT_TOL):
    """(`check_realization`, `check_modeling_condition`), C1 and C2 once."""
    ctrb = _subsystem_ctrb(s1, s2, tol)
    return _realization(s1, s2, ctrb, tol), _modeling(s1, s2, model, ctrb, tol)
