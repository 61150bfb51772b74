"""Transient-realization decision procedures.

Given two systems of different dimensions, decide whether a transient
between them is realizable (the smaller system's controllable subspace,
zero-embedded into the larger space, can be completed to the whole
space by part of the larger system's controllable subspace), build the
blended transient model on the lcm dimension, and check the necessary
modeling condition (the blend's controllable subspace must contain both
lifted subsystem subspaces).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .controllability import ctrb_matrix, ctrb_subspace
from .numerics import (DEFAULT_TOL, SubspaceBasis, Tolerance, as_backend,
                       column_space_basis, in_span_columns, rank)
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
    """Zero-pad a vector into R^n."""
    v = np.asarray(v)
    if v.ndim == 2:
        v = v[:, 0]
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
    """True iff U and V intersect trivially and together fill R^q."""
    if U.ambient_dim != q or V.ambient_dim != q:
        raise ValueError("ambient dimensions must equal q")
    if U.dim + V.dim != q:
        return False
    return rank(np.hstack([U.basis, V.basis]), tol) == q


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

    Realizable iff rank([embed(C1 basis) | C2 basis]) = q, where C1 and
    C2 are the controllable subspaces and q the larger dimension.  The
    witness is built greedily (lowest-index basis column first) from C2
    columns extending the embedded C1, so embed(C1) (+) witness = R^q.
    When dim(s1) > dim(s2) the roles are swapped and noted.
    """
    notes = ("direct sum interpreted as trivial subspace intersection; "
             "condition is sufficient only")
    if s1.dim > s2.dim:
        small, big = s2, s1
        notes = f"roles swapped: {s1.name} has larger dimension; " + notes
    else:
        small, big = s1, s2
    q = big.dim
    C1 = ctrb_subspace(small.A, small.B, tol)
    C2 = ctrb_subspace(big.A, big.B, tol)
    C1e = embed_subspace(C1.basis, q)
    combined = np.hstack([C1e.basis, C2.basis.basis])
    realizable = rank(combined, tol) == q
    witness_cols = []
    if realizable:
        current = C1e.basis
        for j in range(C2.basis.dim):
            if current.shape[1] == q:
                break
            cand = np.hstack([current, C2.basis.basis[:, j:j + 1]])
            if rank(cand, tol) == current.shape[1] + 1:
                current = cand
                witness_cols.append(j)
    witness = SubspaceBasis(q, C2.basis.basis[:, witness_cols])
    return RealizationReport(realizable=realizable, q=q, dim_C1=C1.rank,
                             dim_C2=C2.rank, witness=witness, notes=notes)


@dataclass(frozen=True)
class TransientModel:
    """Blended transient dynamics on the lcm dimension.

    base.A = alpha * (A1 (x) J) + beta * (A2 (x) J); base.B stacks the
    two weighted input channels side by side.
    """

    base: LinSys
    weights: tuple
    source_dims: tuple[int, int]
    input_split: tuple[int, int]

    @property
    def dim(self) -> int:
        return self.base.dim

    @property
    def B1_star(self) -> np.ndarray:
        return self.base.B[:, :self.input_split[0]]

    @property
    def B2_star(self) -> np.ndarray:
        return self.base.B[:, self.input_split[0]:]


def build_transient_model(s1: LinSys, s2: LinSys, alpha=None, beta=None,
                          masses=None) -> TransientModel:
    """Blend two systems on n = lcm(p, q).

    Weights come either from formal masses (m1, m2), giving the convex
    pair alpha = m1/(m1+m2), beta = 1 - alpha, or directly as any
    strictly positive (alpha, beta).

    A = alpha A1 (x) J_k + beta A2 (x) J_m (k = n/p, m = n/q) is
    constant on the blocks of the common refinement of the k-blocks
    and m-blocks of R^n: p + q - gcd(p, q) segments starting at the
    multiples of k and of m.  Each segment pair is summed once, as
    alpha * (a1 * (1/k)) + beta * (a2 * (1/m)) in the Kronecker
    product's operand order, and repeated by the segment lengths.
    """
    if masses is not None:
        m1, m2 = (Fraction(str(m)) for m in masses)
        if m1 <= 0 or m2 <= 0:
            raise ValueError("masses must be strictly positive")
        alpha = m1 / (m1 + m2)
        beta = 1 - alpha
    else:
        if alpha is None or beta is None:
            raise ValueError("provide either masses or both alpha and beta")
        alpha = Fraction(str(alpha)) if not isinstance(alpha, Fraction) else alpha
        beta = Fraction(str(beta)) if not isinstance(beta, Fraction) else beta
        if alpha <= 0 or beta <= 0:
            raise ValueError("weights must be strictly positive")
    p, q = s1.dim, s2.dim
    n = math.lcm(p, q)
    k, m = n // p, n // q
    alpha, beta = as_backend(alpha, s1.A), as_backend(beta, s2.A)
    starts = sorted(set(range(0, n, k)).union(range(0, n, m)))
    lengths = np.array([b - a for a, b in zip(starts, starts[1:] + [n])])
    i, j = [t // k for t in starts], [t // m for t in starts]
    A1 = alpha * (s1.A * as_backend(Fraction(1, k), s1.A))
    A2 = beta * (s2.A * as_backend(Fraction(1, m), s2.A))
    A = A1.take(i, 0).take(i, 1) + A2.take(j, 0).take(j, 1)
    A = np.repeat(np.repeat(A, lengths, axis=0), lengths, axis=1)
    B = np.hstack([np.repeat(alpha * s1.B, k, axis=0),
                   np.repeat(beta * s2.B, m, axis=0)])
    base = LinSys(name=f"blend({s1.name},{s2.name})", A=A, B=B)
    return TransientModel(base=base, weights=(alpha, beta),
                          source_dims=(p, q),
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


def _block_average(p: int, q: int, n: int, like: np.ndarray) -> np.ndarray:
    """The p x q map sending w to the means of w (x) 1_{n/q} over its p
    blocks of length n/p: entry (r // (n/p), r // (n/q)) gains p/n for
    every r < n.  Built on the backend of `like`."""
    k, m = n // p, n // q
    counts = np.zeros((p, q), dtype=int)
    r = np.arange(n)
    np.add.at(counts, (r // k, r // m), 1)
    return as_backend(counts, like) / k


def check_modeling_condition(s1: LinSys, s2: LinSys, model: TransientModel,
                             tol: Tolerance = DEFAULT_TOL) -> ModelingReport:
    """Check that the blend's controllable subspace contains both
    subsystems' controllable subspaces after lifting to dimension n.

    Every lifted part of the blend maps R^n into V = R^p (x) 1_k +
    R^q (x) 1_m (k = n/p, m = n/q), which has dimension p + q - g with
    g = gcd(p, q), so the check runs in the coordinates R^(p+q) of
    M = [I_p (x) 1_k | I_q (x) 1_m].  With Pi the block-averaging maps,
    the blend satisfies A M = M At and B = M Bt for

        At = [[alpha A1, alpha A1 Pi_qp], [beta A2 Pi_pq, beta A2]],
        Bt = diag(alpha B1, beta B2),

    so C_z = M span(ctrb(At, Bt)).  N = [I_g (x) 1_(p/g); -I_g (x) 1_(q/g)]
    spans ker M; with S = span[ctrb(At, Bt) | N], dim C_z = dim S - g,
    and v (x) 1_k lies in C_z iff [v; 0] lies in S (w (x) 1_m: [0; w]).
    All lifted vectors are tested in one elimination.  Only the two
    systems and the model's weights are read; no n-dimensional matrix
    is formed.
    """
    p, q = s1.dim, s2.dim
    if model.source_dims != (p, q):
        raise ValueError("model was not built from these systems")
    if model.input_split != (s1.n_inputs, s2.n_inputs):
        raise ValueError("model was not built from these systems' inputs")
    n, g = math.lcm(p, q), math.gcd(p, q)
    alpha, beta = model.weights
    A1, B1, A2, B2 = s1.A, s1.B, s2.A, s2.B
    zero = as_backend(0, A1)
    At = np.block([[alpha * A1, alpha * (A1 @ _block_average(p, q, n, A1))],
                   [beta * (A2 @ _block_average(q, p, n, A2)), beta * A2]])
    Bt = np.block([[alpha * B1, np.full((p, B2.shape[1]), zero)],
                   [np.full((q, B1.shape[1]), zero), beta * B2]])
    I_g = as_backend(np.eye(g), A1)
    N = np.vstack([np.repeat(I_g, p // g, axis=0),
                   -np.repeat(I_g, q // g, axis=0)])
    S = column_space_basis(np.hstack([ctrb_matrix(At, Bt), N]), tol)
    lifted, columns = [], []
    for s, offset in ((s1, 0), (s2, p)):
        C = ctrb_subspace(s.A, s.B, tol).basis.basis
        W = np.full((p + q, C.shape[1]), zero)
        W[offset:offset + s.dim] = C
        columns.append(W)
        lifted += [np.repeat(C[:, j], n // s.dim) for j in range(C.shape[1])]
    inside = in_span_columns(S, np.hstack(columns), tol)
    return ModelingReport(holds=all(inside), n=n,
                          tested_vectors=list(zip(lifted, inside)),
                          dim_Cz=S.dim - g)
