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
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .numerics import (DEFAULT_TOL, SubspaceBasis, Tolerance,
                       _certify_full_krylov, _divide_back, _integer_pivots,
                       _integer_scaled, _krylov_columns, _one_column,
                       as_backend, common_backend, in_span_columns,
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

    Realizable iff rank([embed(C1) | C2]) = q, where C1 and C2 are the
    controllable subspaces and q the larger dimension, decided by one
    pivot search on the `_krylov_columns` spans: `_integer_pivots` of the
    exact integer columns (only the witness divided back), `pivot_columns`
    of the staircase's Q on floats.  Q's first k columns span K's first k
    pivot columns W for every k, so the witness is W at the pivots past
    dim C1 and embed(C1) (+) witness = R^q; on the exact backend these are
    the lowest-index columns that extend C1.  dim C2 = q is realizable on
    both backends.  When dim(s1) > dim(s2) the roles are swapped and noted.
    """
    return _realization(s1, s2, _subsystem_ctrb(s1, s2, tol), tol)


def _subsystem_ctrb(s1: LinSys, s2: LinSys, tol: Tolerance):
    """The `_krylov_columns` of s1 and s2, on their `common_backend`."""
    A1, B1, A2, B2 = common_backend(s1.A, s1.B, s2.A, s2.B)
    return _krylov_columns(A1, B1, tol), _krylov_columns(A2, B2, tol)


def _realization(s1: LinSys, s2: LinSys, ctrb: tuple,
                 tol: Tolerance) -> RealizationReport:
    """`check_realization` on the subsystems' `_subsystem_ctrb`."""
    notes = ("direct sum interpreted as trivial subspace intersection; "
             "condition is sufficient only")
    if s1.dim > s2.dim:
        ctrb = ctrb[::-1]
        notes = f"roles swapped: {s1.name} has larger dimension; " + notes
    (piv1, _, _, C1), (piv2, Z, d, C2) = ctrb
    q, r = max(s1.dim, s2.dim), len(piv1)
    M = np.zeros((q, r + len(piv2)), C2.basis.dtype)    # [embed(C1) | C2]
    M[:C1.ambient_dim, :r], M[:, r:] = C1.basis, C2.basis
    piv = pivot_columns(M, tol) if d is None else _integer_pivots(M)
    realizable = len(piv) == q
    sel = [p - r for p in piv if p >= r and realizable]
    witness = _divide_back(Z[:, sel], d if d is None else d[sel])
    return RealizationReport(realizable=realizable, q=q, dim_C1=r,
                             dim_C2=len(piv2), witness=SubspaceBasis(q, witness),
                             notes=notes)


@dataclass(frozen=True)
class TransientModel:
    """The blend alpha (A1 (x) J) + beta (A2 (x) J), with the weighted
    input channels side by side, on its s segments (`_segments`).

    ``A`` (s x s) and ``B`` are its values there, built on first read
    from the integer numerators ``N_A`` and ``N_B`` over one denominator
    ``D`` (floats: A and B themselves, D None); ``lengths`` holds the
    segment lengths and ``rows`` the sigma1 and sigma2 row each segment
    reads.  With E the n x s segment indicator, ``base`` = (E A E^T,
    E B) is built on first read, and base.A E = E As: the blend on
    range E is the segment system (As, B), As = A diag(lengths).  The
    blend's Krylov matrix is E ctrb(As, B), E is injective and blocks
    past s never pivot: both pivot alike, and C_z = E span ctrb(As, B),
    as decided on (N_A diag(lengths), N_B), block j D^(j+1) times As's.
    """

    N_A: np.ndarray
    N_B: np.ndarray
    D: int | None
    lengths: np.ndarray
    rows: tuple
    name: str
    weights: tuple
    source_dims: tuple[int, int]
    input_split: tuple[int, int]

    @property
    def dim(self) -> int:
        return math.lcm(*self.source_dims)

    A = cached_property(lambda self: _divide_back(self.N_A, self.D))
    B = cached_property(lambda self: _divide_back(self.N_B, self.D))

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
    `_segments`.  Each segment pair is summed once and kept on the
    segments (`TransientModel`): on floats as alpha * (a1 * (1/k)) +
    beta * (a2 * (1/m)), the Kronecker product's operand order; exact
    [Ai | Bi] = Zi / Li, alpha = a/a_d and beta = b/b_d give N / D, one
    Fraction each, with D = a_d b_d k m L1 L2, N_A = w1 Z1_A + w2 Z2_A,
    N_B = [k w1 Z1_B | m w2 Z2_B], w1 = a b_d m L2 and w2 = b a_d k L1.
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
    (Z1, L1), (Z2, L2) = (_integer_scaled(np.hstack(M))
                          for M in ((A1, B1), (A2, B2)))
    # (weight, A scale, B scale): alpha (a1 (1/k)) and alpha b1 on floats
    w1, w2, D = ((alpha, 1 / k, 1), (beta, 1 / m, 1), None) if L1 is None else (
        (alpha.numerator * beta.denominator * m * L2, 1, k),
        (beta.numerator * alpha.denominator * k * L1, 1, m),
        alpha.denominator * beta.denominator * k * m * L1 * L2)
    X1, X2 = (w * np.hstack([Z[:, :d] * a, Z[:, d:] * b])
              for (w, a, b), Z, d in ((w1, Z1, p), (w2, Z2, q)))
    N_A = X1[:, :p].take(i, 0).take(i, 1) + X2[:, :q].take(j, 0).take(j, 1)
    N_B = np.hstack([X1[:, p:].take(i, 0), X2[:, q:].take(j, 0)])
    return TransientModel(N_A=N_A, N_B=N_B, D=D, lengths=lengths, rows=(i, j),
                          name=f"blend({s1.name},{s2.name})",
                          weights=(alpha, beta), source_dims=(p, q),
                          input_split=(s1.n_inputs, s2.n_inputs))


@dataclass(frozen=True)
class ModelingReport:
    """Outcome of the necessary modeling condition.

    Every lifted basis vector of the two subsystems' controllable
    subspaces must lie in the blend's (``tested_vectors``: on first read).
    """

    holds: bool
    n: int
    dim_Cz: int
    _tested: object = field(repr=False, compare=False)

    @cached_property
    def tested_vectors(self) -> list:
        return self._tested()


def check_modeling_condition(s1: LinSys, s2: LinSys, model: TransientModel,
                             tol: Tolerance = DEFAULT_TOL) -> ModelingReport:
    """Check that the blend's controllable subspace contains both
    subsystems' controllable subspaces after lifting to dimension n.

    v (x) 1_k lies in C_z = E span ctrb(As, B) iff v at the sigma1 rows
    of ``model.rows`` lies in span ctrb(As, B) (w (x) 1_m: w at the
    sigma2 rows).  C_z = R^s, proved by `_certify_full_krylov` (exact
    input) or by `_krylov_columns` of (As, B), on N_A and N_B, holds all
    lifted vectors, and C1 and C2 are found when ``tested_vectors`` is
    first read; a smaller C_z tests them at once by one `in_span_columns`,
    each column scaled to largest |entry| 1 by `unit_columns`.
    """
    return _modeling(s1, s2, model, None, tol)


def _modeling(s1: LinSys, s2: LinSys, model: TransientModel, ctrb,
              tol: Tolerance) -> ModelingReport:
    """`check_modeling_condition` on `_subsystem_ctrb` (None: when needed)."""
    if model.source_dims != (s1.dim, s2.dim):
        raise ValueError("model was not built from these systems")
    if model.input_split != (s1.n_inputs, s2.n_inputs):
        raise ValueError("model was not built from these systems' inputs")
    S = (None if _certify_full_krylov(model.N_A, model.N_B, model.lengths)
         else _krylov_columns(model.N_A * model.lengths, model.N_B, tol)[3])
    full = S is None or S.dim == S.ambient_dim
    if full and ctrb is None:
        s1, s2 = (LinSys(s.name, s.A.copy(), s.B.copy()) for s in (s1, s2))
    def tested():
        columns = np.hstack([_divide_back(Z, d)[rows] for (_, Z, d, _), rows
                             in zip(ctrb or _subsystem_ctrb(s1, s2, tol), model.rows)])
        inside = ([True] * columns.shape[1] if full
                  else in_span_columns(S, unit_columns(columns), tol))
        return list(zip(np.repeat(columns, model.lengths, axis=0).T, inside))
    if full:
        return ModelingReport(True, model.dim, len(model.lengths), tested)
    v = tested()
    return ModelingReport(all(ok for _, ok in v), model.dim, S.dim, lambda: v)


def check_transient(s1: LinSys, s2: LinSys, model: TransientModel,
                    tol: Tolerance = DEFAULT_TOL):
    """(`check_realization`, `check_modeling_condition`), C1 and C2 once."""
    ctrb = _subsystem_ctrb(s1, s2, tol)
    return _realization(s1, s2, ctrb, tol), _modeling(s1, s2, model, ctrb, tol)
