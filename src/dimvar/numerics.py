"""Scalar backends and dense-matrix primitives.

Two scalar backends are supported throughout the package:

* exact rationals: numpy object arrays holding ``fractions.Fraction``
  entries (plain ``int`` entries are accepted too).  All algebraic
  decisions (rank, equivalence, realization checks) default to this
  backend.  They are made by fraction-free (Bareiss) elimination of a
  copy scaled to Python ints by the lcm of its denominators, which
  gives the pivots and zero patterns of Gaussian elimination over the
  rationals without any Fraction arithmetic.
* float64: plain numpy float arrays with a tolerance policy, used for
  integration and Gramians.

An array's backend is recognised from its dtype (``object`` = exact).
Only this module turns the dtype into a choice of construction: other
modules build arrays on an operand's backend with `as_backend` and
promote mixed operands with `common_backend`, and read `is_exact` only
where their algorithm differs by backend.  Exact `solve` and `inverse`
run on the same Bareiss kernel as rank and span decisions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import scipy.linalg


@dataclass(frozen=True)
class Tolerance:
    """Comparison policy for the float64 backend.

    Equality is |a - b| <= max(abs_tol, rel_tol * max(|a|, |b|)),
    elementwise when a and b are arrays.
    """

    rel: float = 1e-9
    abs: float = 1e-12

    def close(self, a, b):
        return np.abs(a - b) <= np.maximum(
            self.abs, self.rel * np.maximum(np.abs(a), np.abs(b)))

    def rank_threshold(self, rows: int, cols: int, max_entry: float) -> float:
        # standard rank-revealing threshold for pivot acceptance
        return max(self.abs, max(rows, cols) * self.rel * max_entry)


DEFAULT_TOL = Tolerance()


def is_exact(M: np.ndarray) -> bool:
    """True when the array uses the exact rational backend."""
    return M.dtype == object


def parse_scalar(text: str) -> Fraction:
    """Parse "3", "3/2" or "0.75" into an exact Fraction.

    Decimal strings are converted exactly (finite decimal expansion).
    """
    return Fraction(text.strip())


def mat(rows, exact: bool = True) -> np.ndarray:
    """Build a 2-D matrix from nested scalars or strings.

    Each entry is parsed as a Fraction ("3/2", "0.75", 3); the float
    backend rounds that Fraction once.
    """
    data = [[Fraction(str(e)) if isinstance(e, (str, float)) else Fraction(e)
             for e in row] for row in rows]
    return np.array(data, dtype=object if exact else float)


def vec(entries, exact: bool = True) -> np.ndarray:
    """Build a 1-D column vector from scalars or strings, as `mat`."""
    return mat([entries], exact)[0]


def to_float(M: np.ndarray) -> np.ndarray:
    return M.astype(float)


def as_backend(X, like: np.ndarray):
    """X on the backend of the array `like`: Fraction entries (never
    plain ints) when `like` is exact, float64 otherwise.  A scalar X
    gives a scalar; float entries convert to their exact binary value.
    """
    X = np.asarray(X)
    if is_exact(like):
        X = np.array([Fraction(x) for x in X.ravel().tolist()],
                     dtype=object).reshape(X.shape)
    else:
        X = np.asarray(X, dtype=float)
    return X.item() if X.ndim == 0 else X


def common_backend(*arrays) -> list[np.ndarray]:
    """The arrays on one backend: as given when every one is exact,
    otherwise all promoted to float64."""
    arrays = [np.asarray(a) for a in arrays]
    if all(is_exact(a) for a in arrays):
        return arrays
    return [np.asarray(a, dtype=float) for a in arrays]


def float_only(what: str, *arrays) -> list[np.ndarray]:
    """The arrays as float64; TypeError when any of them is exact."""
    if any(is_exact(np.asarray(a)) for a in arrays):
        raise TypeError(f"{what} requires the float64 backend")
    return [np.asarray(a, dtype=float) for a in arrays]


def zeros(shape, exact: bool = True) -> np.ndarray:
    if exact:
        return np.full(shape, Fraction(0), dtype=object)
    return np.zeros(shape)


def eye(n: int, exact: bool = True) -> np.ndarray:
    if exact:
        M = zeros((n, n))
        for i in range(n):
            M[i, i] = Fraction(1)
        return M
    return np.eye(n)


def ones_vector(k: int, exact: bool = True) -> np.ndarray:
    """The all-ones replication vector of length k (1-D)."""
    if k < 1:
        raise ValueError("ones_vector requires k >= 1")
    if exact:
        return np.full(k, Fraction(1), dtype=object)
    return np.ones(k)


def j_matrix(k: int, exact: bool = True) -> np.ndarray:
    """k x k averaging matrix with every entry 1/k (idempotent)."""
    if k < 1:
        raise ValueError("j_matrix requires k >= 1")
    if exact:
        return np.full((k, k), Fraction(1, k), dtype=object)
    return np.full((k, k), 1.0 / k)


def kron(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Kronecker product (thin wrapper, works for both backends)."""
    return np.kron(A, B)


def _integer_scaled(M: np.ndarray):
    """Scale an exact array by the lcm L of its entries' denominators.

    Returns (Z, L) with Z = L * M an object array of Python ints.
    Entries may be Fractions or plain ints.
    """
    flat = M.ravel()
    dens = [x.denominator for x in flat]
    L = math.lcm(*dens)
    Z = [x.numerator * (L // d) for x, d in zip(flat, dens)]
    return np.array(Z, dtype=object).reshape(M.shape), L


def _echelon(M: np.ndarray, tol: Tolerance, ncols: int | None = None,
             thresh: float | None = None):
    """Row-reduce a copy of M; return (rank, pivot column indices, copy).

    Exact arrays are reduced fraction-free: Bareiss elimination
    ("Sylvester's identity and multistep integer-preserving Gaussian
    elimination", 1968) of the integer-scaled copy, with the first
    nonzero entry of a column as its pivot.  Every entry below a pivot
    row is then a minor of the scaled matrix, i.e. the Gaussian
    elimination entry times a nonzero product of pivots, so the pivot
    columns, the rank and the zero pattern of the reduced rows are
    those of Gaussian elimination over the rationals; the returned copy
    holds those integers.  Float arrays use the rank threshold of `tol`
    (or `thresh`) with partial (max-abs) row pivoting.  Only the first
    `ncols` columns (default all) may pivot; the row operations still
    reach every column.
    """
    if is_exact(M):
        return _bareiss(M, ncols)
    A = M.copy()
    m, n = A.shape
    if thresh is None:
        max_entry = float(np.max(np.abs(A))) if A.size else 0.0
        thresh = tol.rank_threshold(m, n, max_entry)
    piv_row = 0
    pivots = []
    for c in range(n if ncols is None else ncols):
        if piv_row >= m:
            break
        sel = piv_row + int(np.argmax(np.abs(A[piv_row:, c])))
        if abs(float(A[sel, c])) <= thresh:
            continue
        if sel != piv_row:
            A[[piv_row, sel]] = A[[sel, piv_row]]
        p = A[piv_row, c]
        for r in range(piv_row + 1, m):
            if A[r, c] != 0:
                A[r, c:] = A[r, c:] - (A[r, c] / p) * A[piv_row, c:]
        pivots.append(c)
        piv_row += 1
    return piv_row, pivots, A


def _bareiss(M: np.ndarray, ncols: int | None):
    """The exact branch of `_echelon`."""
    A, _ = _integer_scaled(M)
    m, n = A.shape
    piv_row, prev = 0, 1
    pivots = []
    for c in range(n if ncols is None else ncols):
        if piv_row >= m:
            break
        nonzero = np.flatnonzero(A[piv_row:, c])
        if not nonzero.size:
            continue
        sel = piv_row + int(nonzero[0])
        if sel != piv_row:
            A[[piv_row, sel]] = A[[sel, piv_row]]
        p = A[piv_row, c]
        # every row below is updated, also where its entry in column c
        # is zero: the exact division by prev needs all of them
        below = A[piv_row + 1:, c:]
        A[piv_row + 1:, c:] = (p * below - below[:, :1] * A[piv_row, c:]) // prev
        pivots.append(c)
        piv_row += 1
        prev = p
    return piv_row, pivots, A


def rank(M: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> int:
    """Rank by Gaussian elimination; exact under the rational backend."""
    if M.size == 0:
        return 0
    r, _, _ = _echelon(M, tol)
    return r


def pivot_columns(M: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> list[int]:
    if M.size == 0:
        return []
    _, piv, _ = _echelon(M, tol)
    return piv


@dataclass(frozen=True)
class SubspaceBasis:
    """A subspace of R^n represented by independent basis columns.

    ``basis`` has shape (ambient_dim, k); k = 0 encodes the zero
    subspace.
    """

    ambient_dim: int
    basis: np.ndarray

    def __post_init__(self):
        if self.basis.ndim != 2 or self.basis.shape[0] != self.ambient_dim:
            raise ValueError("basis must be ambient_dim x k")

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @staticmethod
    def zero(ambient_dim: int, exact: bool = True) -> "SubspaceBasis":
        return SubspaceBasis(ambient_dim, zeros((ambient_dim, 0), exact))


def column_space_basis(M: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> SubspaceBasis:
    """Pivot-column basis of the column space (columns of M retained)."""
    piv = pivot_columns(M, tol)
    return SubspaceBasis(M.shape[0], M[:, piv])


def in_span(S: SubspaceBasis, v: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Membership test: v in span(S) iff appending v keeps the rank."""
    v = np.asarray(v)
    if v.ndim == 2:
        v = v[:, 0]
    return in_span_columns(S, v.reshape(-1, 1), tol)[0]


def in_span_columns(S: SubspaceBasis, W: np.ndarray,
                    tol: Tolerance = DEFAULT_TOL) -> list[bool]:
    """Membership of every column of W in span(S), from one elimination.

    [S | W] is eliminated with pivots taken only in S's columns; column
    w_j lies in the span iff its residual below S's pivots is zero
    (exact) or at most the rank threshold of [S | w_j] (float).  That is
    the decision of rank([S | w_j]) == dim S, which is recomputed for a
    column only where S itself would lose a pivot under w_j's threshold.
    """
    W = np.asarray(W)
    if W.ndim != 2 or W.shape[0] != S.ambient_dim:
        raise ValueError(
            f"vector of dim {W.shape[0]} against ambient dim {S.ambient_dim}")
    m, d = S.basis.shape
    if d == 0:
        return [_in_zero_span(W[:, j], tol) for j in range(W.shape[1])]
    aug = np.hstack([S.basis, W])
    exact = is_exact(aug)
    r, piv, R = _echelon(aug, tol, ncols=d, thresh=0.0)
    res = R[r:, d:]
    if not exact:
        s_max = float(np.max(np.abs(S.basis)))
        smallest = min((abs(float(R[i, c])) for i, c in enumerate(piv)),
                       default=0.0)
    out = []
    for j in range(W.shape[1]):
        if exact:
            keeps, ok = r == d, all(x == 0 for x in res[:, j])
        else:
            t = tol.rank_threshold(
                m, d + 1, max(s_max, float(np.max(np.abs(W[:, j])))))
            keeps = r == d and t < smallest
            ok = not res.size or float(np.max(np.abs(res[:, j]))) <= t
        out.append(ok if keeps else
                   rank(np.hstack([S.basis, W[:, j:j + 1]]), tol) == d)
    return out


def _in_zero_span(v: np.ndarray, tol: Tolerance) -> bool:
    if is_exact(v):
        return bool(all(x == 0 for x in v))
    m = float(np.max(np.abs(v))) if v.size else 0.0
    return m <= tol.rank_threshold(v.shape[0], 1, max(m, 1.0)) or \
        all(tol.close(float(x), 0.0) for x in v)


def spans_equal(S: SubspaceBasis, T: SubspaceBasis,
                tol: Tolerance = DEFAULT_TOL) -> bool:
    """Mutual inclusion of two subspaces of the same ambient space."""
    if S.ambient_dim != T.ambient_dim:
        raise ValueError("ambient dimensions differ")
    return (all(in_span_columns(S, T.basis, tol)) and
            all(in_span_columns(T, S.basis, tol)))


def solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b for square nonsingular A on either backend.

    Exact systems reduce [A | b] on the Bareiss kernel of `_echelon`,
    pivoting in A's columns, and back-substitute its integer echelon
    form in Fractions.
    """
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError("A must be square")
    if not is_exact(A):
        return np.linalg.solve(A, b)
    r, _, R = _echelon(np.hstack([A, b.reshape(n, -1)]), DEFAULT_TOL, ncols=n)
    if r < n:
        raise ValueError("matrix is singular")
    x = np.empty((n, R.shape[1] - n), dtype=object)
    for i in range(n - 1, -1, -1):
        x[i] = (R[i, n:] - R[i, i + 1:n] @ x[i + 1:]) / Fraction(R[i, i])
    return x[:, 0] if b.ndim == 1 else x


def inverse(A: np.ndarray) -> np.ndarray:
    if not is_exact(A):
        return np.linalg.inv(A)
    return solve(A, eye(A.shape[0]))


def matrix_exponential_apply(A: np.ndarray, t: float, v: np.ndarray) -> np.ndarray:
    """Compute e^{A t} v (float64 backend only)."""
    A, v = float_only("matrix exponential", A, v)
    return scipy.linalg.expm(A * t) @ v
