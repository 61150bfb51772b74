"""Mixed-dimension vector/matrix algebra.

Vectors of different lengths are compared through replication: x and y
are equivalent when x (x) 1_a = y (x) 1_b for some replication factors.
Each equivalence class has a unique irreducible (minimal-dimension)
member; all class arithmetic is carried out on representatives.

Three cross-dimensional products are provided:

* ``second_stp``    -- (A (x) J)(B (x) J), matrix-matrix
* ``stp_action``    -- (A (x) J)(x (x) 1), matrix-vector, class action
* ``stp_identity_action`` -- (A (x) I)(x (x) 1), used for
  pseudo-coordinate transformations
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .numerics import (DEFAULT_TOL, Tolerance, _columns, _identity_tokens,
                       _one_column, as_backend, common_backend, equality_key)


def _replicate(X: np.ndarray, s: int, j: bool) -> np.ndarray:
    """Repeat every entry of X s times along its rows, and with j true
    also along its columns: X (x) 1_s, or X (x) (1_s 1_s^T)."""
    X = np.repeat(X, s, axis=0)
    return np.repeat(X, s, axis=1) if j else X


def _kron_j(A: np.ndarray, s: int) -> np.ndarray:
    """A (x) J_s by replication, each entry computed once as a * (1/s)."""
    return _replicate(A * as_backend(Fraction(1, s), A), s, True)


def _lcm_factors(a: int, b: int) -> tuple[int, int]:
    """(t/a, t/b) for the lcm t of two operand dimensions; a 0 is refused."""
    if not (a and b):
        raise ValueError(f"empty operand: dimensions {a} and {b}")
    t = math.lcm(a, b)
    return t // a, t // b


def _reps_equal(X: np.ndarray, Y: np.ndarray, tol: Tolerance) -> bool:
    """Class representatives are equal: same shape, equal entries."""
    X, Y = common_backend(X, Y)
    if X.shape != Y.shape:
        return False
    key = equality_key(np.array([X, Y]))      # one scale for both
    return bool(tol.close(X, Y).all() if key is None else
                (key[0] == key[1]).all())


def _largest_factor(parts, tol: Tolerance | None = None):
    """The largest s with T = T0 (x) 1_s, or T0 (x) (1_s 1_s^T) with j,
    for every (T, j) in parts, in the closed form of `_strip_factors`;
    0 when every blocked dimension is 0.  With tol, (s or 1, g): g is the
    gcd of the dimensions and far change indices, tested until g = s."""
    g, changes = 0, []
    for T, j in parts:
        for U in ((T, T.T) if j else (T,)):
            change = np.flatnonzero((U[1:] != U[:-1]).any(axis=1)) + 1
            g = math.gcd(g, U.shape[0], *change.tolist())
            changes.append((U, change))
    if tol is None:
        return g
    h = math.gcd(*(U.shape[0] for U, _ in changes))
    for U, c in changes:
        if h == g or tol.rel >= 0.5:
            break
        x, y = U[c - 1], U[c]
        with np.errstate(over="ignore", invalid="ignore"):
            far = np.abs(x - y) > 8 * np.maximum(max(tol.abs, 2.0 ** -1060),
                max(tol.rel, 2.0 ** -48) * np.maximum(np.abs(x), np.abs(y)))
        h = math.gcd(h, *c[far.any(axis=1)].tolist())
    return g or 1, h


def _strip_factors(parts, tol: Tolerance):
    """Strip the largest replication factor s from 2-D arrays jointly:
    (X, j) in parts as X0 (x) J_s with j (representative s * X0), else
    as X0 (x) 1_s.  Returns the `common_backend` representatives and s.

    X = X0 (x) 1_s exactly when s divides X's row count and every index
    where a row differs from the one before (with j, also for columns),
    so the factors that strip are the divisors of the largest, the gcd
    of those numbers (`_largest_factor`).  Exact parts take it in two
    steps: s1 on the `_identity_tokens`, where equal tokens are one
    object, so s1 divides s; then s2 = s / s1 on the `equality_key` of
    the slices X[::s1, ::s1] (j) or X[::s1].  Float parts keep a divisor
    search, as tolerance equality is not transitive, over the divisors
    that far change indices leave (`_strip_floats`)."""
    Xs = common_backend(*(X for X, _ in parts))
    parts = [(X, j) for X, (_, j) in zip(Xs, parts)]
    if _identity_tokens(Xs[0]) is None:
        return _strip_floats(parts, tol)
    s1 = _largest_factor([(_identity_tokens(X), j) for X, j in parts]) or 1
    s = s1 * _largest_factor([(equality_key(X[::s1, ::s1] if j else X[::s1]),
                               j) for X, j in parts])
    if s < 2:
        return Xs, 1
    return [X[::s, ::s] * s if j else X[::s].copy() for X, j in parts], s


def _strip_floats(parts, tol: Tolerance):
    """`_strip_factors` on float parts: divisors largest first, repeated
    on the block means v0 + mean(v - v0), v0 a block's first entry.  The
    factor eq of blocks of ``==`` entries (`_largest_factor`) holds
    untested and keeps v0.  When rel < 1/2, entries close to one v0 are
    within 4 max(abs, rel max(|x|, |y|)), as |v0| < |x| / (1 - rel) where
    rel decides; so only the divisors of g, the gcd of the dimensions and
    the change indices with a pair twice that far (rel, abs raised to
    2^-48, 2^-1060 for rounding), are tested.  If g == eq, scaling by eq
    keeps them far: no second round runs unless it made an entry inf."""
    reps, mult = list(parts), 1
    while True:
        eq, g = _largest_factor(reps, tol)
        for s in [d for d in range(g, eq, -1) if g % d == 0] + [eq]:
            views = [(X.reshape(X.shape[0] // s, s, X.shape[1] // s, s) if j
                      else X.reshape(X.shape[0] // s, s, X.shape[1], 1), j)
                     for X, j in reps]
            if s == eq or all(tol.close(v, v[:, :1, :, :1]).all()
                              for v, _ in views):
                break
        if s > 1:
            reps = [((v[:, 0, :, 0] if s == eq else v[:, 0, :, 0] + np.subtract(
                v, v[:, :1, :, :1], out=np.zeros(v.shape),
                where=v != v[:, :1, :, :1]).mean(axis=(1, 3)))
                     * (s if j else 1), j) for v, j in views]
            mult *= s
        if s == 1 or g == eq and all(np.isfinite(X).all() for X, _ in reps):
            return [X for X, _ in reps], mult


@dataclass(frozen=True)
class MixVector:
    """A vector together with the irreducible member of its class."""

    value: np.ndarray
    irreducible: np.ndarray

    @property
    def multiplicity(self) -> int:
        return self.value.shape[0] // self.irreducible.shape[0]


def reduce_vector(x: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> MixVector:
    """The irreducible member of x's class (see `_strip_factors`)."""
    x = _one_column(x)
    if x.shape[0] < 1:
        raise ValueError("empty vector")
    (y,), _ = _strip_factors([(_columns(x), False)], tol)
    return MixVector(value=x, irreducible=y[:, 0])


def vec_equivalent(x: np.ndarray, y: np.ndarray,
                   tol: Tolerance = DEFAULT_TOL) -> bool:
    """Class equality: identical irreducible representatives."""
    x, y = common_backend(x, y)
    return _reps_equal(reduce_vector(x, tol).irreducible,
                       reduce_vector(y, tol).irreducible, tol)


def vec_add(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Cross-dimensional addition on the lcm dimension of two vectors,
    each 1-D or one column (ValueError otherwise); the sum is 1-D."""
    x, y = common_backend(_one_column(x), _one_column(y))
    k, m = _lcm_factors(x.shape[0], y.shape[0])
    return _replicate(x, k, False) + _replicate(y, m, False)


def vec_sub(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return vec_add(x, -np.asarray(y))


@dataclass(frozen=True)
class MatrixClassRep:
    """A matrix with its J-irreducible representative.

    value = irreducible (x) J_multiplier.
    """

    value: np.ndarray
    irreducible: np.ndarray
    multiplier: int


def reduce_matrix(A: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> MatrixClassRep:
    """Strip the largest factor s with A = A0 (x) J_s, recursively."""
    A = np.asarray(A)
    (B,), mult = _strip_factors([(A, True)], tol)
    return MatrixClassRep(value=A, irreducible=B, multiplier=mult)


def mat_equivalent(A: np.ndarray, B: np.ndarray,
                   tol: Tolerance = DEFAULT_TOL) -> bool:
    """Matrix class equality: A (x) J_a = B (x) J_b for some a, b."""
    A, B = common_backend(A, B)
    return _reps_equal(reduce_matrix(A, tol).irreducible,
                       reduce_matrix(B, tol).irreducible, tol)


def reduce_matrix_vec(B: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Strip the largest row-replication factor: B = B0 (x) 1_s.

    All columns reduce jointly with the same factor.
    """
    (out,), _ = _strip_factors([(_columns(B), False)], tol)
    return out


def mat_vec_equivalent(B: np.ndarray, D: np.ndarray,
                       tol: Tolerance = DEFAULT_TOL) -> bool:
    """Vector equivalence of matrices: B (x) 1_a = D (x) 1_b."""
    B, D = common_backend(B, D)
    return _reps_equal(reduce_matrix_vec(B, tol), reduce_matrix_vec(D, tol), tol)


def second_stp(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """(A (x) J_{t/n}) (B (x) J_{t/p}) with t = lcm(cols A, rows B)."""
    A, B = common_backend(A, B)
    k, m = _lcm_factors(A.shape[1], B.shape[0])
    return _kron_j(A, k) @ _kron_j(B, m)


def stp_action(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(A (x) J_{t/n}) (x (x) 1_{t/r}): the class action on a vector (or
    one column), `stp_action_matrix` on it."""
    return stp_action_matrix(A, _one_column(x))[:, 0]


def stp_action_matrix(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Column-wise class action: (A (x) J_{t/n}) (B (x) 1_{t/r})."""
    A, B = common_backend(A, _columns(B))
    k, m = _lcm_factors(A.shape[1], B.shape[0])
    return _kron_j(A, k) @ _replicate(B, m, False)


def stp_identity_action(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(A (x) I_{t/n}) (x (x) 1_{t/r}): identity-based action.

    For square nonsingular A this acts as a pseudo-coordinate
    transformation on classes.
    """
    A, x = common_backend(A, _one_column(x))
    k, m = _lcm_factors(A.shape[1], x.shape[0])
    return np.kron(A, as_backend(np.eye(k), A)) @ _replicate(x, m, False)
