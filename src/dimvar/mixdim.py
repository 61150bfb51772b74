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

from .numerics import (DEFAULT_TOL, Tolerance, as_backend, common_backend,
                       is_exact)


def _divisors_desc(n: int) -> list[int]:
    return sorted((d for d in range(1, n + 1) if n % d == 0), reverse=True)


def _replicate(X: np.ndarray, s: int, j: bool) -> np.ndarray:
    """Repeat every entry of X s times along its rows, and with j true
    also along its columns: X (x) 1_s, or X (x) (1_s 1_s^T)."""
    X = np.repeat(X, s, axis=0)
    return np.repeat(X, s, axis=1) if j else X


def _kron_j(A: np.ndarray, s: int) -> np.ndarray:
    """A (x) J_s by replication, each entry computed once as a * (1/s)."""
    return _replicate(A * as_backend(Fraction(1, s), A), s, True)


def _entries_equal(X: np.ndarray, Y: np.ndarray, tol: Tolerance) -> bool:
    """Entry by entry, Y broadcasting: exact equality when both arrays
    are exact, otherwise ``tol.close`` on their float values."""
    if is_exact(X) and is_exact(Y):
        return bool((X == Y).all())
    return bool(tol.close(np.asarray(X, dtype=float),
                          np.asarray(Y, dtype=float)).all())


def _reps_equal(X: np.ndarray, Y: np.ndarray, tol: Tolerance) -> bool:
    """Class representatives are equal: same shape, equal entries."""
    X, Y = np.asarray(X), np.asarray(Y)
    return X.shape == Y.shape and _entries_equal(X, Y, tol)


def _strip_factors(parts, tol: Tolerance):
    """Strip replication factors from several 2-D arrays jointly.

    ``parts`` holds pairs (X, j).  With j true the part is tested as
    X0 (x) J_s (rows and columns blocked, representative s * X0);
    otherwise as X0 (x) 1_s (rows blocked).  Divisors of the gcd of the
    blocked dimensions are tried largest first; a factor strips when
    every entry of every part equals the first entry of its block.  The
    representative is the first entry of each block (exact) or the
    block mean (float).  The search repeats on the representatives
    until nothing strips, so the result does not depend on the
    factorization order.  Returns the representatives and the product
    of the stripped factors.
    """
    reps = [X for X, _ in parts]
    mult = 1
    while True:
        dims = [d for X, (_, j) in zip(reps, parts)
                for d in (X.shape if j else X.shape[:1])]
        for s in _divisors_desc(math.gcd(*dims))[:-1]:
            views = [X.reshape(X.shape[0] // s, s, X.shape[1] // s, s) if j
                     else X.reshape(X.shape[0] // s, s, X.shape[1], 1)
                     for X, (_, j) in zip(reps, parts)]
            # each entry against its block's first one; the first and
            # last entries of the first block's first column, then that
            # column, go first and reject most factors cheaply
            if all(_entries_equal(w, w[:, :1, :, :1], tol)
                   for w in [v[:1, ::s - 1, :1, :1] for v in views]
                   + [v[:1, :, :1, :1] for v in views] + views):
                break
        else:
            return reps, mult
        reps = []
        for v, (_, j) in zip(views, parts):
            rep = v[:, 0, :, 0].copy() if is_exact(v) else v.mean(axis=(1, 3))
            reps.append(rep * s if j else rep)
        mult *= s


@dataclass(frozen=True)
class MixVector:
    """A vector together with the irreducible member of its class."""

    value: np.ndarray
    irreducible: np.ndarray

    @property
    def multiplicity(self) -> int:
        return self.value.shape[0] // self.irreducible.shape[0]


def reduce_vector(x: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> MixVector:
    """Strip replication factors until the vector is irreducible.

    Factors are searched largest-first and stripping recurses, so the
    result does not depend on the factorization order.
    """
    x = np.asarray(x)
    if x.ndim == 2:
        x = x[:, 0]
    if x.shape[0] < 1:
        raise ValueError("empty vector")
    (y,), _ = _strip_factors([(x.reshape(-1, 1), False)], tol)
    return MixVector(value=x, irreducible=y[:, 0])


def vec_equivalent(x: np.ndarray, y: np.ndarray,
                   tol: Tolerance = DEFAULT_TOL) -> bool:
    """Class equality: identical irreducible representatives."""
    x, y = common_backend(x, y)
    return _reps_equal(reduce_vector(x, tol).irreducible,
                       reduce_vector(y, tol).irreducible, tol)


def vec_add(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Cross-dimensional addition on the lcm dimension."""
    x, y = common_backend(x, y)
    if x.ndim != 1 or y.ndim != 1:
        raise ValueError("vec_add expects 1-D vectors")
    t = math.lcm(x.shape[0], y.shape[0])
    return (_replicate(x, t // x.shape[0], False) +
            _replicate(y, t // y.shape[0], False))


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
    B = np.asarray(B)
    if B.ndim == 1:
        B = B.reshape(-1, 1)
    (out,), _ = _strip_factors([(B, False)], tol)
    return out


def mat_vec_equivalent(B: np.ndarray, D: np.ndarray,
                       tol: Tolerance = DEFAULT_TOL) -> bool:
    """Vector equivalence of matrices: B (x) 1_a = D (x) 1_b."""
    B, D = common_backend(B, D)
    return _reps_equal(reduce_matrix_vec(B, tol), reduce_matrix_vec(D, tol), tol)


def second_stp(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """(A (x) J_{t/n}) (B (x) J_{t/p}) with t = lcm(cols A, rows B)."""
    A, B = common_backend(A, B)
    n = A.shape[1]
    p = B.shape[0]
    t = math.lcm(n, p)
    return _kron_j(A, t // n) @ _kron_j(B, t // p)


def stp_action(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(A (x) J_{t/n}) (x (x) 1_{t/r}): the class action on vectors."""
    A, x = common_backend(A, x)
    if x.ndim == 2:
        x = x[:, 0]
    n = A.shape[1]
    r = x.shape[0]
    t = math.lcm(n, r)
    return _kron_j(A, t // n) @ _replicate(x, t // r, False)


def stp_action_matrix(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Column-wise class action: (A (x) J_{t/n}) (B (x) 1_{t/r})."""
    A, B = common_backend(A, B)
    if B.ndim == 1:
        B = B.reshape(-1, 1)
    n = A.shape[1]
    r = B.shape[0]
    t = math.lcm(n, r)
    return _kron_j(A, t // n) @ _replicate(B, t // r, False)


def stp_identity_action(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(A (x) I_{t/n}) (x (x) 1_{t/r}): identity-based action.

    For square nonsingular A this acts as a pseudo-coordinate
    transformation on classes.
    """
    A, x = common_backend(A, x)
    if x.ndim == 2:
        x = x[:, 0]
    n = A.shape[1]
    r = x.shape[0]
    t = math.lcm(n, r)
    return (np.kron(A, as_backend(np.eye(t // n), A)) @
            _replicate(x, t // r, False))
