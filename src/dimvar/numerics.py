"""Scalar backends and dense-matrix primitives.

Two scalar backends are supported throughout the package:

* exact rationals: numpy object arrays holding ``fractions.Fraction``
  entries (plain ``int`` entries are accepted too).  All algebraic
  decisions (rank, equivalence, realization checks) default to this
  backend.  They are made by fraction-free (Bareiss) elimination of a
  copy scaled to Python ints by the lcm of its denominators, which
  gives the pivots and zero patterns of Gaussian elimination over the
  rationals without any Fraction arithmetic.  Every controllable
  subspace comes from `_krylov_columns` on the integer Krylov product,
  run until it saturates, in ints (`krylov_pivots` divides back); a full
  one may be proved by the same kernel on int64 residues modulo a prime
  instead (`_certify_full_krylov`): `_bareiss` reads its mode from the dtype.
* float64: plain numpy float arrays with a tolerance policy.  Every
  float rank decision (rank, pivot columns, span membership and the
  controllable subspaces of `_krylov_columns`) is one rule, `_staircase`:
  a column counts as independent when its residual after twice
  orthogonalising it against the accepted ones exceeds the rank
  threshold.

An array's backend is recognised from its dtype (``object`` = exact).
Only this module turns the dtype into a choice of construction: other
modules build arrays on an operand's backend with `as_backend`, promote
operands with one `common_backend` where they meet (the `mixdim`
products, `_strip_factors`, `build_transient_model`, `_subsystem_ctrb`,
`direct_sum_check`, `kalman_decomposition`), compare exact entries on
integer `equality_key`s or `_integer_scaled` (L None on floats), and
never read `is_exact`: algorithms that differ by backend
(`_krylov_integers`, `_bareiss`, `solve`) live here.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


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
        # a `_staircase` candidate is independent when its residual
        # norm exceeds this
        return max(self.abs, max(rows, cols) * self.rel * max_entry)


DEFAULT_TOL = Tolerance()


def is_exact(M: np.ndarray) -> bool:
    """True when the array uses the exact rational backend."""
    return M.dtype == object


def _finite(*arrays) -> bool:
    """False when a float array holds a NaN or an infinity; exact arrays
    are finite."""
    return all(is_exact(M) or np.isfinite(M).all() for M in arrays)


def parse_scalar(x) -> Fraction:
    """"3", "3/2", "0.75" or a number as an exact Fraction, a float from
    its text; a decimal exponent beyond 4300 in magnitude (Python's
    default int-to-string digit limit) raises ValueError."""
    if not isinstance(x, (str, float, bool)):
        return Fraction(x)
    x = str(x)
    e = ("e" in x or "E" in x) and re.search(r"[eE]([-+]?\d+(_\d+)*)\s*\Z", x)
    if e and abs(int(e[1])) > 4300:
        raise ValueError(f"decimal exponent beyond 4300 in {x!r}")
    return Fraction(x)


def mat(rows, exact: bool = True) -> np.ndarray:
    """Build a 2-D matrix from nested scalars or strings.

    Each entry is parsed by `parse_scalar` ("3/2", "0.75", 3); the float
    backend rounds that Fraction once; a bool or a string row is refused.
    """
    rows = list(rows)
    for row in rows:
        if isinstance(row, str):
            raise ValueError(f"{row!r} is a string, not a list of scalars")
    data = [[parse_scalar(e) for e in row] for row in rows]
    for i, row in enumerate(data):
        if len(row) != len(data[0]):
            raise ValueError(f"row {i} has {len(row)} entries, "
                             f"row 0 has {len(data[0])}")
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
    if is_exact(like):
        return _whole(np.asarray(X))
    X = np.asarray(X, dtype=float)
    return X.item() if X.ndim == 0 else X


def common_backend(*arrays) -> list[np.ndarray]:
    """The arrays on one backend: as given when every one is exact,
    otherwise all promoted to float64."""
    arrays = [np.asarray(a) for a in arrays]
    if all(is_exact(a) for a in arrays):
        return arrays
    return [np.asarray(a, dtype=float) for a in arrays]


def zeros(shape, exact: bool = True) -> np.ndarray:
    if exact:
        return np.full(shape, Fraction(0), dtype=object)
    return np.zeros(shape)


def eye(n: int, exact: bool = True) -> np.ndarray:
    M = zeros((n, n), exact)
    np.fill_diagonal(M, Fraction(1))
    return M


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
    """(Z, L): the exact M (Fractions or plain ints) scaled by the lcm L
    of its entries' denominators, Z = L * M in Python ints; L None on
    floats."""
    if not is_exact(M):
        return M, None
    flat = M.ravel()
    dens = [x.denominator for x in flat]
    L = math.lcm(*dens)
    Z = [x.numerator * (L // d) for x, d in zip(flat, dens)]
    return np.array(Z, dtype=object).reshape(M.shape), L


def _krylov_integers(A: np.ndarray, B: np.ndarray):
    """Yield the max(n, 1) blocks of [B, AB, ..., A^(n-1) B], 2-D B, as
    (Z, L): block j is Z on floats (L None), else Z / L^(j+1) with Z =
    (LA)^j LB in Python ints, L the lcm of [A | B]'s denominators."""
    A, B = common_backend(A, B)
    n, L = B.shape[0], None
    if is_exact(A):
        Z, L = _integer_scaled(np.hstack([A, B]))
        A, B = Z[:, :n], Z[:, n:]
    yield B, L
    for _ in range(1, n):
        yield (B := A @ B), L


_fraction = np.frompyfunc(Fraction, 2, 1)      # elementwise Fraction(x, d)
_whole = np.frompyfunc(Fraction, 1, 1)         # Fraction(x): no gcd to take
_PRIME = 67108859     # < 2^26: a sum of < 2048 products of residues fits int64


def _divide_back(Z: np.ndarray, d) -> np.ndarray:
    """Z / d as Fractions, d one integer or one per column (None: floats)."""
    if d is None:
        return Z
    return _whole(Z) if (np.asarray(d) == 1).all() else _fraction(Z, d)


def _krylov_product(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """[B, AB, ..., A^(n-1) B]: `_krylov_integers`, divided back."""
    K = np.hstack([_divide_back(Z, L and L ** j)
                   for j, (Z, L) in enumerate(_krylov_integers(A, B), 1)])
    if not _finite(K):
        raise np.linalg.LinAlgError("Krylov matrix overflows")
    return K


def _certify_full_krylov(A: np.ndarray, B: np.ndarray, scale) -> bool:
    """True only when the Krylov matrix of (A diag(scale), B), Python ints
    over any one denominator, has rank n modulo `_PRIME`, which proves
    rank n (a minor nonzero mod the prime is nonzero), from int64 residues.
    False on floats, for n >= 2048 or a lower rank mod the prime."""
    n, m = B.shape
    if not (is_exact(A) and is_exact(B)) or n >= 2048:
        return False
    Z = (np.hstack([A, B]) % _PRIME).astype(np.int64)
    As, K = Z[:, :n] * (np.asarray(scale) % _PRIME) % _PRIME, [Z[:, n:]]
    for _ in range(n - 1):
        K.append(As @ K[-1] % _PRIME)
    return _bareiss(np.hstack(K))[0] == n


def _integer_pivots(Z: np.ndarray) -> list[int]:
    """The `_bareiss` pivots of the Python ints Z; its first m = rows(Z)
    columns if of rank m modulo `_PRIME`, as over Q a prefix has at least
    that rank (von zur Gathen & Gerhard, Modern Computer Algebra, ch. 5)."""
    m = Z.shape[0]
    if m <= Z.shape[1] and _bareiss((Z[:, :m] % _PRIME).astype(np.int64))[0] == m:
        return list(range(m))
    return _bareiss(Z)[1]


def _identity_tokens(M: np.ndarray):
    """The object references of the exact array M as intp, shaped like
    M (None when M is float): equal tokens are one object while M holds
    it, so equal entries.  No token is dereferenced."""
    if not is_exact(M):
        return None
    return np.frombuffer(M.tobytes(), np.intp).reshape(M.shape)


def equality_key(M: np.ndarray):
    """An integer array equal exactly where the exact array M is equal
    (None when M is float): the integer-scaled copy L * M in one pass,
    int64 where every entry fits, else Python ints in an object array;
    callers key small slices (`_strip_factors` strips on tokens first).
    Meant for ``==`` only: no tolerance or float conversion may touch it."""
    if not is_exact(M):
        return None
    Z, _ = _integer_scaled(M)
    try:
        return Z.astype(np.int64)
    except OverflowError:
        return Z                                # Python ints, object dtype


def _bareiss(M: np.ndarray, ncols: int | None = None):
    """Row-reduce the integers M; return (rank, pivot columns, copy).

    Fraction-free: Bareiss elimination ("Sylvester's identity and
    multistep integer-preserving Gaussian elimination", 1968), with the
    first nonzero entry of a column as its pivot.  An object M holds
    Python ints (callers scale exact input by `_integer_scaled`): every
    entry below a pivot row is then a minor of M, i.e. the Gaussian
    elimination entry times a nonzero product of pivots, so the pivot
    columns, the rank and the zero pattern of the reduced rows are those
    of Gaussian elimination over the rationals; the copy holds those
    integers.  An int64 M holds residues modulo `_PRIME` (below 2^26, so
    products stay below 2^52), and each step is taken modulo it instead
    of divided by the previous pivot.  Only the first `ncols` columns
    (default all) may pivot; the row operations still reach every column.
    """
    exact, A = is_exact(M), M.copy()
    m, n = A.shape
    piv_row, prev, pivots = 0, 1, []
    for c in range(n if ncols is None else ncols):
        if piv_row >= m:
            break
        nonzero = A[piv_row:, c].nonzero()[0]
        if not nonzero.size:
            continue
        sel = piv_row + int(nonzero[0])
        if sel != piv_row:
            A[[piv_row, sel]] = A[[sel, piv_row]]
        p = A[piv_row, c]
        # every row below is updated, also where its entry in column c
        # is zero: the exact division by prev needs all of them
        below = A[piv_row + 1:, c:]
        step = p * below - below[:, :1] * A[piv_row, c:]
        A[piv_row + 1:, c:] = step // prev if exact else step % _PRIME
        pivots.append(c)
        piv_row += 1
        prev = p
    return piv_row, pivots, A


def _staircase(Q: np.ndarray, k: int, vectors, thresh: float) -> list[int]:
    """The float rank rule: extend the orthonormal columns Q[:, :k] in
    place by the vectors, in order, that leave their span.

    Each vector is orthogonalised twice against the columns accepted so
    far (Gram-Schmidt with reorthogonalisation) and accepted, normalised,
    when its residual norm exceeds `thresh`; none is tested once Q is
    full.  Returns the indices of the accepted vectors.  A residual norm
    or threshold that is not finite (inf or NaN data) raises LinAlgError.
    """
    accepted = []
    with np.errstate(over="ignore", invalid="ignore"):
        for i, v in enumerate(vectors):
            if k == Q.shape[1]:
                break
            for _ in range(2):
                v = v - Q[:, :k] @ (Q[:, :k].T @ v)
            r = float(np.linalg.norm(v))
            if not (math.isfinite(r) and math.isfinite(thresh)):
                raise np.linalg.LinAlgError("rank test overflows")
            if r > thresh:
                Q[:, k] = v / r
                accepted.append(i)
                k += 1
    return accepted


def rank(M: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> int:
    """The number of `pivot_columns`; exact under the rational backend."""
    return len(pivot_columns(M, tol))


def pivot_columns(M: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> list[int]:
    """The columns of M independent of those before them: the pivots of
    `_bareiss` (exact: `_integer_pivots`) or the columns `_staircase`
    accepts at M's rank threshold (float)."""
    if M.size == 0:
        return []
    if is_exact(M):
        return _integer_pivots(_integer_scaled(M)[0])
    m, n = M.shape
    thresh = tol.rank_threshold(m, n, float(np.max(np.abs(M))))
    return _staircase(np.empty((m, min(m, n))), 0,
                      np.ascontiguousarray(M.T, dtype=float), thresh)


@dataclass(frozen=True)
class SubspaceBasis:
    """The subspace of R^n spanned by the columns of ``basis``.

    ``basis`` has shape (ambient_dim, k); k = 0 encodes the zero
    subspace.  Membership takes any columns; ``dim`` (k) is the
    subspace's dimension when they are independent (unchecked).
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


def krylov_pivots(A: np.ndarray, B: np.ndarray, tol: Tolerance = DEFAULT_TOL):
    """The pivot columns of the Krylov matrix K = [B, AB, ..., A^(n-1) B]
    of A and a 2-D B, as (pivots, K's columns at them, SubspaceBasis of
    their span): `_krylov_columns`, exact columns divided back."""
    piv, Z, d, S = _krylov_columns(A, B, tol)
    W = _divide_back(Z, d)
    return piv, W, S if d is None else SubspaceBasis(S.ambient_dim, W)


def _krylov_columns(A: np.ndarray, B: np.ndarray, tol: Tolerance):
    """`krylov_pivots` with no Fraction built: (pivots, columns, divisors,
    span).  Exact: the `_integer_pivots` of `_krylov_integers`, whose
    columns are K's times their divisors L^(j+1), so the pivots are K's,
    and those integer columns, which also span.  Pivots come in chains
    (if A^j b_i depends on the columns before it, so does A^(j+1) b_i), so
    the whole product is eliminated only when the first ceil(n/m) blocks
    have rank below n and their last block pivots.  Float: the
    controllability staircase (Van Dooren 1981; Paige 1981), which
    returns K's columns, None and an orthonormal basis Q of the span.  `_staircase` tests the
    candidates block by block: the columns b_i of B, then A q for each q
    accepted in the block before, at the rank threshold of an n x nm
    matrix whose largest entry is max ||b_i|| (first block) or ||A||_2
    (later blocks).  Accepted candidate j of chain i is K's column
    j m + i; a rejected one ends its chain.  Modulo the earlier columns,
    A^j b_i is a multiple of A q and A maps earlier columns to earlier
    columns, so each decision is the one for K's column (j, i), made on
    a vector of unit scale.  ||A||_2 (an SVD) is computed only when a
    block past the first is tested.
    """
    blocks, (n, m) = _krylov_integers(A, B), B.shape
    Z, L = next(blocks)
    if L is not None:
        Z = np.hstack([Z] + [next(blocks)[0]
                             for _ in range(-(-n // m) - 1 if m else 0)])
        piv = _integer_pivots(Z)
        if len(piv) < n and piv and piv[-1] >= Z.shape[1] - m:
            Z = np.hstack([Z] + [X for X, _ in blocks])
            piv = _bareiss(Z)[1]
        Z = Z[:, piv]
        d = L ** np.array([c // m + 1 for c in piv], dtype=object)
        return piv, Z, d, SubspaceBasis(n, Z)
    A = np.asarray(A, dtype=float)
    thresh = tol.rank_threshold(
        n, n * m, np.max(np.linalg.norm(Z, axis=0), initial=0.0))
    Q, piv, chains = np.empty((n, n)), [], list(range(m))
    block, j = Z.T, 0
    while True:
        k = len(piv)
        chains = [chains[a] for a in _staircase(Q, k, block, thresh)]
        piv += [j * m + i for i in chains]
        if not chains or len(piv) == n:
            Z = np.hstack([Z] + [next(blocks)[0] for _ in range(j)])
            return piv, Z[:, piv], None, SubspaceBasis(n, Q[:, :len(piv)])
        if not j:
            thresh = tol.rank_threshold(n, n * m, np.linalg.norm(A, 2))
        block, j = [A @ Q[:, c] for c in range(k, len(piv))], j + 1


def complete_basis(V: np.ndarray):
    """(P, P^-1) for an invertible P whose first columns are those of V
    (independent columns).

    Exact V: P = [V | unit vectors], those chosen greedily by lowest
    index (the pivot columns of [V | I]), and its Bareiss inverse.
    Float V: P is the orthogonal Q factor of [V | I], so P^-1 = P^T;
    its first columns equal V's up to sign when V is orthonormal.
    """
    VI = np.hstack([V, as_backend(np.eye(len(V)), V)])
    if not is_exact(V):
        P = np.linalg.qr(VI)[0]
        return P, P.T
    P = VI[:, pivot_columns(VI)]
    return P, inverse(P)


def unit_columns(W: np.ndarray) -> np.ndarray:
    """Float W with each nonzero column divided by its largest |entry|,
    so that column sizes do not set rank thresholds; exact W unchanged."""
    if is_exact(W):
        return W
    peak = np.max(np.abs(W), axis=0, initial=0.0)
    return W / np.where(peak > 0, peak, 1.0)


def _columns(B) -> np.ndarray:
    """B as a matrix: a 1-D B is one column; ValueError unless 1-D or 2-D."""
    B = np.asarray(B)
    if B.ndim not in (1, 2):
        raise ValueError(f"expected a vector or a matrix, not shape {B.shape}")
    return B.reshape(-1, 1) if B.ndim == 1 else B


def _one_column(v) -> np.ndarray:
    """v if 1-D, the column of an n x 1 v; ValueError for other shapes."""
    v = _columns(v)
    if v.shape[1] != 1:
        raise ValueError(f"expected a vector or one column, not shape {v.shape}")
    return v[:, 0]


def _input_matrix(A: np.ndarray, B) -> np.ndarray:
    """`_columns` of B; ValueError unless A is square with B's rows."""
    B, n = _columns(B), A.shape[0]
    if A.shape != (n, n) or B.shape[0] != n:
        raise ValueError("incompatible dimensions")
    return B


def in_span(S: SubspaceBasis, v: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Membership of v (a vector or one column) in span(S)."""
    return in_span_columns(S, _columns(_one_column(v)), tol)[0]


def in_span_columns(S: SubspaceBasis, W: np.ndarray,
                    tol: Tolerance = DEFAULT_TOL) -> list[bool]:
    """Membership of every column of W in span(S), S's columns possibly
    dependent: the decision of rank([S | w_j]) == rank(S) for each w_j.

    Exact: [S | W] is eliminated once with pivots in S's columns only,
    and w_j lies in the span iff its entries below S's pivot rows are
    zero.  Float: w_j is decided at the rank threshold of [S | w_j]:
    S is orthonormalised by `_staircase` once per run of equal
    thresholds, and w_j is tested as one more candidate against the
    columns S keeps there.
    """
    W = np.asarray(W)
    if W.ndim != 2 or W.shape[0] != S.ambient_dim:
        raise ValueError(
            f"vector of dim {W.shape[0]} against ambient dim {S.ambient_dim}")
    V, W = common_backend(S.basis, W)
    m, d = V.shape
    if is_exact(V):
        r, _, R = _bareiss(_integer_scaled(np.hstack([V, W]))[0], ncols=d)
        return [not R[r:, d + j].any() for j in range(W.shape[1])]
    s_max = float(np.max(np.abs(V), initial=0.0))
    Q, inside, run = np.empty((m, min(m, d + 1))), [], None
    for w in np.ascontiguousarray(W.T):
        t = tol.rank_threshold(m, d + 1, max(s_max, float(np.max(
            np.abs(w), initial=0.0))))
        if t != run:
            run, k = t, len(_staircase(Q, 0, np.ascontiguousarray(V.T), t))
        inside.append(not _staircase(Q, k, [w], t))
    return inside


def solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b for square nonsingular A on either backend.

    Exact systems reduce the integer-scaled [A | b] with `_bareiss`,
    pivoting in A's columns, and back-substitute y = d x in integers (d
    the last pivot: y is integral by Cramer's rule), then divide by d.
    """
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError("A must be square")
    if not is_exact(A):
        return np.linalg.solve(A, b)
    r, _, R = _bareiss(_integer_scaled(np.column_stack([A, b]))[0], ncols=n)
    if r < n:
        raise ValueError("matrix is singular")
    d, y = R[n - 1, n - 1] if n else 1, np.empty((n, R.shape[1] - n), object)
    for i in range(n - 1, -1, -1):
        y[i] = (d * R[i, n:] - R[i, i + 1:n] @ y[i + 1:]) // R[i, i]
    x = _divide_back(y, d)
    return x[:, 0] if b.ndim == 1 else x


def inverse(A: np.ndarray) -> np.ndarray:
    return solve(A, as_backend(np.eye(len(A)), A))
