"""Dense symmetric / positive-semidefinite matrix calculus.

Everything downstream (content blocks, greedy extraction, denoising)
reduces to a handful of primitives on real symmetric matrices:
eigendecomposition, the PSD check (run by `PsdOperator(matrix)`, the one
way to make an operator, at a clamp scale each remainder inherits from its
operator, and whose zero stops greedy runs), products with the operator
square root, traces and Hilbert-Schmidt norms. Both wire formats of R are
read here: a dense matrix, and a Shannon-band symbol, whose operator is
`symbol_operator`.

The eigensolver is LAPACK's symmetric driver (``numpy.linalg.eigh``);
repeated runs on identical input produce identical output. Eigenvalues
are returned nonincreasing, with LAPACK's eigenvectors in the same order.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import MalformedInputError, NotPositiveError, NumericalBreakdownError

DEFAULT_CLAMP_TOL = 1e-10
_NUMBER_TYPES = (int, float, np.integer, np.floating)


def _symmetric(entries) -> np.ndarray:
    """(a + a^T) / 2 as a new read-only array: ``a`` square and non-empty, the result finite."""
    a = np.asarray(entries, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise MalformedInputError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 1:
        raise MalformedInputError("matrix dimension must be at least 1")
    with np.errstate(over="ignore", invalid="ignore"):
        m = a + a.T
        m *= 0.5
    if not np.all(np.isfinite(m)):
        raise MalformedInputError("matrix entries must be finite, also after symmetrizing")
    m.setflags(write=False)
    return m


class PsdOperator:
    """A symmetric matrix checked PSD, together with its spectral decomposition.

    ``PsdOperator(matrix)`` is the one way to make an operator: it keeps the
    `_symmetric` copy of any square array, and `sym_eigen` gives the spectrum,
    ``eigenvalues`` nonincreasing and ``eigenvectors`` the matching columns.
    The clamp rule, `check_clamp`, runs at max(``scale``, lam_max): eigenvalues
    in [-DEFAULT_CLAMP_TOL * that, 0) are zeroed in the stored spectrum, and
    ``clamp_applied`` records whether one was; anything more negative raises
    NotPositiveError. ``scale`` is the operator's own lam_max or, for a
    remainder made by `remove`, the scale of the operator it came from: a
    small difference of larger operators carries rounding noise at the scale
    of the operands. The clamp never edits the matrix, whose own spectrum may
    dip below zero by that noise; by the same rule the operator `is_zero` once
    lam_max <= DEFAULT_CLAMP_TOL * ``scale``. Products with sqrt(A) come from the
    spectrum via `root_rows`; no root is kept. The stored arrays are read-only.
    """

    __slots__ = ("matrix", "eigenvalues", "eigenvectors", "clamp_applied", "scale")

    def __init__(self, matrix):
        m = _symmetric(matrix)
        lam, vecs = sym_eigen(m)
        self._keep(m, lam, vecs, float(lam[0]))

    def _keep(self, matrix, lam, vecs, scale: float) -> None:
        """Keep a matrix and its `sym_eigen`-ordered spectrum, read-only, after the clamp rule."""
        self.clamp_applied = check_clamp(max(float(lam[0]), scale), float(lam[-1]))
        matrix.setflags(write=False)
        vecs.setflags(write=False)
        self.matrix, self.eigenvectors, self.scale = matrix, vecs, scale
        self.eigenvalues = np.maximum(lam, 0.0)
        self.eigenvalues.setflags(write=False)

    @property
    def dim(self) -> int:
        return len(self.matrix)

    def root_rows(self, rows) -> np.ndarray:
        """rows @ sqrt(A) as ((rows V) sqrt(lam)) V^T: O(s d^2) for s rows, no d x d root."""
        v = self.eigenvectors
        return ((rows @ v) * np.sqrt(self.eigenvalues)) @ v.T

    def remove(self, rows) -> tuple[np.ndarray, PsdOperator]:
        """(D, A - D) for the block D = sqrt(A) rows^T rows sqrt(A), A - D checked at A's scale."""
        m = self.root_rows(rows)
        d = m.T @ m
        rest = _symmetric(self.matrix - d)
        return d, _stated(rest, *sym_eigen(rest), self.scale)

    def is_zero(self) -> bool:
        """The clamp's zero: lam_max <= DEFAULT_CLAMP_TOL * scale, where every greedy run stops."""
        return float(self.eigenvalues[0]) <= DEFAULT_CLAMP_TOL * self.scale

    def at_own_scale(self) -> PsdOperator:
        """This operator if ``scale`` is its own lam_max, else the clamp run again at that."""
        return self if self.scale == float(self.eigenvalues[0]) else PsdOperator(self.matrix)

    def sqrt_entries(self) -> np.ndarray:
        """Dense PSD square root (V sqrt(lam)) V^T, symmetrized; formed on each call."""
        s = (self.eigenvectors * np.sqrt(self.eigenvalues)) @ self.eigenvectors.T
        return 0.5 * (s + s.T)

    def __repr__(self):
        return (
            f"PsdOperator(dim={self.dim}, trace={float(np.trace(self.matrix)):.6g}, "
            f"clamp_applied={self.clamp_applied})"
        )


def as_entries(a) -> np.ndarray:
    """The matrix of a PsdOperator, or an array as float64."""
    return a.matrix if isinstance(a, PsdOperator) else np.asarray(a, dtype=np.float64)


def sym_eigen(m) -> tuple[np.ndarray, np.ndarray]:
    """Full spectral decomposition of a symmetric matrix.

    Returns (eigenvalues nonincreasing, LAPACK's eigenvector columns in
    the same order, as a read-only C-contiguous copy). Raises
    NumericalBreakdownError if LAPACK reports non-convergence.
    """
    try:
        lam, vecs = np.linalg.eigh(as_entries(m))
    except np.linalg.LinAlgError as exc:
        raise NumericalBreakdownError(None, f"eigensolver failed: {exc}") from exc
    # a copy, not the reversed view: matmul on a strided operand may sum in another order
    vecs = np.ascontiguousarray(vecs[:, ::-1])
    vecs.setflags(write=False)
    return lam[::-1], vecs


def _stated(matrix, lam, vecs, scale: float) -> PsdOperator:
    """An operator whose spectrum its caller already has, clamp-checked at max(scale, lam_max).

    The arrays, the caller's own, are kept as they are and made read-only;
    `PsdOperator.remove` and `symbol_operator` are the only callers.
    """
    op = PsdOperator.__new__(PsdOperator)
    op._keep(matrix, lam, vecs, scale)
    return op


def check_clamp(lam_max: float, lam_min: float) -> bool:
    """The clamp rule of `PsdOperator` on the extreme eigenvalues; True if lam_min < 0."""
    thresh = DEFAULT_CLAMP_TOL * max(lam_max, 0.0)
    if lam_min < -thresh:
        raise NotPositiveError(lam_min, thresh)
    return lam_min < 0.0


def trace(a) -> float:
    """Sum of diagonal entries."""
    return float(np.trace(as_entries(a)))


def hs_norm(a) -> float:
    """Frobenius / Hilbert-Schmidt norm; for PSD inputs this is sqrt(tr(A^2))."""
    e = as_entries(a)
    return float(np.sqrt(np.sum(e * e)))


def as_reals(values, what: str) -> np.ndarray:
    """A flat list or tuple of numbers, or a 1-D real array, as a new float64 array.

    Numbers are ints and floats (numpy's too), never booleans or strings; a
    nested list, and an integer beyond the float range, are malformed.
    """
    if isinstance(values, np.ndarray):
        ok = values.ndim == 1 and values.dtype.kind in "iuf"
    else:
        ok = isinstance(values, (list, tuple)) and all(
            issubclass(t, _NUMBER_TYPES) and t is not bool for t in set(map(type, values))
        )
    if not ok:
        raise MalformedInputError(f"{what} must be a list of numbers")
    try:
        return np.array(values, dtype=np.float64)
    except OverflowError as exc:
        raise MalformedInputError(f"{what}: {exc}") from exc


def check_square_sum(values: np.ndarray, what: str) -> None:
    """Reject values whose sum of squares overflows, or underflows while some value is nonzero.

    Every HS norm and trace of a run is then finite, and a normal double unless zero."""
    flat = values.ravel()
    with np.errstate(over="ignore"):
        total = float(flat @ flat)
    if not math.isfinite(total):
        raise MalformedInputError(f"{what}: the sum of squares overflows")
    if total < np.finfo(np.float64).tiny and np.any(flat):
        raise MalformedInputError(f"{what}: the sum of squares underflows")


def matrix_from_json(obj) -> np.ndarray:
    """Parse the {"dim": n, "data": [row-major reals]} wire format.

    Rejects payloads whose data length is not dim^2, non-numeric or
    non-finite values, a sum of squared entries that overflows or
    underflows, and asymmetry beyond 1e-10 * max |a_ij|. Returns the
    matrix symmetrized by `_symmetric`.
    """
    if not isinstance(obj, dict) or "dim" not in obj or "data" not in obj:
        raise MalformedInputError('matrix JSON must have "dim" and "data" keys')
    dim = obj["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise MalformedInputError(f'"dim" must be a positive integer, got {dim!r}')
    a = as_reals(obj["data"], '"data"')
    if a.size != dim * dim:
        # no str(dim * dim): past 2150 digits, dim^2 exceeds the 4300-digit int-to-str limit
        raise MalformedInputError(f'"data" must hold dim^2 values for "dim" {dim}, got {a.size}')
    a = a.reshape(dim, dim)
    m = _symmetric(a)
    check_square_sum(m, "matrix entries")
    # a - (a + a^T)/2 = (a - a^T)/2 cannot overflow where a - a^T might
    asym = 2.0 * float(np.max(np.abs(a - m)))
    if asym > 1e-10 * float(np.max(np.abs(a))):
        raise MalformedInputError(f"matrix is not symmetric: max |A - A^T| = {asym:.3e}")
    return m


def shannon_symbol(values) -> np.ndarray:
    """Nonnegative multiplier values r(k) for k in [-2**(L-1), 2**(L-1)), read-only.

    The count of values, 2**L, must be a power of two >= 2; it fixes the
    levels L. Values follow `as_reals` (so the caller's array is copied), and
    must be finite with a finite sum of squares. Values that break
    `PsdOperator`'s clamp rule raise NotPositiveError. A symbol is read as diag(R).
    """
    vals = as_reals(values, "symbol values")
    n = len(vals)
    if n < 2 or n & (n - 1):
        raise MalformedInputError(f"symbol needs 2^L values for some L >= 1, got {n}")
    if not np.all(np.isfinite(vals)):
        raise MalformedInputError("symbol values must be finite")
    check_square_sum(vals, "symbol values")
    check_clamp(float(vals.max()), float(vals.min()))
    vals.setflags(write=False)
    return vals


def symbol_from_json(obj) -> np.ndarray:
    """Parse the {"levels": L, "r": [2^L reals]} wire format: L checked against the count."""
    if not isinstance(obj, dict) or "levels" not in obj or "r" not in obj:
        raise MalformedInputError('symbol JSON must have "levels" and "r" keys')
    levels = obj["levels"]
    if not isinstance(levels, int) or isinstance(levels, bool):
        raise MalformedInputError('"levels" must be an integer')
    if levels < 1:
        raise MalformedInputError(f"levels must be >= 1, got {levels}")
    vals = as_reals(obj["r"], "symbol values")
    if not (levels < len(vals).bit_length() and len(vals) == 2**levels):
        raise MalformedInputError(f"symbol needs 2^{levels} values, got {len(vals)}")
    return shannon_symbol(vals)


def symbol_operator(values) -> PsdOperator:
    """The diagonal PSD operator of a symbol, as a dense d x d matrix.

    The values are checked by `shannon_symbol`. No eigensolver runs: the
    spectrum is the values sorted nonincreasing, and the eigenvectors are the
    matching identity columns, C-contiguous as `sym_eigen`'s; the operator's
    scale is its own lam_max, the largest value.
    """
    values = shannon_symbol(values)
    order = np.argsort(-values, kind="stable")
    lam = values[order]
    return _stated(np.diag(values), lam, np.eye(len(order))[:, order].copy(), float(lam[0]))
