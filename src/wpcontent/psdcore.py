"""Dense symmetric / positive-semidefinite matrix calculus.

Everything downstream (content blocks, greedy extraction, denoising)
reduces to a handful of primitives on real symmetric matrices:
eigendecomposition, the PSD check, the operator square root, traces,
Hilbert-Schmidt norms, and Loewner-order comparisons.

The eigensolver is LAPACK's symmetric driver (``numpy.linalg.eigh``);
repeated runs on identical input produce identical output. Eigenvalues
are returned nonincreasing and each eigenvector is normalized so that
its first component with magnitude above 1e-12 is positive.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    DimensionMismatchError,
    MalformedInputError,
    NotPositiveError,
    NumericalBreakdownError,
)

DEFAULT_CLAMP_TOL = 1e-10
_SIGN_EPS = 1e-12
_NUMBER_TYPES = (int, float, np.integer, np.floating)


class SymMatrix:
    """Real symmetric matrix, symmetrized exactly on construction; its ``matrix`` is finite."""

    __slots__ = ("dim", "matrix")

    def __init__(self, entries):
        a = np.asarray(entries, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise MalformedInputError(f"expected a square matrix, got shape {a.shape}")
        if a.shape[0] < 1:
            raise MalformedInputError("matrix dimension must be at least 1")
        with np.errstate(over="ignore", invalid="ignore"):
            self.matrix = a + a.T
            self.matrix *= 0.5
        if not np.all(np.isfinite(self.matrix)):
            raise MalformedInputError("matrix entries must be finite, also after symmetrizing")
        self.dim = int(a.shape[0])
        self.matrix.setflags(write=False)

    def __repr__(self):
        return f"SymMatrix(dim={self.dim})"


class PsdOperator(SymMatrix):
    """A `SymMatrix` checked PSD, together with its spectral decomposition.

    Construct via `make_psd` or `psd_from_spectrum`; ``eigenvalues`` are nonincreasing,
    ``eigenvectors`` holds the matching orthonormal columns, and
    ``clamp_applied`` records whether negative rounding noise was zeroed
    in ``eigenvalues``. The matrix itself is never edited: it is the
    input, whose own spectrum may dip below zero by that noise. Products
    with sqrt(A) come from the spectrum via `root_rows`; no root is kept.
    """

    __slots__ = ("eigenvalues", "eigenvectors", "clamp_applied")

    def __init__(self, base: SymMatrix, eigenvalues, eigenvectors, clamp_applied: bool):
        self.dim = base.dim
        self.matrix = base.matrix
        self.eigenvalues = np.asarray(eigenvalues, dtype=np.float64)
        self.eigenvectors = np.asarray(eigenvectors, dtype=np.float64)
        self.eigenvalues.setflags(write=False)
        self.eigenvectors.setflags(write=False)
        self.clamp_applied = bool(clamp_applied)

    def root_rows(self, rows) -> np.ndarray:
        """rows @ sqrt(A) as ((rows V) sqrt(lam)) V^T: O(s d^2) for s rows, no d x d root."""
        v = self.eigenvectors
        return ((rows @ v) * np.sqrt(self.eigenvalues)) @ v.T

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
    """Dense ndarray view of a SymMatrix (a PsdOperator is one), or array."""
    if isinstance(a, SymMatrix):
        return a.matrix
    return np.asarray(a, dtype=np.float64)


def sym_eigen(m) -> tuple[np.ndarray, np.ndarray]:
    """Full spectral decomposition of a symmetric matrix.

    Returns (eigenvalues nonincreasing, eigenvector columns), with each
    column's first component of magnitude above 1e-12 positive. Raises
    NumericalBreakdownError if LAPACK reports non-convergence.
    """
    try:
        lam, vecs = np.linalg.eigh(as_entries(m))
    except np.linalg.LinAlgError as exc:
        raise NumericalBreakdownError(None, f"eigensolver failed: {exc}") from exc
    return lam[::-1], _positive_first(vecs[:, ::-1])


def _positive_first(vecs: np.ndarray) -> np.ndarray:
    """Columns sign-flipped so each first component above 1e-12 in magnitude is positive.

    Row 0 decides every column where it is above 1e-12; only the other
    columns are searched. A column with no such component keeps its sign
    from row 0.
    """
    lead = vecs[0].copy()
    weak = np.flatnonzero(~(np.abs(lead) > _SIGN_EPS))
    if weak.size:
        sub = vecs[:, weak]
        lead[weak] = sub[np.argmax(np.abs(sub) > _SIGN_EPS, axis=0), np.arange(weak.size)]
    return vecs * np.where(lead < 0.0, -1.0, 1.0)


def make_psd(m, scale: float | None = None) -> PsdOperator:
    """Check that a symmetric matrix is PSD: `sym_eigen`, then `psd_from_spectrum`."""
    if not isinstance(m, SymMatrix):
        m = SymMatrix(m)
    lam, vecs = sym_eigen(m)
    return psd_from_spectrum(m, lam, vecs, scale)


def psd_from_spectrum(m: SymMatrix, lam, vecs, scale: float | None = None) -> PsdOperator:
    """PSD operator from ``m`` and its spectrum, given in `sym_eigen`'s order and signs.

    A check, not an edit: eigenvalues in [-DEFAULT_CLAMP_TOL * lam_max, 0)
    are zeroed in the stored spectrum and ``m`` is kept as given; anything
    more negative raises NotPositiveError reporting the offending
    eigenvalue. ``scale`` optionally widens the clamp reference to an
    external scale: needed when ``m`` is a small difference of larger
    operators, whose rounding noise lives at the scale of the operands
    rather than of the difference.
    """
    clamped = check_clamp(float(lam[0]), float(lam[-1]), scale)
    return PsdOperator(m, np.maximum(lam, 0.0), vecs, clamped)


def check_clamp(lam_max: float, lam_min: float, scale: float | None = None) -> bool:
    """The clamp rule of `psd_from_spectrum` on the extreme eigenvalues; True if lam_min < 0."""
    thresh = DEFAULT_CLAMP_TOL * max(lam_max, scale if scale is not None else 0.0, 0.0)
    if lam_min < -thresh:
        raise NotPositiveError(lam_min, thresh)
    return lam_min < 0.0


def sqrt_psd(r: PsdOperator) -> PsdOperator:
    """PSD square root; squaring it reproduces ``r`` to rounding."""
    s_entries = r.sqrt_entries()
    base = SymMatrix(s_entries)
    return PsdOperator(base, np.sqrt(r.eigenvalues), r.eigenvectors, False)


def trace(a) -> float:
    """Sum of diagonal entries."""
    return float(np.trace(as_entries(a)))


def hs_norm(a) -> float:
    """Frobenius / Hilbert-Schmidt norm; for PSD inputs this is sqrt(tr(A^2))."""
    e = as_entries(a)
    return float(np.sqrt(np.sum(e * e)))


def _norm2(b) -> float:
    """Spectral norm of a symmetric matrix; lam_max for a PsdOperator."""
    if isinstance(b, PsdOperator):
        return float(b.eigenvalues[0])
    lam, _ = sym_eigen(b)
    return float(max(lam[0], -lam[-1]))


def loewner_leq(a, b, tol: float = 1e-8) -> bool:
    """True iff b - a is PSD up to a tolerance relative to b.

    The check is lam_min(b - a) >= -tol * ||b||_2.
    """
    ea = as_entries(a)
    eb = as_entries(b)
    if ea.shape != eb.shape:
        raise DimensionMismatchError(f"shape mismatch: {ea.shape} vs {eb.shape}")
    lam, _ = sym_eigen(SymMatrix(eb - ea))
    return float(lam[-1]) >= -tol * _norm2(b)


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
    """Reject values whose sum of squares overflows: every HS norm and trace of a run then stays finite."""
    flat = values.ravel()
    with np.errstate(over="ignore"):
        total = float(flat @ flat)
    if not math.isfinite(total):
        raise MalformedInputError(f"{what}: the sum of squares overflows")


def matrix_from_json(obj) -> SymMatrix:
    """Parse the {"dim": n, "data": [row-major reals]} wire format.

    Rejects payloads whose data length is not dim^2, non-numeric or
    non-finite values, a sum of squared entries that overflows, and
    asymmetry beyond 1e-10 * max |a_ij|.
    """
    if not isinstance(obj, dict) or "dim" not in obj or "data" not in obj:
        raise MalformedInputError('matrix JSON must have "dim" and "data" keys')
    dim = obj["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise MalformedInputError(f'"dim" must be a positive integer, got {dim!r}')
    a = as_reals(obj["data"], '"data"')
    if a.size != dim * dim:
        raise MalformedInputError(f'"data" must hold dim^2 = {dim * dim} values, got {a.size}')
    a = a.reshape(dim, dim)
    m = SymMatrix(a)
    check_square_sum(m.matrix, "matrix entries")
    # a - (a + a^T)/2 = (a - a^T)/2 cannot overflow where a - a^T might
    asym = 2.0 * float(np.max(np.abs(a - m.matrix)))
    if asym > 1e-10 * float(np.max(np.abs(a))):
        raise MalformedInputError(f"matrix is not symmetric: max |A - A^T| = {asym:.3e}")
    return m


def matrix_to_json(m) -> dict:
    """Serialize to the {"dim", "data"} wire format."""
    e = as_entries(m)
    return {"dim": int(e.shape[0]), "data": [float(x) for x in e.ravel()]}
