"""Packet trees: node words, per-depth packet transforms, projections.

A tree stores one orthogonal d x d matrix W_n per depth n: the depth-n
node bases stacked in lexicographic node order. The N_n depth-n nodes
all have the same dimension s = d / N_n, so node i owns the contiguous
rows i*s:(i+1)*s of W_n, and `basis(node)` is that row-slice view. Every
depth-n block statistic (block traces, block HS norms, the pinching) is
a segment operation on W_n A W_n^T or W_n z.

Two realizations are shipped, both dyadic:

* ``shannon``: contiguous frequency bands on an ambient dimension 2**levels,
  where the node at word w and depth n owns the band of size 2**(levels-n)
  starting at offset m(w) * 2**(levels-n) (m(w) = the word read as a binary
  integer). Frequency index k lives at array position k + 2**(levels-1),
  so W_n is the identity at every depth (marked so when the tree is built;
  one shared array, formed only when asked) and projections are exact
  diagonal 0/1 matrices.
* ``filterbank-1d`` / ``filterbank-2d``: orthogonal two-channel filter bank
  iterated along the word (lowpass taps for child 0, highpass for child 1)
  with periodic boundary; 2D uses the separable tensor product on square
  patches, nodes being pairs of equal-length words.

Node ordering is lexicographic everywhere; 2D words are serialized as
"row,col" which preserves pair-lexicographic order under string compare.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from itertools import product

import numpy as np

from .errors import (
    InvalidDepthError,
    InvalidFilterError,
    MalformedInputError,
    UnknownNodeError,
)
from .psdcore import (
    PsdOperator, SymMatrix, _positive_first, as_reals, check_clamp, check_square_sum,
    psd_from_spectrum,
)

_FILTER_TOL = 1e-10


@dataclass(frozen=True)
class PacketNode:
    """Tree node identified by its word; depth equals the word length."""

    word: str
    depth: int


@dataclass(frozen=True)
class FilterPair:
    """Orthogonal two-channel filter pair (lowpass h, highpass g)."""

    h: tuple[float, ...]
    g: tuple[float, ...]

    @staticmethod
    def from_lowpass(taps) -> "FilterPair":
        """Derive g as the alternating-sign flip of h and validate both.

        Checks sum(h) = sqrt(2) and double-shift orthonormality
        sum_k h[k] h[k+2j] = delta_{j,0} to 1e-10. Taps follow `as_reals`.
        """
        h = tuple(as_reals(taps, "filter taps").tolist())
        n = len(h)
        if n < 2 or n % 2 != 0:
            raise InvalidFilterError(f"tap count must be even and >= 2, got {n}")
        if abs(sum(h) - math.sqrt(2.0)) > _FILTER_TOL:
            raise InvalidFilterError(f"taps must sum to sqrt(2), got {sum(h):.12f}")
        for j in range(n // 2):
            acc = sum(h[k] * h[k + 2 * j] for k in range(n - 2 * j))
            want = 1.0 if j == 0 else 0.0
            if abs(acc - want) > _FILTER_TOL:
                raise InvalidFilterError(
                    f"double-shift orthonormality fails at shift {2 * j}: {acc:.3e}"
                )
        g = tuple((-1.0) ** k * h[n - 1 - k] for k in range(n))
        return FilterPair(h, g)


def haar_filter() -> FilterPair:
    return FilterPair.from_lowpass([1.0 / math.sqrt(2.0)] * 2)


def d4_filter() -> FilterPair:
    s3 = math.sqrt(3.0)
    scale = 4.0 * math.sqrt(2.0)
    return FilterPair.from_lowpass(
        [(1.0 + s3) / scale, (3.0 + s3) / scale, (3.0 - s3) / scale, (1.0 - s3) / scale]
    )


def named_filter(name: str) -> FilterPair:
    try:
        return {"haar": haar_filter, "d4": d4_filter}[name.lower()]()
    except KeyError:
        raise InvalidFilterError(f"unknown filter {name!r}; expected haar or d4") from None


class PacketTree:
    """Immutable tree of nodes with one read-only packet transform per depth.

    A ``None`` transform marks W_n = I; `transform` forms it once, shared, on first use.
    The per-depth parent indices (see `parents`) are the tree's one record of its shape.
    """

    __slots__ = (
        "realization", "ambient_dim", "max_depth", "_levels", "_transforms", "_index",
        "_parents", "_eye",
    )

    def __init__(self, realization, ambient_dim, max_depth, levels, transforms, parents):
        self.realization = realization
        self.ambient_dim = int(ambient_dim)
        self.max_depth = int(max_depth)
        self._levels = levels
        self._transforms = transforms
        self._index = {nd: (n, i) for n, level in enumerate(levels) for i, nd in enumerate(level)}
        self._parents = parents
        self._eye = None
        for a in (*transforms, *parents):
            if a is not None:
                a.setflags(write=False)

    @property
    def root(self) -> PacketNode:
        return self._levels[0][0]

    def nodes_at(self, n: int) -> list[PacketNode]:
        if not 0 <= n <= self.max_depth:
            raise InvalidDepthError(f"depth {n} out of range [0, {self.max_depth}]")
        return list(self._levels[n])

    def transform(self, n: int) -> np.ndarray:
        """W_n: the depth-n node bases stacked in node order, d x d orthogonal."""
        self.nodes_at(n)  # rejects an out-of-range depth
        if self._transforms[n] is not None:
            return self._transforms[n]
        if self._eye is None:
            self._eye = np.eye(self.ambient_dim)
            self._eye.setflags(write=False)
        return self._eye

    def is_identity(self, n: int) -> bool:
        """Whether W_n was marked as I when the tree was built (every Shannon depth, depth 0)."""
        return self._transforms[n] is None

    def row_nodes(self, n: int) -> np.ndarray:
        """Depth-n node index of each row of W_n."""
        nn = len(self.nodes_at(n))
        return np.repeat(np.arange(nn), self.ambient_dim // nn)

    def parents(self, n: int) -> np.ndarray:
        """Depth-(n-1) index of the parent of each depth-n node (-1 for the root)."""
        return self._parents[n]

    def has_node(self, node: PacketNode) -> bool:
        return node in self._index

    def _position(self, node: PacketNode) -> tuple[int, int]:
        """(depth, index within the depth) of a node of this tree, found by word and depth."""
        try:
            return self._index[node]
        except KeyError:
            raise UnknownNodeError(f"no node {node.word!r} at depth {node.depth}") from None

    def basis(self, node: PacketNode) -> np.ndarray:
        """Orthonormal rows spanning the node's subspace: a row-slice view of W_n."""
        n, i = self._position(node)
        s = self.subspace_dim(node)
        return self.transform(n)[i * s : (i + 1) * s]

    def children(self, node: PacketNode) -> tuple[PacketNode, ...]:
        """The depth-(n+1) nodes whose parent is ``node``, in node order."""
        n, i = self._position(node)
        if n == self.max_depth:
            return ()
        return tuple(self._levels[n + 1][j] for j in np.flatnonzero(self._parents[n + 1] == i))

    def all_nodes(self):
        for level in self._levels:
            yield from level

    def subspace_dim(self, node: PacketNode) -> int:
        return self.ambient_dim // len(self._levels[self._position(node)[0]])

    def __repr__(self):
        return (
            f"PacketTree({self.realization!r}, ambient_dim={self.ambient_dim}, "
            f"max_depth={self.max_depth})"
        )


def _dyadic_levels(max_depth: int):
    """Binary-word levels 0..max_depth in lexicographic order; word i's parent is word i // 2."""
    levels = [
        [PacketNode("".join(bits), n) for bits in product("01", repeat=n)]
        for n in range(max_depth + 1)
    ]
    parents = [np.array([-1])] + [np.arange(2**n) // 2 for n in range(1, max_depth + 1)]
    return levels, parents


def check_dyadic_depth(depth: int, size: int) -> None:
    """Require depth >= 1 and 2**depth | size, from the trailing zero bits: forms no 2**depth."""
    top = (size & -size).bit_length() - 1 if size > 0 else 0
    if not 1 <= depth <= top:
        raise InvalidDepthError(f"depth {depth} outside [1, {top}]: 2^depth must divide the size")


def build_shannon_tree(levels: int, max_depth: int) -> PacketTree:
    """Frequency-band tree with diagonal projections; ambient dim 2**levels."""
    if levels < 1:
        raise InvalidDepthError(f"levels must be >= 1, got {levels}")
    check_dyadic_depth(max_depth, 2**levels)
    tree_levels, parents = _dyadic_levels(max_depth)
    transforms = [None] * (max_depth + 1)  # W_n = I at every depth
    return PacketTree("shannon", 2**levels, max_depth, tree_levels, transforms, parents)


def _analysis_stage(taps: tuple[float, ...], d: int) -> np.ndarray:
    """Periodized convolve-and-downsample matrix, shape (d/2, d)."""
    out = np.zeros((d // 2, d))
    for i in range(d // 2):
        for k, t in enumerate(taps):
            out[i, (2 * i + k) % d] += t
    return out


def build_filter_tree_1d(filters: FilterPair, signal_len: int, depth: int) -> PacketTree:
    """Iterated two-channel filter bank; requires 2**depth | signal_len."""
    check_dyadic_depth(depth, signal_len)
    tree_levels, parents = _dyadic_levels(depth)
    transforms, w = [None], np.eye(signal_len)
    for n in range(1, depth + 1):
        d = signal_len // 2 ** (n - 1)
        low = _analysis_stage(filters.h, d)
        high = _analysis_stage(filters.g, d)
        above = w.reshape(2 ** (n - 1), d, signal_len)
        w = np.vstack([f @ pb for pb in above for f in (low, high)])
        transforms.append(w)
    return PacketTree("filterbank-1d", signal_len, depth, tree_levels, transforms, parents)


def build_filter_tree_2d(filters: FilterPair, patch_side: int, depth: int) -> PacketTree:
    """Separable tensor-product tree on patch_side x patch_side patches.

    Depth-n nodes are pairs of depth-n words (4**n nodes), serialized
    "row,col"; the basis is the Kronecker product of the 1D bases, matching
    row-major patch flattening. Pair (r, c) sits under (parent(r), parent(c)),
    whose row-major index is p[r] * (len(p) // 2) + p[c] for the 1D parents p.
    """
    one_d = build_filter_tree_1d(filters, patch_side, depth)
    pairs = [list(product(level, repeat=2)) for level in one_d._levels]
    tree_levels = [
        [PacketNode(f"{r.word},{c.word}", n) for r, c in level] for n, level in enumerate(pairs)
    ]
    transforms = [None] + [
        np.vstack([np.kron(one_d.basis(r), one_d.basis(c)) for r, c in level])
        for level in pairs[1:]
    ]
    parents = [(p[:, None] * (len(p) // 2) + p).ravel() for p in one_d._parents]
    return PacketTree("filterbank-2d", patch_side**2, depth, tree_levels, transforms, parents)


def projection(tree: PacketTree, node: PacketNode) -> PsdOperator:
    """Orthogonal projection onto the node's subspace, as a PSD operator from its spectrum.

    Eigenvalue 1 on the node's W_n rows, then 0 on the other rows in node order; the
    rows, signed by `_positive_first`, are the eigenvectors (`sym_eigen`'s contract).
    No eigensolver runs.
    """
    n, i = tree._position(node)
    d = tree.ambient_dim
    segments = tree.transform(n).reshape(len(tree.nodes_at(n)), -1, d)
    rows = segments[i]
    others = np.delete(segments, i, axis=0).reshape(-1, d)
    vecs = _positive_first(np.vstack([rows, others]).T)
    lam = np.repeat([1.0, 0.0], [len(rows), d - len(rows)])
    return PsdOperator(SymMatrix(rows.T @ rows), lam, vecs, False)


@dataclass(frozen=True)
class TreeValidationReport:
    """Max violation observed per tree invariant."""

    partition: float
    child_sum: float
    child_orthogonality: float
    basis_orthonormality: float

    def max_violation(self) -> float:
        return max(self.partition, self.child_sum, self.child_orthogonality, self.basis_orthonormality)

    def as_dict(self) -> dict:
        return asdict(self)


def _gram_defect(x: np.ndarray) -> np.ndarray:
    """|x x^T - I|, formed without an identity matrix."""
    g = x @ x.T
    g.flat[:: len(g) + 1] -= 1.0
    return np.abs(g)


def validate_tree(tree: PacketTree) -> TreeValidationReport:
    """Numerically check the partition, splitting, and orthonormality axioms, depth by depth.

    Partition is |W_n^T W_n - I|. Basis orthonormality and child orthogonality are the
    diagonal and off-diagonal node blocks of |W_n W_n^T - I|. The child sum is the part
    of |W_{n+1} W_n^T| outside each child's parent block. No per-node projection is formed.
    """
    partition = child_sum = child_orth = ortho = 0.0
    for n in range(tree.max_depth + 1):
        w, rows = tree.transform(n), tree.row_nodes(n)
        partition = max(partition, float(_gram_defect(w.T).max()))
        g, same = _gram_defect(w), rows[:, None] == rows
        ortho = max(ortho, float(g[same].max()))
        child_orth = max(child_orth, float(g[~same].max(initial=0.0)))
        if n < tree.max_depth:
            up = tree.parents(n + 1)[tree.row_nodes(n + 1)]
            outside = np.abs(tree.transform(n + 1) @ w.T)[up[:, None] != rows]
            child_sum = max(child_sum, float(outside.max(initial=0.0)))
    return TreeValidationReport(partition, child_sum, child_orth, ortho)


def tree_description(tree: PacketTree) -> dict:
    """Diagnostic JSON payload: realization, dims, and per-node words."""
    return {
        "realization": tree.realization,
        "ambient_dim": tree.ambient_dim,
        "max_depth": tree.max_depth,
        "nodes": [
            {"word": nd.word, "depth": nd.depth, "dim": tree.subspace_dim(nd)}
            for nd in tree.all_nodes()
        ],
    }


class ShannonSymbol:
    """Nonnegative multiplier values r(k) for k in [-2**(levels-1), 2**(levels-1)).

    Values follow `as_reals`, and must be finite with a finite sum of squares.
    Values that break `psd_from_spectrum`'s clamp rule raise NotPositiveError.
    """

    __slots__ = ("levels", "values")

    def __init__(self, levels: int, values):
        if levels < 1:
            raise MalformedInputError(f"levels must be >= 1, got {levels}")
        vals = as_reals(values, "symbol values")
        if not (levels < len(vals).bit_length() and len(vals) == 2**levels):
            raise MalformedInputError(f"symbol needs 2^{levels} values, got {len(vals)}")
        if not np.all(np.isfinite(vals)):
            raise MalformedInputError("symbol values must be finite")
        check_square_sum(vals, "symbol values")
        check_clamp(float(vals.max()), float(vals.min()))
        self.levels = int(levels)
        self.values = vals
        self.values.setflags(write=False)

    @property
    def dim(self) -> int:
        return len(self.values)

    def value(self, k: int) -> float:
        """r(k) for k in [-2**(levels-1), 2**(levels-1)); IndexError outside that range."""
        half = 2 ** (self.levels - 1)
        if not -half <= k < half:
            raise IndexError(f"symbol index {k} outside [{-half}, {half})")
        return float(self.values[k + half])

    def to_operator(self) -> PsdOperator:
        """Diagonal PSD operator, as a dense d x d matrix.

        No eigensolver runs: the spectrum is the values sorted nonincreasing,
        and the eigenvectors are the matching identity columns.
        """
        order = np.argsort(-self.values, kind="stable")
        return psd_from_spectrum(
            SymMatrix(np.diag(self.values)), self.values[order], np.eye(len(order))[:, order]
        )

    @staticmethod
    def from_json(obj) -> "ShannonSymbol":
        if not isinstance(obj, dict) or "levels" not in obj or "r" not in obj:
            raise MalformedInputError('symbol JSON must have "levels" and "r" keys')
        levels = obj["levels"]
        if not isinstance(levels, int) or isinstance(levels, bool):
            raise MalformedInputError('"levels" must be an integer')
        return ShannonSymbol(levels, obj["r"])
