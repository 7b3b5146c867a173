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


def filter_from_json(obj) -> FilterPair:
    """Parse {"h": [...]} with g derived from h."""
    if not isinstance(obj, dict) or "h" not in obj:
        raise MalformedInputError('filter JSON must have an "h" key')
    return FilterPair.from_lowpass(obj["h"])


class PacketTree:
    """Immutable tree of nodes with one read-only packet transform per depth.

    A ``None`` transform marks W_n = I; `transform` forms it once, shared, on first use.
    """

    __slots__ = (
        "realization", "ambient_dim", "max_depth", "_levels", "_transforms", "_index",
        "_children", "_parents", "_eye",
    )

    def __init__(self, realization, ambient_dim, max_depth, levels, transforms, children):
        self.realization = realization
        self.ambient_dim = int(ambient_dim)
        self.max_depth = int(max_depth)
        self._levels = levels
        self._transforms = transforms
        self._index = {
            nd.word: (n, i) for n, level in enumerate(levels) for i, nd in enumerate(level)
        }
        self._children = children
        self._eye = None
        for w in transforms:
            if w is not None:
                w.setflags(write=False)
        # each node's parent index, read off the child lists
        parent = {kid.word: self._index[w][1] for w, kids in children.items() for kid in kids}
        self._parents = [np.array([parent.get(nd.word, -1) for nd in level]) for level in levels]

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
        return self._index.get(node.word, (None,))[0] == node.depth

    def _position(self, node: PacketNode) -> tuple[int, int]:
        """(depth, index within the depth) of a node of this tree."""
        try:
            return self._index[node.word]
        except KeyError:
            raise UnknownNodeError(f"node {node.word!r} is not in this tree") from None

    def basis(self, node: PacketNode) -> np.ndarray:
        """Orthonormal rows spanning the node's subspace: a row-slice view of W_n."""
        n, i = self._position(node)
        s = self.subspace_dim(node)
        return self.transform(n)[i * s : (i + 1) * s]

    def children(self, node: PacketNode) -> tuple[PacketNode, ...]:
        return self._children.get(node.word, ())

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
    """Binary-word levels 0..max_depth in lexicographic order, and child lists."""
    levels = [
        [PacketNode("".join(bits), n) for bits in product("01", repeat=n)]
        for n in range(max_depth + 1)
    ]
    children = {
        nd.word: tuple(levels[n + 1][2 * i : 2 * i + 2])
        for n in range(max_depth)
        for i, nd in enumerate(levels[n])
    }
    return levels, children


def build_shannon_tree(levels: int, max_depth: int) -> PacketTree:
    """Frequency-band tree with diagonal projections; ambient dim 2**levels."""
    if levels < 1:
        raise InvalidDepthError(f"levels must be >= 1, got {levels}")
    if not 1 <= max_depth <= levels:
        raise InvalidDepthError(f"max_depth must be in [1, levels={levels}], got {max_depth}")
    tree_levels, children = _dyadic_levels(max_depth)
    transforms = [None] * (max_depth + 1)  # W_n = I at every depth
    return PacketTree("shannon", 2**levels, max_depth, tree_levels, transforms, children)


def _analysis_stage(taps: tuple[float, ...], d: int) -> np.ndarray:
    """Periodized convolve-and-downsample matrix, shape (d/2, d)."""
    out = np.zeros((d // 2, d))
    for i in range(d // 2):
        for k, t in enumerate(taps):
            out[i, (2 * i + k) % d] += t
    return out


def build_filter_tree_1d(filters: FilterPair, signal_len: int, depth: int) -> PacketTree:
    """Iterated two-channel filter bank; requires 2**depth | signal_len."""
    if depth < 1:
        raise InvalidDepthError(f"depth must be >= 1, got {depth}")
    if signal_len < 1 or signal_len % (2**depth) != 0:
        raise InvalidDepthError(
            f"2^depth = {2**depth} must divide signal_len = {signal_len}"
        )
    tree_levels, children = _dyadic_levels(depth)
    transforms, w = [None], np.eye(signal_len)
    for n in range(1, depth + 1):
        d = signal_len // 2 ** (n - 1)
        low = _analysis_stage(filters.h, d)
        high = _analysis_stage(filters.g, d)
        parents = w.reshape(2 ** (n - 1), d, signal_len)
        w = np.vstack([f @ pb for pb in parents for f in (low, high)])
        transforms.append(w)
    return PacketTree("filterbank-1d", signal_len, depth, tree_levels, transforms, children)


def build_filter_tree_2d(filters: FilterPair, patch_side: int, depth: int) -> PacketTree:
    """Separable tensor-product tree on patch_side x patch_side patches.

    Depth-n nodes are pairs of depth-n words (4**n nodes), serialized
    "row,col"; the basis is the Kronecker product of the 1D bases, matching
    row-major patch flattening.
    """
    one_d = build_filter_tree_1d(filters, patch_side, depth)
    grids = [
        {(r, c): PacketNode(f"{r.word},{c.word}", n) for r, c in product(level, repeat=2)}
        for n, level in enumerate(one_d._levels)
    ]
    transforms = [None] + [
        np.vstack([np.kron(one_d.basis(r), one_d.basis(c)) for r, c in grid]) for grid in grids[1:]
    ]
    children = {
        nd.word: tuple(grids[n + 1][rc] for rc in product(one_d.children(r), one_d.children(c)))
        for n, grid in enumerate(grids[:-1])
        for (r, c), nd in grid.items()
    }
    tree_levels = [list(grid.values()) for grid in grids]
    return PacketTree("filterbank-2d", patch_side**2, depth, tree_levels, transforms, children)


def _rows_projection(tree: PacketTree, n: int, idx) -> PsdOperator:
    """Projection onto the W_n rows of the depth-n nodes ``idx``, from its known spectrum.

    Eigenvalue 1 on those rows, then 0 on the others in node order; the rows, signed by
    `_positive_first`, are the eigenvectors (`sym_eigen`'s contract). No eigensolver runs.
    """
    d = tree.ambient_dim
    segments = tree.transform(n).reshape(len(tree.nodes_at(n)), -1, d)
    rows = segments[idx].reshape(-1, d)
    others = np.delete(segments, idx, axis=0).reshape(-1, d)
    vecs = _positive_first(np.vstack([rows, others]).T)
    lam = np.repeat([1.0, 0.0], [len(rows), d - len(rows)])
    return PsdOperator(SymMatrix(rows.T @ rows), lam, vecs, False)


def projection(tree: PacketTree, node: PacketNode) -> PsdOperator:
    """Orthogonal projection onto the node's subspace, as a PSD operator."""
    n, i = tree._position(node)
    return _rows_projection(tree, n, [i])


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
        if vals.shape != (2**levels,):
            raise MalformedInputError(
                f"symbol needs {2**levels} values for levels={levels}, got {vals.shape}"
            )
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
