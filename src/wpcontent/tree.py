"""Packet trees: node words, per-depth packet transforms, projections.

A node is its word w, a str, and nothing is stored beside it: the tree's
index maps each word to its depth |w| (for a 2D pair "r,c", |r| = |c|)
and its place in that depth. A tree stores one orthogonal d x d matrix
W_n per depth n: the depth-n node bases stacked in lexicographic node
order. The N_n depth-n nodes all have the same dimension s = d / N_n, so
node i owns the contiguous rows i*s:(i+1)*s of W_n, and `basis(word)` is
that row-slice view. Every depth-n block statistic (block traces, block
HS norms, the pinching) is a segment operation on W_n A W_n^T or W_n z.

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
  patches, nodes being pairs of equal-length words. The builders take a
  filter name, haar or d4; `filter_taps` looks up its fixed taps.

Node ordering is lexicographic everywhere; 2D words are serialized as
"row,col" which preserves pair-lexicographic order under string compare.
The root is the empty word: "" in 1D, "," in 2D.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

from .errors import ConfigError


# Lowpass taps h of the two shipped filters: Haar, and Daubechies' four-tap D4
# ("Orthonormal bases of compactly supported wavelets", CPAM 41, 1988).
_ROOT3, _D4_SCALE = math.sqrt(3.0), 4.0 * math.sqrt(2.0)
_LOWPASS = {
    "haar": (1.0 / math.sqrt(2.0),) * 2,
    "d4": (
        (1.0 + _ROOT3) / _D4_SCALE, (3.0 + _ROOT3) / _D4_SCALE,
        (3.0 - _ROOT3) / _D4_SCALE, (1.0 - _ROOT3) / _D4_SCALE,
    ),
}


def filter_taps(name: str) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """(h, g) of the filter ``name`` (haar or d4, any case): g[k] = (-1)^k h[n-1-k]."""
    try:
        h = _LOWPASS[name.lower()]
    except KeyError:
        raise ConfigError(f"unknown filter {name!r}; expected haar or d4") from None
    n = len(h)
    return h, tuple((-1.0) ** k * h[n - 1 - k] for k in range(n))


class PacketTree:
    """Immutable tree of node words with one read-only packet transform per depth.

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
        self._index = {wd: (n, i) for n, level in enumerate(levels) for i, wd in enumerate(level)}
        self._parents = parents
        self._eye = None
        for a in (*transforms, *parents):
            if a is not None:
                a.setflags(write=False)

    @property
    def root(self) -> str:
        return self._levels[0][0]

    def nodes_at(self, n: int) -> list[str]:
        if not 0 <= n <= self.max_depth:
            raise ConfigError(f"depth {n} out of range [0, {self.max_depth}]")
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

    def parents(self, n: int) -> np.ndarray:
        """Depth-(n-1) index of the parent of each depth-n node (-1 for the root)."""
        return self._parents[n]

    def _position(self, word: str) -> tuple[int, int]:
        """(depth, index within the depth) of a word of this tree; any other key is unknown."""
        try:
            return self._index[word]
        except (KeyError, TypeError):  # TypeError: an unhashable key, such as a list
            raise ConfigError(f"no node {word!r}") from None

    def basis(self, word: str) -> np.ndarray:
        """Orthonormal rows spanning the node's subspace: a row-slice view of W_n."""
        n, i = self._position(word)
        s = self.subspace_dim(word)
        return self.transform(n)[i * s : (i + 1) * s]

    def all_nodes(self):
        for level in self._levels:
            yield from level

    def subspace_dim(self, word: str) -> int:
        return self.ambient_dim // len(self._levels[self._position(word)[0]])

    def __repr__(self):
        return (
            f"PacketTree({self.realization!r}, ambient_dim={self.ambient_dim}, "
            f"max_depth={self.max_depth})"
        )


def _dyadic_levels(max_depth: int):
    """Binary-word levels 0..max_depth in lexicographic order; word i's parent is word i // 2."""
    levels = [["".join(bits) for bits in product("01", repeat=n)] for n in range(max_depth + 1)]
    parents = [np.array([-1])] + [np.arange(2**n) // 2 for n in range(1, max_depth + 1)]
    return levels, parents


def check_dyadic_depth(depth: int, size: int) -> None:
    """Require depth >= 1 and 2**depth | size, from the trailing zero bits: forms no 2**depth."""
    top = (size & -size).bit_length() - 1 if size > 0 else 0
    if not 1 <= depth <= top:
        raise ConfigError(f"depth {depth} outside [1, {top}]: 2^depth must divide the size")


def build_shannon_tree(levels: int, max_depth: int) -> PacketTree:
    """Frequency-band tree with diagonal projections; ambient dim 2**levels."""
    if levels < 1:
        raise ConfigError(f"levels must be >= 1, got {levels}")
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


def build_filter_tree_1d(name: str, signal_len: int, depth: int) -> PacketTree:
    """Iterated two-channel filter bank of the filter ``name``; requires 2**depth | signal_len."""
    h, g = filter_taps(name)
    check_dyadic_depth(depth, signal_len)
    tree_levels, parents = _dyadic_levels(depth)
    transforms, w = [None], np.eye(signal_len)
    for n in range(1, depth + 1):
        d = signal_len // 2 ** (n - 1)
        low = _analysis_stage(h, d)
        high = _analysis_stage(g, d)
        above = w.reshape(2 ** (n - 1), d, signal_len)
        w = np.vstack([f @ pb for pb in above for f in (low, high)])
        transforms.append(w)
    return PacketTree("filterbank-1d", signal_len, depth, tree_levels, transforms, parents)


def build_filter_tree_2d(name: str, patch_side: int, depth: int) -> PacketTree:
    """Separable tensor-product tree on patch_side x patch_side patches.

    Depth-n nodes are pairs of depth-n words (4**n nodes), serialized
    "row,col"; the basis is the Kronecker product of the 1D bases, matching
    row-major patch flattening. Pair (r, c) sits under (parent(r), parent(c)),
    whose row-major index is p[r] * (len(p) // 2) + p[c] for the 1D parents p.
    """
    one_d = build_filter_tree_1d(name, patch_side, depth)
    pairs = [list(product(level, repeat=2)) for level in one_d._levels]
    tree_levels = [[f"{r},{c}" for r, c in level] for level in pairs]
    transforms = [None] + [
        np.vstack([np.kron(one_d.basis(r), one_d.basis(c)) for r, c in level])
        for level in pairs[1:]
    ]
    parents = [(p[:, None] * (len(p) // 2) + p).ravel() for p in one_d._parents]
    return PacketTree("filterbank-2d", patch_side**2, depth, tree_levels, transforms, parents)


def projection(tree: PacketTree, word: str) -> np.ndarray:
    """P_w = B^T B for the node's orthonormal rows B: a read-only d x d array, exactly
    symmetric as numpy forms it (by its rank-k routine)."""
    b = tree.basis(word)
    p = b.T @ b
    p.setflags(write=False)
    return p


def _gram_defect(x: np.ndarray) -> np.ndarray:
    """|x x^T - I|, formed without an identity matrix."""
    g = x @ x.T
    g.flat[:: len(g) + 1] -= 1.0
    return np.abs(g)


def validate_tree(tree: PacketTree) -> dict[str, float]:
    """The largest violation of each tree axiom over all depths, by the axiom's name.

    The names are partition, child_sum, child_orthogonality and basis_orthonormality.
    Partition is |W_n^T W_n - I|. Basis orthonormality and child orthogonality are the
    diagonal and off-diagonal node blocks of |W_n W_n^T - I|. The child sum is the part
    of |W_{n+1} W_n^T| outside each child's parent block. No per-node projection is formed.
    """
    def row_nodes(n: int) -> np.ndarray:  # depth-n node index of each row of W_n
        nn = len(tree.nodes_at(n))
        return np.repeat(np.arange(nn), tree.ambient_dim // nn)

    partition = child_sum = child_orth = ortho = 0.0
    for n in range(tree.max_depth + 1):
        w, rows = tree.transform(n), row_nodes(n)
        partition = max(partition, float(_gram_defect(w.T).max()))
        g, same = _gram_defect(w), rows[:, None] == rows
        ortho = max(ortho, float(g[same].max()))
        child_orth = max(child_orth, float(g[~same].max(initial=0.0)))
        if n < tree.max_depth:
            up = tree.parents(n + 1)[row_nodes(n + 1)]
            outside = np.abs(tree.transform(n + 1) @ w.T)[up[:, None] != rows]
            child_sum = max(child_sum, float(outside.max(initial=0.0)))
    return {"partition": partition, "child_sum": child_sum, "child_orthogonality": child_orth,
            "basis_orthonormality": ortho}


def tree_description(tree: PacketTree) -> dict:
    """Diagnostic JSON payload: realization, dims, and per-node words."""
    return {
        "realization": tree.realization,
        "ambient_dim": tree.ambient_dim,
        "max_depth": tree.max_depth,
        "nodes": [
            {"word": wd, "depth": n, "dim": tree.subspace_dim(wd)}
            for n in range(tree.max_depth + 1) for wd in tree.nodes_at(n)
        ],
    }
