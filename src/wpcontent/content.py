"""Content blocks of a PSD operator along a packet tree.

The content block at node w is sqrt(R) P_w sqrt(R): a PSD piece of R
supported on the node's subspace after square-root conjugation. At any
fixed depth the blocks sum back to R, and block traces are consistent
under refinement, so they define cylinder weights on the tree (total
mass = trace of R). Vector energies <x, C_w x> = ||P_w sqrt(R) x||^2
give per-node densities relative to those weights.

Block trace weights are evaluated through the identity
tr(sqrt(R) P_w sqrt(R)) = tr(P_w R), which needs no square root. All
depth-n block statistics are segment operations on the packet transform
W_n (node i owns rows i*s:(i+1)*s, s = d / N_n): block traces are segment
sums of diag(W_n A W_n^T), block HS norms are the Frobenius norms of its
diagonal s x s blocks, and vector energies are segment sums of (W_n z)^2.
The per-node dense route is kept as an independent oracle in tests.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, NumericalBreakdownError
from .psdcore import PsdOperator, as_entries, hs_norm, shannon_symbol, trace
from .tree import PacketTree


def _check_dims(dim: int, tree: PacketTree) -> None:
    if dim != tree.ambient_dim:
        raise ConfigError(f"dim {dim} != tree ambient dim {tree.ambient_dim}")


def _root_images(r: PsdOperator, tree: PacketTree, vectors, mix=None) -> np.ndarray:
    """Rows sqrt(R) x by `root_rows` for vectors x of shape (d,), or for the rows of mix @ X."""
    _check_dims(r.dim, tree)
    for x in vectors:
        if np.shape(x) != (r.dim,):
            raise ConfigError(f"vector shape {np.shape(x)} != ({r.dim},)")
    rows = np.array(vectors, dtype=np.float64)
    return r.root_rows(rows if mix is None else mix @ rows)


def _segment_sums(values: np.ndarray, count: int) -> np.ndarray:
    """Sums of ``count`` equal contiguous segments along the first axis."""
    return values.reshape(count, -1, *values.shape[1:]).sum(axis=1)


def trace_scores(a, tree: PacketTree, n: int) -> np.ndarray:
    """Block trace weights tr(P_w A) for all depth-n nodes, in node order.

    Segment sums of diag(W_n A W_n^T), read off as the row sums of
    (W_n A) * W_n without forming the full product. A 1-D ``a`` is diag(A): W_n A = W_n * a.
    """
    a = as_entries(a)
    if tree.is_identity(n):
        diag = a if a.ndim == 1 else np.diagonal(a)
    else:
        w = tree.transform(n)
        diag = np.sum(((w * a) if a.ndim == 1 else (w @ a)) * w, axis=1)
    return _segment_sums(diag, len(tree.nodes_at(n)))


def hs_scores_squared(a, tree: PacketTree, n: int) -> np.ndarray:
    """Squared HS norms of the content blocks, via ||C_w(A)||^2 = ||B A B^T||_F^2.

    B A B^T is the node's diagonal s x s block of W_n A W_n^T. A 1-D ``a`` is diag(A).
    """
    a, nn = as_entries(a), len(tree.nodes_at(n))
    a = np.diag(a) if a.ndim == 1 else a
    s = tree.ambient_dim // nn
    idx = np.arange(nn)
    coords = a if tree.is_identity(n) else tree.transform(n) @ a @ tree.transform(n).T
    blocks = coords.reshape(nn, s, nn, s)[idx, :, idx, :]
    return np.sum(blocks * blocks, axis=(1, 2))


def content_operator(r: PsdOperator, tree: PacketTree, node: str) -> PsdOperator:
    """Dense block sqrt(R) P_w sqrt(R) = M^T M with M = B sqrt(R) from `root_rows`; PSD-checked."""
    _check_dims(r.dim, tree)
    m = r.root_rows(tree.basis(node))
    return PsdOperator(m.T @ m)


def depth_decomposition(
    r: PsdOperator, tree: PacketTree, n: int
) -> tuple[tuple[PsdOperator, ...], float]:
    """Depth-n content blocks in node order and their max |sum - R|, checked within 1e-8 ||R||."""
    _check_dims(r.dim, tree)
    blocks = tuple(content_operator(r, tree, nd) for nd in tree.nodes_at(n))
    total = np.zeros_like(r.matrix)
    for blk in blocks:
        total = total + blk.matrix
    err = float(np.max(np.abs(total - r.matrix)))
    if err > 1e-8 * hs_norm(r):
        raise NumericalBreakdownError(
            None, f"depth-{n} blocks fail to reconstruct the source: max error {err:.3e}"
        )
    return blocks, err


def cylinder_weights(r, tree: PacketTree) -> dict:
    """Masses for every node with |w| <= max_depth; additivity verified within 1e-9 tr(R).

    Returns what the `decompose` report holds: "cylinders", one {"word",
    "depth", "mass"} dict per node in `PacketTree.all_nodes` order (the root
    first), and "validation", the root mass, the trace, their distance and
    the largest |mass(w) - sum of child masses| measured. Tiny negative
    rounding noise is clamped to zero so all masses are nonnegative; the
    root mass equals trace(R) exactly by construction. ``r`` is a
    PsdOperator or a symbol's values, diag(R), checked as a symbol and read
    with no d x d array on identity depths.
    """
    a = r.matrix if isinstance(r, PsdOperator) else shannon_symbol(r)
    _check_dims(len(a), tree)
    masses = [np.maximum(trace_scores(a, tree, n), 0.0) for n in range(tree.max_depth + 1)]
    total = float(np.sum(a)) if a.ndim == 1 else trace(a)
    budget = 1e-9 * abs(total)
    if abs(masses[0][0] - total) > budget:
        raise NumericalBreakdownError(None, f"root mass {masses[0][0]:.6e} != trace {total:.6e}")
    max_gap = 0.0
    for n in range(tree.max_depth):
        # children add into their parent in node order, as a per-node sum would
        gaps = np.abs(masses[n] - np.bincount(tree.parents(n + 1), masses[n + 1], len(masses[n])))
        if np.any(gaps > budget):
            i = int(np.argmax(gaps > budget))
            msg = f"cylinder additivity fails at {tree.nodes_at(n)[i]!r}: gap {gaps[i]:.3e}"
            raise NumericalBreakdownError(None, msg)
        max_gap = max(max_gap, float(gaps.max()))
    rows = [{"word": wd, "depth": n, "mass": m} for n, level in enumerate(masses)
            for wd, m in zip(tree.nodes_at(n), level.tolist())]
    root_mass = rows[0]["mass"]
    return {
        "cylinders": rows,
        "validation": {
            "root_mass": root_mass,
            "trace": total,
            "root_mass_error": abs(root_mass - total),
            "max_additivity_gap": max_gap,
        },
    }


def vector_weight(r: PsdOperator, tree: PacketTree, x, node: str) -> float:
    """Packet energy ||P_w sqrt(R) x||^2 of the vector x at node w."""
    y = tree.basis(node) @ _root_images(r, tree, [x])[0]
    return float(y @ y)


def discrete_density(r: PsdOperator, tree: PacketTree, x, n: int) -> dict[str, float]:
    """Per-node energy density at depth n: vector weight over cylinder mass.

    Nodes of mass at most eps = 1e-12 * trace(R) are omitted. Since
    nu_w <= mu_w ||x||^2, such a node carries a vector weight of at most
    eps ||x||^2; a larger one raises NumericalBreakdownError (possible
    only through rounding defects).
    """
    img = _root_images(r, tree, [x])[0]
    eps = 1e-12 * trace(r)
    x_sq = float(np.sum(np.square(x)))
    nodes = tree.nodes_at(n)
    mus = trace_scores(r.matrix, tree, n).tolist()
    nus = _segment_sums((tree.transform(n) @ img) ** 2, len(nodes)).tolist()
    out = {}
    for node, mu, nu in zip(nodes, mus, nus):
        if mu > eps:
            out[node] = nu / mu
        elif nu > eps * x_sq:
            raise NumericalBreakdownError(
                None, f"node {node!r} has mass {mu:.3e} but vector weight {nu:.3e}"
            )
    return out


def parallelogram_check(r: PsdOperator, tree: PacketTree, x, y, n: int) -> float:
    """Max depth-n violation of the parallelogram law for vector weights."""
    imgs = _root_images(r, tree, [x, y], mix=[[1, 1], [1, -1], [1, 0], [0, 1]])  # x+y, x-y, x, y
    e_sum, e_diff, e_x, e_y = _segment_sums(
        (tree.transform(n) @ imgs.T) ** 2, len(tree.nodes_at(n))
    ).T
    return float(np.max(np.abs(e_sum + e_diff - 2.0 * e_x - 2.0 * e_y)))
