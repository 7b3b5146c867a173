"""Shared independent oracles and constructions for the test suite."""

import os
from collections import namedtuple
from itertools import chain, combinations, product
from pathlib import Path

import numpy as np

import wpcontent as w

LOEWNER_TOL = 1e-8


def child_env(**threads):
    """Environment of a fresh process: ``src`` on the path, no *_THREADS variable but ``threads``."""
    env = {k: v for k, v in os.environ.items() if not k.endswith("_THREADS")}
    src = str(Path(w.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return {**env, **threads}


def loewner_leq(a, b):
    """True iff b - a is PSD up to a tolerance: lam_min(b - a) >= -LOEWNER_TOL * ||b||_2."""
    ea, eb = (np.asarray(getattr(x, "matrix", x), dtype=float) for x in (a, b))
    if ea.shape != eb.shape:
        raise w.ConfigError(f"shape mismatch: {ea.shape} vs {eb.shape}")
    diff = eb - ea
    lam_min = np.linalg.eigvalsh(0.5 * (diff + diff.T))[0]
    return bool(lam_min >= -LOEWNER_TOL * np.max(np.abs(np.linalg.eigvalsh(eb))))


def matrix_json(m):
    """A matrix, or a PsdOperator's ``matrix``, in the {"dim", "data"} wire format."""
    e = np.asarray(getattr(m, "matrix", m), dtype=float)
    return {"dim": int(e.shape[0]), "data": e.ravel().tolist()}


def children(tree, node):
    """The depth-(n+1) nodes whose parent is ``node``, in node order, read from tree.parents."""
    n = tree._position(node)[0]
    if n == tree.max_depth:
        return ()
    below, i = tree.nodes_at(n + 1), tree.nodes_at(n).index(node)
    return tuple(below[j] for j in np.flatnonzero(tree.parents(n + 1) == i))


def masses(weights):
    """The masses of a `cylinder_weights` result by node word, read from its report rows."""
    return {row["word"]: row["mass"] for row in weights["cylinders"]}


def positions(patch_set):
    """Anchor (row, column) of each patch of a PatchSet, row-major: the product of its runs."""
    return tuple(product(*(chain(*runs) for runs in patch_set.runs)))


def random_gram(rng, dim, scale=1.0):
    g = rng.standard_normal((dim, dim))
    return w.PsdOperator(scale * (g.T @ g) / dim)


def dense_root(op):
    """sqrt(A) of an operator from np.linalg.eigh of its matrix, negative eigenvalues read
    as zero, symmetrized: an oracle that reads none of the operator's stored spectrum."""
    lam, v = np.linalg.eigh(op.matrix)
    s = (v * np.sqrt(np.maximum(lam, 0.0))) @ v.T
    return 0.5 * (s + s.T)


def sequence_step(r, tree, seq, k):
    """(D_k, remainder_k) of extract_sequence(r, tree, seq), rebuilt from prefix runs.

    remainder_k is the final remainder of the run on seq[:k]; D_k is
    (B S)^T (B S), symmetrized, with B the basis of seq[k-1] and S the
    `dense_root` of remainder_{k-1}.
    """
    prev = w.extract_sequence(r, tree, seq[: k - 1]).final_remainder
    m = tree.basis(seq[k - 1]) @ dense_root(prev)
    d = m.T @ m
    return 0.5 * (d + d.T), w.extract_sequence(r, tree, seq[:k]).final_remainder.matrix


def shannon_band(levels, word):
    """Frequency indices owned by a node, computed from the band formula.

    Independent of the tree implementation: the depth-n node with binary
    value m owns {-2^(levels-1) + m*2^(levels-n), ..., + (m+1)*2^(levels-n) - 1}.
    """
    n = len(word)
    m = int(word, 2) if word else 0
    size = 2 ** (levels - n)
    lo = -(2 ** (levels - 1)) + m * size
    return list(range(lo, lo + size))


def band_positions(levels, word):
    """Array positions of the band (index k stored at k + 2^(levels-1))."""
    return [k + 2 ** (levels - 1) for k in shannon_band(levels, word)]


def geometric_symbol(levels):
    """The symbol r(k) = 2^(-|k|) truncated to the ambient band."""
    half = 2 ** (levels - 1)
    return w.shannon_symbol([2.0 ** (-abs(k)) for k in range(-half, half)])


def spread_vector(tree, n):
    """Unit vector with equal energy 1/N in every depth-n subspace."""
    nodes = tree.nodes_at(n)
    v = np.zeros(tree.ambient_dim)
    for nd in nodes:
        v += tree.basis(nd)[0]
    return v / np.sqrt(len(nodes))

def dense_blocks(a, tree, n):
    """Per-node route: the compressions B A B^T of every depth-n node basis B."""
    return [tree.basis(nd) @ a @ tree.basis(nd).T for nd in tree.nodes_at(n)]


def dense_pinching(a, tree, n):
    """Per-node route: sum of P A P over the depth-n projections P = B^T B."""
    projections = [tree.basis(nd).T @ tree.basis(nd) for nd in tree.nodes_at(n)]
    return sum(p @ a @ p for p in projections)


def dense_coefficient_energies(y, tree, n):
    """Per-node route: mean over patch rows y of ||y B^T||^2, per depth-n node."""
    return [float(np.mean(np.sum((y @ tree.basis(nd).T) ** 2, axis=1))) for nd in tree.nodes_at(n)]


def dense_validate_tree(tree):
    """Per-node route of validate_tree: one dense projection P = B^T B per node.

    Returns the four violations as a dict: partition |sum_w P_w - I| per depth,
    child sum |P_w - sum of child P|, sibling orthogonality |P_u P_v|, and
    basis orthonormality |B B^T - I|.
    """
    proj = {nd: tree.basis(nd).T @ tree.basis(nd) for nd in tree.all_nodes()}
    eye = np.eye(tree.ambient_dim)
    fields = ("partition", "child_sum", "child_orthogonality", "basis_orthonormality")
    out = dict.fromkeys(fields, 0.0)
    for n in range(tree.max_depth + 1):
        acc = sum(proj[nd] for nd in tree.nodes_at(n))
        out["partition"] = max(out["partition"], float(np.max(np.abs(acc - eye))))
    for node in tree.all_nodes():
        b = tree.basis(node)
        gram = b @ b.T - np.eye(b.shape[0])
        out["basis_orthonormality"] = max(out["basis_orthonormality"], float(np.max(np.abs(gram))))
        kids = children(tree, node)
        if not kids:
            continue
        gap = proj[node] - sum(proj[k] for k in kids)
        out["child_sum"] = max(out["child_sum"], float(np.max(np.abs(gap))))
        for u, v in combinations(kids, 2):
            both = np.max(np.abs(proj[u] @ proj[v]))
            out["child_orthogonality"] = max(out["child_orthogonality"], float(both))
    return out


def corrupted_tree_fixture():
    """Frequency-band tree with one basis row of node "0" zeroed; must fail validation."""
    t = w.build_shannon_tree(3, 2)
    transforms = [t.transform(n) for n in range(t.max_depth + 1)]
    transforms[1] = transforms[1].copy()
    transforms[1][0, :] = 0.0
    return w.tree.PacketTree(
        t.realization, t.ambient_dim, t.max_depth, t._levels, transforms, t._parents
    )


def swapped_children_tree(tree, n):
    """Copy of ``tree`` with the rows of two depth-n non-siblings swapped in W_n.

    The last child of the first depth-(n-1) node trades rows with the first
    child of the second, so every W_n stays orthogonal but the two children
    sit under the wrong parents.
    """
    above, nodes = tree.nodes_at(n - 1), tree.nodes_at(n)
    i, j = nodes.index(children(tree, above[0])[-1]), nodes.index(children(tree, above[1])[0])
    s = tree.ambient_dim // len(nodes)
    wn = tree.transform(n).copy()
    wn[[*range(i * s, (i + 1) * s), *range(j * s, (j + 1) * s)]] = wn[
        [*range(j * s, (j + 1) * s), *range(i * s, (i + 1) * s)]
    ]
    transforms = [tree.transform(m) for m in range(tree.max_depth + 1)]
    transforms[n] = wn
    return w.tree.PacketTree(
        tree.realization, tree.ambient_dim, tree.max_depth, tree._levels, transforms, tree._parents
    )


def block_diagonal_gram(rng, tree, n, dim):
    """PSD operator that commutes with every depth-n projection."""
    g = rng.standard_normal((dim, dim))
    return w.PsdOperator(dense_pinching((g.T @ g) / dim, tree, n))


def piecewise_smooth_image(size=64):
    """Smooth waves plus a bright rectangle and disc (piecewise smooth)."""
    yy, xx = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    img = 0.35 + 0.25 * np.sin(2 * np.pi * yy / size) * np.cos(2 * np.pi * xx / size)
    img[size // 4 : size * 5 // 8, size // 8 : size * 7 // 16] += 0.3
    rr = (yy - 0.7 * size) ** 2 + (xx - 0.72 * size) ** 2
    img = np.where(rr < (0.19 * size) ** 2, 0.85, img)
    return np.clip(img, 0.0, 1.0)


def loop_anchors(extent, m, stride):
    """Anchor offsets 0, stride, 2*stride, ..., plus a flush-to-edge anchor."""
    out = list(range(0, extent - m + 1, stride))
    if out[-1] != extent - m:
        out.append(extent - m)
    return out


LoopPatches = namedtuple("LoopPatches", "patch_side stride positions patches")


def loop_extract_patches(img, m, stride):
    """Per-patch route: walk the anchor grid row-major and copy one patch per anchor."""
    rows = loop_anchors(img.shape[0], m, stride)
    cols = loop_anchors(img.shape[1], m, stride)
    positions = []
    patches = np.empty((len(rows) * len(cols), m * m))
    i = 0
    for r in rows:
        for c in cols:
            positions.append((r, c))
            patches[i] = img[r : r + m, c : c + m].ravel()
            i += 1
    return LoopPatches(m, stride, tuple(positions), patches)


def tiled_patches(y, m):
    """The `PatchSet` of the rows of y as m x m patches tiled side by side, at stride m."""
    tiles = np.asarray(y, dtype=float).reshape(-1, m, m)
    return w.PatchSet(np.hstack(tiles), m, m)


def loop_denoise(img, cfg, band_rows=None):
    """Per-patch route of the denoiser: (pixels, chosen words, trace scores).

    Scores come from the unbanded R_hat = Y^T Y / M, the top-K nodes keep
    node order on ties, and every projected patch is added into the image
    one at a time in row-major anchor order. The projection (Y B^T) B is one
    product over all patches, or, with ``band_rows``, one product per group
    of that many anchor rows of the stride grid, and one for a flush anchor row.
    """
    m, n = cfg.patch_side, cfg.depth
    tree = w.build_filter_tree_2d(cfg.filter_name, m, n)
    ps = loop_extract_patches(img, m, cfg.stride)
    y = ps.patches
    rhat = (y.T @ y) / y.shape[0]
    scores = w.content.trace_scores(rhat, tree, n)
    if cfg.mode == "hs":
        rank = w.content.hs_scores_squared(w.PsdOperator(rhat).matrix, tree, n)
    else:
        rank = scores
    nodes = tree.nodes_at(n)
    idx = sorted(np.argsort(-rank, kind="stable")[: cfg.top_k])
    basis = np.vstack([tree.basis(nodes[i]) for i in idx])
    rows = loop_anchors(img.shape[0], m, ps.stride)
    if band_rows is None:
        sizes = [len(rows)]
    else:
        grid = [r for r in rows if r % ps.stride == 0]  # a flush anchor is off the grid
        sizes = [len(grid[i : i + band_rows]) for i in range(0, len(grid), band_rows)]
        sizes += [1] * (len(rows) - len(grid))
    ends = np.cumsum([0, *sizes]) * len(loop_anchors(img.shape[1], m, ps.stride))
    denoised = np.vstack([(y[a:b] @ basis.T) @ basis for a, b in zip(ends, ends[1:])])
    acc = np.zeros(img.shape)
    cnt = np.zeros(img.shape)
    for (r, c), patch in zip(ps.positions, denoised):
        acc[r : r + m, c : c + m] += patch.reshape(m, m)
        cnt[r : r + m, c : c + m] += 1.0
    return acc / cnt, [nodes[i] for i in idx], scores
