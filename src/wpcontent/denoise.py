"""Patch-based denoising by packet-block selection.

Pipeline: extract overlapping patches from the noisy image, score the
depth-n packet blocks by average patch energy s_w = (1/M) sum ||P_w y_i||^2
(equivalently tr(P_w R_hat) for the empirical second-moment operator
R_hat), keep the K highest-scoring blocks, project every patch onto
their span, and rebuild the image by overlap-averaging. Keeping blocks
instead of thresholding coefficients means both the retained part of
R_hat and the discarded part stay PSD.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .content import _check_dims, hs_scores_squared, trace_scores
from .errors import ConfigError, DimensionMismatchError, MalformedInputError
from .psdcore import PsdOperator, SymMatrix, make_psd
from .tree import (
    PacketNode, PacketTree, _rows_projection, build_filter_tree_2d, check_dyadic_depth,
    named_filter,
)

PSNR_CAP_DB = 99.0
BAND_ROWS = 16  # anchor rows per band of denoise_image


class ImageBuffer:
    """Grayscale raster; values nominally in [0, 1], clipped only on export."""

    __slots__ = ("width", "height", "pixels")

    def __init__(self, pixels):
        a = np.asarray(pixels, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
            raise MalformedInputError(f"image must be a 2D raster, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise MalformedInputError("image pixels must be finite")
        self.height = int(a.shape[0])
        self.width = int(a.shape[1])
        self.pixels = a
        self.pixels.setflags(write=False)

    def __repr__(self):
        return f"ImageBuffer({self.width}x{self.height})"


@dataclass(frozen=True)
class PatchSet:
    patch_side: int
    stride: int
    positions: tuple[tuple[int, int], ...]
    patches: np.ndarray  # (M, patch_side**2), row-major flattening


@dataclass(frozen=True)
class BlockScores:
    """Average packet-block energies s_w at one depth, in node order."""

    depth: int
    nodes: tuple[PacketNode, ...]
    values: np.ndarray

    def total(self) -> float:
        return float(np.sum(self.values))

    def as_map(self) -> dict[str, float]:
        return {nd.word: float(v) for nd, v in zip(self.nodes, self.values)}


@dataclass(frozen=True)
class Selection:
    """Top-K nodes with the assembled projection onto their joint span."""

    k: int
    nodes: tuple[PacketNode, ...]
    projection: PsdOperator
    basis: np.ndarray  # stacked orthonormal rows of the chosen nodes


@dataclass(frozen=True)
class DenoiseConfig:
    patch_side: int
    depth: int
    top_k: int
    stride: int | None = None
    filter_name: str = "haar"
    mode: str = "trace"

    def effective_stride(self) -> int:
        return self.stride if self.stride is not None else max(1, self.patch_side // 2)

    def validate(self, width: int, height: int) -> None:
        m = self.patch_side
        if m < 1 or m > min(width, height):
            raise ConfigError(f"patch side {m} must be in [1, {min(width, height)}]")
        check_dyadic_depth(self.depth, m)
        stride = self.effective_stride()
        if not 1 <= stride <= m:
            raise ConfigError(f"stride {stride} must be in [1, patch side {m}]")
        if self.top_k < 1:
            raise ConfigError(f"top_k must be >= 1, got {self.top_k}")
        if self.mode not in ("trace", "hs"):
            raise ConfigError(f"mode must be trace or hs, got {self.mode!r}")
        named_filter(self.filter_name)


def _anchor_runs(extent: int, m: int, stride: int) -> list[range]:
    """Anchor offsets 0, stride, 2*stride, ... then the flush anchor extent - m, as runs."""
    run = range(0, extent - m + 1, stride)
    return [run] if run[-1] == extent - m else [run, range(extent - m, extent - m + 1)]


def _cut(runs: list[range], lo: int, hi: int) -> list[range]:
    """The anchors with index in [lo, hi) of the concatenated runs, as runs."""
    out = []
    for r in runs:
        part = r[max(lo, 0) : max(hi, 0)]
        if part:
            out.append(part)
        lo, hi = lo - len(r), hi - len(r)
    return out


def _placed(runs: list[range]) -> list[tuple[slice, range]]:
    """Each run with the slice of grid positions its anchors take, in order."""
    out, i = [], 0
    for r in runs:
        out.append((slice(i, i + len(r)), r))
        i += len(r)
    return out


def _shift(r: range, d: int) -> slice:
    """Basic slice of the pixels at offset d from the anchors of run r."""
    return slice(r.start + d, r.stop + d, r.step)


def _gather(windows: np.ndarray, rows: list[range], cols: list[range]) -> np.ndarray:
    """Flattened patches of a sliding-window view on the anchor grid of the runs, row-major."""
    m = windows.shape[-1]
    out = np.empty((sum(map(len, rows)), sum(map(len, cols)), m, m))
    for pi, r in _placed(rows):
        for pj, c in _placed(cols):
            out[pi, pj] = windows[_shift(r, 0), _shift(c, 0)]
    return out.reshape(-1, m * m)


def extract_patches(img: ImageBuffer, m: int, stride: int) -> PatchSet:
    """All m x m patches at stride offsets, plus flush-to-edge anchors.

    Anchors run 0, stride, 2*stride, ... with a final anchor at the image
    edge when the grid does not already reach it, so every pixel is covered
    whenever stride <= m.
    """
    if m < 1 or m > min(img.width, img.height):
        raise ConfigError(f"patch side {m} exceeds image extent {img.width}x{img.height}")
    if stride < 1:
        raise ConfigError(f"stride must be >= 1, got {stride}")
    rows, cols = _anchor_runs(img.height, m, stride), _anchor_runs(img.width, m, stride)
    patches = _gather(sliding_window_view(img.pixels, (m, m)), rows, cols)
    return PatchSet(m, stride, tuple(product(chain(*rows), chain(*cols))), patches)


def second_moment(patches: PatchSet) -> PsdOperator:
    """Empirical second-moment operator (1/M) sum of y_i y_i^T."""
    y = patches.patches
    if y.shape[0] < 1:
        raise ConfigError("empty patch set")
    return make_psd(SymMatrix((y.T @ y) / y.shape[0]))


def block_scores(patches: PatchSet, tree: PacketTree, n: int) -> BlockScores:
    """Average depth-n block energies s_w = tr(P_w R_hat), R_hat = Y^T Y / M.

    R_hat is used raw (no PSD clamp), so scoring runs no eigendecomposition.
    """
    _check_dims(patches.patch_side**2, tree)
    y = patches.patches
    rhat = (y.T @ y) / y.shape[0]
    return BlockScores(n, tuple(tree.nodes_at(n)), trace_scores(rhat, tree, n))


def _choose(tree: PacketTree, n: int, values, k: int):
    """Top-k depth-n nodes by value, ties in node order: (indices, nodes, their W_n rows)."""
    nodes = tree.nodes_at(n)
    idx = sorted(int(i) for i in np.argsort(-np.asarray(values), kind="stable")[:k])
    segments = tree.transform(n).reshape(len(nodes), -1, tree.ambient_dim)
    return idx, tuple(nodes[i] for i in idx), segments[idx].reshape(-1, tree.ambient_dim)


def select_top_k(scores: BlockScores, k: int, tree: PacketTree) -> Selection:
    """Top-K scoring nodes and the projection onto their combined span, without an eigensolver."""
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    idx, chosen, basis = _choose(tree, scores.depth, scores.values, k)
    return Selection(len(chosen), chosen, _rows_projection(tree, scores.depth, idx), basis)


def _psnr_mse(a: ImageBuffer, b: ImageBuffer) -> float:
    if (a.width, a.height) != (b.width, b.height):
        raise DimensionMismatchError(
            f"image sizes differ: {a.width}x{a.height} vs {b.width}x{b.height}"
        )
    diff = a.pixels - b.pixels
    return float(np.mean(diff * diff))


def psnr(a: ImageBuffer, b: ImageBuffer) -> float:
    """Peak signal-to-noise ratio in dB (peak 1.0), capped at 99 dB."""
    return _psnr_db(_psnr_mse(a, b))


def _psnr_db(mse: float) -> float:
    if mse == 0.0:
        return PSNR_CAP_DB
    return min(PSNR_CAP_DB, float(10.0 * np.log10(1.0 / mse)))


def add_gaussian_noise(img: ImageBuffer, sigma: float, seed: int) -> ImageBuffer:
    """Seeded i.i.d. Gaussian pixel noise; no clipping."""
    if not 0.0 <= sigma < np.inf:
        raise ConfigError(f"sigma must be finite and >= 0, got {sigma}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    return ImageBuffer(img.pixels + sigma * rng.standard_normal(img.pixels.shape))


def denoise_image(
    img: ImageBuffer, cfg: DenoiseConfig, clean: ImageBuffer | None = None
) -> tuple[ImageBuffer, dict]:
    """Project every patch onto the K highest-scoring packet blocks.

    Returns the overlap-averaged image and a report with the score table,
    chosen nodes, and the retained-energy fraction. In "hs" mode selection
    ranks blocks by the Hilbert-Schmidt norm of the second-moment content
    blocks instead of by s_w; the reported score table and energy fraction
    always refer to the trace scores s_w.

    Two passes over bands of BAND_ROWS anchor rows (patch memory O(band * m^2)):
    one sums Y_b^T Y_b into R_hat, one projects each band offset-major,
    B^T (Y_b B^T)^T, so each patch offset (di, dj) owns one contiguous slab,
    and adds every slab into the image through basic strided slices: per
    axis the anchors are one stride run plus at most one flush anchor, so a
    (band, offset) add is at most 2 x 2 slice adds. Offsets run from m - 1
    down to 0, so each pixel sums its patches in row-major anchor order.
    """
    cfg.validate(img.width, img.height)
    m, n = cfg.patch_side, cfg.depth
    stride = cfg.effective_stride()
    tree = build_filter_tree_2d(named_filter(cfg.filter_name), m, n)
    windows = sliding_window_view(img.pixels, (m, m))
    row_runs, col_runs = _anchor_runs(img.height, m, stride), _anchor_runs(img.width, m, stride)
    n_rows, n_cols = sum(map(len, row_runs)), sum(map(len, col_runs))
    bands = [_cut(row_runs, i, i + BAND_ROWS) for i in range(0, n_rows, BAND_ROWS)]
    gram = np.zeros((m * m, m * m))
    for rb in bands:
        y = _gather(windows, rb, col_runs)
        gram += y.T @ y
    rhat = gram / (n_rows * n_cols)
    scores = BlockScores(n, tuple(tree.nodes_at(n)), trace_scores(rhat, tree, n))
    if cfg.mode == "hs":
        sel_values = np.sqrt(hs_scores_squared(rhat, tree, n))
    else:
        sel_values = scores.values
    idx, chosen, basis = _choose(tree, n, sel_values, cfg.top_k)

    acc = np.zeros((img.height, img.width))
    for rb in bands:
        y = _gather(windows, rb, col_runs)
        # offset-major: q[di, dj] holds pixel (di, dj) of every patch of the band
        q = (basis.T @ (y @ basis.T).T).reshape(m, m, -1, n_cols)
        blocks = [(pi, pj, r, c) for pi, r in _placed(rb) for pj, c in _placed(col_runs)]
        # offsets descending, so each pixel adds its patches in row-major anchor order
        for di in range(m - 1, -1, -1):
            for dj in range(m - 1, -1, -1):
                for pi, pj, r, c in blocks:
                    acc[_shift(r, di), _shift(c, dj)] += q[di, dj, pi, pj]
    cnt = np.outer(*(np.bincount((np.hstack(runs)[:, None] + np.arange(m)).ravel())
                     for runs in (row_runs, col_runs)))
    out = ImageBuffer(acc / cnt)

    total = scores.total()
    retained = float(np.sum(scores.values[idx]))
    report = {
        "m": m,
        "n": cfg.depth,
        "K": len(chosen),
        "stride": stride,
        "filter": cfg.filter_name.lower(),
        "mode": cfg.mode,
        "N_n": len(scores.nodes),
        "patches": n_rows * n_cols,
        "scores": [{"word": nd.word, "s_w": float(v)} for nd, v in zip(scores.nodes, scores.values)],
        "chosen": [nd.word for nd in chosen],
        "retained_energy_fraction": retained / total if total > 0.0 else 1.0,
    }
    if cfg.mode == "hs":
        report["selection_scores"] = [
            {"word": nd.word, "hs": float(v)} for nd, v in zip(scores.nodes, sel_values)
        ]
    if clean is not None:
        mse_noisy = _psnr_mse(img, clean)
        mse_out = _psnr_mse(out, clean)
        report["psnr_noisy"] = _psnr_db(mse_noisy)
        report["psnr_denoised"] = _psnr_db(mse_out)
        report["psnr_noisy_capped"] = mse_noisy == 0.0
        report["psnr_denoised_capped"] = mse_out == 0.0
    return out, report
