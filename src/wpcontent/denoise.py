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

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, product

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .content import _check_dims, hs_scores_squared, trace_scores
from .errors import ConfigError, DimensionMismatchError, MalformedInputError
from .psdcore import PsdOperator, make_psd
from .tree import (
    PacketNode, PacketTree, build_filter_tree_2d, check_dyadic_depth, named_filter,
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
    """Top-K nodes and their stacked W_n rows, an orthonormal basis of their joint span."""

    nodes: tuple[PacketNode, ...]
    basis: np.ndarray


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

    def validate(self) -> None:
        """Configuration rules; `PatchSet` checks the patch side against the image."""
        m = self.patch_side
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


@dataclass(frozen=True)
class PatchSet:
    """The m x m patches of an image at the anchors of `_anchor_runs`, row-major by anchor.

    `bands` yields them BAND_ROWS anchor rows at a time and `patches`, all (M, m^2) of
    them, is built only on request; `rhat` = (sum of the bands' Y_b^T Y_b) / M is cached.
    """

    image: ImageBuffer
    patch_side: int
    stride: int

    def __post_init__(self):
        m, img = self.patch_side, self.image
        if m < 1 or m > min(img.width, img.height):
            raise ConfigError(f"patch side {m} must be in [1, {min(img.width, img.height)}]")
        if self.stride < 1:
            raise ConfigError(f"stride must be >= 1, got {self.stride}")

    @cached_property
    def runs(self) -> tuple[list[range], list[range]]:
        """Anchor runs of the rows and of the columns."""
        return tuple(_anchor_runs(e, self.patch_side, self.stride)
                     for e in (self.image.height, self.image.width))

    @property
    def positions(self) -> tuple[tuple[int, int], ...]:
        return tuple(product(*(chain(*r) for r in self.runs)))

    def __len__(self) -> int:
        return math.prod(sum(map(len, r)) for r in self.runs)

    def bands(self):
        """(row runs, patches) of each band of BAND_ROWS anchor rows, in order."""
        rows, cols = self.runs
        windows = sliding_window_view(self.image.pixels, (self.patch_side,) * 2)
        for i in range(0, sum(map(len, rows)), BAND_ROWS):
            band = _cut(rows, i, i + BAND_ROWS)
            yield band, _gather(windows, band, cols)

    @cached_property
    def patches(self) -> np.ndarray:
        """All patches, (M, patch_side**2), row-major flattening."""
        windows = sliding_window_view(self.image.pixels, (self.patch_side,) * 2)
        return _gather(windows, *self.runs)

    @cached_property
    def rhat(self) -> np.ndarray:
        gram = np.zeros((self.patch_side**2,) * 2)
        for _, y in self.bands():
            gram += y.T @ y
        return gram / len(self)


def extract_patches(img: ImageBuffer, m: int, stride: int) -> PatchSet:
    """Patches at anchors 0, stride, ... plus a flush-to-edge one: full cover if stride <= m."""
    return PatchSet(img, m, stride)


def second_moment(patches: PatchSet) -> PsdOperator:
    """Empirical second-moment operator (1/M) sum of y_i y_i^T."""
    return make_psd(patches.rhat)


def block_scores(patches: PatchSet, tree: PacketTree, n: int) -> BlockScores:
    """Average depth-n block energies s_w = tr(P_w R_hat).

    R_hat is used raw (no PSD clamp), so scoring runs no eigendecomposition.
    """
    _check_dims(patches.patch_side**2, tree)
    return BlockScores(n, tuple(tree.nodes_at(n)), trace_scores(patches.rhat, tree, n))


def select_top_k(scores: BlockScores, k: int, tree: PacketTree) -> Selection:
    """Top-K scoring nodes (ties in node order) and their W_n rows."""
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    idx = sorted(int(i) for i in np.argsort(-np.asarray(scores.values), kind="stable")[:k])
    nodes = tuple(scores.nodes[i] for i in idx)
    return Selection(nodes, np.vstack([tree.basis(nd) for nd in nodes]))


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

    Runs extract_patches -> block_scores -> select_top_k and returns the
    overlap-averaged image and a report with the score table, chosen nodes
    and retained-energy fraction, all by the trace scores s_w; "hs" mode
    ranks blocks by the HS norms of the content blocks of the same R_hat.
    Each band is projected offset-major, B^T (Y_b B^T)^T, so each patch
    offset (di, dj) owns one contiguous slab, added into the image through
    basic strided slices (per axis one stride run plus at most one flush
    anchor: at most 2 x 2 slice adds). Offsets run from m - 1 down to 0, so
    each pixel sums its patches in row-major anchor order.
    """
    m, n = cfg.patch_side, cfg.depth
    patches = extract_patches(img, m, cfg.effective_stride())
    cfg.validate()
    tree = build_filter_tree_2d(named_filter(cfg.filter_name), m, n)
    scores = block_scores(patches, tree, n)
    rank = scores if cfg.mode == "trace" else BlockScores(
        n, scores.nodes, np.sqrt(hs_scores_squared(patches.rhat, tree, n)))
    sel = select_top_k(rank, cfg.top_k, tree)

    col_runs = patches.runs[1]
    n_cols = sum(map(len, col_runs))
    acc = np.zeros((img.height, img.width))
    for rb, y in patches.bands():
        # offset-major: q[di, dj] holds pixel (di, dj) of every patch of the band
        q = (sel.basis.T @ (y @ sel.basis.T).T).reshape(m, m, -1, n_cols)
        blocks = [(pi, pj, r, c) for pi, r in _placed(rb) for pj, c in _placed(col_runs)]
        # offsets descending, so each pixel adds its patches in row-major anchor order
        for di in range(m - 1, -1, -1):
            for dj in range(m - 1, -1, -1):
                for pi, pj, r, c in blocks:
                    acc[_shift(r, di), _shift(c, dj)] += q[di, dj, pi, pj]
    cnt = np.outer(*(np.bincount((np.hstack(runs)[:, None] + np.arange(m)).ravel())
                     for runs in patches.runs))
    out = ImageBuffer(acc / cnt)

    total = scores.total()
    retained = float(np.sum(scores.values[[nd in sel.nodes for nd in scores.nodes]]))
    report = {
        "m": m,
        "n": cfg.depth,
        "K": len(sel.nodes),
        "stride": patches.stride,
        "filter": cfg.filter_name.lower(),
        "mode": cfg.mode,
        "N_n": len(scores.nodes),
        "patches": len(patches),
        "scores": [{"word": nd.word, "s_w": float(v)} for nd, v in zip(scores.nodes, scores.values)],
        "chosen": [nd.word for nd in sel.nodes],
        "retained_energy_fraction": retained / total if total > 0.0 else 1.0,
    }
    if cfg.mode == "hs":
        report["selection_scores"] = [
            {"word": nd.word, "hs": float(v)} for nd, v in zip(rank.nodes, rank.values)
        ]
    if clean is not None:
        mse_noisy = _psnr_mse(img, clean)
        mse_out = _psnr_mse(out, clean)
        report["psnr_noisy"] = _psnr_db(mse_noisy)
        report["psnr_denoised"] = _psnr_db(mse_out)
        report["psnr_noisy_capped"] = mse_noisy == 0.0
        report["psnr_denoised_capped"] = mse_out == 0.0
    return out, report
