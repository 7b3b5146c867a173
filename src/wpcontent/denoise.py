"""Patch-based denoising by packet-block selection.

Pipeline: extract overlapping patches from the noisy image, score the
depth-n packet blocks by average patch energy s_w = (1/M) sum ||P_w y_i||^2
(equivalently tr(P_w R_hat) for the empirical second-moment operator
R_hat), keep the K highest-scoring blocks, project every patch onto
their span, and rebuild the image by overlap-averaging. Keeping blocks
instead of thresholding coefficients means both the retained part of
R_hat and the discarded part stay PSD. An image is a read-only 2-D float64
array, checked by `pgm._raster` where it enters; a `DenoiseConfig` is checked
when it is made, and a `PatchSet` checks the patch side against its image.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .content import _check_dims, hs_scores_squared, trace_scores
from .errors import ConfigError
from .pgm import _raster
from .psdcore import PsdOperator, check_square_sum
from .tree import PacketTree, build_filter_tree_2d, check_dyadic_depth, filter_taps

PSNR_CAP_DB = 99.0
BAND_ROWS = 16  # anchor rows per band of denoise_image


@dataclass(frozen=True)
class DenoiseConfig:
    patch_side: int
    depth: int
    top_k: int
    stride: int | None = None
    filter_name: str = "haar"
    mode: str = "trace"

    def __post_init__(self):
        m = self.patch_side
        check_dyadic_depth(self.depth, m)
        if self.stride is None:  # half-overlapping patches
            object.__setattr__(self, "stride", max(1, m // 2))
        if not 1 <= self.stride <= m:
            raise ConfigError(f"stride {self.stride} must be in [1, patch side {m}]")
        if self.top_k < 1:
            raise ConfigError(f"top_k must be >= 1, got {self.top_k}")
        if self.top_k > 4**self.depth:
            raise ConfigError(f"top_k must be <= {4**self.depth}, the blocks at depth "
                              f"{self.depth}, got {self.top_k}")
        if self.mode not in ("trace", "hs"):
            raise ConfigError(f"mode must be trace or hs, got {self.mode!r}")
        filter_taps(self.filter_name)


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

    They cover the image if stride <= m. `bands`, the one way they are gathered, yields
    them BAND_ROWS anchor rows at a time; `rhat` = (sum of the bands' Y_b^T Y_b) / M is
    cached, and its sum of squares must neither overflow nor underflow, as a matrix input's.
    """

    image: np.ndarray
    patch_side: int
    stride: int

    def __post_init__(self):
        object.__setattr__(self, "image", _raster(self.image))
        m, side = self.patch_side, min(self.image.shape)
        if m < 1 or m > side:
            raise ConfigError(f"patch side {m} must be in [1, {side}]")
        if self.stride < 1:
            raise ConfigError(f"stride must be >= 1, got {self.stride}")

    @cached_property
    def runs(self) -> tuple[list[range], list[range]]:
        """Anchor runs of the rows and of the columns."""
        return tuple(_anchor_runs(e, self.patch_side, self.stride)
                     for e in self.image.shape)

    def __len__(self) -> int:
        return math.prod(sum(map(len, r)) for r in self.runs)

    def bands(self):
        """(row runs, patches) of each band of BAND_ROWS anchor rows, in order."""
        rows, cols = self.runs
        windows = sliding_window_view(self.image, (self.patch_side,) * 2)
        for i in range(0, sum(map(len, rows)), BAND_ROWS):
            band = _cut(rows, i, i + BAND_ROWS)
            yield band, _gather(windows, band, cols)

    @cached_property
    def rhat(self) -> np.ndarray:
        gram = np.zeros((self.patch_side**2,) * 2)
        with np.errstate(over="ignore", invalid="ignore"):
            for _, y in self.bands():
                gram += y.T @ y
            gram /= len(self)
        check_square_sum(gram, "patch second moment")
        return gram


def second_moment(patches: PatchSet) -> PsdOperator:
    """Empirical second-moment operator (1/M) sum of y_i y_i^T."""
    return PsdOperator(patches.rhat)


def block_scores(patches: PatchSet, tree: PacketTree, n: int) -> np.ndarray:
    """Average depth-n block energies s_w = tr(P_w R_hat), in `tree.nodes_at(n)` order.

    R_hat is used raw (no PSD clamp), so scoring runs no eigendecomposition.
    """
    _check_dims(patches.patch_side**2, tree)
    return trace_scores(patches.rhat, tree, n)


def select_top_k(scores: np.ndarray, k: int) -> list[int]:
    """Indices of the K highest scores in ascending order; ties go to the lower index."""
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    return sorted(int(i) for i in np.argsort(-np.asarray(scores), kind="stable")[:k])


def _psnr_mse(a: np.ndarray, b: np.ndarray) -> float:
    if a.shape != b.shape:
        (ha, wa), (hb, wb) = a.shape, b.shape
        raise ConfigError(f"image sizes differ: {wa}x{ha} vs {wb}x{hb}")
    diff = a - b
    return float(np.mean(diff * diff))


def _psnr_db(mse: float) -> float:
    """Peak signal-to-noise ratio in dB (peak 1.0) of a mean squared error, capped at 99 dB."""
    if mse == 0.0:
        return PSNR_CAP_DB
    return min(PSNR_CAP_DB, float(10.0 * np.log10(1.0 / mse)))


def add_gaussian_noise(img: np.ndarray, sigma: float, seed: int) -> np.ndarray:
    """Seeded i.i.d. Gaussian pixel noise; no clipping."""
    if not 0.0 <= sigma < np.inf:
        raise ConfigError(f"sigma must be finite and >= 0, got {sigma}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    with np.errstate(over="ignore"):  # an overflow is _raster's non-finite pixel
        return _raster(img + sigma * rng.standard_normal(np.shape(img)))


def denoise_image(
    img: np.ndarray, cfg: DenoiseConfig, clean: np.ndarray | None = None
) -> tuple[np.ndarray, dict]:
    """Project every patch onto the K highest-scoring packet blocks.

    Runs PatchSet -> block_scores -> select_top_k and returns the
    overlap-averaged image and a report with the score table, chosen nodes
    and retained-energy fraction, all by the trace scores s_w; "hs" mode
    ranks blocks by the HS norms of the content blocks of the same R_hat.
    Each band is projected offset-major, B^T (Y_b B^T)^T, so each patch
    offset (di, dj) owns one contiguous slab, added into the image through
    basic strided slices (per axis one stride run plus at most one flush
    anchor: at most 2 x 2 slice adds). Offsets run from m - 1 down to 0, so
    each pixel sums its patches in row-major anchor order. A ``clean``
    image of another size is refused before any patch is read.
    """
    img, clean = _raster(img), None if clean is None else _raster(clean)
    mse_noisy = None if clean is None else _psnr_mse(img, clean)
    m, n = cfg.patch_side, cfg.depth
    patches = PatchSet(img, m, cfg.stride)
    tree = build_filter_tree_2d(cfg.filter_name, m, n)
    scores = block_scores(patches, tree, n)
    rank = scores if cfg.mode == "trace" else np.sqrt(hs_scores_squared(patches.rhat, tree, n))
    nodes = tree.nodes_at(n)
    chosen = select_top_k(rank, cfg.top_k)
    basis = np.vstack([tree.basis(nodes[i]) for i in chosen])  # orthonormal rows of their span

    col_runs = patches.runs[1]
    n_cols = sum(map(len, col_runs))
    acc = np.zeros(img.shape)
    for rb, y in patches.bands():
        # offset-major: q[di, dj] holds pixel (di, dj) of every patch of the band
        q = (basis.T @ (y @ basis.T).T).reshape(m, m, -1, n_cols)
        blocks = [(pi, pj, r, c) for pi, r in _placed(rb) for pj, c in _placed(col_runs)]
        # offsets descending, so each pixel adds its patches in row-major anchor order
        for di in range(m - 1, -1, -1):
            for dj in range(m - 1, -1, -1):
                for pi, pj, r, c in blocks:
                    acc[_shift(r, di), _shift(c, dj)] += q[di, dj, pi, pj]
    cnt = np.outer(*(np.bincount((np.hstack(runs)[:, None] + np.arange(m)).ravel())
                     for runs in patches.runs))
    out = _raster(acc / cnt)

    total = float(np.sum(scores))
    retained = float(np.sum(scores[chosen]))
    report = {
        "m": m,
        "n": cfg.depth,
        "K": len(chosen),
        "stride": patches.stride,
        "filter": cfg.filter_name.lower(),
        "mode": cfg.mode,
        "N_n": len(nodes),
        "patches": len(patches),
        "scores": [{"word": nd, "s_w": float(v)} for nd, v in zip(nodes, scores)],
        "chosen": [nodes[i] for i in chosen],
        "retained_energy_fraction": retained / total if total > 0.0 else 1.0,
    }
    if cfg.mode == "hs":
        report["selection_scores"] = [{"word": nd, "hs": float(v)}
                                      for nd, v in zip(nodes, rank)]
    if clean is not None:
        psnr = {"psnr_noisy": _psnr_db(mse_noisy), "psnr_denoised": _psnr_db(_psnr_mse(out, clean))}
        report.update(psnr)
        # a flag is true exactly when its value is the cap, whatever the MSE
        report.update({f"{key}_capped": db == PSNR_CAP_DB for key, db in psnr.items()})
    return out, report
