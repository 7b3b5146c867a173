"""Packet-transform scoring against the per-node dense route of tests/helpers.

Scores come from segment operations on the per-depth transform W_n and
may differ from the per-node products only in the last bits, so every
comparison allows 1e-12 * (1 + ||A||).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wpcontent as w

from helpers import (
    dense_blocks,
    dense_coefficient_energies,
    dense_pinching,
    loop_anchors,
    loop_denoise,
    loop_extract_patches,
    random_gram,
    tiled_patches,
)


ORACLE_TREES = {
    "shannon": lambda: w.build_shannon_tree(4, 4),
    "haar-1d": lambda: w.build_filter_tree_1d(w.haar_filter(), 16, 4),
    "d4-1d": lambda: w.build_filter_tree_1d(w.d4_filter(), 16, 3),
    "haar-2d": lambda: w.build_filter_tree_2d(w.haar_filter(), 8, 2),
}


def close(got, want, a):
    tol = 1e-12 * (1.0 + np.linalg.norm(a))
    return np.max(np.abs(np.asarray(got) - np.asarray(want))) <= tol


@pytest.mark.parametrize("tree", [make() for make in ORACLE_TREES.values()], ids=list(ORACLE_TREES))
class TestPacketScoresMatchDenseRoute:
    def test_trace_and_hs_scores(self, rng, tree):
        a = random_gram(rng, tree.ambient_dim).matrix
        for n in range(tree.max_depth + 1):
            blocks = dense_blocks(a, tree, n)
            assert close(w.content.trace_scores(a, tree, n), [np.trace(b) for b in blocks], a)
            assert close(
                w.content.hs_scores_squared(a, tree, n), [np.sum(b * b) for b in blocks], a
            )

    def test_conditional_expectation(self, rng, tree):
        a = random_gram(rng, tree.ambient_dim).matrix
        for n in range(tree.max_depth + 1):
            got = w.conditional_expectation(a, tree, n).matrix
            assert close(got, dense_pinching(a, tree, n), a)

    def test_cylinder_weights(self, rng, tree):
        r = random_gram(rng, tree.ambient_dim)
        cw = w.cylinder_weights(r, tree)
        for n in range(tree.max_depth + 1):
            want = [max(np.trace(b), 0.0) for b in dense_blocks(r.matrix, tree, n)]
            assert close([cw.mass(nd) for nd in tree.nodes_at(n)], want, r.matrix)

    def test_discrete_density(self, rng, tree):
        r = random_gram(rng, tree.ambient_dim)
        x = rng.standard_normal(tree.ambient_dim)
        x /= np.linalg.norm(x)
        sx = r.sqrt_entries() @ x
        for n in range(tree.max_depth + 1):
            dens = w.discrete_density(r, tree, x, n)
            blocks = dense_blocks(r.matrix, tree, n)
            want = [
                float(np.sum((tree.basis(nd) @ sx) ** 2)) / np.trace(b)
                for nd, b in zip(tree.nodes_at(n), blocks)
            ]
            assert close([dens[nd] for nd in tree.nodes_at(n)], want, r.matrix)

    def test_block_scores(self, rng, tree):
        side = int(np.sqrt(tree.ambient_dim))
        y = rng.standard_normal((40, tree.ambient_dim))
        ps = tiled_patches(y, side)
        rhat = y.T @ y / 40
        for n in range(tree.max_depth + 1):
            got = w.block_scores(ps, tree, n).values
            assert close(got, dense_coefficient_energies(y, tree, n), rhat)


@pytest.mark.parametrize("tree", [make() for make in ORACLE_TREES.values()], ids=list(ORACLE_TREES))
def test_identity_transform_skip_is_exact(rng, tree):
    a = random_gram(rng, tree.ambient_dim).matrix
    for n in range(tree.max_depth + 1):
        wn = tree.transform(n)
        nn = len(tree.nodes_at(n))
        s = tree.ambient_dim // nn
        trace_by_product = np.sum((wn @ a) * wn, axis=1).reshape(nn, s).sum(axis=1)
        blocks = (wn @ a @ wn.T).reshape(nn, s, nn, s)[np.arange(nn), :, np.arange(nn), :]
        assert np.array_equal(w.content.trace_scores(a, tree, n), trace_by_product)
        assert np.array_equal(w.content.hs_scores_squared(a, tree, n), np.sum(blocks**2, axis=(1, 2)))
    shannon = tree.realization == "shannon"
    assert [tree.is_identity(n) for n in range(tree.max_depth + 1)] == [
        True
    ] + [shannon] * tree.max_depth


def test_shannon_bases_share_one_array():
    tree = w.build_shannon_tree(4, 4)
    root = tree.basis(tree.root)
    assert all(np.shares_memory(tree.basis(nd), root) for nd in tree.all_nodes())


# (height, width, patch side, depth, stride): non-square sides that are not
# multiples of the stride (flush-edge anchors), fewer anchor rows than one
# band, an exact multiple of the band, a partial last band, and a last band
# that is the flush row alone (16 stride rows, then the flush row).
DENOISE_CASES = [
    (37, 53, 4, 1, 1),
    (37, 53, 4, 1, 2),
    (37, 53, 4, 1, 3),
    (37, 53, 4, 1, 4),
    (35, 20, 4, 2, 1),
    (150, 23, 8, 2, 1),
    (150, 23, 8, 2, 2),
    (150, 23, 8, 2, 3),
    (150, 23, 8, 2, 8),
    (64, 64, 8, 2, 3),
    (35, 37, 4, 1, 2),
]


@pytest.mark.parametrize("mode", ["trace", "hs"])
@pytest.mark.parametrize("filt", ["haar", "d4"])
@pytest.mark.parametrize("h, wd, m, depth, stride", DENOISE_CASES)
def test_banded_denoiser_matches_per_patch_loop(rng, h, wd, m, depth, stride, filt, mode):
    img = w.ImageBuffer(rng.uniform(size=(h, wd)))
    cfg = w.DenoiseConfig(m, depth, 3, stride, filt, mode)
    out, report = w.denoise_image(img, cfg)
    got = out.pixels
    # Same BLAS products as the bands: every pixel must agree bit for bit.
    want, chosen, _ = loop_denoise(img, cfg, band_rows=w.denoise.BAND_ROWS)
    assert np.array_equal(got, want)
    assert report["chosen"] == chosen
    # One product over all patches: BLAS may pick another kernel for a
    # different row count, so only the last bits may differ.
    want, chosen, scores = loop_denoise(img, cfg)
    assert np.max(np.abs(got - want)) <= 1e-14 * (1.0 + np.max(np.abs(want)))
    assert report["chosen"] == chosen
    s_w = np.array([row["s_w"] for row in report["scores"]])
    assert np.max(np.abs(s_w - scores)) <= 1e-12 * (1.0 + np.sum(s_w))
    assert report["patches"] == len(loop_extract_patches(img, m, stride).positions)


@pytest.mark.parametrize("h, wd, m, depth, stride", DENOISE_CASES)
def test_extract_patches_matches_per_patch_loop(rng, h, wd, m, depth, stride):
    img = w.ImageBuffer(rng.uniform(size=(h, wd)))
    got = w.extract_patches(img, m, stride)
    want = loop_extract_patches(img, m, stride)
    assert got.positions == want.positions
    assert np.array_equal(got.patches, want.patches)


@st.composite
def anchor_grids(draw):
    extent = draw(st.integers(1, 300))
    m = draw(st.integers(1, extent))
    return extent, m, draw(st.integers(1, m)), draw(st.integers(1, 20))


@settings(max_examples=300, deadline=None)
@given(anchor_grids())
def test_anchor_runs_reproduce_anchors(grid):
    extent, m, stride, band = grid
    anchors = np.array(loop_anchors(extent, m, stride))
    runs = w.denoise._anchor_runs(extent, m, stride)
    offsets = np.arange(extent)

    def run_anchors(rs):
        return [int(a) for r in rs for a in offsets[w.denoise._shift(r, 0)]]

    assert run_anchors(runs) == anchors.tolist()
    cuts = [w.denoise._cut(runs, i, i + band) for i in range(0, len(anchors), band)]
    assert [run_anchors(c) for c in cuts] == [
        anchors[i : i + band].tolist() for i in range(0, len(anchors), band)
    ]
    assert np.array_equal(anchors, np.unique(np.append(np.arange(0, extent - m + 1, stride), extent - m)))
