import ast
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

import wpcontent as w
from wpcontent.denoise import _psnr_db, _psnr_mse

from helpers import (
    dense_blocks, loewner_leq, loop_extract_patches, piecewise_smooth_image, positions,
    tiled_patches,
)


class TestExtractPatches:
    def test_single_patch(self):
        img = np.zeros((8, 8))
        ps = w.PatchSet(img, 8, 8)
        assert positions(ps) == ((0, 0),)

    def test_exact_tiling(self):
        img = np.zeros((16, 16))
        ps = w.PatchSet(img, 8, 8)
        assert positions(ps) == ((0, 0), (0, 8), (8, 0), (8, 8))

    def test_flush_to_edge_anchor(self):
        img = np.zeros((12, 12))
        ps = w.PatchSet(img, 8, 8)
        assert positions(ps) == ((0, 0), (0, 4), (4, 0), (4, 4))

    def test_patch_values_row_major(self):
        img = np.arange(16.0).reshape(4, 4) / 16.0
        ps = w.PatchSet(img, 2, 2)
        first = np.vstack([y for _, y in ps.bands()])[0]
        assert np.allclose(first, [0.0, 1 / 16, 4 / 16, 5 / 16])

    def test_patch_larger_than_image(self):
        with pytest.raises(w.ConfigError):
            w.PatchSet(np.zeros((4, 4)), 8, 1)

    @pytest.mark.parametrize("stride", [0, -1])
    def test_stride_below_one_rejected(self, stride):
        with pytest.raises(w.ConfigError, match=f"stride must be >= 1, got {stride}"):
            w.PatchSet(np.zeros((8, 8)), 4, stride)

    @pytest.mark.parametrize("pixels, message", [
        (np.zeros(16), r"image must be a 2D raster, got shape \(16,\)"),
        (np.zeros((0, 4)), r"image must be a 2D raster, got shape \(0, 4\)"),
        (np.zeros((2, 4, 4)), r"image must be a 2D raster, got shape \(2, 4, 4\)"),
        (np.full((4, 4), np.nan), "image pixels must be finite"),
    ], ids=["1d", "empty", "3d", "nan"])
    def test_every_entry_holds_an_image_to_the_raster_rules(self, pixels, message, tmp_path):
        cfg = w.DenoiseConfig(patch_side=2, depth=1, top_k=1)
        path = tmp_path / "out.pgm"
        entries = [lambda: w.PatchSet(pixels, 2, 1),
                   lambda: w.add_gaussian_noise(pixels, 0.0, 0),
                   lambda: w.denoise_image(pixels, cfg),
                   lambda: w.denoise_image(np.zeros((4, 4)), cfg, clean=pixels),
                   lambda: w.quantize(pixels),
                   lambda: w.write_pgm(path, pixels)]
        for entry in entries:
            with pytest.raises(w.MalformedInputError, match=message):
                entry()
        assert not path.exists()

    def test_an_image_is_read_only(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n8 4\n255\n" + bytes(range(32)))
        img = w.read_pgm(path)
        assert img.dtype == np.float64 and img.shape == (4, 8)
        ps = w.PatchSet(np.zeros((8, 8)), 4, 4)
        out, _ = w.denoise_image(img, w.DenoiseConfig(patch_side=4, depth=1, top_k=1))
        noisy = w.add_gaussian_noise(img, 0.1, 0)
        assert not any(a.flags.writeable for a in (img, ps.image, out, noisy))

    def test_full_coverage_when_stride_at_most_side(self):
        img = np.zeros((21, 13))
        ps = w.PatchSet(img, 4, 3)
        cover = np.zeros((21, 13))
        for r, c in positions(ps):
            cover[r : r + 4, c : c + 4] += 1
        assert np.all(cover >= 1)


class TestSecondMoment:
    def test_single_unit_patch(self):
        ps = tiled_patches(np.array([[1.0, 0.0, 0.0, 0.0]]), 2)
        op = w.second_moment(ps)
        expect = np.zeros((4, 4))
        expect[0, 0] = 1.0
        assert np.array_equal(op.matrix, expect)

    def test_sign_cancellation(self, rng):
        v = rng.standard_normal(4)
        ps = tiled_patches(np.vstack([v, -v]), 2)
        op = w.second_moment(ps)
        assert np.max(np.abs(op.matrix - np.outer(v, v))) <= 1e-12

    def test_positive_and_trace_identity(self, rng):
        y = rng.standard_normal((20, 16))
        ps = tiled_patches(y, 4)
        op = w.second_moment(ps)
        assert loewner_leq(np.zeros((16, 16)), op)
        mean_energy = float(np.mean(np.sum(y * y, axis=1)))
        assert w.trace(op) == pytest.approx(mean_energy, rel=1e-10)


    @pytest.mark.parametrize("pixel, word", [(1e160, "overflows"), (1e-100, "underflows")])
    def test_square_sum_rule(self, pixel, word):
        # R_hat's entries are pixel^2; the sum of their squares leaves the normal range
        ps = w.PatchSet(np.full((8, 8), pixel), 4, 4)
        message = f"patch second moment: the sum of squares {word}"
        with pytest.raises(w.MalformedInputError, match=message):
            w.second_moment(ps)


def chosen_rows(tree, n, sel):
    """The stacked W_n rows of the chosen depth-n nodes."""
    return np.vstack([tree.basis(tree.nodes_at(n)[i]) for i in sel])


class TestBlockScores:
    def test_constant_patch_all_lowpass(self):
        tree = w.build_filter_tree_2d("haar", 4, 1)
        patch = np.full(16, 0.5)
        ps = tiled_patches(patch[None, :], 4)
        scores = w.block_scores(ps, tree, 1)
        table = dict(zip(tree.nodes_at(1), scores.tolist(), strict=True))
        assert table["0,0"] == pytest.approx(float(patch @ patch), rel=1e-12)
        for word in ("0,1", "1,0", "1,1"):
            assert table[word] <= 1e-12

    def test_energy_partition(self, rng):
        tree = w.build_filter_tree_2d("d4", 4, 1)
        y = rng.standard_normal((30, 16))
        ps = tiled_patches(y, 4)
        scores = w.block_scores(ps, tree, 1)
        mean_energy = float(np.mean(np.sum(y * y, axis=1)))
        assert float(np.sum(scores)) == pytest.approx(mean_energy, rel=1e-9)

    def test_cross_check_against_second_moment(self, rng):
        tree = w.build_filter_tree_2d("haar", 4, 2)
        y = rng.standard_normal((25, 16))
        ps = tiled_patches(y, 4)
        scores = w.block_scores(ps, tree, 2)
        rhat = w.second_moment(ps)
        for nd, val in zip(tree.nodes_at(2), scores, strict=True):
            b = tree.basis(nd)
            assert val == pytest.approx(float(np.sum((b @ rhat.matrix) * b)), rel=1e-8)

    def test_white_noise_scores_scale_with_subspace_dim(self, rng):
        tree = w.build_filter_tree_2d("haar", 4, 1)
        m = 800
        y = rng.standard_normal((m, 16))
        ps = tiled_patches(y, 4)
        scores = w.block_scores(ps, tree, 1)
        for nd, val in zip(tree.nodes_at(1), scores, strict=True):
            d = tree.subspace_dim(nd)
            assert abs(val - d) <= 3.0 * np.sqrt(2.0 * d / m)

    def test_zero_image(self):
        tree = w.build_filter_tree_2d("haar", 4, 1)
        ps = w.PatchSet(np.zeros((8, 8)), 4, 4)
        assert float(np.sum(w.block_scores(ps, tree, 1))) == 0.0


class TestSelection:
    def test_all_nodes_gives_identity(self, rng):
        tree = w.build_filter_tree_2d("haar", 4, 1)
        y = rng.standard_normal((10, 16))
        ps = tiled_patches(y, 4)
        scores = w.block_scores(ps, tree, 1)
        sel = w.select_top_k(scores, 99)  # oversized K truncates
        assert len(sel) == 4
        basis = chosen_rows(tree, 1, sel)
        assert np.max(np.abs(basis.T @ basis - np.eye(16))) <= 1e-10

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected(self, k):
        with pytest.raises(w.ConfigError, match=f"k must be >= 1, got {k}"):
            w.select_top_k(np.arange(4.0), k)

    def test_unique_max(self):
        tree = w.build_filter_tree_2d("haar", 4, 1)
        ps = tiled_patches(np.full((1, 16), 0.25), 4)
        sel = w.select_top_k(w.block_scores(ps, tree, 1), 1)
        assert [tree.nodes_at(1)[i] for i in sel] == ["0,0"]

    def test_tie_break_lexicographic(self):
        tree = w.build_filter_tree_2d("haar", 4, 1)
        sel = w.select_top_k(np.ones(4), 2)
        assert [tree.nodes_at(1)[i] for i in sel] == ["0,0", "0,1"]

    def test_projection_invariants(self, rng):
        tree = w.build_filter_tree_2d("haar", 4, 2)
        y = rng.standard_normal((12, 16))
        ps = tiled_patches(y, 4)
        sel = w.select_top_k(w.block_scores(ps, tree, 2), 5)
        basis = chosen_rows(tree, 2, sel)
        p = basis.T @ basis
        assert np.max(np.abs(p @ p - p)) <= 1e-9
        dims = sum(tree.subspace_dim(tree.nodes_at(2)[i]) for i in sel)
        assert abs(np.trace(p) - dims) <= 1e-9
        for row in y:
            assert np.linalg.norm(p @ row) <= np.linalg.norm(row) + 1e-12

    @pytest.mark.parametrize("filt, k", [("haar", 1), ("d4", 5), ("d4", 16)])
    def test_projection_spectrum_without_eigensolver(self, rng, monkeypatch, filt, k):
        tree = w.build_filter_tree_2d(filt, 8, 2)
        scores = rng.uniform(size=16)

        def no_eigh(*_):
            raise AssertionError("a projection ran an eigensolver")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        nodes = [tree.nodes_at(2)[i] for i in w.select_top_k(scores, k)]
        basis = np.vstack([tree.basis(nd) for nd in nodes])
        singles = [(w.projection(tree, nd), tree.basis(nd)) for nd in nodes]
        monkeypatch.undo()
        total = basis.shape[0]
        assert total == sum(tree.subspace_dim(nd) for nd in nodes)
        assert np.array_equal(basis, np.vstack([rows for _, rows in singles]))
        assert np.max(np.abs(basis @ basis.T - np.eye(total))) <= 1e-12
        lam, _ = w.sym_eigen(basis.T @ basis)
        assert np.max(np.abs(lam - np.repeat([1.0, 0.0], [total, 64 - total]))) <= 1e-12


class TestPsnrAndNoise:
    def test_psnr_examples(self):
        a = np.zeros((4, 4))
        b = np.ones((4, 4))
        assert _psnr_db(_psnr_mse(a, b)) == pytest.approx(0.0, abs=1e-12)
        c = np.full((4, 4), 0.1)
        assert _psnr_db(_psnr_mse(a, c)) == pytest.approx(20.0, rel=1e-12)  # MSE = 0.01

    def test_psnr_cap(self):
        img = piecewise_smooth_image(16)
        assert _psnr_db(_psnr_mse(img, img)) == 99.0

    @pytest.mark.parametrize("mse", [1e-10, 1e-12, 1e-300])
    def test_a_nonzero_mse_above_99_db_is_capped(self, mse):
        assert _psnr_db(mse) == w.denoise.PSNR_CAP_DB == 99.0

    def test_noise_zero_sigma(self):
        img = piecewise_smooth_image(16)
        out = w.add_gaussian_noise(img, 0.0, 7)
        assert np.array_equal(out, img)

    def test_noise_deterministic(self):
        img = piecewise_smooth_image(16)
        a = w.add_gaussian_noise(img, 0.2, 11)
        b = w.add_gaussian_noise(img, 0.2, 11)
        assert np.array_equal(a, b)

    def test_noise_standard_deviation(self):
        img = np.full((64, 64), 0.5)
        out = w.add_gaussian_noise(img, 0.1, 3)
        assert abs(np.std(out - img) - 0.1) <= 0.005

    def test_negative_sigma_rejected(self):
        with pytest.raises(w.ConfigError):
            w.add_gaussian_noise(piecewise_smooth_image(8), -0.1, 0)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
    def test_non_finite_sigma_rejected(self, sigma):
        with pytest.raises(w.ConfigError, match="finite"):
            w.add_gaussian_noise(piecewise_smooth_image(8), sigma, 0)


class TestDenoisePipeline:
    def test_full_selection_is_identity(self):
        img = piecewise_smooth_image(32)
        noisy = w.add_gaussian_noise(img, 0.1, 5)
        cfg = w.DenoiseConfig(patch_side=8, depth=2, top_k=16, stride=4)
        out, report = w.denoise_image(noisy, cfg)
        assert np.max(np.abs(out - noisy)) <= 1e-12
        assert report["retained_energy_fraction"] == pytest.approx(1.0, abs=1e-12)

    def test_zero_image_maps_to_zero(self):
        z = np.zeros((16, 16))
        out, _ = w.denoise_image(z, w.DenoiseConfig(patch_side=4, depth=1, top_k=2))
        assert np.array_equal(out, np.zeros((16, 16)))

    @pytest.mark.parametrize("mode", ["trace", "hs"])
    def test_an_all_black_image_retains_all_of_its_zero_energy(self, mode):
        z = np.zeros((16, 16))
        _, report = w.denoise_image(z, w.DenoiseConfig(patch_side=4, depth=1, top_k=2, mode=mode))
        assert report["retained_energy_fraction"] == 1.0

    def test_capped_flags_are_true_exactly_at_the_cap(self):
        # noise of 1e-7 leaves an MSE near 1e-14, nonzero but above 99 dB; a full selection
        # reproduces the noisy image to rounding, so both values sit at the cap
        clean = piecewise_smooth_image(32)
        cfg = w.DenoiseConfig(patch_side=8, depth=2, top_k=16, stride=4)
        for sigma, capped in ((1e-7, True), (0.1, False)):
            noisy = w.add_gaussian_noise(clean, sigma, 5)
            _, report = w.denoise_image(noisy, cfg, clean=clean)
            assert _psnr_mse(noisy, clean) > 0.0
            for key in ("psnr_noisy", "psnr_denoised"):
                assert (report[key] == 99.0) is capped, (sigma, key)
                assert report[f"{key}_capped"] is capped, (sigma, key)

    def test_hs_selection_scores_are_the_block_hs_norms(self):
        # ||B R_hat B^T||_F per node, from R_hat = Y^T Y / M of the per-patch route
        noisy = w.add_gaussian_noise(piecewise_smooth_image(32), 0.1, 9)
        cfg = w.DenoiseConfig(patch_side=8, depth=2, top_k=4, mode="hs")
        _, report = w.denoise_image(noisy, cfg)
        y = loop_extract_patches(noisy, 8, cfg.stride).patches
        rhat = y.T @ y / len(y)
        tree = w.build_filter_tree_2d("haar", 8, 2)
        want = [float(np.linalg.norm(b)) for b in dense_blocks(rhat, tree, 2)]
        rows = report["selection_scores"]
        assert [row["word"] for row in rows] == tree.nodes_at(2)
        got = np.array([row["hs"] for row in rows])
        assert np.max(np.abs(got - want)) <= 1e-12 * (1 + np.linalg.norm(rhat))

    def test_noise_reduction_on_smooth_image(self):
        clean = piecewise_smooth_image(64)
        noisy = w.add_gaussian_noise(clean, 0.1, 42)
        cfg = w.DenoiseConfig(patch_side=8, depth=2, top_k=4, stride=4)
        out, report = w.denoise_image(noisy, cfg, clean=clean)
        assert report["psnr_denoised"] > report["psnr_noisy"]
        assert report["chosen"][0] == "00,00"

    def test_hs_mode_runs_and_reports(self, monkeypatch):
        clean = piecewise_smooth_image(32)
        noisy = w.add_gaussian_noise(clean, 0.1, 9)
        cfg = w.DenoiseConfig(patch_side=8, depth=1, top_k=2, mode="hs")

        def no_eigh(*_):
            raise AssertionError("the denoiser ran an eigensolver")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        out, report = w.denoise_image(noisy, cfg, clean=clean)
        assert report["mode"] == "hs"
        assert "selection_scores" in report
        assert len(report["chosen"]) == 2

    def test_config_violations(self):
        img = piecewise_smooth_image(16)
        with pytest.raises(w.ConfigError):
            w.denoise_image(img, w.DenoiseConfig(patch_side=8, depth=4, top_k=2))
        with pytest.raises(w.ConfigError):
            w.denoise_image(img, w.DenoiseConfig(patch_side=8, depth=2, top_k=0))
        with pytest.raises(w.ConfigError):
            w.denoise_image(img, w.DenoiseConfig(patch_side=8, depth=2, top_k=2, stride=9))
        with pytest.raises(w.ConfigError):
            w.denoise_image(img, w.DenoiseConfig(patch_side=32, depth=2, top_k=2))
        with pytest.raises(w.ConfigError):
            w.denoise_image(img, w.DenoiseConfig(patch_side=8, depth=2, top_k=2, mode="l1"))

    @pytest.mark.parametrize("rule", [
        dict(top_k=0), dict(top_k=17), dict(depth=4), dict(stride=9), dict(mode="l1"),
        dict(filter_name="db8"),
    ])
    def test_config_is_checked_when_made(self, rule):
        with pytest.raises(w.ConfigError):
            w.DenoiseConfig(**{"patch_side": 8, "depth": 2, "top_k": 2, **rule})

    def test_top_k_is_at_most_the_block_count(self):
        # K above the 4^n blocks would keep all of them and report K = 4^n
        assert w.DenoiseConfig(patch_side=4, depth=1, top_k=4).top_k == 4
        with pytest.raises(w.ConfigError, match="top_k must be <= 4, the blocks at depth 1, got 9"):
            w.DenoiseConfig(patch_side=4, depth=1, top_k=9)

    def test_default_stride_half_overlap(self):
        cfg = w.DenoiseConfig(patch_side=8, depth=2, top_k=4)
        assert cfg.stride == 4

    def test_report_schema(self):
        clean = piecewise_smooth_image(32)
        cfg = w.DenoiseConfig(patch_side=8, depth=2, top_k=4)
        _, report = w.denoise_image(clean, cfg)
        for key in ("m", "n", "K", "stride", "filter", "N_n", "scores", "chosen",
                    "retained_energy_fraction"):
            assert key in report
        assert "psnr_noisy" not in report

    def test_truncation_positivity(self):
        # retained and discarded parts of the second-moment operator stay PSD
        clean = piecewise_smooth_image(32)
        noisy = w.add_gaussian_noise(clean, 0.1, 21)
        patches = w.PatchSet(noisy, 4, 2)
        tree = w.build_filter_tree_2d("haar", 4, 1)
        rhat = w.second_moment(patches)
        scores = w.block_scores(patches, tree, 1)
        sel = w.select_top_k(scores, 2)
        kept = sum(w.content_operator(rhat, tree, tree.nodes_at(1)[i]).matrix for i in sel)
        rest = rhat.matrix - kept
        assert loewner_leq(np.zeros((16, 16)), kept)
        assert loewner_leq(np.zeros((16, 16)), rest)

    @pytest.mark.parametrize("mode", ["trace", "hs"])
    def test_runs_the_public_stages_once_each(self, monkeypatch, mode):
        calls = []
        for name in ("PatchSet", "block_scores", "select_top_k"):
            real = getattr(w.denoise, name)
            monkeypatch.setattr(w.denoise, name,
                                lambda *a, _f=real, _n=name: calls.append(_n) or _f(*a))
        noisy = w.add_gaussian_noise(piecewise_smooth_image(32), 0.1, 3)
        _, report = w.denoise_image(noisy, w.DenoiseConfig(8, 2, 4, 2, "d4", mode))
        assert sorted(calls) == ["PatchSet", "block_scores", "select_top_k"]
        assert report["patches"] == 13 * 13

    def test_stages_hold_one_band_of_patches(self, monkeypatch):
        # 45 anchor rows at stride 1: two full bands of 16 rows and a last one of 13
        img = w.add_gaussian_noise(piecewise_smooth_image(48), 0.1, 4)
        rows = []
        real = w.denoise._gather

        def gather(*args):
            out = real(*args)
            rows.append(out.shape[0])
            return out

        monkeypatch.setattr(w.denoise, "_gather", gather)
        band = w.denoise.BAND_ROWS * 45
        tree = w.build_filter_tree_2d("haar", 4, 1)
        w.denoise_image(img, w.DenoiseConfig(4, 1, 2, 1))
        assert rows == [band, band, 13 * 45] * 2
        for stage in (w.second_moment, lambda ps: w.block_scores(ps, tree, 1)):
            rows.clear()
            stage(w.PatchSet(img, 4, 1))
            assert rows == [band, band, 13 * 45]


class TestPgm:
    def test_round_trip_p5(self, tmp_path):
        img = piecewise_smooth_image(16)
        path = tmp_path / "img.pgm"
        w.write_pgm(path, img)
        back = w.read_pgm(path)
        assert back.shape == (16, 16)
        assert np.max(np.abs(w.quantize(back) - w.quantize(img))) == 0

    def test_a_non_square_image_keeps_its_orientation(self, tmp_path, rng):
        # 24 rows of 16 pixels: the header states width 16, then height 24
        img = rng.uniform(0.0, 1.0, (24, 16))
        path = tmp_path / "img.pgm"
        w.write_pgm(path, img)
        assert path.read_bytes().startswith(b"P5\n16 24\n255\n")
        back = w.read_pgm(path)
        assert back.shape == (24, 16) and np.array_equal(back, w.quantize(img) / 255)

    def test_round_trip_p2(self, tmp_path):
        img = piecewise_smooth_image(8)
        q = w.quantize(img)
        path = tmp_path / "img.pgm"
        rows = "".join(" ".join(map(str, row)) + "\n" for row in q)
        path.write_bytes(f"P2\n{img.shape[1]} {img.shape[0]}\n255\n{rows}".encode("ascii"))
        back = w.read_pgm(path)
        assert np.array_equal(w.quantize(back), q)

    def test_comments_and_maxval_scaling(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P2\n# a comment\n2 2\n# another\n100\n0 50\n100 25\n")
        img = w.read_pgm(path)
        assert np.allclose(img, [[0.0, 0.5], [1.0, 0.25]])

    def test_malformed_rejected(self, tmp_path):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P6\n2 2\n255\n")
        with pytest.raises(w.MalformedInputError):
            w.read_pgm(bad)
        bad.write_bytes(b"P5\n2 2\n255\nXY")  # truncated payload
        with pytest.raises(w.MalformedInputError):
            w.read_pgm(bad)
        bad.write_bytes(b"P2\n2 2\n300\n0 0 0 0\n")
        with pytest.raises(w.MalformedInputError):
            w.read_pgm(bad)

    @pytest.mark.parametrize("header", [b"P5\n0 4\n255\n", b"P5\n4 0\n255\n", b"P2\n0 0\n255\n"])
    def test_zero_width_or_height_rejected(self, tmp_path, header):
        path = tmp_path / "empty.pgm"
        path.write_bytes(header)
        with pytest.raises(w.MalformedInputError, match="bad PGM dimensions"):
            w.read_pgm(path)

    def test_quantize_round_half_up(self):
        img = np.array([[0.0, 0.5 / 255.0, 1.5 / 255.0, 2.0]])
        assert list(w.quantize(img)[0]) == [0, 1, 2, 255]


def test_pgm_loads_no_denoiser_and_an_image_is_its_array():
    # pgm.py imports only errors from the package, and no module names an image wrapper type
    package = Path(w.__file__).resolve().parent
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in package.glob("*.py")}
    imported = set()
    for node in ast.walk(trees["pgm.py"]):
        if isinstance(node, ast.ImportFrom) and node.level:
            imported.update([node.module] if node.module else [a.name for a in node.names])
        elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "wpcontent":
            imported.add(node.module.removeprefix("wpcontent."))
        elif isinstance(node, ast.Import):
            imported.update(a.name.removeprefix("wpcontent.") for a in node.names
                            if a.name.split(".")[0] == "wpcontent")
    assert imported == {"errors"}
    for name, tree in trees.items():
        names = {getattr(node, attr, None) for node in ast.walk(tree)
                 for attr in ("id", "attr", "name", "asname")}
        assert "ImageBuffer" not in names, name


def test_no_module_readme_or_test_names_a_removed_wrapper():
    # a matrix is its array, a symbol its values, and the cylinder and tree checks are dicts;
    # a patch set is made as a PatchSet, gathered by its bands, and a config holds its stride;
    # an error is one of the classes `cli.EXIT_CODES` maps, told apart by its message;
    # an operator is made from its matrix by PsdOperator alone; a greedy run stops at the
    # clamp's zero
    gone = ("SymMatrix", "ShannonSymbol", "CylinderWeights", "TreeValidationReport",
            "extract_patches", "effective_stride", "InvalidDepthError", "InvalidFilterError",
            "UnknownNodeError", "DimensionMismatchError", "AbsoluteContinuityViolation",
            "UndefinedCoherenceError", "make_psd", "stop_tol", "DEFAULT_STOP_TOL", "stop-tol",
            "_remainder")
    root = Path(__file__).resolve().parents[1]
    own = inspect.getsource(test_no_module_readme_or_test_names_a_removed_wrapper)
    package = Path(w.__file__).resolve().parent
    for path in [*package.glob("*.py"), root / "README.md", *(root / "tests").glob("*.py")]:
        text = path.read_text(encoding="utf-8").replace(own, "")
        assert not [name for name in gone if re.search(rf"\b{name}\b", text)], path.name
    ps = w.PatchSet(np.zeros((8, 8)), 4, 4)
    assert not hasattr(ps, "patches") and not hasattr(w.PatchSet, "patches")
