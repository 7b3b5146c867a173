import numpy as np
import pytest

import wpcontent as w

from helpers import piecewise_smooth_image, tiled_patches


class TestExtractPatches:
    def test_single_patch(self):
        img = w.ImageBuffer(np.zeros((8, 8)))
        ps = w.extract_patches(img, 8, 8)
        assert ps.positions == ((0, 0),)

    def test_exact_tiling(self):
        img = w.ImageBuffer(np.zeros((16, 16)))
        ps = w.extract_patches(img, 8, 8)
        assert ps.positions == ((0, 0), (0, 8), (8, 0), (8, 8))

    def test_flush_to_edge_anchor(self):
        img = w.ImageBuffer(np.zeros((12, 12)))
        ps = w.extract_patches(img, 8, 8)
        assert ps.positions == ((0, 0), (0, 4), (4, 0), (4, 4))

    def test_patch_values_row_major(self):
        img = w.ImageBuffer(np.arange(16.0).reshape(4, 4) / 16.0)
        ps = w.extract_patches(img, 2, 2)
        assert np.allclose(ps.patches[0], [0.0, 1 / 16, 4 / 16, 5 / 16])

    def test_patch_larger_than_image(self):
        with pytest.raises(w.ConfigError):
            w.extract_patches(w.ImageBuffer(np.zeros((4, 4))), 8, 1)

    def test_full_coverage_when_stride_at_most_side(self):
        img = w.ImageBuffer(np.zeros((21, 13)))
        ps = w.extract_patches(img, 4, 3)
        cover = np.zeros((21, 13))
        for r, c in ps.positions:
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
        assert w.loewner_leq(np.zeros((16, 16)), op)
        mean_energy = float(np.mean(np.sum(y * y, axis=1)))
        assert w.trace(op) == pytest.approx(mean_energy, rel=1e-10)


class TestBlockScores:
    def test_constant_patch_all_lowpass(self):
        tree = w.build_filter_tree_2d(w.haar_filter(), 4, 1)
        patch = np.full(16, 0.5)
        ps = tiled_patches(patch[None, :], 4)
        scores = w.block_scores(ps, tree, 1)
        table = scores.as_map()
        assert table["0,0"] == pytest.approx(float(patch @ patch), rel=1e-12)
        for word in ("0,1", "1,0", "1,1"):
            assert table[word] <= 1e-12

    def test_energy_partition(self, rng):
        tree = w.build_filter_tree_2d(w.d4_filter(), 4, 1)
        y = rng.standard_normal((30, 16))
        ps = tiled_patches(y, 4)
        scores = w.block_scores(ps, tree, 1)
        mean_energy = float(np.mean(np.sum(y * y, axis=1)))
        assert scores.total() == pytest.approx(mean_energy, rel=1e-9)

    def test_cross_check_against_second_moment(self, rng):
        tree = w.build_filter_tree_2d(w.haar_filter(), 4, 2)
        y = rng.standard_normal((25, 16))
        ps = tiled_patches(y, 4)
        scores = w.block_scores(ps, tree, 2)
        rhat = w.second_moment(ps)
        for nd, val in zip(scores.nodes, scores.values):
            b = tree.basis(nd)
            assert val == pytest.approx(float(np.sum((b @ rhat.matrix) * b)), rel=1e-8)

    def test_white_noise_scores_scale_with_subspace_dim(self, rng):
        tree = w.build_filter_tree_2d(w.haar_filter(), 4, 1)
        m = 800
        y = rng.standard_normal((m, 16))
        ps = tiled_patches(y, 4)
        scores = w.block_scores(ps, tree, 1)
        for nd, val in zip(scores.nodes, scores.values):
            d = tree.subspace_dim(nd)
            assert abs(val - d) <= 3.0 * np.sqrt(2.0 * d / m)

    def test_zero_image(self):
        tree = w.build_filter_tree_2d(w.haar_filter(), 4, 1)
        ps = w.extract_patches(w.ImageBuffer(np.zeros((8, 8))), 4, 4)
        assert w.block_scores(ps, tree, 1).total() == 0.0


class TestSelection:
    def test_all_nodes_gives_identity(self, rng):
        tree = w.build_filter_tree_2d(w.haar_filter(), 4, 1)
        y = rng.standard_normal((10, 16))
        ps = tiled_patches(y, 4)
        scores = w.block_scores(ps, tree, 1)
        sel = w.select_top_k(scores, 99, tree)  # oversized K truncates
        assert len(sel.nodes) == 4
        assert np.max(np.abs(sel.basis.T @ sel.basis - np.eye(16))) <= 1e-10

    def test_unique_max(self):
        tree = w.build_filter_tree_2d(w.haar_filter(), 4, 1)
        ps = tiled_patches(np.full((1, 16), 0.25), 4)
        sel = w.select_top_k(w.block_scores(ps, tree, 1), 1, tree)
        assert [nd.word for nd in sel.nodes] == ["0,0"]

    def test_tie_break_lexicographic(self):
        tree = w.build_filter_tree_2d(w.haar_filter(), 4, 1)
        nodes = tuple(tree.nodes_at(1))
        scores = w.BlockScores(1, nodes, np.ones(4))
        sel = w.select_top_k(scores, 2, tree)
        assert [nd.word for nd in sel.nodes] == ["0,0", "0,1"]

    def test_projection_invariants(self, rng):
        tree = w.build_filter_tree_2d(w.haar_filter(), 4, 2)
        y = rng.standard_normal((12, 16))
        ps = tiled_patches(y, 4)
        sel = w.select_top_k(w.block_scores(ps, tree, 2), 5, tree)
        p = sel.basis.T @ sel.basis
        assert np.max(np.abs(p @ p - p)) <= 1e-9
        dims = sum(tree.subspace_dim(nd) for nd in sel.nodes)
        assert abs(np.trace(p) - dims) <= 1e-9
        for row in y:
            assert np.linalg.norm(p @ row) <= np.linalg.norm(row) + 1e-12

    @pytest.mark.parametrize("filt, k", [("haar", 1), ("d4", 5), ("d4", 16)])
    def test_projection_spectrum_without_eigensolver(self, rng, monkeypatch, filt, k):
        tree = w.build_filter_tree_2d(w.named_filter(filt), 8, 2)
        scores = w.BlockScores(2, tuple(tree.nodes_at(2)), rng.uniform(size=16))

        def no_eigh(*_):
            raise AssertionError("a projection ran an eigensolver")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        sel = w.select_top_k(scores, k, tree)
        singles = [(w.projection(tree, nd), tree.basis(nd)) for nd in sel.nodes]
        monkeypatch.undo()
        total = sel.basis.shape[0]
        assert total == sum(tree.subspace_dim(nd) for nd in sel.nodes)
        assert np.array_equal(sel.basis, np.vstack([rows for _, rows in singles]))
        assert np.max(np.abs(sel.basis @ sel.basis.T - np.eye(total))) <= 1e-12
        lam, _ = w.sym_eigen(sel.basis.T @ sel.basis)
        assert np.max(np.abs(lam - np.repeat([1.0, 0.0], [total, 64 - total]))) <= 1e-12
        for op, rows in singles:
            r = rows.shape[0]
            assert list(op.eigenvalues) == [1.0] * r + [0.0] * (64 - r)
            vecs = op.eigenvectors
            assert np.array_equal(np.abs(vecs[:, :r].T), np.abs(rows))
            assert np.max(np.abs(vecs.T @ vecs - np.eye(64))) <= 1e-12
            first = vecs[np.argmax(np.abs(vecs) > 1e-12, axis=0), np.arange(64)]
            assert np.all(first > 0.0)
            assert np.max(np.abs((vecs * op.eigenvalues) @ vecs.T - op.matrix)) <= 1e-12
            lam, _ = w.sym_eigen(op)
            assert np.max(np.abs(lam - op.eigenvalues)) <= 1e-12


class TestPsnrAndNoise:
    def test_psnr_examples(self):
        a = w.ImageBuffer(np.zeros((4, 4)))
        b = w.ImageBuffer(np.ones((4, 4)))
        assert w.psnr(a, b) == pytest.approx(0.0, abs=1e-12)
        c = w.ImageBuffer(np.full((4, 4), 0.1))
        assert w.psnr(a, c) == pytest.approx(20.0, rel=1e-12)  # MSE = 0.01

    def test_psnr_cap(self):
        img = piecewise_smooth_image(16)
        assert w.psnr(img, img) == 99.0

    def test_noise_zero_sigma(self):
        img = piecewise_smooth_image(16)
        out = w.add_gaussian_noise(img, 0.0, 7)
        assert np.array_equal(out.pixels, img.pixels)

    def test_noise_deterministic(self):
        img = piecewise_smooth_image(16)
        a = w.add_gaussian_noise(img, 0.2, 11)
        b = w.add_gaussian_noise(img, 0.2, 11)
        assert np.array_equal(a.pixels, b.pixels)

    def test_noise_standard_deviation(self):
        img = w.ImageBuffer(np.full((64, 64), 0.5))
        out = w.add_gaussian_noise(img, 0.1, 3)
        assert abs(np.std(out.pixels - img.pixels) - 0.1) <= 0.005

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
        assert np.max(np.abs(out.pixels - noisy.pixels)) <= 1e-12
        assert report["retained_energy_fraction"] == pytest.approx(1.0, abs=1e-12)

    def test_zero_image_maps_to_zero(self):
        z = w.ImageBuffer(np.zeros((16, 16)))
        out, _ = w.denoise_image(z, w.DenoiseConfig(patch_side=4, depth=1, top_k=2))
        assert np.array_equal(out.pixels, np.zeros((16, 16)))

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

    def test_default_stride_half_overlap(self):
        cfg = w.DenoiseConfig(patch_side=8, depth=2, top_k=4)
        assert cfg.effective_stride() == 4

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
        patches = w.extract_patches(noisy, 4, 2)
        tree = w.build_filter_tree_2d(w.haar_filter(), 4, 1)
        rhat = w.second_moment(patches)
        scores = w.block_scores(patches, tree, 1)
        sel = w.select_top_k(scores, 2, tree)
        kept = sum(
            w.content_operator(rhat, tree, nd).operator.matrix for nd in sel.nodes
        )
        rest = rhat.matrix - kept
        assert w.loewner_leq(np.zeros((16, 16)), w.SymMatrix(kept), tol=1e-8)
        assert w.loewner_leq(np.zeros((16, 16)), w.SymMatrix(rest), tol=1e-8)

    @pytest.mark.parametrize("mode", ["trace", "hs"])
    def test_runs_the_public_stages_once_each(self, monkeypatch, mode):
        calls = []
        for name in ("extract_patches", "block_scores", "select_top_k"):
            real = getattr(w.denoise, name)
            monkeypatch.setattr(w.denoise, name,
                                lambda *a, _f=real, _n=name: calls.append(_n) or _f(*a))
        noisy = w.add_gaussian_noise(piecewise_smooth_image(32), 0.1, 3)
        _, report = w.denoise_image(noisy, w.DenoiseConfig(8, 2, 4, 2, "d4", mode))
        assert sorted(calls) == ["block_scores", "extract_patches", "select_top_k"]
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
        tree = w.build_filter_tree_2d(w.haar_filter(), 4, 1)
        w.denoise_image(img, w.DenoiseConfig(4, 1, 2, 1))
        assert rows == [band, band, 13 * 45] * 2
        for stage in (w.second_moment, lambda ps: w.block_scores(ps, tree, 1)):
            rows.clear()
            stage(w.extract_patches(img, 4, 1))
            assert rows == [band, band, 13 * 45]


class TestPgm:
    def test_round_trip_p5(self, tmp_path):
        img = piecewise_smooth_image(16)
        path = tmp_path / "img.pgm"
        w.write_pgm(path, img)
        back = w.read_pgm(path)
        assert back.width == 16 and back.height == 16
        assert np.max(np.abs(w.quantize(back) - w.quantize(img))) == 0

    def test_round_trip_p2(self, tmp_path):
        img = piecewise_smooth_image(8)
        path = tmp_path / "img.pgm"
        w.write_pgm(path, img, binary=False)
        back = w.read_pgm(path)
        assert np.array_equal(w.quantize(back), w.quantize(img))

    def test_comments_and_maxval_scaling(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P2\n# a comment\n2 2\n# another\n100\n0 50\n100 25\n")
        img = w.read_pgm(path)
        assert np.allclose(img.pixels, [[0.0, 0.5], [1.0, 0.25]])

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

    def test_quantize_round_half_up(self):
        img = w.ImageBuffer(np.array([[0.0, 0.5 / 255.0, 1.5 / 255.0, 2.0]]))
        assert list(w.quantize(img)[0]) == [0, 1, 2, 255]
