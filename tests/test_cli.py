import argparse
import ast
import json
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import wpcontent as w
from wpcontent import cli, errors
from wpcontent.cli import main

from helpers import (
    child_env, corrupted_tree_fixture, geometric_symbol, matrix_json, piecewise_smooth_image,
    random_gram,
)


@pytest.fixture
def matrix_file(tmp_path, rng):
    op = random_gram(rng, 8)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(matrix_json(op)))
    return str(path)


@pytest.fixture
def symbol_file(tmp_path):
    sym = geometric_symbol(3)
    path = tmp_path / "sym.json"
    path.write_text(json.dumps({"levels": 3, "r": list(sym)}))
    return str(path)


@pytest.fixture
def gram256_file(tmp_path, rng):
    op = random_gram(rng, 256)
    path = tmp_path / "m256.json"
    path.write_text(json.dumps(matrix_json(op)))
    return op, path


def _trace_greedy_report(path, rep, env) -> bytes:
    """Report bytes of `wpc greedy --mode trace` (Shannon depth 6, 8 steps) run in a fresh process."""
    proc = subprocess.run(
        [sys.executable, "-m", "wpcontent.cli", "greedy", "--in", str(path),
         "--mode", "trace", "--depth", "6", "--steps", "8", "--report", str(rep)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return rep.read_bytes()


def _fresh(code, env) -> object:
    """JSON printed by ``code`` run in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.fixture
def image_files(tmp_path):
    clean = piecewise_smooth_image(32)
    noisy = w.add_gaussian_noise(clean, 0.1, 42)
    cp, np_ = tmp_path / "clean.pgm", tmp_path / "noisy.pgm"
    w.write_pgm(cp, clean)
    w.write_pgm(np_, noisy)
    return str(cp), str(np_)


class TestDecompose:
    def test_symbol_input_matches_band_sums(self, symbol_file, tmp_path):
        out = tmp_path / "dec.json"
        code = main(["decompose", "--symbol", symbol_file, "--depth", "2", "--report", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        rows = payload["cylinders"]
        assert len(rows) == 7  # depths 0..2 of a dyadic tree
        table = {r["word"]: r["mass"] for r in rows}
        assert table["0"] == pytest.approx(15.0 / 16.0, abs=1e-12)
        assert table["1"] == pytest.approx(15.0 / 8.0, abs=1e-12)
        assert table[""] == pytest.approx(45.0 / 16.0, abs=1e-12)
        assert payload["validation"]["max_additivity_gap"] <= 1e-12

    def test_matrix_input(self, matrix_file, tmp_path):
        out = tmp_path / "dec.json"
        assert main(["decompose", "--in", matrix_file, "--report", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["tree"]["realization"] == "shannon"
        assert payload["validation"]["root_mass_error"] <= 1e-10

    def test_zero_matrix(self, tmp_path):
        path = tmp_path / "z.json"
        path.write_text(json.dumps({"dim": 4, "data": [0.0] * 16}))
        out = tmp_path / "dec.json"
        assert main(["decompose", "--in", str(path), "--report", str(out)]) == 0
        assert all(r["mass"] == 0.0 for r in json.loads(out.read_text())["cylinders"])

    def test_malformed_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dim": 2, "data": [1.0, 2.0, 0.0, 1.0]}))
        assert main(["decompose", "--in", str(path)]) == 2
        path.write_text("{not json")
        assert main(["decompose", "--in", str(path)]) == 2
        assert main(["decompose", "--in", str(tmp_path / "missing.json")]) == 2

    def test_not_positive_exits_3(self, tmp_path):
        path = tmp_path / "neg.json"
        path.write_text(json.dumps({"dim": 2, "data": [1.0, 0.0, 0.0, -1.0]}))
        assert main(["decompose", "--in", str(path)]) == 3

    def test_bad_levels_exits_5(self, tmp_path, rng):
        # the shannon tree needs dim = 2^levels, and 6 is no power of two
        path = tmp_path / "m6.json"
        path.write_text(json.dumps(matrix_json(random_gram(rng, 6))))
        assert main(["decompose", "--in", str(path)]) == 5

    def test_boolean_levels_exits_2(self, tmp_path):
        path = tmp_path / "sym.json"
        path.write_text(json.dumps({"levels": True, "r": [1.0, 2.0]}))
        assert main(["decompose", "--symbol", str(path)]) == 2

    @pytest.mark.parametrize("command", ["decompose", "greedy"])
    @pytest.mark.parametrize("values", [
        ["a", "b"], [[1.0], [2.0, 3.0]], {"a": 1.0}, ["1", True], [1, True], [10**400, 1.0],
    ], ids=["strings", "ragged", "object", "string-and-boolean", "boolean",
            "integer-beyond-float"])
    def test_non_numeric_symbol_exits_2(self, tmp_path, capsys, command, values):
        path = tmp_path / "sym.json"
        path.write_text(json.dumps({"levels": 1, "r": values}))
        assert main([command, "--symbol", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_negative_symbol_exits_3(self, tmp_path):
        path = tmp_path / "sym.json"
        path.write_text(json.dumps({"levels": 2, "r": [1.0, 0.5, -0.25, 2.0]}))
        assert main(["decompose", "--symbol", str(path)]) == 3

    @pytest.mark.parametrize("command", ["decompose", "greedy"])
    def test_symbol_clamp_boundary(self, tmp_path, capsys, command):
        # the clamp threshold is 1e-10 * max = 1e-10
        path, out = tmp_path / "sym.json", tmp_path / "out.json"
        for low, code in [(-0.5e-10, 0), (-2e-10, 3)]:
            path.write_text(json.dumps({"levels": 2, "r": [1.0, 0.5, low, 0.25]}))
            assert main([command, "--symbol", str(path), "--report", str(out)]) == code
        assert "eigenvalue -2.000000e-10" in capsys.readouterr().err

    def test_symbol_memory_is_linear_in_dim(self, tmp_path, rng):
        # levels 12: one d x d array is 134 MB; the dense route peaked at 423 MB
        path, out = tmp_path / "sym.json", tmp_path / "dec.json"
        path.write_text(json.dumps({"levels": 12, "r": rng.uniform(0.0, 1.0, 4096).tolist()}))
        tracemalloc.start()
        try:
            code = main(["decompose", "--symbol", str(path), "--report", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 40e6


@pytest.mark.parametrize("command", [
    ["greedy", "--depth", "2", "--steps", "4"], ["decompose", "--depth", "2"],
], ids=["greedy", "decompose"])
def test_a_report_file_is_indented_json_and_a_final_newline(symbol_file, tmp_path, command):
    rep = tmp_path / "rep.json"
    assert main([*command, "--symbol", symbol_file, "--report", str(rep)]) == 0
    text = rep.read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


class TestGreedy:
    def test_trace_mode_report_and_csv(self, symbol_file, tmp_path):
        rep = tmp_path / "g.json"
        csv_path = tmp_path / "g.csv"
        code = main(
            ["greedy", "--symbol", symbol_file, "--depth", "1", "--mode", "trace",
             "--steps", "6", "--report", str(rep), "--csv", str(csv_path)]
        )
        assert code == 0
        payload = json.loads(rep.read_text())
        assert payload["mode"] == "trace-greedy"
        assert payload["N_n"] == 2
        assert payload["steps"][0]["node"] == "1"
        assert payload["summary"]["first_violation"] is None
        for step in payload["steps"]:
            assert step["remainder_trace"] <= step["bound_trace"] * (1 + 1e-9) + 1e-12
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == (
            "k,node,extracted_trace,extracted_hs,remainder_trace,"
            "remainder_hs,gamma,bound_trace,bound_hs"
        )
        assert len(lines) == len(payload["steps"]) + 1
        assert list(payload["steps"][0]) == lines[0].split(",")  # one step-row schema

    @pytest.mark.parametrize("tree", ["shannon", "haar", "d4"])
    @pytest.mark.parametrize("mode", ["trace", "hs"])
    def test_a_saved_report_checks_as_the_run_does(self, tmp_path, rng, mode, tree):
        # json writes floats by repr, so the report read back is the run's payload bit for bit
        path, rep = tmp_path / "m.json", tmp_path / "g.json"
        path.write_text(json.dumps(matrix_json(random_gram(rng, 16))))
        assert main(["greedy", "--in", str(path), "--tree", tree, "--depth", "2", "--mode", mode,
                     "--steps", "8", "--report", str(rep)]) == 0
        with open(rep, encoding="utf-8") as fh:
            saved = json.load(fh)
        op = w.PsdOperator(w.matrix_from_json(json.loads(path.read_text())))
        t = w.build_shannon_tree(4, 2) if tree == "shannon" else w.build_filter_tree_1d(tree, 16, 2)
        record = (w.trace_greedy if mode == "trace" else w.hs_greedy)(op, t, 2, max_steps=8)
        assert len(record.steps) == 8
        assert w.decay_report(saved) == w.decay_report(record.report)
        assert w.decay_report(saved)["summary"] == saved["summary"]

    @pytest.mark.parametrize("mode", ["trace", "hs"])
    def test_a_report_written_beside_a_csv_passes_the_report_check(self, tmp_path, rng, mode):
        path, rep = tmp_path / "m.json", tmp_path / "g.json"
        path.write_text(json.dumps(matrix_json(random_gram(rng, 8))))
        assert main(["greedy", "--in", str(path), "--depth", "2", "--mode", mode, "--steps", "4",
                     "--report", str(rep), "--csv", str(tmp_path / "g.csv")]) == 0
        saved = json.loads(rep.read_text(encoding="utf-8"))
        assert w.decay_report(saved)["summary"]["first_violation"] is None

    def test_hs_mode_block_diagonal_gamma_one(self, tmp_path, rng):
        tree = w.build_shannon_tree(3, 1)
        from helpers import block_diagonal_gram

        op = block_diagonal_gram(rng, tree, 1, 8)
        path = tmp_path / "bd.json"
        path.write_text(json.dumps(matrix_json(op)))
        rep = tmp_path / "g.json"
        code = main(
            ["greedy", "--in", str(path), "--depth", "1", "--mode", "hs",
             "--steps", "5", "--report", str(rep)]
        )
        assert code == 0
        for step in json.loads(rep.read_text())["steps"]:
            assert step["gamma"] == pytest.approx(1.0, abs=1e-9)

    def test_undefined_coherence_ends_an_hs_run_cleanly(self, matrix_file, tmp_path,
                                                         monkeypatch):
        # coherence raises at step 3: the run keeps the two steps before it, and exits 0
        real, calls = w.greedy.coherence, []

        def undefined_at_step_3(*args, **kwargs):
            calls.append(args)
            if len(calls) == 3:
                raise w.NumericalBreakdownError(None, "block HS mass is numerically zero")
            return real(*args, **kwargs)

        monkeypatch.setattr(w.greedy, "coherence", undefined_at_step_3)
        rep = tmp_path / "g.json"
        assert main(["greedy", "--in", matrix_file, "--depth", "2", "--mode", "hs",
                     "--steps", "8", "--report", str(rep)]) == 0
        payload = json.loads(rep.read_text())
        assert [step["k"] for step in payload["steps"]] == [1, 2]
        assert payload["summary"]["first_violation"] is None
        assert len(calls) == 3

    def test_zero_steps(self, matrix_file, tmp_path):
        rep = tmp_path / "g.json"
        assert main(["greedy", "--in", matrix_file, "--depth", "1", "--steps", "0",
                     "--report", str(rep)]) == 0
        payload = json.loads(rep.read_text())
        assert payload["steps"] == []

    def test_negative_steps_exits_5(self, matrix_file, tmp_path):
        rep = tmp_path / "g.json"
        assert main(["greedy", "--in", matrix_file, "--depth", "1", "--steps", "-3",
                     "--report", str(rep)]) == 5
        assert not rep.exists()

    def test_a_run_goes_on_at_a_remainder_of_1e_9_lam_max(self, tmp_path):
        # after step 1 the remainder's lam_max is 1e-9 of the run's scale, above the clamp's zero
        path, rep = tmp_path / "sym.json", tmp_path / "g.json"
        path.write_text(json.dumps({"levels": 1, "r": [1.0, 1e-9]}))
        assert main(["greedy", "--symbol", str(path), "--steps", "5", "--report", str(rep)]) == 0
        assert [s["node"] for s in json.loads(rep.read_text())["steps"]] == ["0", "1"]

    def test_filter_tree_modes(self, matrix_file, tmp_path):
        rep = tmp_path / "g.json"
        for tree_name in ("haar", "d4"):
            code = main(["greedy", "--in", matrix_file, "--tree", tree_name,
                         "--depth", "2", "--steps", "8", "--report", str(rep)])
            assert code == 0

    def test_eigensolver_failure_exits_4(self, matrix_file, tmp_path, monkeypatch, capsys):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        code = main(["greedy", "--in", matrix_file, "--depth", "1",
                     "--report", str(tmp_path / "g.json")])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


    def test_thread_count_changes_no_node_and_only_rounding(self, gram256_file, tmp_path):
        # at d = 256 the two reports differ in their last bits; nodes and values may not
        op, path = gram256_file
        one, two = (
            json.loads(_trace_greedy_report(path, tmp_path / f"t{threads}.json",
                                            child_env(OPENBLAS_NUM_THREADS=threads)))
            for threads in ("1", "2")
        )
        assert [s["node"] for s in one["steps"]] == [s["node"] for s in two["steps"]]
        assert len(one["steps"]) == 8
        tol = 1e-9 * float(op.eigenvalues[0])
        for key in ("trace", "hs"):
            assert abs(one["initial"][key] - two["initial"][key]) <= tol
        for a, b in zip(one["steps"], two["steps"]):
            for key, val in a.items():
                if isinstance(val, float):
                    assert abs(val - b[key]) <= tol, (a["k"], key)

    def test_default_thread_count_is_one(self, gram256_file, tmp_path):
        # with no thread variable set the CLI runs one BLAS thread, whatever the core count
        _, path = gram256_file
        default = _trace_greedy_report(path, tmp_path / "default.json", child_env())
        one = _trace_greedy_report(path, tmp_path / "one.json",
                                   child_env(OPENBLAS_NUM_THREADS="1"))
        assert default == one

    @pytest.mark.parametrize("asym, code", [(0.0, 0), (1e-8, 2)], ids=["symmetric", "1e-8"])
    def test_input_asymmetry_of_1e_8_exits_2(self, tmp_path, capsys, asym, code):
        a = np.diag([3.0, 2.0, 1.0, 1.0]) + 0.5
        a[0, 1] += asym * np.max(np.abs(a))
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"dim": 4, "data": a.ravel().tolist()}))
        assert main(["greedy", "--in", str(path), "--depth", "1", "--report", "-"]) == code
        assert ("not symmetric" in capsys.readouterr().err) == (code == 2)


class TestDenoise:
    def test_pipeline_with_clean_reference(self, image_files, tmp_path):
        clean, noisy = image_files
        out = tmp_path / "out.pgm"
        rep = tmp_path / "rep.json"
        code = main(
            ["denoise", "--in", noisy, "--clean", clean, "--tree", "haar",
             "--patch-side", "8", "--depth", "2", "--topk", "4", "--stride", "4",
             "--out", str(out), "--report", str(rep)]
        )
        assert code == 0
        payload = json.loads(rep.read_text())
        assert payload["psnr_denoised"] > payload["psnr_noisy"]
        assert out.exists()

    def test_clean_of_another_size_exits_5_before_any_patch(
        self, image_files, tmp_path, capsys, monkeypatch
    ):
        _, noisy = image_files
        small = tmp_path / "small.pgm"
        w.write_pgm(small, np.zeros((4, 4)))

        def unread(self):
            raise AssertionError("patches were read")

        monkeypatch.setattr(w.PatchSet, "bands", unread)
        monkeypatch.setattr(w.PatchSet, "rhat", property(unread))
        assert main(["denoise", "--in", noisy, "--clean", str(small),
                     "--out", str(tmp_path / "x.pgm")]) == 5
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: image sizes differ"), err
        assert not (tmp_path / "x.pgm").exists()

    def test_identity_at_full_selection(self, image_files, tmp_path):
        _, noisy = image_files
        out = tmp_path / "same.pgm"
        code = main(["denoise", "--in", noisy, "--patch-side", "8", "--depth", "2",
                     "--topk", "16", "--stride", "4", "--out", str(out)])
        assert code == 0
        assert out.read_bytes() == Path(noisy).read_bytes()

    def test_topk_above_the_block_count_exits_5(self, image_files, tmp_path, capsys):
        # depth 1 has 4 blocks: keeping "5" of them would keep all 4 and return the input
        _, noisy = image_files
        assert main(["denoise", "--in", noisy, "--patch-side", "8", "--depth", "1",
                     "--topk", "5", "--out", str(tmp_path / "x.pgm")]) == 5
        err = capsys.readouterr().err
        assert err == "error: top_k must be <= 4, the blocks at depth 1, got 5\n"
        assert not (tmp_path / "x.pgm").exists()

    def test_config_violation_exits_5(self, image_files, tmp_path):
        _, noisy = image_files
        assert main(["denoise", "--in", noisy, "--patch-side", "8", "--depth", "4",
                     "--out", str(tmp_path / "x.pgm")]) == 5
        # the denoiser's trees are filter banks: argparse rejects shannon
        with pytest.raises(SystemExit) as exc:
            main(["denoise", "--in", noisy, "--tree", "shannon", "--out", str(tmp_path / "x.pgm")])
        assert exc.value.code == 2

    def test_a_non_square_image_keeps_its_header(self, tmp_path):
        # 24 rows of 16 pixels, written by hand: the output states width 16, then height 24
        src, out = tmp_path / "in.pgm", tmp_path / "out.pgm"
        src.write_bytes(b"P5\n16 24\n255\n" + bytes(i * 7 % 256 for i in range(384)))
        assert main(["denoise", "--in", str(src), "--out", str(out)]) == 0
        assert out.read_bytes().startswith(b"P5\n16 24\n255\n")
        assert w.read_pgm(out).shape == (24, 16)

    def test_malformed_pgm_exits_2(self, tmp_path):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P5\n8 8\n255\nshort")
        assert main(["denoise", "--in", str(bad), "--patch-side", "4", "--depth", "1",
                     "--out", str(tmp_path / "x.pgm")]) == 2

    @pytest.mark.parametrize("payload", [b"P5\n1 1\n255#A", b"P5\n2 2\n255#ABCD"],
                             ids=["one-pixel", "two-by-two"])
    def test_p5_maxval_needs_a_whitespace_separator(self, tmp_path, capsys, payload):
        # "#" after maxval is no separator: the bytes after it are not pixels
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(payload)
        assert main(["denoise", "--in", str(bad), "--patch-side", "2", "--depth", "1",
                     "--out", str(tmp_path / "x.pgm")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert not (tmp_path / "x.pgm").exists()
        bad.write_bytes(b"P5 1 1 255\tA")
        assert w.read_pgm(bad).tolist() == [[65 / 255]]

    @pytest.mark.parametrize("payload", [
        b"P2\n4 4\n255\n" + b" ".join(b"%d" % v for v in range(16)) + b" 7\n",
        b"P5\n4 4\n255\n" + bytes(range(16)) + b"\x07",
    ], ids=["p2-trailing-pixel", "p5-trailing-byte"])
    def test_trailing_pixels_exit_2(self, tmp_path, capsys, payload):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(payload)
        assert main(["denoise", "--in", str(bad), "--patch-side", "4", "--depth", "1",
                     "--out", str(tmp_path / "x.pgm")]) == 2
        err = capsys.readouterr().err
        assert "payload" in err and "Traceback" not in err
        bad.write_bytes(payload[:-2] if payload.startswith(b"P2") else payload[:-1])
        assert w.read_pgm(bad).shape == (4, 4)

    @pytest.mark.parametrize("payload", [
        b"P5\n4 4\n2_55\n" + bytes(16),
        b"P5\n1_0 4\n255\n" + bytes(40),
        b"P2\n4 4\n255\n+20" + b" 0" * 15,
        b"P2\n4 4\n255\n" + b"0 " * 15 + b"-0\n",
    ], ids=["maxval-underscore", "width-underscore", "p2-plus-sign", "p2-minus-zero"])
    def test_non_decimal_digits_exit_2(self, tmp_path, capsys, payload):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(payload)
        assert main(["denoise", "--in", str(bad), "--patch-side", "4", "--depth", "1",
                     "--out", str(tmp_path / "x.pgm")]) == 2
        err = capsys.readouterr().err
        assert "non-integer" in err and "Traceback" not in err

    def test_short_payload_under_huge_header_exits_2(self, tmp_path, capsys):
        # the header declares 10^14 pixels; nothing sized by it may be allocated
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P2\n10000000 10000000\n255\n0\n")
        assert main(["denoise", "--in", str(bad), "--patch-side", "4", "--depth", "1",
                     "--out", str(tmp_path / "x.pgm")]) == 2
        err = capsys.readouterr().err
        assert "payload" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "magic, pixels", [(b"P2", b"50 200\n"), (b"P5", bytes([50, 200]))], ids=["p2", "p5"]
    )
    def test_pixel_above_maxval_exits_2(self, tmp_path, capsys, magic, pixels):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(magic + b"\n2 1\n100\n" + pixels)
        assert main(["denoise", "--in", str(bad), "--out", str(tmp_path / "x.pgm")]) == 2
        err = capsys.readouterr().err
        assert "outside [0, maxval]" in err and "Traceback" not in err

    def test_p2_comments_between_pixels_read_as_p5(self, tmp_path):
        raster = np.arange(12, dtype=np.uint8).reshape(3, 4) * 20
        p5, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
        p5.write_bytes(b"P5\n4 3\n255\n" + raster.tobytes())
        body = b"".join(b"%d#c %d\n\t" % (v, v) if v % 3 else b"%d " % v for v in raster.ravel())
        p2.write_bytes(b"P2 # magic\n4#w\n3\n255\n# first row\n" + body + b"# end")
        assert np.array_equal(w.read_pgm(p2), w.read_pgm(p5))

    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    def test_non_finite_sigma_exits_5(self, image_files, tmp_path, capsys, sigma):
        clean, _ = image_files
        assert main(["denoise", "--in", clean, "--sigma", sigma,
                     "--out", str(tmp_path / "x.pgm")]) == 5
        assert "sigma" in capsys.readouterr().err

    def test_negative_seed_exits_5(self, image_files, tmp_path, capsys):
        clean, _ = image_files
        assert main(["denoise", "--in", clean, "--sigma", "0.1", "--seed", "-1",
                     "--out", str(tmp_path / "x.pgm")]) == 5
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "seed" in err[0]

    def test_sigma_adds_noise_deterministically(self, image_files, tmp_path):
        clean, _ = image_files
        a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
        argv = ["denoise", "--in", clean, "--patch-side", "8", "--depth", "2",
                "--topk", "4", "--sigma", "0.1", "--seed", "5"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("mode, sigma, code, message", [
        ("hs", "1e70", 0, None),
        ("hs", "1e80", 2, "patch second moment: the sum of squares overflows"),
        ("trace", "1e150", 2, "patch second moment: the sum of squares overflows"),
        ("trace", "1e200", 2, "patch second moment: the sum of squares overflows"),
        ("trace", "1e308", 2, "image pixels must be finite"),
    ])
    def test_overflowing_sigma_exits_2_without_warning(self, image_files, tmp_path, capsys,
                                                       mode, sigma, code, message):
        # R_hat, or the noisy image itself, is held to the matrix inputs' square-sum rule
        clean, _ = image_files
        out, rep = tmp_path / "x.pgm", tmp_path / "rep.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["denoise", "--in", clean, "--mode", mode, "--sigma", sigma,
                         "--out", str(out), "--report", str(rep)]) == code
        err = capsys.readouterr().err
        if message is None:
            assert err == "" and out.exists() and rep.exists()
        else:
            assert err == f"error: {message}\n" and not out.exists() and not rep.exists()

    def test_underflowing_patch_second_moment_exits_2(self, tmp_path, capsys):
        # noise of 1e-160 on a black image: R_hat is nonzero, its sum of squares underflows
        black = tmp_path / "black.pgm"
        black.write_bytes(b"P5\n16 16\n255\n" + bytes(256))
        assert main(["denoise", "--in", str(black), "--sigma", "1e-160",
                     "--out", str(tmp_path / "x.pgm")]) == 2
        assert capsys.readouterr().err == (
            "error: patch second moment: the sum of squares underflows\n"
        )


class TestSelftest:
    def test_quick_pass_within_budget(self, capsys):
        import time

        start = time.monotonic()
        assert main(["selftest", "--quick"]) == 0
        assert time.monotonic() - start < 10.0
        out = capsys.readouterr().out
        assert "band-oracle" in out and "FAIL" not in out

    def test_seed_flag(self):
        assert main(["selftest", "--quick", "--seed", "7"]) == 0

    def test_negative_seed_exits_5(self, capsys):
        assert main(["selftest", "--quick", "--seed", "-1"]) == 5
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and "seed" in err

    def test_corrupt_tree_fails_with_named_invariant(self, capsys, monkeypatch):
        # the quick suite builds its 2-d tree only for the tree-axioms row
        monkeypatch.setattr(cli.selftest, "build_filter_tree_2d", lambda *_: corrupted_tree_fixture())
        assert main(["selftest", "--quick"]) == 1
        out = capsys.readouterr().out
        assert "FAIL  tree-axioms" in out

    @pytest.mark.parametrize("row, tol", [
        ("tree-axioms", 1e-10), ("parallelogram", 1e-9), ("band-oracle", 1e-12),
    ])
    @pytest.mark.parametrize("fails", [False, True], ids=["half-tol", "1e-6"])
    def test_own_checks_keep_their_thresholds(self, capsys, monkeypatch, row, tol, fails):
        # each of the suite's own rows measures a violation of ``v``: half its threshold or 1e-6
        v = 1e-6 if fails else tol / 2
        st = cli.selftest
        if row == "tree-axioms":
            report = {"partition": v, "child_sum": 0.0, "child_orthogonality": 0.0,
                      "basis_orthonormality": 0.0}
            monkeypatch.setattr(st, "validate_tree", lambda tree: report)
        elif row == "parallelogram":
            # the row divides each check by lam_max (|x| + |y|)^2
            monkeypatch.setattr(st, "parallelogram_check", lambda r, t, x, y, n: v * float(
                r.eigenvalues[0]) * (np.linalg.norm(x) + np.linalg.norm(y)) ** 2)
        else:
            band_sum = st._band_sum
            monkeypatch.setattr(st, "_band_sum", lambda *args: band_sum(*args) + v)
        assert main(["selftest", "--quick"]) == (1 if fails else 0)
        assert f"{'FAIL' if fails else 'PASS'}  {row} " in capsys.readouterr().out

    def test_library_breakdown_is_a_fail_row(self, capsys, monkeypatch):
        monkeypatch.setattr(w.greedy, "_violation", lambda *_: "injected contraction failure")
        assert main(["selftest", "--quick"]) == 1
        lines = capsys.readouterr().out.splitlines()
        failed = [ln for ln in lines if ln.startswith("FAIL")]
        assert [ln.split()[1] for ln in failed] == ["trace-greedy", "hs-greedy"]
        assert all("at step 1: injected contraction failure" in ln for ln in failed)
        assert lines[-1] == "selftest: FAIL"
        assert any(ln.startswith("PASS  band-oracle") for ln in lines)


class TestFileErrors:
    def test_missing_input_pgm_exits_2(self, image_files, tmp_path, capsys):
        _, noisy = image_files
        missing = str(tmp_path / "missing.pgm")
        for argv in (["--in", missing], ["--in", noisy, "--clean", missing]):
            assert main(["denoise", *argv, "--out", str(tmp_path / "x.pgm")]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "Traceback" not in err
            assert not (tmp_path / "x.pgm").exists()

    @pytest.mark.parametrize("flag", ["--out", "--report"])
    def test_unwritable_denoise_output_exits_5(self, image_files, tmp_path, capsys, flag):
        _, noisy = image_files
        assert main(["denoise", "--in", noisy, flag, str(tmp_path / "no-dir" / "x")]) == 5
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write ") and "Traceback" not in err

    @pytest.mark.parametrize("command, flag", [
        ("decompose", "--report"), ("greedy", "--report"), ("greedy", "--csv"),
    ])
    def test_unwritable_report_or_csv_exits_5(self, symbol_file, tmp_path, capsys,
                                              command, flag):
        argv = [command, "--symbol", symbol_file, "--depth", "1", "--report", "-", flag,
                str(tmp_path / "no-dir" / "x")]
        assert main(argv) == 5
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write ") and "Traceback" not in err


ERROR_CLASSES = [c for c in vars(errors).values() if isinstance(c, type)
                 and c.__module__ == errors.__name__ and c is not errors.WpcError]
ERROR_ARGS = {errors.NotPositiveError: (-1.0, 1e-10), errors.NumericalBreakdownError: (3, "bad")}


class TestExitCodes:
    @pytest.mark.parametrize("exc, code", [
        (w.MalformedInputError("bad schema"), 2),
        (w.NotPositiveError(-1.0, 1e-10), 3),
        (w.NumericalBreakdownError(3, "bad step"), 4),
        (w.ConfigError("bad flags"), 5),
    ], ids=lambda v: type(v).__name__ if isinstance(v, Exception) else None)
    def test_each_error_class_exits_with_its_code(self, monkeypatch, capsys, exc, code):
        def fail(args):
            raise exc

        monkeypatch.setattr(cli, "cmd_decompose", fail)
        assert main(["decompose", "--symbol", "unread.json"]) == code
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines() == [f"error: {exc}"]
        assert "Traceback" not in err

    @pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda c: c.__name__)
    def test_every_error_class_is_an_exit_code_row(self, monkeypatch, capsys, cls):
        # read from the module, so a class added without its exit code fails here
        assert cls in cli.EXIT_CODES
        exc = cls(*ERROR_ARGS.get(cls, ("bad input",)))

        def fail(args):
            raise exc

        monkeypatch.setattr(cli, "cmd_decompose", fail)
        assert main(["decompose", "--symbol", "unread.json"]) == cli.EXIT_CODES[cls]
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines() == [f"error: {exc}"]

    @staticmethod
    def _one_error_line(capsys):
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")

    @pytest.mark.parametrize("command", ["decompose", "greedy"])
    @pytest.mark.parametrize("tree", ["shannon", "haar", "d4"])
    def test_oversized_depth_exits_5(self, matrix_file, tmp_path, capsys, command, tree):
        # 2**20000 has more digits than Python converts to a string
        rep = tmp_path / "out.json"
        assert main([command, "--in", matrix_file, "--tree", tree, "--depth", "20000",
                     "--report", str(rep)]) == 5
        self._one_error_line(capsys)
        assert not rep.exists()

    @pytest.mark.parametrize("command", ["decompose", "greedy"])
    @pytest.mark.parametrize("tree", ["shannon", "haar", "d4"])
    def test_depth_0_exits_5(self, matrix_file, tmp_path, capsys, command, tree):
        # every tree needs depth >= 1: depth 0 would be the root alone
        rep = tmp_path / "out.json"
        assert main([command, "--in", matrix_file, "--tree", tree, "--depth", "0",
                     "--report", str(rep)]) == 5
        self._one_error_line(capsys)
        assert not rep.exists()

    def test_denoise_depth_0_exits_5(self, image_files, tmp_path, capsys):
        _, noisy = image_files
        out, rep = tmp_path / "x.pgm", tmp_path / "rep.json"
        assert main(["denoise", "--in", noisy, "--depth", "0", "--out", str(out),
                     "--report", str(rep)]) == 5
        self._one_error_line(capsys)
        assert not out.exists() and not rep.exists()

    @pytest.mark.parametrize("command", ["decompose", "greedy"])
    @pytest.mark.parametrize("in_exists", [True, False], ids=["existing-in", "missing-in"])
    def test_in_and_symbol_together_exit_5(self, matrix_file, symbol_file, tmp_path, capsys,
                                           command, in_exists):
        # refused before either file is read, so a missing --in file does not exit 2
        source = matrix_file if in_exists else str(tmp_path / "missing.json")
        rep = tmp_path / "out.json"
        assert main([command, "--in", source, "--symbol", symbol_file,
                     "--report", str(rep)]) == 5
        self._one_error_line(capsys)
        assert not rep.exists()

    def test_oversized_denoise_depth_exits_5(self, image_files, tmp_path, capsys):
        _, noisy = image_files
        out, rep = tmp_path / "x.pgm", tmp_path / "rep.json"
        assert main(["denoise", "--in", noisy, "--depth", "20000", "--out", str(out),
                     "--report", str(rep)]) == 5
        self._one_error_line(capsys)
        assert not out.exists() and not rep.exists()

    @pytest.mark.parametrize("command, first, second, alias", [
        ("greedy", "--report", "--csv", "r.json"),
        ("greedy", "--report", "--csv", "sub/../r.json"),
        ("greedy", "--report", "--csv", "link.json"),
        ("denoise", "--out", "--report", "r.json"),
        ("denoise", "--out", "--report", "link.json"),
    ])
    def test_two_outputs_on_one_file_exit_5(self, tmp_path, capsys, command, first, second,
                                            alias):
        # refused before the (missing) input is read, and nothing is written
        (tmp_path / "sub").mkdir()
        (tmp_path / "link.json").symlink_to(tmp_path / "r.json")
        argv = [command, "--in", str(tmp_path / "missing"), first, str(tmp_path / "r.json"),
                second, str(tmp_path / alias)]
        assert main(argv) == 5
        self._one_error_line(capsys)
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("alias", ["{}", "./{}", "sub/../{}", "link"])
    @pytest.mark.parametrize("command, source, output", [
        ("decompose", "--in", "--report"), ("decompose", "--symbol", "--report"),
        ("greedy", "--in", "--report"), ("greedy", "--in", "--csv"),
        ("greedy", "--symbol", "--report"), ("greedy", "--symbol", "--csv"),
        ("denoise", "--in", "--out"), ("denoise", "--in", "--report"),
        ("denoise", "--clean", "--out"), ("denoise", "--clean", "--report"),
    ])
    def test_an_output_on_an_input_exits_5(self, matrix_file, symbol_file, image_files, tmp_path,
                                           monkeypatch, capsys, command, source, output, alias):
        # refused before anything is read or written, so the input keeps its bytes
        monkeypatch.chdir(tmp_path)
        clean, noisy = (Path(p).name for p in image_files)
        name = {"--in": noisy if command == "denoise" else Path(matrix_file).name,
                "--symbol": Path(symbol_file).name, "--clean": clean}[source]
        (tmp_path / "sub").mkdir()
        (tmp_path / "link").symlink_to(tmp_path / name)
        before = (tmp_path / name).read_bytes()
        extra = ["--in", noisy] if source == "--clean" else []
        assert main([command, *extra, source, name, output, alias.format(name)]) == 5
        self._one_error_line(capsys)
        assert (tmp_path / name).read_bytes() == before

    def test_a_report_on_stdout_shares_no_file(self, tmp_path, monkeypatch):
        # --report - is stdout, also beside an input file named "-"; a file named "-" is ./-
        monkeypatch.chdir(tmp_path)

        def check(report, path, option, source=None):
            args = argparse.Namespace(input=source, report=report, **{option[2:]: path})
            cli._check_files(args, "--report", option)

        check("-", "./-", "--csv")
        check(None, "x", "--out")
        check("-", "x", "--csv", source="-")
        with pytest.raises(w.ConfigError):
            check("./-", "./-", "--csv")
        with pytest.raises(w.ConfigError, match="--csv"):
            check("-", "-", "--csv")
        with pytest.raises(w.ConfigError, match="--in -"):
            check("-", "./-", "--csv", source="-")

    @pytest.mark.parametrize("command, option", [("greedy", "--csv"), ("denoise", "--out")])
    def test_dash_is_not_a_file_output_exit_5(self, matrix_file, image_files, tmp_path,
                                              monkeypatch, capsys, command, option):
        # refused before the (missing) input is read, and no file named "-" is written;
        # ./- still names that file
        monkeypatch.chdir(tmp_path)
        assert main([command, "--in", "missing", option, "-", "--report", "r.json"]) == 5
        self._one_error_line(capsys)
        assert not (tmp_path / "-").exists() and not (tmp_path / "r.json").exists()
        source = matrix_file if command == "greedy" else image_files[1]
        extra = ["--depth", "1", "--steps", "2"] if command == "greedy" else []
        assert main([command, "--in", source, *extra, option, "./-", "--report", "r.json"]) == 0
        assert (tmp_path / "-").stat().st_size > 0

    def test_oversized_symbol_levels_exits_2(self, tmp_path, capsys):
        path, rep = tmp_path / "sym.json", tmp_path / "out.json"
        path.write_text(json.dumps({"levels": 20000, "r": [1.0, 2.0]}))
        assert main(["decompose", "--symbol", str(path), "--report", str(rep)]) == 2
        self._one_error_line(capsys)
        assert not rep.exists()

    def test_oversized_matrix_dim_exits_2(self, tmp_path, capsys):
        # dim^2 has more digits than Python converts to a string
        path, rep = tmp_path / "m.json", tmp_path / "out.json"
        path.write_text(json.dumps({"dim": 10**3000, "data": [1.0]}))
        assert main(["decompose", "--in", str(path), "--report", str(rep)]) == 2
        self._one_error_line(capsys)
        assert not rep.exists()

    @pytest.mark.parametrize("command", ["decompose", "greedy"])
    def test_no_levels_option(self, command, capsys):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert "--levels" not in capsys.readouterr().out


class TestNumericInput:
    @pytest.mark.parametrize("command", ["decompose", "greedy"])
    @pytest.mark.parametrize("text", [
        '{"dim": 2, "data": ["1", "0", "0", "1"]}',
        '{"dim": 2, "data": [1, 0, 0, true]}',
        '{"dim": true, "data": [1.0]}',
        '{"dim": 1, "data": [1%s]}' % ("0" * 400),
        '{"dim": 1, "data": [%s]}' % ("9" * 5000),
    ], ids=["strings", "boolean", "boolean-dim", "integer-beyond-float",
            "integer-beyond-digit-limit"])
    def test_non_numeric_matrix_exits_2(self, tmp_path, capsys, command, text):
        path = tmp_path / "in.json"
        path.write_text(text)
        assert main([command, "--in", str(path), "--report", str(tmp_path / "out.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert not (tmp_path / "out.json").exists()


class TestStrictReports:
    @pytest.mark.parametrize("command", ["decompose", "greedy"])
    @pytest.mark.parametrize("data", [
        [1e308, 0.0, 0.0, 1e308], [0.0, 1e308, 1e308, 0.0], [0.0, 1e308, -1e308, 0.0],
    ], ids=["diagonal", "off-diagonal", "antisymmetric"])
    def test_overflow_when_symmetrizing_exits_2(self, tmp_path, capsys, command, data):
        # each entry is finite, but a_ij + a_ji (or a_ij - a_ji) overflows
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"dim": 2, "data": data}))
        assert main([command, "--in", str(path), "--report", "-"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("command", ["decompose", "greedy"])
    @pytest.mark.parametrize("flag, doc", [
        ("--in", {"dim": 2, "data": [1e160] * 4}),
        ("--symbol", {"levels": 1, "r": [1e308, 1e308]}),
    ], ids=["matrix", "symbol"])
    def test_overflowing_square_sum_exits_2_without_warning(self, tmp_path, capsys, command,
                                                            flag, doc):
        # every value is finite, but the sum of squares (4e320, 2e616) is not
        path, rep = tmp_path / "big.json", tmp_path / "rep.json"
        path.write_text(json.dumps(doc))
        for target in ("-", str(rep)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main([command, flag, str(path), "--report", target]) == 2
            out, err = capsys.readouterr()
            assert out == "" and not rep.exists()
            assert err.startswith("error:") and "sum of squares overflows" in err

    @pytest.mark.parametrize("argv", [
        ["decompose"], ["greedy", "--mode", "trace"], ["greedy", "--mode", "hs"],
    ], ids=["decompose", "greedy-trace", "greedy-hs"])
    @pytest.mark.parametrize("flag, doc", [
        ("--in", {"dim": 2, "data": [5e-324] * 4}),
        ("--in", "gram"),
        ("--symbol", {"levels": 3, "r": [1e-200 * (1 + i) for i in range(8)]}),
    ], ids=["subnormal-matrix", "gram-1e-200", "symbol-1e-200"])
    def test_underflowing_square_sum_exits_2(self, tmp_path, capsys, rng, argv, flag, doc):
        # nonzero values whose sum of squares falls below the normal range
        if doc == "gram":
            doc = matrix_json(1e-200 * random_gram(rng, 8).matrix)
        path, rep = tmp_path / "tiny.json", tmp_path / "rep.json"
        path.write_text(json.dumps(doc))
        assert main([*argv, flag, str(path), "--report", str(rep)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and not rep.exists()
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "sum of squares underflows" in err

    def test_non_finite_report_exits_4_and_writes_nothing(self, tmp_path, capsys, monkeypatch,
                                                           symbol_file):
        rep = tmp_path / "rep.json"
        for value in (float("inf"), float("-inf"), float("nan")):
            # in a row of a list of flat dicts, and as a scalar of a nested dict
            for payload in ({"nodes": [{"word": "", "x": value}]}, {"a": {"b": [1, value]}}):
                monkeypatch.setattr(cli, "tree_description", lambda tree, p=payload: p)
                for target in ("-", str(rep)):
                    assert main(["decompose", "--symbol", symbol_file, "--report", target]) == 4
                    out, err = capsys.readouterr()
                    assert out == "" and not rep.exists()
                    assert err.startswith(
                        "error: numerical breakdown: report holds a non-finite value"
                    )


def test_every_option_is_named_in_the_readme():
    # an option no user is told about is one only tests set
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    sub = next(a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {opt for sp in sub.choices.values() for a in sp._actions for opt in a.option_strings}
    options -= {"-h", "--help"}
    assert "--seed" in options
    missing = [o for o in sorted(options) if not re.search(rf"(?<![\w-]){o}(?![\w-])", readme)]
    assert missing == []


def test_every_export_is_named_in_the_readme():
    # an export no reader is told about is one only its own module knows
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    missing = [n for n in w.__all__ if not re.search(rf"(?<!\w){n}(?!\w)", readme)]
    assert missing == []


def test_the_readme_states_the_export_count():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    stated = re.findall(r"`wpcontent\.__all__` holds the (\d+) names", readme)
    assert stated == [str(len(w.__all__))]


THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SHOW_THREADS = f"import json, os; print(json.dumps([os.environ.get(v) for v in {THREAD_VARS!r}]))"


class TestThreadPolicy:
    @pytest.mark.parametrize("code, threads, want", [
        ("import wpcontent.cli", {}, ["1", "1", "1"]),
        ("import wpcontent.cli", {"OMP_NUM_THREADS": "2"}, [None, "2", None]),
        ("import numpy, wpcontent.cli", {}, [None, None, None]),
    ], ids=["unset-means-one", "set-variable-wins", "numpy-first-keeps-environment"])
    def test_environment_after_cli_import(self, code, threads, want):
        assert _fresh(f"{code}; {SHOW_THREADS}", child_env(**threads)) == want


EXPORTED = sorted("""
    ConfigError DenoiseConfig ExtractionTrace
    MalformedInputError NotPositiveError NumericalBreakdownError PacketTree
    PatchSet PsdOperator WpcError add_gaussian_noise block_scores build_filter_tree_1d
    build_filter_tree_2d build_shannon_tree coherence
    content_operator cylinder_weights decay_report denoise_image
    depth_decomposition discrete_density extract_sequence
    filter_taps hs_greedy hs_norm matrix_from_json
    parallelogram_check projection quantize read_pgm second_moment
    select_top_k shannon_symbol sym_eigen symbol_from_json symbol_operator
    trace trace_greedy tree_description
    validate_tree vector_weight write_pgm
""".split())


@pytest.mark.parametrize("export", [
    "PatchSet", "denoise_image", "add_gaussian_noise", "PsdOperator", "sym_eigen", "trace",
    "hs_norm", "shannon_symbol", "symbol_operator", "cylinder_weights",
    "vector_weight", "discrete_density", "parallelogram_check", "select_top_k", "quantize",
    "write_pgm",
])
def test_an_export_leaves_the_callers_arrays_writable_and_unchanged(tmp_path, export):
    rng = np.random.default_rng(3)
    img, clean = rng.uniform(0.0, 1.0, (2, 16, 16))
    g = rng.standard_normal((8, 8))
    m = g.T @ g / 8
    sym, x, y = rng.uniform(0.0, 1.0, (3, 8))
    r, tree = w.PsdOperator(m), w.build_shannon_tree(3, 2)
    calls = {
        "PatchSet": lambda: w.PatchSet(img, 4, 4),
        "denoise_image": lambda: w.denoise_image(
            img, w.DenoiseConfig(patch_side=4, depth=1, top_k=1), clean),
        "add_gaussian_noise": lambda: w.add_gaussian_noise(img, 0.1, 0),
        "PsdOperator": lambda: w.PsdOperator(m),
        "sym_eigen": lambda: w.sym_eigen(m),
        "trace": lambda: w.trace(m),
        "hs_norm": lambda: w.hs_norm(m),
        "shannon_symbol": lambda: w.shannon_symbol(sym),
        "symbol_operator": lambda: w.symbol_operator(sym),
        "cylinder_weights": lambda: w.cylinder_weights(sym, tree),
        "vector_weight": lambda: w.vector_weight(r, tree, x, "01"),
        "discrete_density": lambda: w.discrete_density(r, tree, x, 2),
        "parallelogram_check": lambda: w.parallelogram_check(r, tree, x, y, 2),
        "select_top_k": lambda: w.select_top_k(sym, 3),
        "quantize": lambda: w.quantize(img),
        "write_pgm": lambda: w.write_pgm(tmp_path / "img.pgm", img),
    }
    arrays = (img, clean, m, sym, x, y)
    before = [a.copy() for a in arrays]
    out = calls[export]()
    for a, b in zip(arrays, before):
        assert a.flags.writeable and np.array_equal(a, b)
    if export == "PsdOperator":  # the operator keeps copies, so the caller's writes miss it
        assert not any(np.shares_memory(m, b) for b in (out.matrix, out.eigenvectors))


class TestLazyPackage:
    def test_import_leaves_numpy_unloaded(self):
        code = "import json, sys, wpcontent; print(json.dumps('numpy' in sys.modules))"
        assert _fresh(code, child_env()) is False

    def test_every_exported_name_resolves_in_a_fresh_process(self):
        code = (
            "import json, wpcontent as w\n"
            "from wpcontent import trace_greedy, psdcore\n"
            "print(json.dumps([sorted(w.__all__), all(hasattr(w, n) for n in w.__all__),\n"
            "    trace_greedy is w.greedy.trace_greedy, psdcore.trace is w.trace,\n"
            "    set(w.__all__) <= set(dir(w))]))"
        )
        names, *resolved = _fresh(code, child_env())
        assert names == EXPORTED and len(names) == 43
        assert all(resolved)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            w.no_such_name
        with pytest.raises(ImportError):
            exec("from wpcontent import no_such_name", {})

    def test_nothing_is_exported_only_for_tests(self):
        # an export is read by some other module of the package, or is one of the paper's
        # objects that no command computes (vector densities, sequences, R_hat, P_w)
        paper_only = {"discrete_density", "vector_weight", "extract_sequence", "second_moment",
                      "projection"}
        read = set()
        for path in Path(w.__file__).resolve().parent.glob("*.py"):
            if path.name != "__init__.py":
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                    if isinstance(node, ast.Name):
                        read.add(node.id)
                    elif isinstance(node, ast.Attribute):
                        read.add(node.attr)
        assert sorted(set(w.__all__) - read - paper_only) == []


SUBMODULES = sorted(f"wpcontent.{m}" for m in (
    "cli", "content", "denoise", "errors", "greedy", "pgm", "psdcore", "selftest", "tree"))
LAZY_LAYERS = ("denoise", "greedy", "pgm", "selftest")


class TestLazyLayers:
    def test_cli_import_registers_every_submodule(self):
        # a tracer that wraps every wpcontent module in sys.modules relies on this
        code = ("import json, sys, wpcontent.cli\n"
                "print(json.dumps(sorted(n for n in sys.modules if n.startswith('wpcontent.'))))")
        assert _fresh(code, child_env()) == SUBMODULES

    def test_each_subcommand_runs_only_its_layers(self, symbol_file, image_files, tmp_path):
        clean, noisy = image_files
        rep = str(tmp_path / "rep.json")
        runs = [
            ["decompose", "--symbol", symbol_file, "--report", rep],
            ["greedy", "--symbol", symbol_file, "--steps", "2", "--report", rep],
            ["denoise", "--in", noisy, "--clean", clean, "--report", rep],
            ["selftest", "--quick"],
        ]
        code = (
            "import json, sys, types\n"
            "from wpcontent.cli import main\n"
            "ran = []\n"
            f"for argv in {runs!r}:\n"
            "    code = main(argv)\n"
            f"    ran.append([code] + [m for m in {LAZY_LAYERS!r}\n"
            "                         if type(sys.modules['wpcontent.' + m]) is types.ModuleType])\n"
            "print(json.dumps(ran), file=sys.stderr)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=child_env())
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stderr.splitlines()[-1]) == [
            [0],
            [0, "greedy"],
            [0, "denoise", "greedy", "pgm"],
            [0, "denoise", "greedy", "pgm", "selftest"],
        ]

    def test_denoise_leaves_numpy_ma_unloaded(self, image_files, tmp_path):
        # np.unique imports numpy.ma (numpy 2.4), a cost every fresh denoise job would pay
        clean, noisy = image_files
        argv = ["denoise", "--in", noisy, "--clean", clean, "--patch-side", "8", "--depth", "2",
                "--stride", "5", "--out", str(tmp_path / "out.pgm"),
                "--report", str(tmp_path / "rep.json")]
        code = ("import json, sys\n"
                "from wpcontent.cli import main\n"
                f"code = main({argv!r})\n"
                "print(json.dumps([code, 'numpy.ma' in sys.modules]))")
        assert _fresh(code, child_env()) == [0, False]
