import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import wpcontent as w
from wpcontent import cli
from wpcontent.cli import main

from helpers import geometric_symbol, piecewise_smooth_image, random_gram


@pytest.fixture
def matrix_file(tmp_path, rng):
    op = random_gram(rng, 8)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(w.matrix_to_json(op)))
    return str(path)


@pytest.fixture
def symbol_file(tmp_path):
    sym = geometric_symbol(3)
    path = tmp_path / "sym.json"
    path.write_text(json.dumps({"levels": 3, "r": list(sym.values)}))
    return str(path)


@pytest.fixture
def gram256_file(tmp_path, rng):
    op = random_gram(rng, 256)
    path = tmp_path / "m256.json"
    path.write_text(json.dumps(w.matrix_to_json(op)))
    return op, path


def _child_env(**threads):
    """Environment of a fresh process: ``src`` on the path, no *_THREADS variable but ``threads``."""
    env = {k: v for k, v in os.environ.items() if not k.endswith("_THREADS")}
    src = str(Path(w.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return {**env, **threads}


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
        assert main(["decompose", "--in", str(path), "--levels", "2", "--report", str(out)]) == 0
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
        assert main(["decompose", "--in", str(path), "--levels", "1"]) == 3

    def test_bad_levels_exits_5(self, matrix_file):
        assert main(["decompose", "--in", matrix_file, "--levels", "4"]) == 5

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

    def test_hs_mode_block_diagonal_gamma_one(self, tmp_path, rng):
        tree = w.build_shannon_tree(3, 1)
        from helpers import block_diagonal_gram

        op = block_diagonal_gram(rng, tree, 1, 8)
        path = tmp_path / "bd.json"
        path.write_text(json.dumps(w.matrix_to_json(op)))
        rep = tmp_path / "g.json"
        code = main(
            ["greedy", "--in", str(path), "--depth", "1", "--mode", "hs",
             "--steps", "5", "--report", str(rep)]
        )
        assert code == 0
        for step in json.loads(rep.read_text())["steps"]:
            assert step["gamma"] == pytest.approx(1.0, abs=1e-9)

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

    @pytest.mark.parametrize("tol", ["nan", "-1e-12", "inf"])
    def test_bad_stop_tol_exits_5(self, tmp_path, capsys, tol):
        rep = tmp_path / "g.json"
        # checked before the (absent) input is read
        assert main(["greedy", "--in", str(tmp_path / "absent.json"), "--depth", "1",
                     f"--stop-tol={tol}", "--report", str(rep)]) == 5
        assert "--stop-tol" in capsys.readouterr().err
        assert not rep.exists()

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
                                            _child_env(OPENBLAS_NUM_THREADS=threads)))
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
        default = _trace_greedy_report(path, tmp_path / "default.json", _child_env())
        one = _trace_greedy_report(path, tmp_path / "one.json",
                                   _child_env(OPENBLAS_NUM_THREADS="1"))
        assert default == one


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

    def test_identity_at_full_selection(self, image_files, tmp_path):
        _, noisy = image_files
        out = tmp_path / "same.pgm"
        code = main(["denoise", "--in", noisy, "--patch-side", "8", "--depth", "2",
                     "--topk", "16", "--stride", "4", "--out", str(out)])
        assert code == 0
        assert out.read_bytes() == Path(noisy).read_bytes()

    def test_config_violation_exits_5(self, image_files, tmp_path):
        _, noisy = image_files
        assert main(["denoise", "--in", noisy, "--patch-side", "8", "--depth", "4",
                     "--out", str(tmp_path / "x.pgm")]) == 5
        assert main(["denoise", "--in", noisy, "--tree", "shannon",
                     "--out", str(tmp_path / "x.pgm")]) == 5

    def test_malformed_pgm_exits_2(self, tmp_path):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P5\n8 8\n255\nshort")
        assert main(["denoise", "--in", str(bad), "--patch-side", "4", "--depth", "1",
                     "--out", str(tmp_path / "x.pgm")]) == 2

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
        assert w.read_pgm(bad).pixels.shape == (4, 4)

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
        assert np.array_equal(w.read_pgm(p2).pixels, w.read_pgm(p5).pixels)

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

    def test_corrupt_tree_fails_with_named_invariant(self, capsys):
        assert main(["selftest", "--quick", "--corrupt-tree"]) == 1
        out = capsys.readouterr().out
        assert "FAIL  tree-axioms" in out

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


THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SHOW_THREADS = f"import json, os; print(json.dumps([os.environ.get(v) for v in {THREAD_VARS!r}]))"


class TestThreadPolicy:
    @pytest.mark.parametrize("code, threads, want", [
        ("import wpcontent.cli", {}, ["1", "1", "1"]),
        ("import wpcontent.cli", {"OMP_NUM_THREADS": "2"}, [None, "2", None]),
        ("import numpy, wpcontent.cli", {}, [None, None, None]),
    ], ids=["unset-means-one", "set-variable-wins", "numpy-first-keeps-environment"])
    def test_environment_after_cli_import(self, code, threads, want):
        assert _fresh(f"{code}; {SHOW_THREADS}", _child_env(**threads)) == want


EXPORTED = sorted("""
    AbsoluteContinuityViolation BlockScores CoherenceValue ConfigError ContentBlock
    ContentDecomposition CylinderWeights DenoiseConfig DimensionMismatchError ExtractionStep
    ExtractionTrace FilterPair ImageBuffer InvalidDepthError InvalidFilterError
    MalformedInputError NotPositiveError NumericalBreakdownError PacketNode PacketTree
    PatchSet PsdOperator Selection ShannonSymbol SymMatrix UndefinedCoherenceError
    UnknownNodeError WpcError add_gaussian_noise block_scores build_filter_tree_1d
    build_filter_tree_2d build_shannon_tree coherence conditional_expectation
    content_operator cylinder_weights d4_filter decay_report denoise_image
    depth_decomposition discrete_density extract_patches extract_sequence filter_from_json
    haar_filter hs_greedy hs_norm loewner_leq make_psd matrix_from_json matrix_to_json
    named_filter parallelogram_check projection psnr quantize read_pgm second_moment
    select_top_k sqrt_psd sym_eigen trace trace_greedy trace_payload tree_description
    validate_tree vector_weight write_pgm
""".split())


class TestLazyPackage:
    def test_import_leaves_numpy_unloaded(self):
        code = "import json, sys, wpcontent; print(json.dumps('numpy' in sys.modules))"
        assert _fresh(code, _child_env()) is False

    def test_every_exported_name_resolves_in_a_fresh_process(self):
        code = (
            "import json, wpcontent as w\n"
            "from wpcontent import trace_greedy, psdcore\n"
            "print(json.dumps([sorted(w.__all__), all(hasattr(w, n) for n in w.__all__),\n"
            "    trace_greedy is w.greedy.trace_greedy, psdcore.trace is w.trace,\n"
            "    set(w.__all__) <= set(dir(w))]))"
        )
        names, *resolved = _fresh(code, _child_env())
        assert names == EXPORTED and len(names) == 69
        assert all(resolved)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            w.no_such_name
        with pytest.raises(ImportError):
            exec("from wpcontent import no_such_name", {})


SUBMODULES = sorted(f"wpcontent.{m}" for m in (
    "cli", "content", "denoise", "errors", "greedy", "pgm", "psdcore", "selftest", "tree"))
LAZY_LAYERS = ("denoise", "greedy", "pgm", "selftest")


class TestLazyLayers:
    def test_cli_import_registers_every_submodule(self):
        # a tracer that wraps every wpcontent module in sys.modules relies on this
        code = ("import json, sys, wpcontent.cli\n"
                "print(json.dumps(sorted(n for n in sys.modules if n.startswith('wpcontent.'))))")
        assert _fresh(code, _child_env()) == SUBMODULES

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
                              env=_child_env())
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
        assert _fresh(code, _child_env()) == [0, False]
