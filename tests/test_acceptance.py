"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The shared ensemble is 50 seeded random Gram PSD operators with dims
8/16/32, exercised on matching frequency-band trees (levels 3-5) and
Haar / D4 filter-bank trees at depths 1-3.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

import wpcontent as w

from helpers import (
    band_positions,
    block_diagonal_gram,
    child_env,
    children,
    dense_pinching,
    dense_root,
    loewner_leq,
    masses,
    matrix_json,
    piecewise_smooth_image,
    random_gram,
    spread_vector,
)

ENSEMBLE_SEED = 987654321
DEPTHS = (1, 2, 3)


def _trees_for(dim):
    levels = dim.bit_length() - 1
    return [
        w.build_shannon_tree(levels, 3),
        w.build_filter_tree_1d("haar", dim, 3),
        w.build_filter_tree_1d("d4", dim, 3),
    ]


@pytest.fixture(scope="module")
def ensemble():
    rng = np.random.default_rng(ENSEMBLE_SEED)
    trees = {dim: _trees_for(dim) for dim in (8, 16, 32)}
    for dim, ts in trees.items():
        for t in ts:
            assert max(w.validate_tree(t).values()) <= 1e-10
    dims = [8] * 17 + [16] * 17 + [32] * 16
    ops = [(dim, random_gram(rng, dim)) for dim in dims]
    return trees, ops


def _stamp(num, name, ok, elapsed, budget=None):
    status = "PASS" if ok else "FAIL"
    extra = f" ({elapsed:.1f}s < {budget:.0f}s)" if budget else f" ({elapsed:.1f}s)"
    print(f"criterion {num} [{name}]: {status}{extra}")
    assert ok


def test_criterion_1_reconstruction(ensemble):
    trees, ops = ensemble
    start = time.monotonic()
    worst = 0.0
    for dim, op in ops:
        fro = w.hs_norm(op)
        for tree in trees[dim]:
            for n in DEPTHS:
                blocks, _ = w.depth_decomposition(op, tree, n)
                err = float(np.linalg.norm(sum(blocks) - op.matrix))
                worst = max(worst, err / (1e-8 * (1.0 + fro)))
    elapsed = time.monotonic() - start
    _stamp(1, "reconstruction", worst <= 1.0 and elapsed < 30.0, elapsed, 30.0)


def test_criterion_2_shannon_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(ENSEMBLE_SEED + 2)
    levels = 4
    tree = w.build_shannon_tree(levels, levels)
    worst = 0.0
    for _ in range(20):
        vals = rng.uniform(0.0, 1.0, size=2**levels)
        op = w.symbol_operator(w.shannon_symbol(vals))
        weights = w.cylinder_weights(op, tree)
        for row in weights["cylinders"]:
            direct = float(sum(vals[p] for p in band_positions(levels, row["word"])))
            worst = max(worst, abs(row["mass"] - direct))
    elapsed = time.monotonic() - start
    _stamp(2, "band-sum oracle", worst <= 1e-12 and elapsed < 5.0, elapsed, 5.0)


def test_criterion_3_trace_greedy_envelope(ensemble):
    trees, ops = ensemble
    start = time.monotonic()
    ok = True
    for dim, op in ops:
        total = w.trace(op)
        for tree in trees[dim]:
            for n in DEPTHS:
                nn = len(tree.nodes_at(n))
                run = w.trace_greedy(op, tree, n, max_steps=4 * nn)
                for step in run.steps:
                    bound = (1.0 - 1.0 / nn) ** step["k"] * total * (1.0 + 1e-9)
                    ok = ok and step["remainder_trace"] <= bound
    # diagonal multipliers: the greedy zeroes one band per step, so the
    # remainder is numerically zero after at most one step per node
    rng = np.random.default_rng(ENSEMBLE_SEED + 3)
    for levels in (3, 4, 5):
        tree = w.build_shannon_tree(levels, 3)
        vals = rng.uniform(0.1, 1.0, size=2**levels)
        op = w.symbol_operator(w.shannon_symbol(vals))
        for n in DEPTHS:
            nn = len(tree.nodes_at(n))
            run = w.trace_greedy(op, tree, n, max_steps=2 * nn)
            ok = ok and len(run.steps) <= nn
            ok = ok and w.trace(run.final_remainder) <= 1e-12 * w.trace(op)
    elapsed = time.monotonic() - start
    _stamp(3, "trace-greedy envelope", ok and elapsed < 60.0, elapsed, 60.0)


def test_criterion_4_hs_greedy_envelopes(ensemble):
    trees, ops = ensemble
    start = time.monotonic()
    ok = True
    for dim, op in ops:
        init_sq = w.hs_norm(op) ** 2
        for tree in trees[dim]:
            for n in DEPTHS:
                nn = len(tree.nodes_at(n))
                run = w.hs_greedy(op, tree, n, max_steps=4 * nn)
                prev_sq = init_sq
                for step in run.steps:
                    rem_sq = step["remainder_hs"] ** 2
                    per_step = 1.0 - 1.0 / (step["gamma"] * nn)
                    ok = ok and rem_sq <= per_step * prev_sq + 1e-9 * (1.0 + prev_sq)
                    uniform = (1.0 - 1.0 / nn**2) ** step["k"] * init_sq
                    ok = ok and rem_sq <= uniform + 1e-9 * (1.0 + init_sq)
                    prev_sq = rem_sq
    # block-diagonal inputs keep coherence 1, so every step contracts by 1 - 1/N
    rng = np.random.default_rng(ENSEMBLE_SEED + 4)
    for dim in (8, 16):
        for tree in trees[dim]:
            for n in (1, 2):
                nn = len(tree.nodes_at(n))
                op = block_diagonal_gram(rng, tree, n, dim)
                run = w.hs_greedy(op, tree, n, max_steps=2 * nn)
                prev_sq = w.hs_norm(op) ** 2
                for step in run.steps:
                    rem_sq = step["remainder_hs"] ** 2
                    ok = ok and rem_sq <= (1.0 - 1.0 / nn) * prev_sq + 1e-9 * (1.0 + prev_sq)
                    prev_sq = rem_sq
    elapsed = time.monotonic() - start
    _stamp(4, "hs-greedy envelopes", ok and elapsed < 90.0, elapsed, 90.0)


def test_criterion_5_coherence(ensemble):
    trees, ops = ensemble
    start = time.monotonic()
    ok = True
    for dim, op in ops:
        for tree in trees[dim]:
            for n in DEPTHS:
                nn = len(tree.nodes_at(n))
                gamma = w.coherence(op, tree, n)
                ok = ok and (1.0 - 1e-9 <= gamma <= nn + 1e-9)
    rng = np.random.default_rng(ENSEMBLE_SEED + 5)
    for dim in (8, 16):
        for tree in trees[dim]:
            for n in (1, 2):
                nn = len(tree.nodes_at(n))
                block_diag = block_diagonal_gram(rng, tree, n, dim)
                ok = ok and abs(w.coherence(block_diag, tree, n) - 1.0) <= 1e-9
                v = spread_vector(tree, n)
                rank_one = w.PsdOperator(np.outer(v, v))
                ok = ok and abs(w.coherence(rank_one, tree, n) - nn) <= 1e-6
    # pinching identity, via the independent dense-block route
    for dim in (8, 16):
        op = random_gram(rng, dim)
        for tree in trees[dim]:
            blocks, _ = w.depth_decomposition(op, tree, 2)
            dense_sum = sum(w.hs_norm(blk) ** 2 for blk in blocks)
            pinched = dense_pinching(op.matrix, tree, 2)
            cross = float(np.sum(pinched * op.matrix))
            ok = ok and abs(dense_sum - cross) <= 1e-8 * max(dense_sum, cross)
    elapsed = time.monotonic() - start
    _stamp(5, "coherence bounds", ok, elapsed)


def test_criterion_6_extraction_never_grows_hs(ensemble):
    trees, _ = ensemble
    start = time.monotonic()
    rng = np.random.default_rng(ENSEMBLE_SEED + 6)
    ok = True
    dims = (8, 16, 32)
    for _ in range(200):
        dim = dims[int(rng.integers(3))]
        tree = trees[dim][int(rng.integers(len(trees[dim])))]
        a = random_gram(rng, dim)
        depth = int(rng.integers(1, 4))
        nodes = tree.nodes_at(depth)
        node = nodes[int(rng.integers(len(nodes)))]
        b = tree.basis(node)
        m = b @ dense_root(a)
        d = m.T @ m
        lhs = float(np.sum((a.matrix - d) ** 2))
        rhs = float(np.sum(a.matrix**2)) - float(np.sum(d**2))
        ok = ok and lhs <= rhs + 1e-9 * float(np.sum(a.matrix**2))
    elapsed = time.monotonic() - start
    _stamp(6, "pythagorean HS bound", ok, elapsed)


def test_criterion_7_measure_structure(ensemble):
    trees, ops = ensemble
    start = time.monotonic()
    ok = True
    for dim, op in ops:
        total = w.trace(op)
        for tree in trees[dim]:
            weights = masses(w.cylinder_weights(op, tree))
            ok = ok and abs(weights[tree.root] - total) <= 1e-9 * (1.0 + total)
            for node in tree.all_nodes():
                kids = children(tree, node)
                if kids:
                    gap = abs(weights[node] - sum(weights[k] for k in kids))
                    ok = ok and gap <= 1e-9 * (1.0 + total)
    rng = np.random.default_rng(ENSEMBLE_SEED + 7)
    for _ in range(100):
        dim, op = ops[int(rng.integers(len(ops)))]
        tree = trees[dim][int(rng.integers(len(trees[dim])))]
        x = rng.standard_normal(dim)
        y = rng.standard_normal(dim)
        lam_max = float(op.eigenvalues[0])
        budget = 1e-9 * (1.0 + lam_max * (np.linalg.norm(x) + np.linalg.norm(y)) ** 2)
        ok = ok and w.parallelogram_check(op, tree, x, y, 3) <= budget
    # zero-mass cylinders carry zero vector weight
    levels = 4
    tree = w.build_shannon_tree(levels, 3)
    vals = rng.uniform(0.1, 1.0, size=2**levels)
    vals[:4] = 0.0  # kill the band of node "00"
    op = w.symbol_operator(w.shannon_symbol(vals))
    for _ in range(10):
        x = rng.standard_normal(2**levels)
        ok = ok and w.vector_weight(op, tree, x, "00") <= 1e-12 * w.trace(op)
        dens = w.discrete_density(op, tree, x, 2)
        ok = ok and "00" not in dens
    elapsed = time.monotonic() - start
    _stamp(7, "measure structure", ok, elapsed)


def test_criterion_8_denoising(tmp_path):
    start = time.monotonic()
    clean = piecewise_smooth_image(64)
    noisy = w.add_gaussian_noise(clean, 0.1, 42)
    improvements = []
    for k in (2, 4, 8):
        cfg = w.DenoiseConfig(patch_side=8, depth=2, top_k=k, stride=4)
        _, report = w.denoise_image(noisy, cfg, clean=clean)
        improvements.append(report["psnr_denoised"] > report["psnr_noisy"])
    ok = any(improvements)

    # full selection reproduces the quantized input byte for byte
    noisy_path = tmp_path / "noisy.pgm"
    w.write_pgm(noisy_path, noisy)
    read_back = w.read_pgm(noisy_path)
    out, _ = w.denoise_image(read_back, w.DenoiseConfig(patch_side=8, depth=2, top_k=16, stride=4))
    out_path = tmp_path / "out.pgm"
    w.write_pgm(out_path, out)
    ok = ok and out_path.read_bytes() == noisy_path.read_bytes()

    # the selected and discarded parts of the second-moment operator stay PSD
    patches = w.PatchSet(noisy, 8, 4)
    tree = w.build_filter_tree_2d("haar", 8, 2)
    rhat = w.second_moment(patches)
    scores = w.block_scores(patches, tree, 2)
    sel = w.select_top_k(scores, 4)
    kept = sum(w.content_operator(rhat, tree, tree.nodes_at(2)[i]) for i in sel)
    rest = rhat.matrix - kept
    zero = np.zeros_like(kept)
    ok = ok and loewner_leq(zero, kept)
    ok = ok and loewner_leq(zero, rest)
    elapsed = time.monotonic() - start
    _stamp(8, "denoising pipeline", ok and elapsed < 30.0, elapsed, 30.0)


def test_criterion_9_cli_determinism(tmp_path):
    start = time.monotonic()
    rng = np.random.default_rng(ENSEMBLE_SEED + 9)
    op = random_gram(rng, 16)
    matrix_path = tmp_path / "m.json"
    matrix_path.write_text(json.dumps(matrix_json(op)))
    clean = piecewise_smooth_image(32)
    img_path = tmp_path / "img.pgm"
    w.write_pgm(img_path, clean)

    def run(args):
        proc = subprocess.run(
            [sys.executable, "-m", "wpcontent.cli", *args],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        return proc

    outputs = []
    for tag in ("a", "b"):
        rep = tmp_path / f"greedy-{tag}.json"
        csv_path = tmp_path / f"greedy-{tag}.csv"
        run(["greedy", "--in", str(matrix_path), "--tree", "shannon", "--depth", "2",
             "--mode", "hs", "--steps", "12", "--report", str(rep), "--csv", str(csv_path)])
        den = tmp_path / f"den-{tag}.pgm"
        drep = tmp_path / f"den-{tag}.json"
        run(["denoise", "--in", str(img_path), "--sigma", "0.1", "--seed", "7",
             "--patch-side", "8", "--depth", "2", "--topk", "4",
             "--out", str(den), "--report", str(drep)])
        outputs.append((rep.read_bytes(), csv_path.read_bytes(), den.read_bytes(), drep.read_bytes()))
    ok = outputs[0] == outputs[1]
    elapsed = time.monotonic() - start
    _stamp(9, "CLI determinism", ok, elapsed)
