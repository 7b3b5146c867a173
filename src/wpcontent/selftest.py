"""Embedded invariant suite behind the ``selftest`` subcommand.

Runs the core correctness checks (tree axioms, depth reconstruction,
frequency-band oracle, greedy decay envelopes, coherence bounds, the
parallelogram law, cylinder additivity) on seeded random instances and
reports one pass/fail row per invariant.
"""

from __future__ import annotations

import numpy as np

from .content import cylinder_weights, depth_decomposition, parallelogram_check
from .greedy import coherence, decay_report, hs_greedy, trace_greedy
from .psdcore import SymMatrix, hs_norm, make_psd
from .tree import (
    PacketTree,
    build_filter_tree_1d,
    build_filter_tree_2d,
    build_shannon_tree,
    d4_filter,
    haar_filter,
    validate_tree,
)

DEFAULT_SEED = 20240801


def corrupted_tree_fixture() -> PacketTree:
    """Frequency-band tree with one basis row of node "0" zeroed; must fail validation."""
    t = build_shannon_tree(3, 2)
    transforms = [t.transform(n) for n in range(t.max_depth + 1)]
    transforms[1] = transforms[1].copy()
    transforms[1][0, :] = 0.0
    return PacketTree(
        t.realization, t.ambient_dim, t.max_depth, t._levels, transforms, t._children
    )


def _random_gram(rng, dim: int):
    g = rng.standard_normal((dim, dim))
    return make_psd(SymMatrix(g.T @ g / dim))


def _band_sum(values: np.ndarray, levels: int, word: str) -> float:
    """Direct symbol block sum over the node's frequency band."""
    size = 2 ** (levels - len(word))
    start = (int(word, 2) if word else 0) * size
    return float(np.sum(values[start : start + size]))


def run_selftest(seed: int = DEFAULT_SEED, quick: bool = False, corrupt_tree: bool = False):
    """Run the suite; returns (all_ok, rows) with one row per invariant."""
    rng = np.random.default_rng(seed)
    rows = []

    def add(name: str, violation: float, tol: float) -> None:
        rows.append(
            {"name": name, "violation": float(violation), "tolerance": tol, "ok": violation <= tol}
        )

    trees = [
        build_shannon_tree(3, 3),
        build_filter_tree_1d(haar_filter(), 8, 2),
        build_filter_tree_1d(d4_filter(), 8, 2),
        build_filter_tree_2d(haar_filter(), 4, 2),
    ]
    if corrupt_tree:
        trees.append(corrupted_tree_fixture())
    add("tree-axioms", max(validate_tree(t).max_violation() for t in trees), 1e-10)

    if quick:
        cases = [(build_shannon_tree(3, 2), 8), (build_filter_tree_1d(haar_filter(), 8, 2), 8)]
        grams_per_case = 1
    else:
        cases = [
            (build_shannon_tree(3, 3), 8),
            (build_filter_tree_1d(haar_filter(), 16, 3), 16),
            (build_filter_tree_1d(d4_filter(), 16, 3), 16),
            (build_filter_tree_2d(haar_filter(), 4, 2), 16),
        ]
        grams_per_case = 2

    recon = oracle = trace_env = hs_env = coh_bounds = para = additivity = 0.0
    for tree, dim in cases:
        for _ in range(grams_per_case):
            r = _random_gram(rng, dim)
            r_fro = hs_norm(r)
            for n in range(1, tree.max_depth + 1):
                dec = depth_decomposition(r, tree, n)
                total = np.zeros((dim, dim))
                for blk in dec.blocks:
                    total += blk.operator.matrix
                recon = max(recon, float(np.max(np.abs(total - r.matrix))) / (1.0 + r_fro))

            cw = cylinder_weights(r, tree)
            rt = abs(cw.mass(tree.root) - dec.source_trace) / (1.0 + dec.source_trace)
            gap = cw.max_additivity_gap / (1.0 + dec.source_trace)
            additivity = max(additivity, rt, gap)

            x = rng.standard_normal(dim)
            y = rng.standard_normal(dim)
            scale = 1.0 + float(r.eigenvalues[0]) * (
                np.linalg.norm(x) + np.linalg.norm(y)
            ) ** 2
            para = max(para, parallelogram_check(r, tree, x, y, tree.max_depth) / scale)

            n = tree.max_depth
            nn = len(tree.nodes_at(n))
            run = trace_greedy(r, tree, n, max_steps=3 * nn)
            for row in decay_report(run)["rows"]:
                excess = (row["remainder_trace"] - row["bound_trace"]) / (
                    1.0 + run.initial_trace
                )
                trace_env = max(trace_env, excess)
            run = hs_greedy(r, tree, n, max_steps=3 * nn)
            rep = decay_report(run)
            for row in rep["rows"]:
                excess = (row["remainder_hs"] ** 2 - row["bound_hs"] ** 2) / (
                    1.0 + run.initial_hs**2
                )
                hs_env = max(hs_env, excess)
                if not row["bound_satisfied"]:
                    hs_env = max(hs_env, 1.0)

            gamma = coherence(r, tree, n).gamma
            coh_bounds = max(coh_bounds, max(1.0 - gamma, gamma - nn, 0.0))

    add("depth-reconstruction", recon, 1e-8)
    add("cylinder-additivity", additivity, 1e-9)
    add("parallelogram", para, 1e-9)
    add("trace-envelope", trace_env, 1e-9)
    add("hs-envelope", hs_env, 1e-9)
    add("coherence-bounds", coh_bounds, 1e-9)

    levels = 4
    sh_tree = build_shannon_tree(levels, levels)
    n_sym = 2 if quick else 5
    for _ in range(n_sym):
        vals = rng.uniform(0.0, 1.0, size=2**levels)
        r = make_psd(SymMatrix(np.diag(vals)))
        cw = cylinder_weights(r, sh_tree)
        for word, _, mass in cw.rows:
            oracle = max(oracle, abs(mass - _band_sum(vals, levels, word)))
    add("band-oracle", oracle, 1e-12)

    return all(row["ok"] for row in rows), rows


def format_rows(rows) -> str:
    name_w = max(len(r["name"]) for r in rows)
    lines = []
    for r in rows:
        status = "PASS" if r["ok"] else "FAIL"
        lines.append(
            f"{status}  {r['name']:<{name_w}}  violation {r['violation']:.3e}"
            f"  tolerance {r['tolerance']:.1e}"
        )
    return "\n".join(lines)
