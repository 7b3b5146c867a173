"""Packet-transform scoring against the per-node dense route of tests/helpers.

Scores come from segment operations on the per-depth transform W_n and
may differ from the per-node products only in the last bits, so every
comparison allows 1e-12 * (1 + ||A||).
"""

import numpy as np
import pytest

import wpcontent as w

from helpers import dense_blocks, dense_coefficient_energies, dense_pinching, random_gram


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
            got = w.conditional_expectation(a, tree, n).entries
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
        ps = w.PatchSet(side, 1, tuple((0, i) for i in range(40)), y)
        rhat = y.T @ y / 40
        for n in range(tree.max_depth + 1):
            got = w.block_scores(ps, tree, n).values
            assert close(got, dense_coefficient_energies(y, tree, n), rhat)


def test_shannon_bases_share_one_array():
    tree = w.build_shannon_tree(4, 4)
    root = tree.basis(tree.root)
    assert all(np.shares_memory(tree.basis(nd), root) for nd in tree.all_nodes())
