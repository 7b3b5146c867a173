import dataclasses

import numpy as np
import pytest

import wpcontent as w
from wpcontent.selftest import corrupted_tree_fixture

from helpers import band_positions, geometric_symbol, random_gram


def content_trees():
    return [
        w.build_shannon_tree(3, 3),
        w.build_filter_tree_1d(w.haar_filter(), 8, 3),
        w.build_filter_tree_1d(w.d4_filter(), 16, 2),
        w.build_filter_tree_2d(w.haar_filter(), 4, 2),
    ]


def symbol_values(rng, levels):
    """Uniform values with zeros, ties and negative noise inside the 1e-10 clamp."""
    v = rng.uniform(0.0, 1.0, 2**levels)
    v[::5] = 0.0
    v[1::7] = v[1]
    v[3::11] = -3e-11 * v.max()
    return v


def weight_bits(cw):
    """Every number of a CylinderWeights as float.hex, which tells -0.0 from 0.0."""
    rows = [(word, depth, mass.hex()) for word, depth, mass in cw.rows]
    return rows, cw.source_trace.hex(), cw.max_additivity_gap.hex()


class TestContentOperator:
    def test_root_block_is_source(self, rng):
        tree = w.build_shannon_tree(3, 2)
        r = random_gram(rng, 8)
        blk = w.content_operator(r, tree, tree.root)
        assert np.max(np.abs(blk.operator.matrix - r.matrix)) <= 1e-12 * (1 + w.trace(r))

    def test_shannon_diagonal_equals_masked_diagonal(self):
        # diagonal input commutes with the band projections, so the block
        # is the diagonal restricted to the band
        sym = geometric_symbol(3)
        r = sym.to_operator()
        tree = w.build_shannon_tree(3, 2)
        for node in tree.all_nodes():
            blk = w.content_operator(r, tree, node)
            mask = np.zeros(8)
            mask[band_positions(3, node.word)] = 1.0
            expect = np.diag(mask * np.diag(r.matrix))
            assert np.max(np.abs(blk.operator.matrix - expect)) <= 1e-12

    def test_rank_one_formula(self, rng):
        tree = w.build_filter_tree_1d(w.d4_filter(), 8, 2)
        v = rng.standard_normal(8)
        v /= np.linalg.norm(v)
        r = w.make_psd(w.SymMatrix(np.outer(v, v)))
        for node in tree.nodes_at(2):
            blk = w.content_operator(r, tree, node)
            p = w.projection(tree, node).matrix
            weight = float(v @ p @ v)
            # square-rooting amplifies rounding in the zero eigenvalues to ~sqrt(eps)
            assert np.max(np.abs(blk.operator.matrix - weight * np.outer(v, v))) <= 1e-7

    def test_block_invariants(self, rng):
        tree = w.build_filter_tree_1d(w.haar_filter(), 8, 2)
        r = random_gram(rng, 8)
        for node in tree.nodes_at(2):
            blk = w.content_operator(r, tree, node)
            assert blk.trace_weight == pytest.approx(w.trace(blk.operator), rel=1e-10)
            assert blk.hs_weight == pytest.approx(w.hs_norm(blk.operator), rel=1e-10)
            assert np.all(blk.operator.eigenvalues >= 0)
            assert w.loewner_leq(blk.operator, r, tol=1e-8)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(w.DimensionMismatchError):
            w.content_operator(random_gram(rng, 4), w.build_shannon_tree(3, 1), w.PacketNode("0", 1))


class TestDepthDecomposition:
    def test_identity_on_shannon(self):
        r = w.make_psd(w.SymMatrix(np.eye(8)))
        tree = w.build_shannon_tree(3, 1)
        dec = w.depth_decomposition(r, tree, 1)
        assert [b.node.word for b in dec.blocks] == ["0", "1"]
        assert dec.blocks[0].trace_weight == pytest.approx(4.0, abs=1e-12)
        assert dec.blocks[1].trace_weight == pytest.approx(4.0, abs=1e-12)
        mask = np.diag([1.0] * 4 + [0.0] * 4)
        assert np.max(np.abs(dec.blocks[0].operator.matrix - mask)) <= 1e-12

    def test_symbol_block_traces_match_band_sums(self):
        sym = geometric_symbol(3)
        r = sym.to_operator()
        tree = w.build_shannon_tree(3, 2)
        dec = w.depth_decomposition(r, tree, 2)
        for blk in dec.blocks:
            expect = sum(sym.values[p] for p in band_positions(3, blk.node.word))
            assert blk.trace_weight == pytest.approx(expect, abs=1e-12)

    @pytest.mark.parametrize("tree", content_trees(), ids=lambda t: f"{t.realization}-{t.ambient_dim}")
    def test_reconstruction(self, rng, tree):
        r = random_gram(rng, tree.ambient_dim)
        fro = w.hs_norm(r)
        for n in range(1, tree.max_depth + 1):
            dec = w.depth_decomposition(r, tree, n)
            total = sum(blk.operator.matrix for blk in dec.blocks)
            assert np.linalg.norm(total - r.matrix) <= 1e-8 * (1.0 + fro)
            assert sum(b.trace_weight for b in dec.blocks) == pytest.approx(
                dec.source_trace, rel=1e-8
            )

    def test_child_telescoping(self, rng):
        tree = w.build_filter_tree_1d(w.d4_filter(), 16, 2)
        r = random_gram(rng, 16)
        fro = w.hs_norm(r)
        for node in tree.all_nodes():
            kids = tree.children(node)
            if not kids:
                continue
            parent = w.content_operator(r, tree, node).operator.matrix
            total = sum(w.content_operator(r, tree, k).operator.matrix for k in kids)
            assert np.linalg.norm(parent - total) <= 1e-8 * (1.0 + fro)

    @pytest.mark.parametrize("delta, raises", [(1e-6, True), (0.5e-8, False)],
                             ids=["1e-6-breaks", "0.5e-8-passes"])
    def test_moved_entry_against_the_reconstruction_budget(self, rng, monkeypatch, delta, raises):
        # the budget is 1e-8 ||R||: the first depth-1 block gains ``delta * ||R||`` at (0, 0)
        tree = w.build_filter_tree_1d(w.haar_filter(), 8, 2)
        r = random_gram(rng, 8)
        real = w.content.content_operator
        first = tree.nodes_at(1)[0]

        def shifted(r_, tr_, node):
            blk = real(r_, tr_, node)
            if node != first:
                return blk
            bump = np.zeros((8, 8))
            bump[0, 0] = delta * w.hs_norm(r)
            return dataclasses.replace(blk, operator=w.make_psd(blk.operator.matrix + bump))

        monkeypatch.setattr(w.content, "content_operator", shifted)
        if raises:
            with pytest.raises(w.NumericalBreakdownError, match="reconstruct"):
                w.depth_decomposition(r, tree, 1)
        else:
            assert w.depth_decomposition(r, tree, 1).max_error <= 1e-8 * w.hs_norm(r)


class TestCylinderWeights:
    @pytest.mark.parametrize("tree", content_trees(), ids=lambda t: f"{t.realization}-{t.ambient_dim}")
    def test_additivity_and_root_mass(self, rng, tree):
        r = random_gram(rng, tree.ambient_dim)
        cw = w.cylinder_weights(r, tree)
        total = w.trace(r)
        assert cw.mass(tree.root) == pytest.approx(total, rel=1e-10)
        for node in tree.all_nodes():
            kids = tree.children(node)
            if kids:
                child_sum = sum(cw.mass(k) for k in kids)
                assert cw.mass(node) == pytest.approx(child_sum, rel=1e-9, abs=1e-9 * total)
            assert cw.mass(node) >= 0.0

    def test_matches_dense_block_traces(self, rng):
        # dual route: the fast projection-trace path vs dense block construction
        tree = w.build_filter_tree_2d(w.haar_filter(), 4, 2)
        r = random_gram(rng, 16)
        cw = w.cylinder_weights(r, tree)
        for node in tree.all_nodes():
            dense = w.content_operator(r, tree, node).trace_weight
            assert cw.mass(node) == pytest.approx(dense, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("levels", range(1, 11))
    def test_symbol_route_is_bit_identical_on_shannon(self, rng, levels, monkeypatch):
        sym = w.ShannonSymbol(levels, symbol_values(rng, levels))
        dense = sym.to_operator()
        trees = [w.build_shannon_tree(levels, depth) for depth in range(1, levels + 1)]
        want = [weight_bits(w.cylinder_weights(dense, tree)) for tree in trees]

        def no_eye(*_, **__):
            raise AssertionError("the symbol route formed an identity matrix")

        monkeypatch.setattr(np, "eye", no_eye)
        assert [weight_bits(w.cylinder_weights(sym, tree)) for tree in trees] == want

    @pytest.mark.parametrize("name", ["haar", "d4"])
    @pytest.mark.parametrize("levels,depth", [(2, 1), (4, 4), (6, 3), (8, 2)])
    def test_symbol_route_is_bit_identical_on_filter_trees(self, rng, name, levels, depth):
        sym = w.ShannonSymbol(levels, symbol_values(rng, levels))
        tree = w.build_filter_tree_1d(w.named_filter(name), 2**levels, depth)
        got = weight_bits(w.cylinder_weights(sym, tree))
        assert got == weight_bits(w.cylinder_weights(sym.to_operator(), tree))

    def test_symbol_dimension_mismatch(self):
        with pytest.raises(w.DimensionMismatchError):
            w.cylinder_weights(geometric_symbol(3), w.build_shannon_tree(4, 2))

    def test_failure_is_not_labelled_with_a_step(self, rng):
        # the corrupted tree's node "0" misses one row, so additivity fails at the root
        with pytest.raises(w.NumericalBreakdownError) as exc:
            w.cylinder_weights(random_gram(rng, 8), corrupted_tree_fixture())
        assert "cylinder additivity" in str(exc.value)
        assert "at step" not in str(exc.value)
        assert exc.value.step is None

    def test_zero_operator(self):
        tree = w.build_shannon_tree(3, 2)
        r = w.make_psd(w.SymMatrix(np.zeros((8, 8))))
        cw = w.cylinder_weights(r, tree)
        assert all(mass == 0.0 for _, _, mass in cw.rows)

    def test_zero_trace_rigidity(self):
        # a band with zero symbol mass carries a zero block
        sym = w.ShannonSymbol(3, [0.0, 0.0, 0.0, 0.0, 1.0, 0.5, 0.25, 0.125])
        r = sym.to_operator()
        tree = w.build_shannon_tree(3, 2)
        for node in tree.all_nodes():
            blk = w.content_operator(r, tree, node)
            if blk.trace_weight <= 1e-12:
                assert blk.hs_weight <= 1e-10

    def test_export_rows(self, rng):
        tree = w.build_shannon_tree(2, 2)
        cw = w.cylinder_weights(random_gram(rng, 4), tree)
        rows = cw.to_rows()
        assert len(rows) == 7
        assert set(rows[0]) == {"word", "depth", "mass"}

    @pytest.mark.parametrize("moved, raises", [(1e-6, True), (0.5e-9, False)],
                             ids=["1e-6-breaks", "0.5e-9-passes"])
    def test_moved_mass_against_the_additivity_budget(self, rng, monkeypatch, moved, raises):
        # the budget is 1e-9 tr(R): one depth-1 mass moved by ``moved * tr(R)``
        tree = w.build_filter_tree_1d(w.haar_filter(), 8, 2)
        r = random_gram(rng, 8)
        real = w.content.trace_scores

        def shifted(a, tr_, n):
            out = np.array(real(a, tr_, n))
            out[0] += moved * w.trace(r) if n == 1 else 0.0
            return out

        monkeypatch.setattr(w.content, "trace_scores", shifted)
        if raises:
            with pytest.raises(w.NumericalBreakdownError, match="additivity"):
                w.cylinder_weights(r, tree)
        else:
            assert w.cylinder_weights(r, tree).max_additivity_gap <= 1e-9 * w.trace(r)


class TestVectorWeights:
    def test_zero_vector(self, rng):
        tree = w.build_shannon_tree(3, 1)
        r = random_gram(rng, 8)
        assert w.vector_weight(r, tree, np.zeros(8), tree.root) == 0.0

    def test_root_weight_is_quadratic_form(self, rng):
        tree = w.build_shannon_tree(3, 1)
        r = random_gram(rng, 8)
        x = rng.standard_normal(8)
        assert w.vector_weight(r, tree, x, tree.root) == pytest.approx(
            float(x @ r.matrix @ x), rel=1e-10
        )

    def test_shannon_coordinate_vectors(self):
        sym = geometric_symbol(3)
        r = sym.to_operator()
        tree = w.build_shannon_tree(3, 1)
        for pos in range(8):
            e = np.zeros(8)
            e[pos] = 1.0
            for node in tree.nodes_at(1):
                expect = sym.values[pos] if pos in band_positions(3, node.word) else 0.0
                assert w.vector_weight(r, tree, e, node) == pytest.approx(expect, abs=1e-14)


class TestDensities:
    def test_root_ratio(self, rng):
        tree = w.build_shannon_tree(3, 2)
        r = random_gram(rng, 8)
        x = rng.standard_normal(8)
        dens = w.discrete_density(r, tree, x, 0)
        assert dens[tree.root] == pytest.approx(
            float(x @ r.matrix @ x) / w.trace(r), rel=1e-9
        )

    def test_shannon_coordinate_density(self):
        sym = geometric_symbol(3)
        r = sym.to_operator()
        tree = w.build_shannon_tree(3, 1)
        e = np.zeros(8)
        e[2] = 1.0  # frequency k = -2, in the band of node "0"
        dens = w.discrete_density(r, tree, e, 1)
        block_sum = sum(sym.values[p] for p in band_positions(3, "0"))
        assert dens[w.PacketNode("0", 1)] == pytest.approx(sym.values[2] / block_sum, rel=1e-12)
        assert dens[w.PacketNode("1", 1)] == 0.0

    def test_zero_mass_node_omitted(self):
        sym = w.ShannonSymbol(3, [0.0, 0.0, 0.0, 0.0, 1.0, 0.5, 0.25, 0.125])
        r = sym.to_operator()
        tree = w.build_shannon_tree(3, 1)
        x = np.ones(8)
        dens = w.discrete_density(r, tree, x, 1)
        assert w.PacketNode("0", 1) not in dens
        assert w.PacketNode("1", 1) in dens


class TestParallelogram:
    def test_zero_y(self, rng):
        tree = w.build_shannon_tree(3, 2)
        r = random_gram(rng, 8)
        x = rng.standard_normal(8)
        assert w.parallelogram_check(r, tree, x, np.zeros(8), 2) <= 1e-12

    @pytest.mark.parametrize("tree", content_trees(), ids=lambda t: f"{t.realization}-{t.ambient_dim}")
    def test_random_pairs(self, rng, tree):
        r = random_gram(rng, tree.ambient_dim)
        lam_max = float(r.eigenvalues[0])
        for _ in range(5):
            x = rng.standard_normal(tree.ambient_dim)
            y = rng.standard_normal(tree.ambient_dim)
            budget = 1e-9 * (1.0 + lam_max * (np.linalg.norm(x) + np.linalg.norm(y)) ** 2)
            assert w.parallelogram_check(r, tree, x, y, tree.max_depth) <= budget

    @pytest.mark.parametrize("x_len, y_len", [(4, 4), (8, 4), (4, 8)])
    def test_rejects_bad_vectors(self, rng, x_len, y_len):
        tree = w.build_filter_tree_1d(w.haar_filter(), 8, 2)
        x, y = rng.standard_normal(x_len), rng.standard_normal(y_len)
        with pytest.raises(w.DimensionMismatchError):
            w.parallelogram_check(random_gram(rng, 8), tree, x, y, 2)

    def test_quadratic_homogeneity(self, rng):
        tree = w.build_filter_tree_1d(w.haar_filter(), 8, 2)
        r = random_gram(rng, 8)
        x = rng.standard_normal(8)
        for node in tree.nodes_at(2):
            w1 = w.vector_weight(r, tree, 2.0 * x, node)
            w2 = w.vector_weight(r, tree, x, node)
            assert w1 == pytest.approx(4.0 * w2, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("tree", [
    w.build_shannon_tree(3, 2),
    w.build_filter_tree_1d(w.haar_filter(), 8, 2),
    w.build_filter_tree_1d(w.d4_filter(), 16, 2),
], ids=lambda t: f"{t.realization}-{t.ambient_dim}")
def test_content_layer_forms_no_dense_root(rng, monkeypatch, tree):
    # dense route first: S = sqrt(R), C_w = (B S)^T (B S), energies ||B S x||^2
    d, n = tree.ambient_dim, tree.max_depth
    r = random_gram(rng, d)
    x, y = rng.standard_normal(d), rng.standard_normal(d)
    s = r.sqrt_entries()
    nodes = tree.nodes_at(n)
    blocks = [(tree.basis(nd) @ s).T @ (tree.basis(nd) @ s) for nd in nodes]
    imgs = s @ np.stack([x + y, x - y, x, y], axis=1)
    weights, para = [], 0.0
    for nd in nodes:
        e_sum, e_diff, e_x, e_y = np.sum((tree.basis(nd) @ imgs) ** 2, axis=0)
        weights.append(float(e_x))
        para = max(para, abs(e_sum + e_diff - 2.0 * e_x - 2.0 * e_y))
    masses = [float(np.trace(b)) for b in blocks]
    fro, lam_max = w.hs_norm(r), float(r.eigenvalues[0])
    budget = 1e-9 * (1.0 + lam_max * (np.linalg.norm(x) + np.linalg.norm(y)) ** 2)

    def no_sqrt(_):
        raise AssertionError("the content layer formed the square root")

    monkeypatch.setattr(w.PsdOperator, "sqrt_entries", no_sqrt)
    for nd, block in zip(nodes, blocks):
        got = w.content_operator(r, tree, nd).operator.matrix
        assert np.linalg.norm(got - block) <= 1e-8 * (1.0 + fro)
    for blk, block in zip(w.depth_decomposition(r, tree, n).blocks, blocks):
        assert np.linalg.norm(blk.operator.matrix - block) <= 1e-8 * (1.0 + fro)
    for nd, weight in zip(nodes, weights):
        assert w.vector_weight(r, tree, x, nd) == pytest.approx(weight, rel=1e-9, abs=1e-12)
    dens = w.discrete_density(r, tree, x, n)
    for nd, weight, mass in zip(nodes, weights, masses):
        assert dens[nd] == pytest.approx(weight / mass, rel=1e-9)
    assert abs(w.parallelogram_check(r, tree, x, y, n) - para) <= budget
