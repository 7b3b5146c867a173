import numpy as np
import pytest

import wpcontent as w

from helpers import (
    band_positions, children, corrupted_tree_fixture, geometric_symbol, loewner_leq, masses,
    random_gram,
)


def content_trees():
    return [
        w.build_shannon_tree(3, 3),
        w.build_filter_tree_1d("haar", 8, 3),
        w.build_filter_tree_1d("d4", 16, 2),
        w.build_filter_tree_2d("haar", 4, 2),
    ]


def symbol_values(rng, levels):
    """Uniform values with zeros, ties and negative noise inside the 1e-10 clamp."""
    v = rng.uniform(0.0, 1.0, 2**levels)
    v[::5] = 0.0
    v[1::7] = v[1]
    v[3::11] = -3e-11 * v.max()
    return v


def weight_bits(cw):
    """Every number of a `cylinder_weights` result as float.hex, which tells -0.0 from 0.0."""
    rows = [(row["word"], row["depth"], row["mass"].hex()) for row in cw["cylinders"]]
    return rows, {key: value.hex() for key, value in cw["validation"].items()}


class TestContentOperator:
    def test_root_block_is_source(self, rng):
        tree = w.build_shannon_tree(3, 2)
        r = random_gram(rng, 8)
        blk = w.content_operator(r, tree, tree.root)
        assert np.max(np.abs(blk.matrix - r.matrix)) <= 1e-12 * (1 + w.trace(r))

    def test_shannon_diagonal_equals_masked_diagonal(self):
        # diagonal input commutes with the band projections, so the block
        # is the diagonal restricted to the band
        sym = geometric_symbol(3)
        r = w.symbol_operator(sym)
        tree = w.build_shannon_tree(3, 2)
        for node in tree.all_nodes():
            blk = w.content_operator(r, tree, node)
            mask = np.zeros(8)
            mask[band_positions(3, node)] = 1.0
            expect = np.diag(mask * np.diag(r.matrix))
            assert np.max(np.abs(blk.matrix - expect)) <= 1e-12

    def test_rank_one_formula(self, rng):
        tree = w.build_filter_tree_1d("d4", 8, 2)
        v = rng.standard_normal(8)
        v /= np.linalg.norm(v)
        r = w.PsdOperator(np.outer(v, v))
        for node in tree.nodes_at(2):
            blk = w.content_operator(r, tree, node)
            p = w.projection(tree, node)
            weight = float(v @ p @ v)
            # square-rooting amplifies rounding in the zero eigenvalues to ~sqrt(eps)
            assert np.max(np.abs(blk.matrix - weight * np.outer(v, v))) <= 1e-7

    def test_block_invariants(self, rng):
        tree = w.build_filter_tree_1d("haar", 8, 2)
        r = random_gram(rng, 8)
        for node in tree.nodes_at(2):
            blk = w.content_operator(r, tree, node)
            assert w.trace(blk) == pytest.approx(np.trace(blk.matrix), rel=1e-10)
            assert w.hs_norm(blk) == pytest.approx(np.linalg.norm(blk.matrix), rel=1e-10)
            assert np.all(blk.eigenvalues >= 0)
            assert loewner_leq(blk, r)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(w.ConfigError, match="dim"):
            w.content_operator(random_gram(rng, 4), w.build_shannon_tree(3, 1), "0")


class TestDepthDecomposition:
    def test_identity_on_shannon(self):
        r = w.PsdOperator(np.eye(8))
        tree = w.build_shannon_tree(3, 1)
        blocks, _ = w.depth_decomposition(r, tree, 1)
        assert tree.nodes_at(1) == ["0", "1"] and len(blocks) == 2
        assert w.trace(blocks[0]) == pytest.approx(4.0, abs=1e-12)
        assert w.trace(blocks[1]) == pytest.approx(4.0, abs=1e-12)
        mask = np.diag([1.0] * 4 + [0.0] * 4)
        assert np.max(np.abs(blocks[0].matrix - mask)) <= 1e-12

    def test_symbol_block_traces_match_band_sums(self):
        sym = geometric_symbol(3)
        r = w.symbol_operator(sym)
        tree = w.build_shannon_tree(3, 2)
        blocks, _ = w.depth_decomposition(r, tree, 2)
        for node, blk in zip(tree.nodes_at(2), blocks, strict=True):
            expect = sum(sym[p] for p in band_positions(3, node))
            assert w.trace(blk) == pytest.approx(expect, abs=1e-12)

    @pytest.mark.parametrize("tree", content_trees(), ids=lambda t: f"{t.realization}-{t.ambient_dim}")
    def test_reconstruction(self, rng, tree):
        r = random_gram(rng, tree.ambient_dim)
        fro = w.hs_norm(r)
        for n in range(1, tree.max_depth + 1):
            blocks, _ = w.depth_decomposition(r, tree, n)
            total = sum(blk.matrix for blk in blocks)
            assert np.linalg.norm(total - r.matrix) <= 1e-8 * (1.0 + fro)
            assert sum(w.trace(b) for b in blocks) == pytest.approx(w.trace(r), rel=1e-8)

    def test_child_telescoping(self, rng):
        tree = w.build_filter_tree_1d("d4", 16, 2)
        r = random_gram(rng, 16)
        fro = w.hs_norm(r)
        for node in tree.all_nodes():
            kids = children(tree, node)
            if not kids:
                continue
            parent = w.content_operator(r, tree, node).matrix
            total = sum(w.content_operator(r, tree, k).matrix for k in kids)
            assert np.linalg.norm(parent - total) <= 1e-8 * (1.0 + fro)

    @pytest.mark.parametrize("delta, raises", [(1e-6, True), (0.5e-8, False)],
                             ids=["1e-6-breaks", "0.5e-8-passes"])
    def test_moved_entry_against_the_reconstruction_budget(self, rng, monkeypatch, delta, raises):
        # the budget is 1e-8 ||R||: the first depth-1 block gains ``delta * ||R||`` at (0, 0)
        tree = w.build_filter_tree_1d("haar", 8, 2)
        r = random_gram(rng, 8)
        real = w.content.content_operator
        first = tree.nodes_at(1)[0]

        def shifted(r_, tr_, node):
            blk = real(r_, tr_, node)
            if node != first:
                return blk
            bump = np.zeros((8, 8))
            bump[0, 0] = delta * w.hs_norm(r)
            return w.PsdOperator(blk.matrix + bump)

        monkeypatch.setattr(w.content, "content_operator", shifted)
        if raises:
            with pytest.raises(w.NumericalBreakdownError, match="reconstruct"):
                w.depth_decomposition(r, tree, 1)
        else:
            assert w.depth_decomposition(r, tree, 1)[1] <= 1e-8 * w.hs_norm(r)


class TestCylinderMasses:
    @pytest.mark.parametrize("tree", content_trees(), ids=lambda t: f"{t.realization}-{t.ambient_dim}")
    def test_additivity_and_root_mass(self, rng, tree):
        r = random_gram(rng, tree.ambient_dim)
        cw = masses(w.cylinder_weights(r, tree))
        total = w.trace(r)
        assert cw[tree.root] == pytest.approx(total, rel=1e-10)
        for node in tree.all_nodes():
            kids = children(tree, node)
            if kids:
                child_sum = sum(cw[k] for k in kids)
                assert cw[node] == pytest.approx(child_sum, rel=1e-9, abs=1e-9 * total)
            assert cw[node] >= 0.0

    def test_matches_dense_block_traces(self, rng):
        # dual route: the fast projection-trace path vs dense block construction
        tree = w.build_filter_tree_2d("haar", 4, 2)
        r = random_gram(rng, 16)
        cw = masses(w.cylinder_weights(r, tree))
        for node in tree.all_nodes():
            dense = w.trace(w.content_operator(r, tree, node))
            assert cw[node] == pytest.approx(dense, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("levels", range(1, 11))
    def test_symbol_route_is_bit_identical_on_shannon(self, rng, levels, monkeypatch):
        sym = w.shannon_symbol(symbol_values(rng, levels))
        dense = w.symbol_operator(sym)
        trees = [w.build_shannon_tree(levels, depth) for depth in range(1, levels + 1)]
        want = [weight_bits(w.cylinder_weights(dense, tree)) for tree in trees]

        def no_eye(*_, **__):
            raise AssertionError("the symbol route formed an identity matrix")

        monkeypatch.setattr(np, "eye", no_eye)
        assert [weight_bits(w.cylinder_weights(sym, tree)) for tree in trees] == want

    @pytest.mark.parametrize("name", ["haar", "d4"])
    @pytest.mark.parametrize("levels,depth", [(2, 1), (4, 4), (6, 3), (8, 2)])
    def test_symbol_route_is_bit_identical_on_filter_trees(self, rng, name, levels, depth):
        sym = w.shannon_symbol(symbol_values(rng, levels))
        tree = w.build_filter_tree_1d(name, 2**levels, depth)
        got = weight_bits(w.cylinder_weights(sym, tree))
        assert got == weight_bits(w.cylinder_weights(w.symbol_operator(sym), tree))

    def test_symbol_dimension_mismatch(self):
        with pytest.raises(w.ConfigError, match="dim"):
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
        r = w.PsdOperator(np.zeros((8, 8)))
        cw = w.cylinder_weights(r, tree)
        assert all(row["mass"] == 0.0 for row in cw["cylinders"])

    def test_zero_trace_rigidity(self):
        # a band with zero symbol mass carries a zero block
        sym = w.shannon_symbol([0.0, 0.0, 0.0, 0.0, 1.0, 0.5, 0.25, 0.125])
        r = w.symbol_operator(sym)
        tree = w.build_shannon_tree(3, 2)
        for node in tree.all_nodes():
            blk = w.content_operator(r, tree, node)
            if w.trace(blk) <= 1e-12:
                assert w.hs_norm(blk) <= 1e-10

    def test_export_rows(self, rng):
        tree = w.build_shannon_tree(2, 2)
        cw = w.cylinder_weights(random_gram(rng, 4), tree)
        rows = cw["cylinders"]
        assert len(rows) == 7
        assert set(rows[0]) == {"word", "depth", "mass"}

    def test_masses_are_nonnegative_on_a_rank_one_input_inside_one_node(self, rng):
        # the other nodes' raw masses tr(P_w R) are rounding noise of either sign
        tree = w.build_filter_tree_1d("d4", 16, 3)
        for node in tree.nodes_at(3):
            v = rng.standard_normal(2) @ tree.basis(node)
            cw = w.cylinder_weights(w.PsdOperator(np.outer(v, v)), tree)
            assert min(row["mass"] for row in cw["cylinders"]) >= 0.0, node

    @pytest.mark.parametrize("moved, raises", [(1e-6, True), (0.5e-9, False)],
                             ids=["1e-6-breaks", "0.5e-9-passes"])
    def test_moved_mass_against_the_additivity_budget(self, rng, monkeypatch, moved, raises):
        # the budget is 1e-9 tr(R): one depth-1 mass moved by ``moved * tr(R)``
        tree = w.build_filter_tree_1d("haar", 8, 2)
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
            gap = w.cylinder_weights(r, tree)["validation"]["max_additivity_gap"]
            assert gap <= 1e-9 * w.trace(r)

    @pytest.mark.parametrize("moved, raises", [(1e-6, True), (0.5e-9, False)],
                             ids=["1e-6-breaks", "0.5e-9-passes"])
    def test_moved_root_mass_against_the_trace(self, rng, monkeypatch, moved, raises):
        # the root mass must equal tr(R) within 1e-9 tr(R); this moves the depth-0 mass
        tree = w.build_filter_tree_1d("haar", 8, 2)
        r = random_gram(rng, 8)
        real = w.content.trace_scores

        def shifted(a, tr_, n):
            return real(a, tr_, n) + (moved * w.trace(r) if n == 0 else 0.0)

        monkeypatch.setattr(w.content, "trace_scores", shifted)
        if raises:
            with pytest.raises(w.NumericalBreakdownError, match="root mass"):
                w.cylinder_weights(r, tree)
        else:
            root = masses(w.cylinder_weights(r, tree))[tree.root]
            assert root == pytest.approx(w.trace(r) * (1.0 + moved), rel=1e-12)


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
        r = w.symbol_operator(sym)
        tree = w.build_shannon_tree(3, 1)
        for pos in range(8):
            e = np.zeros(8)
            e[pos] = 1.0
            for node in tree.nodes_at(1):
                expect = sym[pos] if pos in band_positions(3, node) else 0.0
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
        r = w.symbol_operator(sym)
        tree = w.build_shannon_tree(3, 1)
        e = np.zeros(8)
        e[2] = 1.0  # frequency k = -2, in the band of node "0"
        dens = w.discrete_density(r, tree, e, 1)
        block_sum = sum(sym[p] for p in band_positions(3, "0"))
        assert dens["0"] == pytest.approx(sym[2] / block_sum, rel=1e-12)
        assert dens["1"] == 0.0

    def test_zero_mass_node_omitted(self):
        sym = w.shannon_symbol([0.0, 0.0, 0.0, 0.0, 1.0, 0.5, 0.25, 0.125])
        r = w.symbol_operator(sym)
        tree = w.build_shannon_tree(3, 1)
        x = np.ones(8)
        dens = w.discrete_density(r, tree, x, 1)
        assert "0" not in dens
        assert "1" in dens

    def test_light_node_keeps_its_density(self):
        # a mass of 1e-6 tr(R) is far above the 1e-12 tr(R) cut: x = (1, 1) gives nu/mu = 1
        r = w.PsdOperator(np.diag([1.0, 1e-6]))
        dens = w.discrete_density(r, w.build_shannon_tree(1, 1), np.ones(2), 1)
        assert dens["1"] == pytest.approx(1.0, rel=1e-9)

    def test_node_just_above_the_mass_cut_keeps_its_density(self):
        # node "1": mass 5e-12 lies between eps = 1e-12 tr(R) and 10 eps, so it is reported
        r = w.PsdOperator(np.diag([1.0, 5e-12]))
        dens = w.discrete_density(r, w.build_shannon_tree(1, 1), np.array([0.0, 1.0]), 1)
        assert dens.keys() == {"0", "1"} and dens["1"] == pytest.approx(1.0, rel=1e-9)

    def test_light_node_may_carry_its_mass_times_x_squared(self):
        # node "1": mass 1e-13 <= 1e-12 tr(R) and weight 1e-7 = mu ||x||^2 <= 1e-12 tr(R) ||x||^2
        r = w.PsdOperator(np.diag([1.0, 1e-13]))
        dens = w.discrete_density(r, w.build_shannon_tree(1, 1), np.array([0.0, 1e3]), 1)
        assert dens == {"0": 0.0}

    @pytest.mark.parametrize("case", ["light-node", "zero-band", "d4-rank-deficient"])
    def test_density_of_a_scaled_vector_scales_exactly(self, rng, case):
        if case == "light-node":
            r, tree = w.PsdOperator(np.diag([1.0, 1e-13])), w.build_shannon_tree(1, 1)
            x = np.array([0.0, 1e3])
        elif case == "zero-band":
            r = w.symbol_operator(w.shannon_symbol([0.0] * 4 + [1.0, 0.5, 0.25, 0.125]))
            tree, x = w.build_shannon_tree(3, 2), rng.standard_normal(8)
        else:
            tree = w.build_filter_tree_1d("d4", 8, 2)
            b = np.vstack([tree.basis(nd) for nd in tree.nodes_at(2)[:2]])
            g = rng.standard_normal((4, 4))
            r, x = w.PsdOperator(b.T @ (g.T @ g) @ b), rng.standard_normal(8)
        for n in range(tree.max_depth + 1):
            base = w.discrete_density(r, tree, x, n)
            for k in range(-20, 21, 2):
                dens = w.discrete_density(r, tree, 2.0**k * x, n)
                assert dens.keys() == base.keys()
                assert all(dens[nd] == 4.0**k * v for nd, v in base.items()), (n, k)

    def test_vector_weight_on_a_massless_node_raises(self, rng, monkeypatch):
        # a zero block trace forces a zero vector weight; fake the mass of node "1" away
        real = w.content.trace_scores
        monkeypatch.setattr(w.content, "trace_scores", lambda a, t, n: real(a, t, n) * [1.0, 0.0])
        with pytest.raises(w.NumericalBreakdownError, match="'1'"):
            w.discrete_density(random_gram(rng, 8), w.build_shannon_tree(3, 1), np.ones(8), 1)


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
        tree = w.build_filter_tree_1d("haar", 8, 2)
        x, y = rng.standard_normal(x_len), rng.standard_normal(y_len)
        with pytest.raises(w.ConfigError, match="dim|shape"):
            w.parallelogram_check(random_gram(rng, 8), tree, x, y, 2)

    def test_quadratic_homogeneity(self, rng):
        tree = w.build_filter_tree_1d("haar", 8, 2)
        r = random_gram(rng, 8)
        x = rng.standard_normal(8)
        for node in tree.nodes_at(2):
            w1 = w.vector_weight(r, tree, 2.0 * x, node)
            w2 = w.vector_weight(r, tree, x, node)
            assert w1 == pytest.approx(4.0 * w2, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("tree", [
    w.build_shannon_tree(3, 2),
    w.build_filter_tree_1d("haar", 8, 2),
    w.build_filter_tree_1d("d4", 16, 2),
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
        got = w.content_operator(r, tree, nd).matrix
        assert np.linalg.norm(got - block) <= 1e-8 * (1.0 + fro)
    for blk, block in zip(w.depth_decomposition(r, tree, n)[0], blocks):
        assert np.linalg.norm(blk.matrix - block) <= 1e-8 * (1.0 + fro)
    for nd, weight in zip(nodes, weights):
        assert w.vector_weight(r, tree, x, nd) == pytest.approx(weight, rel=1e-9, abs=1e-12)
    dens = w.discrete_density(r, tree, x, n)
    for nd, weight, mass in zip(nodes, weights, masses):
        assert dens[nd] == pytest.approx(weight / mass, rel=1e-9)
    assert abs(w.parallelogram_check(r, tree, x, y, n) - para) <= budget
