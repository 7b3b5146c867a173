import tracemalloc

import numpy as np
import pytest

import wpcontent as w

from helpers import (
    band_positions, children, corrupted_tree_fixture, dense_validate_tree, random_gram,
    shannon_band, swapped_children_tree,
)


def all_test_trees():
    return [
        w.build_shannon_tree(3, 3),
        w.build_filter_tree_1d("haar", 8, 3),
        w.build_filter_tree_1d("d4", 16, 2),
        w.build_filter_tree_2d("haar", 4, 2),
        w.build_filter_tree_2d("d4", 8, 2),
    ]


def corrupted_trees():
    return [
        corrupted_tree_fixture(),
        swapped_children_tree(w.build_shannon_tree(3, 3), 2),
        swapped_children_tree(w.build_filter_tree_1d("haar", 8, 3), 3),
        swapped_children_tree(w.build_filter_tree_2d("d4", 8, 2), 2),
    ]


def tree_id(tree):
    return f"{tree.realization}-{tree.ambient_dim}"


class TestFilterTaps:
    @pytest.mark.parametrize("name", ["haar", "d4", "HAAR"])
    def test_taps_are_an_orthonormal_pair(self, name):
        h, g = map(np.array, w.filter_taps(name))
        n = len(h)
        assert n % 2 == 0 and abs(h.sum() - np.sqrt(2.0)) <= 1e-14
        for j in range(n // 2):
            acc = float(np.sum(h[: n - 2 * j] * h[2 * j :]))
            assert abs(acc - (1.0 if j == 0 else 0.0)) <= 1e-14
        assert g.tolist() == [(-1.0) ** k * h[n - 1 - k] for k in range(n)]

    def test_unknown_name(self):
        with pytest.raises(w.ConfigError, match="unknown filter"):
            w.filter_taps("db8")


class TestShannonTree:
    def test_band_layout_levels3(self):
        # depth-1 bands: node "0" owns {-4..-1}, node "1" owns {0..3}
        assert shannon_band(3, "0") == [-4, -3, -2, -1]
        assert shannon_band(3, "1") == [0, 1, 2, 3]
        tree = w.build_shannon_tree(3, 2)
        for node in tree.all_nodes():
            b = tree.basis(node)
            expect = np.zeros((len(band_positions(3, node)), 8))
            for i, pos in enumerate(band_positions(3, node)):
                expect[i, pos] = 1.0
            assert np.array_equal(b, expect)

    def test_smallest_case(self):
        assert shannon_band(1, "0") == [-1]
        assert shannon_band(1, "1") == [0]
        tree = w.build_shannon_tree(1, 1)
        assert np.array_equal(tree.basis("0"), [[1.0, 0.0]])
        assert np.array_equal(tree.basis("1"), [[0.0, 1.0]])

    def test_children_partition_parent_band(self):
        tree = w.build_shannon_tree(3, 2)
        for word in ("0", "1"):
            merged = sorted(shannon_band(3, word + "0") + shannon_band(3, word + "1"))
            assert merged == shannon_band(3, word)
            kids = children(tree, word)
            assert list(kids) == [word + "0", word + "1"]

    def test_projections_exactly_diagonal(self):
        tree = w.build_shannon_tree(3, 2)
        p = w.projection(tree, "0")
        assert np.array_equal(p, np.diag([1.0, 1.0, 1.0, 1.0, 0, 0, 0, 0]))
        report = w.validate_tree(tree)
        assert report["child_sum"] == 0.0 and report["partition"] == 0.0

    def test_identity_is_formed_only_when_asked(self):
        levels = 12
        d = 2**levels
        tracemalloc.start()
        try:
            tree = w.build_shannon_tree(levels, levels)
            w.tree_description(tree)
            assert all(tree.is_identity(n) for n in range(levels + 1))
            built = tracemalloc.get_traced_memory()[1]
            eye = tree.transform(0)
            grown = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert built < 0.1 * d * d * 8  # one d x d array is 134 MB
        assert grown >= d * d * 8
        assert all(tree.transform(n) is eye for n in range(levels + 1))
        assert not eye.flags.writeable
        assert np.count_nonzero(eye) == d and np.all(eye.diagonal() == 1.0)
        leaf = tree.nodes_at(levels)[-1]
        assert np.shares_memory(tree.basis(leaf), eye) and tree.subspace_dim(leaf) == 1

    def test_depth_out_of_range(self):
        with pytest.raises(w.ConfigError, match="depth 4 outside"):
            w.build_shannon_tree(3, 4)
        with pytest.raises(w.ConfigError, match="out of range"):
            w.build_shannon_tree(3, 2).nodes_at(3)


class TestFilterTrees:
    def test_haar_len2_by_hand(self):
        tree = w.build_filter_tree_1d("haar", 2, 1)
        s = 1.0 / np.sqrt(2.0)
        assert np.allclose(tree.basis("0"), [[s, s]])
        assert np.allclose(tree.basis("1"), [[s, -s]])

    def test_d4_len8_depth2_orthonormal(self):
        tree = w.build_filter_tree_1d("d4", 8, 2)
        nodes = tree.nodes_at(2)
        assert len(nodes) == 4
        stacked = np.vstack([tree.basis(nd) for nd in nodes])
        assert stacked.shape == (8, 8)
        assert np.max(np.abs(stacked @ stacked.T - np.eye(8))) <= 1e-10

    def test_divisibility_required(self):
        with pytest.raises(w.ConfigError, match="must divide"):
            w.build_filter_tree_1d("haar", 6, 2)

    def test_2d_haar_2x2(self):
        tree = w.build_filter_tree_2d("haar", 2, 1)
        nodes = tree.nodes_at(1)
        assert nodes == ["0,0", "0,1", "1,0", "1,1"]
        stacked = np.vstack([tree.basis(nd) for nd in nodes])
        assert np.max(np.abs(stacked @ stacked.T - np.eye(4))) <= 1e-12
        # all-lowpass node is the constant patch direction
        assert np.allclose(tree.basis("0,0"), [[0.5, 0.5, 0.5, 0.5]])

    def test_2d_tensor_structure(self):
        one_d = w.build_filter_tree_1d("d4", 8, 1)
        two_d = w.build_filter_tree_2d("d4", 8, 1)
        b0 = one_d.basis("0")
        b1 = one_d.basis("1")
        assert np.allclose(two_d.basis("0,1"), np.kron(b0, b1))

    def test_2d_d4_depth2_counts(self):
        tree = w.build_filter_tree_2d("d4", 8, 2)
        nodes = tree.nodes_at(2)
        assert len(nodes) == 16
        assert all(tree.subspace_dim(nd) == 4 for nd in nodes)


class TestTreeAxioms:
    @pytest.mark.parametrize("tree", all_test_trees(), ids=tree_id)
    def test_axioms_hold(self, tree):
        report = w.validate_tree(tree)
        assert max(report.values()) <= 1e-10, report

    @pytest.mark.parametrize("tree", all_test_trees(), ids=tree_id)
    def test_depth_slice_counts(self, tree):
        branching = 4 if tree.realization == "filterbank-2d" else 2
        for n in range(tree.max_depth + 1):
            nodes = tree.nodes_at(n)
            assert len(nodes) == branching**n
            assert nodes == sorted(nodes)

    def test_projection_idempotent(self, rng):
        tree = w.build_filter_tree_1d("d4", 8, 2)
        for node in tree.all_nodes():
            p = w.projection(tree, node)
            assert np.max(np.abs(p @ p - p)) <= 1e-9
            assert abs(np.trace(p) - tree.subspace_dim(node)) <= 1e-9

    @pytest.mark.parametrize("tree", all_test_trees(), ids=tree_id)
    def test_a_projection_is_its_read_only_matrix(self, tree):
        for node in tree.all_nodes():
            g = tree.basis(node).T @ tree.basis(node)
            p = w.projection(tree, node)
            assert type(p) is np.ndarray and not p.flags.writeable
            assert np.array_equal(p, (g + g.T) / 2) and np.array_equal(p, p.T)
            assert np.max(np.abs(p - g)) <= 1e-15

    def test_root_projection_is_identity(self):
        tree = w.build_shannon_tree(2, 1)
        assert np.allclose(w.projection(tree, tree.root), np.eye(4))

    @pytest.mark.parametrize("tree, word", [
        (w.build_shannon_tree(3, 2), "0101"),
        (w.build_shannon_tree(3, 2), "2"),
        (w.build_filter_tree_1d("haar", 8, 2), "0,1"),
        (w.build_filter_tree_2d("haar", 4, 2), "01"),
        (w.build_shannon_tree(3, 2), ["0"]),
    ], ids=["beyond-max-depth", "not-binary", "pair-on-1d", "single-on-2d", "unhashable-list"])
    def test_word_the_tree_lacks_is_unknown(self, tree, word, rng):
        assert not tree.has_node(word)
        r = random_gram(rng, tree.ambient_dim)
        x = rng.standard_normal(tree.ambient_dim)
        calls = [tree.basis, tree.subspace_dim, lambda wd: w.projection(tree, wd),
                 lambda wd: w.content_operator(r, tree, wd),
                 lambda wd: w.vector_weight(r, tree, x, wd),
                 lambda wd: w.extract_sequence(r, tree, [tree.root, wd])]
        for call in calls:
            with pytest.raises(w.ConfigError, match="no node|not in tree"):
                call(word)

    @pytest.mark.parametrize("tree", all_test_trees() + corrupted_trees(), ids=tree_id)
    def test_per_depth_checks_agree_with_dense_oracle(self, tree):
        dense = dense_validate_tree(tree)
        report = w.validate_tree(tree)
        assert (max(report.values()) <= 1e-10) == (max(dense.values()) <= 1e-10), (
            report,
            dense,
        )

    @pytest.mark.parametrize("tree", corrupted_trees()[1:], ids=tree_id)
    def test_child_sum_only_corruption(self, tree):
        # non-siblings swapped: every W_n is still orthogonal, only the splitting fails
        report = w.validate_tree(tree)
        assert report["child_sum"] >= 0.5
        others = (report["partition"], report["child_orthogonality"], report["basis_orthonormality"])
        assert max(others) <= 1e-10

    @pytest.mark.parametrize("tree", all_test_trees() + [
        pytest.param(t, id=f"corrupted-{i}-{tree_id(t)}") for i, t in enumerate(corrupted_trees())
    ], ids=tree_id)
    def test_parent_index_follows_child_lists(self, tree):
        # the words alone fix each parent: a 1D word drops its last letter, "r,c" both
        def parent_word(word):
            return ",".join(part[:-1] for part in word.split(","))

        for n in range(1, tree.max_depth + 1):
            above = tree.nodes_at(n - 1)
            want = [above.index(parent_word(nd)) for nd in tree.nodes_at(n)]
            assert tree.parents(n).tolist() == want
            assert [children(tree, tree.nodes_at(n - 1)[i]) for i in range(len(above))] == [
                tuple(nd for nd in tree.nodes_at(n) if parent_word(nd) == a) for a in above
            ]

    @pytest.mark.parametrize("tree", all_test_trees(), ids=tree_id)
    def test_child_lists_hold_the_next_depths_nodes(self, tree):
        for n in range(tree.max_depth):
            below = tree.nodes_at(n + 1)
            kids = [k for nd in tree.nodes_at(n) for k in children(tree, nd)]
            assert sorted(kids) == sorted(below)
            if tree.realization != "filterbank-2d":
                assert kids == below

    def test_validation_memory_is_per_depth(self):
        # a dense projection per node would hold 255 x 128 KB here
        tree = w.build_shannon_tree(7, 7)
        tracemalloc.start()
        try:
            w.validate_tree(tree)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_corrupted_tree_detected(self):
        report = w.validate_tree(corrupted_tree_fixture())
        assert report["partition"] == pytest.approx(1.0, abs=1e-12)

    def test_description_payload(self):
        tree = w.build_shannon_tree(2, 2)
        desc = w.tree_description(tree)
        assert desc["realization"] == "shannon"
        assert desc["ambient_dim"] == 4
        assert [n["word"] for n in desc["nodes"]][:3] == ["", "0", "1"]


class TestSymbol:
    def test_operator_is_diagonal(self):
        sym = w.shannon_symbol([0.5, 0.25])
        op = w.symbol_operator(sym)
        assert np.array_equal(op.matrix, np.diag([0.5, 0.25]))

    def test_operator_spectrum_without_eigensolver(self, monkeypatch):
        vals = [0.5, 2.0, 0.0, 2.0, 1e-3, 0.5, 3.0, 0.0]  # ties and zeros
        lam, vecs = w.sym_eigen(np.diag(vals))

        def no_eigh(*_):
            raise AssertionError("symbol_operator ran an eigensolver")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        op = w.symbol_operator(w.shannon_symbol(vals))
        assert np.array_equal(op.eigenvalues, lam)
        assert list(op.eigenvalues) == sorted(vals, reverse=True)
        assert np.array_equal(np.abs(op.eigenvectors), np.abs(op.eigenvectors) > 0.5)
        assert np.all(op.eigenvectors.sum(axis=0) == 1.0)  # one +1 per column
        assert np.array_equal((op.eigenvectors * op.eigenvalues) @ op.eigenvectors.T, op.matrix)
        assert not op.clamp_applied and np.array_equal(op.matrix, np.diag(vals))

    @pytest.mark.parametrize("values, message", [
        ([np.nan, 1.0], "symbol values must be finite"),
        ([1.0, 2.0, 3.0], r"symbol needs 2\^L values for some L >= 1, got 3"),
        ([1.0] * 12, r"symbol needs 2\^L values for some L >= 1, got 12"),
        ([1.0], r"symbol needs 2\^L values for some L >= 1, got 1"),
        ([], r"symbol needs 2\^L values for some L >= 1, got 0"),
        (np.eye(2), "symbol values must be a list of numbers"),
    ], ids=["nan", "three-values", "twelve-values", "one-value", "no-values", "2d-array"])
    def test_every_entry_checks_a_symbol(self, values, message):
        tree = w.build_shannon_tree(1, 1)
        for entry in (w.symbol_operator, lambda v: w.cylinder_weights(v, tree)):
            with pytest.raises(w.MalformedInputError, match=message):
                entry(values)

    def test_negative_rejected(self):
        with pytest.raises(w.NotPositiveError):
            w.symbol_operator(w.shannon_symbol([1.0, -1.0]))

    def test_clamp_rule_applies_on_construction(self):
        # the rule of the PsdOperator constructor: below -1e-10 * max raises, noise above it is kept
        with pytest.raises(w.NotPositiveError) as err:
            w.shannon_symbol([1.0, 0.5, -2e-10, 0.25])
        assert err.value.eigenvalue == -2e-10 and err.value.threshold == 1e-10
        sym = w.shannon_symbol([1.0, 0.5, -0.5e-10, 0.25])
        assert sym[2] == -0.5e-10 and len(sym) == 4
        assert w.symbol_operator(sym).clamp_applied

    @pytest.mark.parametrize("values", [
        [True, False], ["1", "2"], [[1.0], [2.0]], np.array([True, False]),
        np.array(["1", "2"]), np.ones((1, 2)), [10**400, 1.0],
    ], ids=["booleans", "strings", "nested", "boolean-array", "string-array", "2d-array",
            "integer-beyond-float"])
    def test_python_values_follow_the_json_number_rule(self, values):
        with pytest.raises(w.MalformedInputError):
            w.shannon_symbol(values)

    @pytest.mark.parametrize("values", [
        [1, 0.5], (1.0, 0.5), np.array([1.0, 0.5]), np.array([2, 1]) / 2, [np.float64(1.0), 0.5],
        [np.int64(1), 0.5],
    ], ids=["ints-and-floats", "tuple", "array", "int-array-halved", "numpy-float",
            "numpy-int"])
    def test_python_numbers_are_copied(self, values):
        sym = w.shannon_symbol(values)
        assert sym.tolist() == [1.0, 0.5]
        if isinstance(values, np.ndarray):
            assert values.flags.writeable and not np.shares_memory(values, sym)

    def test_overflowing_square_sum_rejected(self):
        with pytest.raises(w.MalformedInputError, match="sum of squares overflows"):
            w.shannon_symbol([1e308, 1e308])
        assert w.shannon_symbol([1e153, 1e153])[0] == 1e153

    def test_underflowing_square_sum_rejected(self):
        with pytest.raises(w.MalformedInputError, match="sum of squares underflows"):
            w.shannon_symbol([1e-200, 5e-324])
        assert w.shannon_symbol([0.0, 0.0])[1] == 0.0
        assert w.shannon_symbol([1e-150, 0.0])[0] == 1e-150

    def test_json_schema(self):
        sym = w.symbol_from_json({"levels": 2, "r": [1, 2, 3, 4]})
        assert len(sym) == 4
        with pytest.raises(w.MalformedInputError):
            w.symbol_from_json({"levels": 2, "r": [1, 2, 3]})
        with pytest.raises(w.MalformedInputError):
            w.symbol_from_json({"r": [1, 2]})

    @pytest.mark.parametrize("payload, message", [
        ({"levels": 0, "r": "x"}, "levels must be >= 1, got 0"),
        ({"levels": 2, "r": "x"}, "symbol values must be a list of numbers"),
        ({"levels": 2, "r": [1, 2, 3]}, r"symbol needs 2\^2 values, got 3"),
        ({"levels": 1, "r": [1, 2, 3, 4]}, r"symbol needs 2\^1 values, got 4"),
        ({"levels": 10**6, "r": [1, 2]}, r"symbol needs 2\^1000000 values, got 2"),
        ({"levels": 2, "r": [1, 2, float("inf"), 4]}, "symbol values must be finite"),
    ], ids=["levels-0-first", "values-before-count", "short", "long", "huge-levels", "inf"])
    def test_the_wire_format_checks_levels_against_the_count_in_order(self, payload, message):
        # "levels", then the number rule, then the count, then the symbol's own checks
        with pytest.raises(w.MalformedInputError, match=message):
            w.symbol_from_json(payload)
