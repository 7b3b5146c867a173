import tracemalloc

import numpy as np
import pytest

import wpcontent as w
from wpcontent.selftest import corrupted_tree_fixture

from helpers import band_positions, dense_validate_tree, shannon_band, swapped_children_tree


def all_test_trees():
    return [
        w.build_shannon_tree(3, 3),
        w.build_filter_tree_1d(w.haar_filter(), 8, 3),
        w.build_filter_tree_1d(w.d4_filter(), 16, 2),
        w.build_filter_tree_2d(w.haar_filter(), 4, 2),
        w.build_filter_tree_2d(w.d4_filter(), 8, 2),
    ]


def corrupted_trees():
    return [
        corrupted_tree_fixture(),
        swapped_children_tree(w.build_shannon_tree(3, 3), 2),
        swapped_children_tree(w.build_filter_tree_1d(w.haar_filter(), 8, 3), 3),
        swapped_children_tree(w.build_filter_tree_2d(w.d4_filter(), 8, 2), 2),
    ]


def tree_id(tree):
    return f"{tree.realization}-{tree.ambient_dim}"


class TestFilterPair:
    def test_haar_and_d4_satisfy_invariants(self):
        for pair in (w.haar_filter(), w.d4_filter()):
            h = np.array(pair.h)
            g = np.array(pair.g)
            n = len(h)
            assert abs(h.sum() - np.sqrt(2.0)) <= 1e-10
            for j in range(n // 2):
                acc = float(np.sum(h[: n - 2 * j] * h[2 * j :]))
                assert abs(acc - (1.0 if j == 0 else 0.0)) <= 1e-10
            flip = [(-1.0) ** k * h[n - 1 - k] for k in range(n)]
            assert np.allclose(g, flip)

    def test_bad_taps_rejected(self):
        with pytest.raises(w.InvalidFilterError):
            w.FilterPair.from_lowpass([1.0, 0.0])  # sum != sqrt(2)
        with pytest.raises(w.InvalidFilterError):
            w.FilterPair.from_lowpass([np.sqrt(2.0)])  # odd length
        with pytest.raises(w.InvalidFilterError):
            # right sum, violates double-shift orthonormality
            s = np.sqrt(2.0) / 4.0
            w.FilterPair.from_lowpass([s, s, s, s])

    def test_filter_json(self):
        pair = w.filter_from_json({"h": list(w.d4_filter().h)})
        assert pair == w.d4_filter()
        with pytest.raises(w.MalformedInputError):
            w.filter_from_json({"taps": [1.0]})

    @pytest.mark.parametrize("taps", [["0.7071067811865476"] * 2, "ab", [[0.5], [0.5]]],
                             ids=["strings", "string", "nested"])
    def test_filter_json_taps_are_numbers(self, taps):
        with pytest.raises(w.MalformedInputError):
            w.filter_from_json({"h": taps})

    @pytest.mark.parametrize("taps", [["0.7071067811865476"] * 2, "ab", [[0.5], [0.5]],
                                      [True, True], np.array(["0.5", "0.5"])],
                             ids=["strings", "string", "nested", "booleans", "string-array"])
    def test_lowpass_taps_are_numbers(self, taps):
        with pytest.raises(w.MalformedInputError):
            w.FilterPair.from_lowpass(taps)
        assert w.FilterPair.from_lowpass(np.array(w.haar_filter().h)) == w.haar_filter()

    def test_unknown_name(self):
        with pytest.raises(w.InvalidFilterError):
            w.named_filter("db8")


class TestShannonTree:
    def test_band_layout_levels3(self):
        # depth-1 bands: node "0" owns {-4..-1}, node "1" owns {0..3}
        assert shannon_band(3, "0") == [-4, -3, -2, -1]
        assert shannon_band(3, "1") == [0, 1, 2, 3]
        tree = w.build_shannon_tree(3, 2)
        for node in tree.all_nodes():
            b = tree.basis(node)
            expect = np.zeros((len(band_positions(3, node.word)), 8))
            for i, pos in enumerate(band_positions(3, node.word)):
                expect[i, pos] = 1.0
            assert np.array_equal(b, expect)

    def test_smallest_case(self):
        assert shannon_band(1, "0") == [-1]
        assert shannon_band(1, "1") == [0]
        tree = w.build_shannon_tree(1, 1)
        assert np.array_equal(tree.basis(w.PacketNode("0", 1)), [[1.0, 0.0]])
        assert np.array_equal(tree.basis(w.PacketNode("1", 1)), [[0.0, 1.0]])

    def test_children_partition_parent_band(self):
        tree = w.build_shannon_tree(3, 2)
        for word in ("0", "1"):
            merged = sorted(shannon_band(3, word + "0") + shannon_band(3, word + "1"))
            assert merged == shannon_band(3, word)
            kids = tree.children(w.PacketNode(word, 1))
            assert [k.word for k in kids] == [word + "0", word + "1"]

    def test_projections_exactly_diagonal(self):
        tree = w.build_shannon_tree(3, 2)
        p = w.projection(tree, w.PacketNode("0", 1)).matrix
        assert np.array_equal(p, np.diag([1.0, 1.0, 1.0, 1.0, 0, 0, 0, 0]))
        report = w.validate_tree(tree)
        assert report.child_sum == 0.0 and report.partition == 0.0

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
        with pytest.raises(w.InvalidDepthError):
            w.build_shannon_tree(3, 4)
        with pytest.raises(w.InvalidDepthError):
            w.build_shannon_tree(3, 2).nodes_at(3)


class TestFilterTrees:
    def test_haar_len2_by_hand(self):
        tree = w.build_filter_tree_1d(w.haar_filter(), 2, 1)
        s = 1.0 / np.sqrt(2.0)
        assert np.allclose(tree.basis(w.PacketNode("0", 1)), [[s, s]])
        assert np.allclose(tree.basis(w.PacketNode("1", 1)), [[s, -s]])

    def test_d4_len8_depth2_orthonormal(self):
        tree = w.build_filter_tree_1d(w.d4_filter(), 8, 2)
        nodes = tree.nodes_at(2)
        assert len(nodes) == 4
        stacked = np.vstack([tree.basis(nd) for nd in nodes])
        assert stacked.shape == (8, 8)
        assert np.max(np.abs(stacked @ stacked.T - np.eye(8))) <= 1e-10

    def test_divisibility_required(self):
        with pytest.raises(w.InvalidDepthError):
            w.build_filter_tree_1d(w.haar_filter(), 6, 2)

    def test_2d_haar_2x2(self):
        tree = w.build_filter_tree_2d(w.haar_filter(), 2, 1)
        nodes = tree.nodes_at(1)
        assert [nd.word for nd in nodes] == ["0,0", "0,1", "1,0", "1,1"]
        stacked = np.vstack([tree.basis(nd) for nd in nodes])
        assert np.max(np.abs(stacked @ stacked.T - np.eye(4))) <= 1e-12
        # all-lowpass node is the constant patch direction
        assert np.allclose(tree.basis(w.PacketNode("0,0", 1)), [[0.5, 0.5, 0.5, 0.5]])

    def test_2d_tensor_structure(self):
        one_d = w.build_filter_tree_1d(w.d4_filter(), 8, 1)
        two_d = w.build_filter_tree_2d(w.d4_filter(), 8, 1)
        b0 = one_d.basis(w.PacketNode("0", 1))
        b1 = one_d.basis(w.PacketNode("1", 1))
        assert np.allclose(two_d.basis(w.PacketNode("0,1", 1)), np.kron(b0, b1))

    def test_2d_d4_depth2_counts(self):
        tree = w.build_filter_tree_2d(w.d4_filter(), 8, 2)
        nodes = tree.nodes_at(2)
        assert len(nodes) == 16
        assert all(tree.subspace_dim(nd) == 4 for nd in nodes)


class TestTreeAxioms:
    @pytest.mark.parametrize("tree", all_test_trees(), ids=tree_id)
    def test_axioms_hold(self, tree):
        report = w.validate_tree(tree)
        assert report.max_violation() <= 1e-10, report.as_dict()

    @pytest.mark.parametrize("tree", all_test_trees(), ids=tree_id)
    def test_depth_slice_counts(self, tree):
        branching = 4 if tree.realization == "filterbank-2d" else 2
        for n in range(tree.max_depth + 1):
            nodes = tree.nodes_at(n)
            assert len(nodes) == branching**n
            words = [nd.word for nd in nodes]
            assert words == sorted(words)

    def test_projection_idempotent(self, rng):
        tree = w.build_filter_tree_1d(w.d4_filter(), 8, 2)
        for node in tree.all_nodes():
            p = w.projection(tree, node).matrix
            assert np.max(np.abs(p @ p - p)) <= 1e-9
            assert abs(np.trace(p) - tree.subspace_dim(node)) <= 1e-9

    def test_root_projection_is_identity(self):
        tree = w.build_shannon_tree(2, 1)
        assert np.allclose(w.projection(tree, tree.root).matrix, np.eye(4))

    def test_unknown_node(self):
        tree = w.build_shannon_tree(2, 1)
        with pytest.raises(w.UnknownNodeError):
            w.projection(tree, w.PacketNode("0101", 4))

    @pytest.mark.parametrize("tree", all_test_trees() + corrupted_trees(), ids=tree_id)
    def test_per_depth_checks_agree_with_dense_oracle(self, tree):
        dense = dense_validate_tree(tree)
        report = w.validate_tree(tree)
        assert (report.max_violation() <= 1e-10) == (max(dense.values()) <= 1e-10), (
            report.as_dict(),
            dense,
        )

    @pytest.mark.parametrize("tree", corrupted_trees()[1:], ids=tree_id)
    def test_child_sum_only_corruption(self, tree):
        # non-siblings swapped: every W_n is still orthogonal, only the splitting fails
        report = w.validate_tree(tree)
        assert report.child_sum >= 0.5
        others = (report.partition, report.child_orthogonality, report.basis_orthonormality)
        assert max(others) <= 1e-10

    @pytest.mark.parametrize("tree", all_test_trees(), ids=tree_id)
    def test_parent_index_follows_child_lists(self, tree):
        for n in range(1, tree.max_depth + 1):
            above = tree.nodes_at(n - 1)
            want = [
                next(i for i, p in enumerate(above) if nd in tree.children(p))
                for nd in tree.nodes_at(n)
            ]
            assert tree.parents(n).tolist() == want

    @pytest.mark.parametrize("tree", all_test_trees(), ids=tree_id)
    def test_child_lists_hold_the_next_depths_nodes(self, tree):
        for n in range(tree.max_depth):
            below = {nd.word: nd for nd in tree.nodes_at(n + 1)}
            kids = [k for nd in tree.nodes_at(n) for k in tree.children(nd)]
            assert len(kids) == len(below)
            assert all(k is below[k.word] for k in kids)
            if tree.realization != "filterbank-2d":
                assert all(a is b for a, b in zip(kids, tree.nodes_at(n + 1)))

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
        assert report.partition == pytest.approx(1.0, abs=1e-12)

    def test_description_payload(self):
        tree = w.build_shannon_tree(2, 2)
        desc = w.tree_description(tree)
        assert desc["realization"] == "shannon"
        assert desc["ambient_dim"] == 4
        assert [n["word"] for n in desc["nodes"]][:3] == ["", "0", "1"]


class TestShannonSymbol:
    def test_value_indexing(self):
        sym = w.ShannonSymbol(2, [1.0, 2.0, 3.0, 4.0])
        assert sym.value(-2) == 1.0 and sym.value(1) == 4.0
        for k in (-3, 2):
            with pytest.raises(IndexError, match=r"\[-2, 2\)"):
                sym.value(k)

    def test_to_operator_diagonal(self):
        sym = w.ShannonSymbol(1, [0.5, 0.25])
        op = sym.to_operator()
        assert np.array_equal(op.matrix, np.diag([0.5, 0.25]))

    def test_to_operator_spectrum_without_eigensolver(self, monkeypatch):
        vals = [0.5, 2.0, 0.0, 2.0, 1e-3, 0.5, 3.0, 0.0]  # ties and zeros
        lam, vecs = w.sym_eigen(w.SymMatrix(np.diag(vals)))

        def no_eigh(*_):
            raise AssertionError("to_operator ran an eigensolver")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        op = w.ShannonSymbol(3, vals).to_operator()
        assert np.array_equal(op.eigenvalues, lam)
        assert list(op.eigenvalues) == sorted(vals, reverse=True)
        assert np.array_equal(np.abs(op.eigenvectors), np.abs(op.eigenvectors) > 0.5)
        assert np.all(op.eigenvectors.sum(axis=0) == 1.0)  # one +1 per column
        assert np.array_equal((op.eigenvectors * op.eigenvalues) @ op.eigenvectors.T, op.matrix)
        assert not op.clamp_applied and np.array_equal(op.matrix, np.diag(vals))

    def test_negative_rejected(self):
        with pytest.raises(w.NotPositiveError):
            w.ShannonSymbol(1, [1.0, -1.0]).to_operator()

    def test_clamp_rule_applies_on_construction(self):
        # the rule of psd_from_spectrum: below -1e-10 * max raises, noise above it is kept
        with pytest.raises(w.NotPositiveError) as err:
            w.ShannonSymbol(2, [1.0, 0.5, -2e-10, 0.25])
        assert err.value.eigenvalue == -2e-10 and err.value.threshold == 1e-10
        sym = w.ShannonSymbol(2, [1.0, 0.5, -0.5e-10, 0.25])
        assert sym.values[2] == -0.5e-10 and sym.dim == 4
        assert sym.to_operator().clamp_applied

    @pytest.mark.parametrize("values", [
        [True, False], ["1", "2"], [[1.0], [2.0]], np.array([True, False]),
        np.array(["1", "2"]), np.ones((1, 2)), [10**400, 1.0],
    ], ids=["booleans", "strings", "nested", "boolean-array", "string-array", "2d-array",
            "integer-beyond-float"])
    def test_python_values_follow_the_json_number_rule(self, values):
        with pytest.raises(w.MalformedInputError):
            w.ShannonSymbol(1, values)

    @pytest.mark.parametrize("values", [
        [1, 0.5], (1.0, 0.5), np.array([1.0, 0.5]), np.array([2, 1]) / 2, [np.float64(1.0), 0.5],
        [np.int64(1), 0.5],
    ], ids=["ints-and-floats", "tuple", "array", "int-array-halved", "numpy-float",
            "numpy-int"])
    def test_python_numbers_are_copied(self, values):
        sym = w.ShannonSymbol(1, values)
        assert sym.values.tolist() == [1.0, 0.5]
        if isinstance(values, np.ndarray):
            assert values.flags.writeable and not np.shares_memory(values, sym.values)

    def test_overflowing_square_sum_rejected(self):
        with pytest.raises(w.MalformedInputError, match="sum of squares overflows"):
            w.ShannonSymbol(1, [1e308, 1e308])
        assert w.ShannonSymbol(1, [1e153, 1e153]).values[0] == 1e153

    def test_json_schema(self):
        sym = w.ShannonSymbol.from_json({"levels": 2, "r": [1, 2, 3, 4]})
        assert sym.levels == 2
        with pytest.raises(w.MalformedInputError):
            w.ShannonSymbol.from_json({"levels": 2, "r": [1, 2, 3]})
        with pytest.raises(w.MalformedInputError):
            w.ShannonSymbol.from_json({"r": [1, 2]})
