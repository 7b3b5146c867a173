import ast
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

import wpcontent as w

from helpers import loewner_leq, matrix_json, random_gram


class TestSymEigen:
    def test_identity(self):
        lam, vecs = w.sym_eigen(np.eye(3))
        assert np.allclose(lam, [1.0, 1.0, 1.0])
        assert np.max(np.abs(vecs.T @ vecs - np.eye(3))) <= 1e-10

    def test_diagonal(self):
        lam, vecs = w.sym_eigen(np.diag([4.0, 1.0]))
        assert np.allclose(lam, [4.0, 1.0])
        assert np.allclose(np.abs(vecs), np.eye(2))

    def test_hand_derived_2x2(self):
        # characteristic polynomial of [[2,1],[1,2]] is x^2 - 4x + 3 = (x-3)(x-1)
        lam, vecs = w.sym_eigen([[2.0, 1.0], [1.0, 2.0]])
        assert np.allclose(lam, [3.0, 1.0], atol=1e-12)
        recon = (vecs * lam) @ vecs.T
        assert np.max(np.abs(recon - [[2.0, 1.0], [1.0, 2.0]])) <= 1e-12

    def test_eigenvalues_nonincreasing_and_orthonormal(self, rng):
        for _ in range(20):
            a = rng.standard_normal((12, 12))
            lam, vecs = w.sym_eigen(a + a.T)
            assert np.all(np.diff(lam) <= 1e-12)
            assert np.max(np.abs(vecs.T @ vecs - np.eye(12))) <= 1e-10

    def test_determinism(self, rng):
        a = rng.standard_normal((9, 9))
        m = a + a.T
        lam1, v1 = w.sym_eigen(m)
        lam2, v2 = w.sym_eigen(m)
        assert np.array_equal(lam1, lam2) and np.array_equal(v1, v2)

    def test_dim_one(self):
        lam, vecs = w.sym_eigen([[5.0]])
        assert lam[0] == 5.0 and vecs[0, 0] == 1.0


@pytest.mark.parametrize("tree", [
    w.build_shannon_tree(4, 3),
    w.build_filter_tree_1d("haar", 16, 3),
    w.build_filter_tree_1d("d4", 16, 2),
], ids=["shannon", "haar", "d4"])
@pytest.mark.parametrize("rank", [16, 5])
def test_outputs_do_not_depend_on_eigenvector_signs(monkeypatch, rng, tree, rank):
    # every output forms (X V) diag(.) V^T, so flipping a column negates both factors exactly
    g = rng.standard_normal((rank, 16))
    matrix, x = g.T @ g / 16, rng.standard_normal(16)
    depths = range(1, tree.max_depth + 1)

    def outputs():
        r = w.PsdOperator(matrix)
        runs = [
            extract(r, tree, n, 12).report
            for extract in (w.trace_greedy, w.hs_greedy) for n in depths
        ]
        blocks = [
            blk.tobytes()
            for n in depths for blk in w.depth_decomposition(r, tree, n)[0]
        ]
        densities = [w.discrete_density(r, tree, x, n) for n in depths]
        return runs, blocks, densities

    plain = outputs()
    flips = np.random.default_rng(7)
    lapack = w.psdcore.sym_eigen

    def flipped(m):
        lam, vecs = lapack(m)
        return lam, vecs * flips.choice([-1.0, 1.0], vecs.shape[1])

    monkeypatch.setattr(w.psdcore, "sym_eigen", flipped)
    assert repr(outputs()) == repr(plain)


class TestPsdOperator:
    """`PsdOperator(matrix)` symmetrizes, decomposes and runs the clamp rule."""

    def test_near_zero_eigenvalue_accepted(self):
        op = w.PsdOperator(np.diag([1.0, 1e-14]))
        assert np.all(op.eigenvalues >= 0)

    def test_gram_always_accepted(self, rng):
        for _ in range(25):
            b = rng.standard_normal((6, 10))
            op = w.PsdOperator(b.T @ b)
            assert np.all(op.eigenvalues >= 0)

    def test_a_noise_tail_is_zeroed_and_the_matrix_kept(self):
        # the clamp zeros the spectrum only; the matrix is kept bit for bit
        m = np.diag([1.0, -1e-12])
        op = w.PsdOperator(m)
        assert op.clamp_applied and list(op.eigenvalues) == [1.0, 0.0]
        assert np.array_equal(op.matrix, m) and op.scale == 1.0
        assert not w.PsdOperator(np.diag([2.0, 1.0])).clamp_applied

    @pytest.mark.parametrize("tail", [-1e-6, -1.0])
    def test_a_larger_negative_eigenvalue_raises(self, tail):
        with pytest.raises(w.NotPositiveError) as err:
            w.PsdOperator(np.diag([1.0, tail]))
        assert err.value.eigenvalue == tail and err.value.threshold == 1e-10

    def test_the_spectrum_is_computed_nonincreasing(self):
        # an ascending diagonal does not make lam_max its first entry
        op = w.PsdOperator(np.diag([0.0, 5.0]))
        assert list(op.eigenvalues) == [5.0, 0.0] and op.scale == 5.0
        assert np.array_equal(np.abs(op.eigenvectors), [[0.0, 1.0], [1.0, 0.0]])

    def test_reconstruction_invariant(self, rng):
        op = random_gram(rng, 16)
        lam_max = op.eigenvalues[0]
        recon = (op.eigenvectors * op.eigenvalues) @ op.eigenvectors.T
        assert np.max(np.abs(recon - op.matrix)) <= 1e-8 * (1.0 + lam_max)
        assert np.max(np.abs(op.eigenvectors.T @ op.eigenvectors - np.eye(16))) <= 1e-10

    def test_a_matrix_is_the_only_argument(self):
        # no caller states a spectrum, eigenvectors or a clamp scale
        assert str(inspect.signature(w.PsdOperator)) == "(matrix)"
        assert list(inspect.signature(w.PsdOperator.remove).parameters) == ["self", "rows"]
        with pytest.raises(TypeError):
            w.PsdOperator(np.eye(2), [1.0, 1.0], np.eye(2))
        public = [getattr(w, n) for n in w.__all__]
        public += [f for n, f in vars(w.PsdOperator).items() if callable(f) and n[0] != "_"]
        stated = {"eigenvalues", "eigenvectors", "lam", "vecs", "scale"}
        for f in public:
            if callable(f) and not (isinstance(f, type) and issubclass(f, Exception)):
                assert not stated & set(inspect.signature(f).parameters), f.__name__

    @pytest.mark.parametrize("entries, error", [
        ([[1.0, 2.0], [0.0, 1.0]], None),
        ([[np.inf, 0.0], [0.0, 1.0]], "must be finite"),
        ([[np.nan, 0.0], [0.0, 1.0]], "must be finite"),
        (np.zeros((0, 0)), "dimension must be at least 1"),
        (np.zeros((2, 3)), "expected a square matrix"),
        (np.zeros(4), "expected a square matrix"),
    ], ids=["asymmetric", "infinite", "nan", "empty", "not-square", "1d"])
    def test_a_read_only_matrix_gives_what_a_writable_copy_gives(self, entries, error):
        writable = np.array(entries, dtype=np.float64)
        frozen = writable.copy()
        frozen.setflags(write=False)
        if error is not None:
            for m in (writable, frozen):
                with pytest.raises(w.MalformedInputError, match=error):
                    w.PsdOperator(m)
            return
        a, b = w.PsdOperator(writable), w.PsdOperator(frozen)
        assert a.matrix.tolist() == b.matrix.tolist() == [[1.0, 1.0], [1.0, 1.0]]
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)
        assert not (b.matrix.flags.writeable or b.eigenvalues.flags.writeable
                    or b.eigenvectors.flags.writeable)

    def test_an_overflowing_sum_of_squares_is_refused(self):
        # every entry, and its symmetrized value, is finite near 1e161; their sum of squares is not
        g = np.random.default_rng(0).standard_normal((8, 8))
        with pytest.raises(w.MalformedInputError,
                           match="^matrix entries: the sum of squares overflows$"):
            w.PsdOperator(1e160 * (g.T @ g) / 8)

    def test_a_block_whose_sum_of_squares_is_subnormal_is_made(self):
        # the underflow rule is the wire formats' alone: this block's sum of squares is 1e-320
        r = w.PsdOperator(np.diag([1.0, 1e-160]))
        block = w.content_operator(r, w.build_shannon_tree(1, 1), "1")
        assert block[1, 1] == pytest.approx(1e-160, rel=1e-15)
        assert block[0, 0] == block[0, 1] == block[1, 0] == 0.0

    def test_a_greedy_step_symmetrizes_and_decomposes_once(self, rng, monkeypatch):
        calls = []
        for name in ("_symmetric", "sym_eigen"):
            real = getattr(w.psdcore, name)
            monkeypatch.setattr(w.psdcore, name,
                                lambda a, name=name, real=real: calls.append(name) or real(a))
        # the input is symmetrized once; a remainder A - M^T M is used as computed
        r = random_gram(rng, 8)
        tr = w.trace_greedy(r, w.build_filter_tree_1d("haar", 8, 2), 2, 5)
        assert len(tr.steps) == 5
        assert calls == ["_symmetric", "sym_eigen"] + ["sym_eigen"] * len(tr.steps)

    @pytest.mark.parametrize("where", [0, -1], ids=["lam-max", "lam-min"])
    def test_a_nan_extreme_eigenvalue_fails_the_clamp(self, rng, monkeypatch, where):
        real = w.psdcore.sym_eigen

        def nan_spectrum(m):
            lam, vecs = real(m)
            lam = lam.copy()
            lam[where] = np.nan
            return lam, vecs

        r = random_gram(rng, 8)
        monkeypatch.setattr(w.psdcore, "sym_eigen", nan_spectrum)
        with pytest.raises(w.NotPositiveError):
            w.PsdOperator(np.eye(3))
        with pytest.raises(w.NumericalBreakdownError, match="step 1: remainder left the PSD"):
            w.trace_greedy(r, w.build_filter_tree_1d("haar", 8, 2), 2, 1)

    def test_a_remainder_is_checked_at_the_scale_of_its_operator(self):
        # A - D = diag(0, 1e-3, -5e-11): at its own lam_max the tail is too deep, at A's not
        op = w.PsdOperator(np.diag([1.0, 1e-3, -5e-11]))
        d, rest = op.remove(np.eye(3)[:1])
        assert rest.clamp_applied and rest.scale == op.scale == 1.0
        assert list(rest.eigenvalues) == [1e-3, 0.0, 0.0]
        assert np.array_equal(d + rest.matrix, op.matrix)
        with pytest.raises(w.NotPositiveError):
            w.PsdOperator(rest.matrix)

    def test_every_route_to_an_operator_runs_the_rule(self, monkeypatch):
        calls = []
        real = w.psdcore.check_clamp
        monkeypatch.setattr(w.psdcore, "check_clamp", lambda *a: calls.append(a) or real(*a))
        w.PsdOperator(np.eye(4))
        w.symbol_operator([1.0, 0.5, 0.0, 2.0])  # the rule on the values, then on the operator
        w.PsdOperator(np.diag([4.0, 1.0])).remove(np.eye(2)[:1])
        assert calls == [(1.0, 1.0), (2.0, 0.0), (2.0, 0.0), (4.0, 1.0), (4.0, 0.0)]


def test_only_remove_and_symbol_operator_state_a_spectrum():
    # every other operator, in the package and its tests, comes from PsdOperator(matrix)
    allowed = {"_stated": {("psdcore", "remove"), ("psdcore", "symbol_operator")},
               "_keep": {("psdcore", "__init__"), ("psdcore", "_stated")}}
    found = {name: set() for name in allowed}

    def visit(node, stem, owner):
        for child in ast.iter_child_nodes(node):
            callee = getattr(child, "func", None)
            name = getattr(callee, "id", getattr(callee, "attr", None))
            if isinstance(child, ast.Call) and name in found:
                found[name].add((stem, owner))
            visit(child, stem, child.name if isinstance(child, ast.FunctionDef) else owner)

    package = Path(w.__file__).resolve().parent
    for path in [*package.glob("*.py"), *Path(__file__).resolve().parent.glob("*.py")]:
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, "<module>")
    assert found == allowed


def test_only_root_rows_reads_the_eigenvectors():
    # every product with sqrt(A) in the package, sqrt_entries' too, goes through root_rows
    readers = set()
    for path in Path(w.__file__).resolve().parent.glob("*.py"):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(fn, ast.FunctionDef):
                readers |= {(path.stem, fn.name) for node in ast.walk(fn)
                            if isinstance(node, ast.Attribute) and node.attr == "eigenvectors"
                            and isinstance(node.ctx, ast.Load)}
    assert readers == {("psdcore", "root_rows")}


def test_tree_imports_nothing_from_psdcore():
    # psdcore reads both wire formats and makes every operator; a tree forms projections only
    source = (Path(w.__file__).resolve().parent / "tree.py").read_text(encoding="utf-8")
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module in ("psdcore", None):
            imported |= {a.name if node.module else f"module {a.name}" for a in node.names}
    assert imported == set()


def test_a_gram_product_of_one_buffer_is_exactly_symmetric(rng):
    # remove keeps A - M^T M and projection B^T B as computed: numpy's product of one
    # buffer with its own transpose must come out exactly symmetric, or both would drift
    for d in (1, 2, 3, 7, 16, 33, 64, 130, 256):
        m = rng.standard_normal((max(1, d // 3), d))
        g = m.T @ m
        assert np.array_equal(g, g.T), d
    trees = [w.build_shannon_tree(4, 4), w.build_filter_tree_1d("haar", 16, 4),
             w.build_filter_tree_1d("d4", 32, 3), w.build_filter_tree_2d("haar", 8, 3),
             w.build_filter_tree_2d("d4", 8, 2)]
    for tree in trees:
        op = random_gram(rng, tree.ambient_dim)
        for node in tree.all_nodes():
            p = w.projection(tree, node)
            assert np.array_equal(p, p.T) and not p.flags.writeable, (tree.realization, node)
            block, rest = op.remove(tree.basis(node))
            assert np.array_equal(block, block.T) and np.array_equal(rest.matrix, rest.matrix.T)


def _root(entries):
    """sqrt(A) by the package's own route: the rows of the identity times sqrt(A)."""
    op = w.PsdOperator(entries)
    return op.root_rows(np.eye(op.dim))


class TestSqrt:
    def test_identity(self):
        s = _root(np.eye(4))
        assert np.max(np.abs(s - np.eye(4))) <= 1e-12

    def test_diagonal(self):
        s = _root(np.diag([4.0, 9.0]))
        assert np.allclose(s, np.diag([2.0, 3.0]), atol=1e-12)

    def test_hand_derived_2x2(self):
        s = _root([[2.0, 1.0], [1.0, 2.0]])
        assert np.allclose(np.linalg.eigvalsh(s), [1.0, np.sqrt(3.0)], atol=1e-12)

    def test_involution_on_grams(self, rng):
        # squaring the root reproduces the operator across 200 random PSD inputs
        for i in range(200):
            dim = int(rng.integers(1, 33))
            op = random_gram(rng, dim)
            s = op.root_rows(np.eye(dim))
            fro = w.hs_norm(op)
            assert np.linalg.norm(s @ s - op.matrix) <= 1e-8 * (1.0 + fro)


    @pytest.mark.parametrize("dim", [1, 2, 5, 16, 64])
    def test_sqrt_entries_is_root_rows_of_the_identity_symmetrized(self, monkeypatch, dim):
        # bit for bit, and bit-equal to the (V sqrt(lam)) V^T, symmetrized, it once formed
        g = np.random.default_rng(dim).standard_normal((dim, dim))
        op = w.PsdOperator(g.T @ g / dim)
        s = op.root_rows(np.eye(dim))
        formed = (op.eigenvectors * np.sqrt(op.eigenvalues)) @ op.eigenvectors.T
        real, rows = w.PsdOperator.root_rows, []
        monkeypatch.setattr(w.PsdOperator, "root_rows",
                            lambda self, r: rows.append(r) or real(self, r))
        got = op.sqrt_entries()
        assert len(rows) == 1 and np.array_equal(rows[0], np.eye(dim))
        assert np.array_equal(got, 0.5 * (s + s.T))
        assert np.array_equal(got, 0.5 * (formed + formed.T))


class TestScalars:
    def test_trace_examples(self):
        assert w.trace(w.PsdOperator(np.eye(5))) == 5.0
        assert w.trace(w.PsdOperator(np.diag([4.0, 9.0]))) == 13.0

    def test_trace_of_gram_is_squared_frobenius(self, rng):
        b = rng.standard_normal((7, 7))
        op = w.PsdOperator(b.T @ b)
        assert w.trace(op) == pytest.approx(float(np.sum(b * b)), rel=1e-12)

    def test_trace_equals_eigenvalue_sum(self, rng):
        op = random_gram(rng, 20)
        t = w.trace(op)
        assert abs(t - float(np.sum(op.eigenvalues))) <= 1e-9 * (1.0 + t)

    def test_trace_linearity(self, rng):
        a, b = random_gram(rng, 10), random_gram(rng, 10)
        s = w.trace(w.PsdOperator(a.matrix + b.matrix))
        assert s == pytest.approx(w.trace(a) + w.trace(b), rel=1e-10)

    def test_hs_norm_examples(self):
        assert w.hs_norm(np.zeros((3, 3))) == 0.0
        assert w.hs_norm(np.eye(4)) == 2.0
        assert w.hs_norm(np.diag([3.0, 4.0])) == 5.0

    def test_hs_norm_squared_is_trace_of_square(self, rng):
        op = random_gram(rng, 14)
        lhs = w.hs_norm(op) ** 2
        rhs = w.trace(op.matrix @ op.matrix)
        assert lhs == pytest.approx(rhs, rel=1e-9)


class TestLoewner:
    def test_zero_below_any_psd(self, rng):
        op = random_gram(rng, 8)
        assert loewner_leq(np.zeros((8, 8)), op)

    def test_counterexample(self):
        a = w.PsdOperator(np.diag([2.0, 0.0]))
        b = w.PsdOperator(np.diag([1.0, 1.0]))
        assert not loewner_leq(a, b)

    def test_reflexive_and_antisymmetric(self, rng):
        for _ in range(10):
            a = random_gram(rng, 6)
            assert loewner_leq(a, a)
            bigger = w.PsdOperator(a.matrix + 0.5 * np.eye(6))
            assert loewner_leq(a, bigger)
            assert not loewner_leq(bigger, a)

    def test_dimension_mismatch(self):
        with pytest.raises(w.ConfigError, match="shape mismatch"):
            loewner_leq(np.zeros((2, 2)), np.zeros((3, 3)))

    @pytest.mark.parametrize("dip, holds", [(1e-6, False), (0.5e-8, True)],
                             ids=["1e-6-fails", "0.5e-8-holds"])
    def test_tolerance_is_1e_8_of_the_spectral_norm(self, rng, dip, holds):
        # b - a = -dip ||b||_2 v v^T, so lam_min(b - a) = -dip ||b||_2
        b = random_gram(rng, 6)
        v = rng.standard_normal(6)
        a = b.matrix + dip * b.eigenvalues[0] * np.outer(v, v) / (v @ v)
        assert loewner_leq(a, b) is holds


class TestMatrixJson:
    def test_round_trip(self, rng):
        op = random_gram(rng, 5)
        again = w.matrix_from_json(json.loads(json.dumps(matrix_json(op))))
        assert np.max(np.abs(again - op.matrix)) <= 1e-15

    def test_rejects_wrong_length(self):
        with pytest.raises(w.MalformedInputError):
            w.matrix_from_json({"dim": 2, "data": [1.0, 2.0, 3.0]})

    def test_rejects_asymmetric(self):
        with pytest.raises(w.MalformedInputError):
            w.matrix_from_json({"dim": 2, "data": [1.0, 2.0, 0.0, 1.0]})

    def test_rejects_non_finite(self):
        with pytest.raises(w.MalformedInputError):
            w.matrix_from_json({"dim": 1, "data": [float("nan")]})

    @pytest.mark.parametrize("shape, message", [
        ((2, 3), "expected a square matrix, got shape"),
        ((0, 0), "matrix dimension must be at least 1"),
    ], ids=["not-square", "empty"])
    def test_sym_matrix_shape_rules(self, shape, message):
        with pytest.raises(w.MalformedInputError, match=message):
            w.PsdOperator(np.zeros(shape))

    def test_rejects_missing_keys(self):
        with pytest.raises(w.MalformedInputError):
            w.matrix_from_json({"dim": 2})
