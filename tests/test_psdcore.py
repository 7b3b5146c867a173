import json

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
        r = w.make_psd(matrix)
        runs = [
            extract(r, tree, n, 12).report
            for extract in (w.trace_greedy, w.hs_greedy) for n in depths
        ]
        blocks = [
            blk.matrix.tobytes()
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


class TestMakePsd:
    def test_near_zero_eigenvalue_accepted(self):
        op = w.make_psd(np.diag([1.0, 1e-14]))
        assert np.all(op.eigenvalues >= 0)

    def test_indefinite_rejected(self):
        with pytest.raises(w.NotPositiveError):
            w.make_psd(np.diag([1.0, -1.0]))

    def test_gram_always_accepted(self, rng):
        for _ in range(25):
            b = rng.standard_normal((6, 10))
            op = w.make_psd(b.T @ b)
            assert np.all(op.eigenvalues >= 0)

    def test_clamp_applied_flag(self):
        # the clamp zeros the spectrum only; the matrix is kept bit for bit
        m = np.diag([1.0, -1e-12])
        op = w.make_psd(m)
        assert op.clamp_applied and op.eigenvalues[-1] == 0.0
        assert np.array_equal(op.matrix, m)
        clean = w.make_psd(np.diag([2.0, 1.0]))
        assert not clean.clamp_applied

    def test_reconstruction_invariant(self, rng):
        op = random_gram(rng, 16)
        lam_max = op.eigenvalues[0]
        recon = (op.eigenvectors * op.eigenvalues) @ op.eigenvectors.T
        assert np.max(np.abs(recon - op.matrix)) <= 1e-8 * (1.0 + lam_max)
        assert np.max(np.abs(op.eigenvectors.T @ op.eigenvectors - np.eye(16))) <= 1e-10


class TestPsdOperator:
    """The constructor runs the clamp rule on a stated spectrum, as on one from `sym_eigen`."""

    def test_stated_negative_eigenvalue_raises(self):
        with pytest.raises(w.NotPositiveError) as err:
            w.PsdOperator(np.diag([1, -1e-6]), [1, -1e-6], np.eye(2))
        assert err.value.eigenvalue == -1e-6 and err.value.threshold == 1e-10

    def test_stated_noise_tail_is_zeroed(self):
        m = np.diag([1.0, -1e-12])
        op = w.PsdOperator(m, [1.0, -1e-12], np.eye(2))
        assert op.clamp_applied and list(op.eigenvalues) == [1.0, 0.0]
        assert np.array_equal(op.matrix, m)

    def test_scale_widens_the_clamp_reference(self):
        m = np.diag([1.0, -1e-6])
        op = w.PsdOperator(m, [1.0, -1e-6], np.eye(2), scale=1e5)
        assert op.clamp_applied and op.eigenvalues[-1] == 0.0

    @pytest.mark.parametrize("matrix, vecs", [
        (np.zeros((2, 3)), np.eye(2)), (np.zeros(4), np.eye(2)), (np.eye(2), np.eye(3)),
    ], ids=["matrix-not-square", "matrix-1d", "eigenvectors-of-another-size"])
    def test_stated_arrays_must_fit_the_spectrum(self, matrix, vecs):
        with pytest.raises(w.MalformedInputError, match="2 eigenvalues need a square matrix"):
            w.PsdOperator(matrix, [1.0, 0.0], vecs)

    def test_a_stated_matrix_is_symmetrized_unless_read_only(self, rng, monkeypatch):
        # the caller's writable matrix is kept as (a + a^T) / 2, make_psd's read-only one as is
        op = w.PsdOperator(np.array([[1.0, 2.0], [0.0, 1.0]]), [1.0, 1.0], np.eye(2))
        assert op.matrix.tolist() == [[1.0, 1.0], [1.0, 1.0]] and not op.matrix.flags.writeable
        calls = []
        real = w.psdcore._symmetric
        monkeypatch.setattr(w.psdcore, "_symmetric", lambda a: calls.append(1) or real(a))
        r = random_gram(rng, 8)
        tr = w.trace_greedy(r, w.build_filter_tree_1d("haar", 8, 2), 2, 5)
        assert len(calls) == 1 + len(tr.steps)  # one per make_psd
        kept = w.PsdOperator(r.matrix, r.eigenvalues, r.eigenvectors)
        assert kept.matrix is r.matrix and len(calls) == 1 + len(tr.steps)

    def test_every_route_to_an_operator_runs_the_rule(self, monkeypatch):
        calls = []
        real = w.psdcore.check_clamp
        monkeypatch.setattr(w.psdcore, "check_clamp", lambda *a: calls.append(a) or real(*a))
        w.make_psd(np.eye(4))
        w.symbol_operator(w.shannon_symbol(2, [1.0, 0.5, 0.0, 2.0]))
        assert calls == [(1.0, 1.0, None), (2.0, 0.0, None)]


def _root(entries):
    """sqrt(A) by the package's own route: the rows of the identity times sqrt(A)."""
    op = w.make_psd(entries)
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


class TestScalars:
    def test_trace_examples(self):
        assert w.trace(w.make_psd(np.eye(5))) == 5.0
        assert w.trace(w.make_psd(np.diag([4.0, 9.0]))) == 13.0

    def test_trace_of_gram_is_squared_frobenius(self, rng):
        b = rng.standard_normal((7, 7))
        op = w.make_psd(b.T @ b)
        assert w.trace(op) == pytest.approx(float(np.sum(b * b)), rel=1e-12)

    def test_trace_equals_eigenvalue_sum(self, rng):
        op = random_gram(rng, 20)
        t = w.trace(op)
        assert abs(t - float(np.sum(op.eigenvalues))) <= 1e-9 * (1.0 + t)

    def test_trace_linearity(self, rng):
        a, b = random_gram(rng, 10), random_gram(rng, 10)
        s = w.trace(w.make_psd(a.matrix + b.matrix))
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
        a = w.make_psd(np.diag([2.0, 0.0]))
        b = w.make_psd(np.diag([1.0, 1.0]))
        assert not loewner_leq(a, b)

    def test_reflexive_and_antisymmetric(self, rng):
        for _ in range(10):
            a = random_gram(rng, 6)
            assert loewner_leq(a, a)
            bigger = w.make_psd(a.matrix + 0.5 * np.eye(6))
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
            w.make_psd(np.zeros(shape))

    def test_rejects_missing_keys(self):
        with pytest.raises(w.MalformedInputError):
            w.matrix_from_json({"dim": 2})
