import json

import numpy as np
import pytest

import wpcontent as w

from helpers import full_scan_positive_first, random_gram


class TestSymEigen:
    def test_identity(self):
        lam, vecs = w.sym_eigen(w.SymMatrix(np.eye(3)))
        assert np.allclose(lam, [1.0, 1.0, 1.0])
        assert np.max(np.abs(vecs.T @ vecs - np.eye(3))) <= 1e-10

    def test_diagonal(self):
        lam, vecs = w.sym_eigen(w.SymMatrix(np.diag([4.0, 1.0])))
        assert np.allclose(lam, [4.0, 1.0])
        assert np.allclose(np.abs(vecs), np.eye(2))

    def test_hand_derived_2x2(self):
        # characteristic polynomial of [[2,1],[1,2]] is x^2 - 4x + 3 = (x-3)(x-1)
        lam, vecs = w.sym_eigen(w.SymMatrix([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(lam, [3.0, 1.0], atol=1e-12)
        recon = (vecs * lam) @ vecs.T
        assert np.max(np.abs(recon - [[2.0, 1.0], [1.0, 2.0]])) <= 1e-12

    def test_eigenvalues_nonincreasing_and_orthonormal(self, rng):
        for _ in range(20):
            a = rng.standard_normal((12, 12))
            lam, vecs = w.sym_eigen(w.SymMatrix(a + a.T))
            assert np.all(np.diff(lam) <= 1e-12)
            assert np.max(np.abs(vecs.T @ vecs - np.eye(12))) <= 1e-10

    def test_sign_convention_and_determinism(self, rng):
        a = rng.standard_normal((9, 9))
        m = w.SymMatrix(a + a.T)
        lam1, v1 = w.sym_eigen(m)
        lam2, v2 = w.sym_eigen(m)
        assert np.array_equal(lam1, lam2) and np.array_equal(v1, v2)
        for j in range(9):
            nz = np.nonzero(np.abs(v1[:, j]) > 1e-12)[0]
            assert v1[nz[0], j] > 0

    def test_dim_one(self):
        lam, vecs = w.sym_eigen(w.SymMatrix([[5.0]]))
        assert lam[0] == 5.0 and vecs[0, 0] == 1.0

    @pytest.mark.parametrize("row0", [0.0, -0.0, 1e-12, -1e-12, 3e-13])
    def test_sign_rule_matches_full_scan_below_threshold(self, rng, row0):
        v = rng.standard_normal((7, 9))
        v[0, ::2] = row0 * rng.choice([-1.0, 1.0], 5)
        v[:3, 4] = -1e-13  # no entry above 1e-12 before row 3
        v[:, 8] = 1e-13  # no entry above 1e-12 at all: row 0 decides
        got = w.psdcore._positive_first(v)
        assert np.array_equal(got, full_scan_positive_first(v))
        assert np.array_equal(np.signbit(got), np.signbit(full_scan_positive_first(v)))

    def test_sign_rule_on_eigenvectors_with_zero_first_row(self, rng):
        # [c] (+) G: every eigenvector but one is zero in row 0
        g = rng.standard_normal((6, 6))
        a = np.zeros((7, 7))
        a[0, 0], a[1:, 1:] = 0.5, g + g.T
        _, raw = np.linalg.eigh(a)
        _, vecs = w.sym_eigen(w.SymMatrix(a))
        assert np.array_equal(vecs, full_scan_positive_first(raw[:, ::-1]))


class TestMakePsd:
    def test_near_zero_eigenvalue_accepted(self):
        op = w.make_psd(w.SymMatrix(np.diag([1.0, 1e-14])))
        assert np.all(op.eigenvalues >= 0)

    def test_indefinite_rejected(self):
        with pytest.raises(w.NotPositiveError):
            w.make_psd(w.SymMatrix(np.diag([1.0, -1.0])))

    def test_gram_always_accepted(self, rng):
        for _ in range(25):
            b = rng.standard_normal((6, 10))
            op = w.make_psd(w.SymMatrix(b.T @ b))
            assert np.all(op.eigenvalues >= 0)

    def test_clamp_applied_flag(self):
        # the clamp zeros the spectrum only; the matrix is kept bit for bit
        m = np.diag([1.0, -1e-12])
        op = w.make_psd(w.SymMatrix(m))
        assert op.clamp_applied and op.eigenvalues[-1] == 0.0
        assert np.array_equal(op.matrix, m)
        clean = w.make_psd(w.SymMatrix(np.diag([2.0, 1.0])))
        assert not clean.clamp_applied

    def test_reconstruction_invariant(self, rng):
        op = random_gram(rng, 16)
        lam_max = op.eigenvalues[0]
        recon = (op.eigenvectors * op.eigenvalues) @ op.eigenvectors.T
        assert np.max(np.abs(recon - op.matrix)) <= 1e-8 * (1.0 + lam_max)
        assert np.max(np.abs(op.eigenvectors.T @ op.eigenvectors - np.eye(16))) <= 1e-10


class TestSqrt:
    def test_identity(self):
        s = w.sqrt_psd(w.make_psd(w.SymMatrix(np.eye(4))))
        assert np.max(np.abs(s.matrix - np.eye(4))) <= 1e-12

    def test_diagonal(self):
        s = w.sqrt_psd(w.make_psd(w.SymMatrix(np.diag([4.0, 9.0]))))
        assert np.allclose(s.matrix, np.diag([2.0, 3.0]), atol=1e-12)

    def test_hand_derived_2x2(self):
        s = w.sqrt_psd(w.make_psd(w.SymMatrix([[2.0, 1.0], [1.0, 2.0]])))
        assert np.allclose(s.eigenvalues, [np.sqrt(3.0), 1.0], atol=1e-12)

    def test_involution_on_grams(self, rng):
        # squaring the root reproduces the operator across 200 random PSD inputs
        for i in range(200):
            dim = int(rng.integers(1, 33))
            op = random_gram(rng, dim)
            s = w.sqrt_psd(op).matrix
            fro = w.hs_norm(op)
            assert np.linalg.norm(s @ s - op.matrix) <= 1e-8 * (1.0 + fro)


class TestScalars:
    def test_trace_examples(self):
        assert w.trace(w.make_psd(w.SymMatrix(np.eye(5)))) == 5.0
        assert w.trace(w.make_psd(w.SymMatrix(np.diag([4.0, 9.0])))) == 13.0

    def test_trace_of_gram_is_squared_frobenius(self, rng):
        b = rng.standard_normal((7, 7))
        op = w.make_psd(w.SymMatrix(b.T @ b))
        assert w.trace(op) == pytest.approx(float(np.sum(b * b)), rel=1e-12)

    def test_trace_equals_eigenvalue_sum(self, rng):
        op = random_gram(rng, 20)
        t = w.trace(op)
        assert abs(t - float(np.sum(op.eigenvalues))) <= 1e-9 * (1.0 + t)

    def test_trace_linearity(self, rng):
        a, b = random_gram(rng, 10), random_gram(rng, 10)
        s = w.trace(w.make_psd(w.SymMatrix(a.matrix + b.matrix)))
        assert s == pytest.approx(w.trace(a) + w.trace(b), rel=1e-10)

    def test_hs_norm_examples(self):
        assert w.hs_norm(np.zeros((3, 3))) == 0.0
        assert w.hs_norm(np.eye(4)) == 2.0
        assert w.hs_norm(np.diag([3.0, 4.0])) == 5.0

    def test_hs_norm_squared_is_trace_of_square(self, rng):
        op = random_gram(rng, 14)
        lhs = w.hs_norm(op) ** 2
        rhs = w.trace(w.SymMatrix(op.matrix @ op.matrix))
        assert lhs == pytest.approx(rhs, rel=1e-9)


class TestLoewner:
    def test_zero_below_any_psd(self, rng):
        op = random_gram(rng, 8)
        assert w.loewner_leq(np.zeros((8, 8)), op)

    def test_counterexample(self):
        a = w.make_psd(w.SymMatrix(np.diag([2.0, 0.0])))
        b = w.make_psd(w.SymMatrix(np.diag([1.0, 1.0])))
        assert not w.loewner_leq(a, b)

    def test_reflexive_and_antisymmetric(self, rng):
        for _ in range(10):
            a = random_gram(rng, 6)
            assert w.loewner_leq(a, a)
            bigger = w.make_psd(w.SymMatrix(a.matrix + 0.5 * np.eye(6)))
            assert w.loewner_leq(a, bigger)
            assert not w.loewner_leq(bigger, a)

    def test_dimension_mismatch(self):
        with pytest.raises(w.DimensionMismatchError):
            w.loewner_leq(np.zeros((2, 2)), np.zeros((3, 3)))


class TestMatrixJson:
    def test_round_trip(self, rng):
        op = random_gram(rng, 5)
        again = w.matrix_from_json(json.loads(json.dumps(w.matrix_to_json(op))))
        assert np.max(np.abs(again.matrix - op.matrix)) <= 1e-15

    def test_rejects_wrong_length(self):
        with pytest.raises(w.MalformedInputError):
            w.matrix_from_json({"dim": 2, "data": [1.0, 2.0, 3.0]})

    def test_rejects_asymmetric(self):
        with pytest.raises(w.MalformedInputError):
            w.matrix_from_json({"dim": 2, "data": [1.0, 2.0, 0.0, 1.0]})

    def test_rejects_non_finite(self):
        with pytest.raises(w.MalformedInputError):
            w.matrix_from_json({"dim": 1, "data": [float("nan")]})

    def test_rejects_missing_keys(self):
        with pytest.raises(w.MalformedInputError):
            w.matrix_from_json({"dim": 2})
