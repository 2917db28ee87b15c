"""Symmetric linear-algebra kernel: eigendecomposition, PD square roots,
Kronecker products, spectral radius, lexicographic vectorization, congruences in
the symmetric basis."""

import numpy as np
import pytest

from kaflab.errors import DimensionMismatchError, NotPositiveDefiniteError
from kaflab.kernel import GaussianKernel, gram, grid_dictionary
from conftest import kron, unvec_lex, vec_lex
from kaflab.linalg import (
    pd_sqrt,
    spectral_radius,
    sym_congruence,
    sym_eig,
    unvec_sym,
    vec_sym,
)


def random_symmetric(n, rng):
    a = rng.standard_normal((n, n))
    return (a + a.T) / 2


class TestSymEig:
    def test_identity(self):
        w, v = sym_eig(np.eye(3))
        assert np.allclose(w, 1.0)
        assert np.abs(v.T @ v - np.eye(3)).max() < 1e-12

    def test_diagonal(self):
        w, _ = sym_eig(np.diag([2.0, 5.0]))
        assert np.allclose(w, [2.0, 5.0])

    def test_reconstruction_random(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = random_symmetric(6, rng)
            w, v = sym_eig(a)
            rec = (v * w) @ v.T
            scale = max(np.linalg.norm(a), 1.0)
            assert np.linalg.norm(rec - a) / scale < 1e-10
            assert np.linalg.norm(v.T @ v - np.eye(6)) < 1e-10
            assert (np.diff(w) >= 0).all()

    def test_rejects_asymmetric(self):
        with pytest.raises(DimensionMismatchError):
            sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestPdSqrt:
    def test_identity(self):
        sq, inv, _ = pd_sqrt(np.eye(4))
        assert np.allclose(sq, np.eye(4))
        assert np.allclose(inv, np.eye(4))

    def test_diagonal(self):
        sq, inv, _ = pd_sqrt(np.diag([4.0, 9.0]))
        assert np.allclose(sq, np.diag([2.0, 3.0]))
        assert np.allclose(inv, np.diag([0.5, 1.0 / 3.0]))

    def test_returns_the_eigenvalues_it_decomposed(self):
        g = gram(grid_dictionary([-1, -1], [1, 1], 5), GaussianKernel(0.7)).g
        assert np.array_equal(pd_sqrt(g)[2], np.linalg.eigh(g).eigenvalues)

    def test_gram_round_trip(self):
        d = grid_dictionary([-1, -1], [1, 1], 5)
        g = gram(d, GaussianKernel(0.7)).g
        sq, inv, _ = pd_sqrt(g)
        assert np.linalg.norm(sq @ sq - g) / np.linalg.norm(g) < 1e-10
        assert np.linalg.norm(inv @ sq - np.eye(25)) < 1e-10
        # outputs symmetric exactly, by construction
        assert np.abs(sq - sq.T).max() == 0.0
        assert np.abs(inv - inv.T).max() == 0.0

    def test_not_pd_raises_with_eigenvalue(self):
        a = np.diag([1.0, -0.5])
        with pytest.raises(NotPositiveDefiniteError) as err:
            pd_sqrt(a)
        assert err.value.smallest_eigenvalue == pytest.approx(-0.5)

    def test_floor_is_relative(self):
        # eigenvalue below 1e-12 * max(eig) counts as non-PD
        with pytest.raises(NotPositiveDefiniteError):
            pd_sqrt(np.diag([1.0, 1e-14]))
        pd_sqrt(np.diag([1.0, 1e-10]))  # above the floor: fine


class TestKron:
    def test_identities(self):
        assert np.array_equal(kron(np.eye(2), np.eye(3)), np.eye(6))

    def test_scalar(self):
        b = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(kron([[2.0]], b), 2.0 * b)

    def test_block_structure(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[0.0, 5.0], [6.0, 7.0]])
        k = kron(a, b)
        assert k.shape == (4, 4)
        assert np.array_equal(k[:2, 2:], a[0, 1] * b)

    def test_mixed_product(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            a, b, c, d = (rng.standard_normal((2, 2)) for _ in range(4))
            lhs = kron(a, b) @ kron(c, d)
            rhs = kron(a @ c, b @ d)
            assert np.abs(lhs - rhs).max() < 1e-12


class TestSpectralRadius:
    def test_diagonal(self):
        assert spectral_radius(np.diag([0.5, -0.9])) == pytest.approx(0.9)

    def test_identity(self):
        assert spectral_radius(np.eye(5)) == pytest.approx(1.0)

    def test_bounded_by_row_sum_norm(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.standard_normal((5, 5))
            assert spectral_radius(a) <= np.linalg.norm(a, np.inf) + 1e-12

    def test_matches_sym_eig_for_symmetric(self):
        rng = np.random.default_rng(4)
        a = random_symmetric(6, rng)
        w, _ = sym_eig(a)
        assert spectral_radius(a) == pytest.approx(np.abs(w).max(), rel=1e-12)


class TestVecLex:
    def test_small(self):
        assert np.array_equal(vec_lex(np.array([[1.0, 3.0], [3.0, 2.0]])), [1, 3, 3, 2])

    def test_identity(self):
        assert np.array_equal(vec_lex(np.eye(2)), [1, 0, 0, 1])

    def test_round_trip_exact(self):
        rng = np.random.default_rng(5)
        c = rng.standard_normal((7, 7))
        assert np.array_equal(unvec_lex(vec_lex(c), 7), c)

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            unvec_lex(np.arange(5.0), 2)


class TestSymCongruence:
    def test_two_matrices_give_the_symmetrized_product(self):
        rng = np.random.default_rng(6)
        for r in (1, 2, 5, 9):
            a, b = rng.standard_normal((r, r)), rng.standard_normal((r, r))
            c = random_symmetric(r, rng)
            want = (a @ c @ b.T + b @ c @ a.T) / 2
            got = unvec_sym(sym_congruence(a, b) @ vec_sym(c), r)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_one_matrix_gives_the_congruence(self):
        rng = np.random.default_rng(7)
        for r in (1, 2, 5, 9):
            w, c = rng.standard_normal((r, r)), random_symmetric(r, rng)
            want = w @ c @ w.T
            got = unvec_sym(sym_congruence(w) @ vec_sym(c), r)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_second_argument_equal_to_the_first_keeps_the_bits(self):
        rng = np.random.default_rng(8)
        for r in (1, 2, 5, 9):
            w = rng.standard_normal((r, r))
            assert np.array_equal(sym_congruence(w), sym_congruence(w, w.copy()))
