"""Gaussian kernel, dictionary construction, Gram factorization and the
inner-product-preserving coordinate transform."""

import math

import numpy as np
import pytest

from conftest import CONFIGS
from kaflab.config import calibration_samples, load_config
from kaflab.errors import DimensionMismatchError, KaflabError, NotPositiveDefiniteError
from kaflab.kernel import (
    Dictionary,
    GaussianKernel,
    coherence_select,
    coherence_threshold_for_size,
    gram,
    grid_dictionary,
    kappa,
    kernelized_input,
)


class TestKappa:
    def test_zero_distance(self):
        k = GaussianKernel(1.3)
        assert kappa([0.4, -2.0], [0.4, -2.0], k) == 1.0

    def test_forced_exponent(self):
        # squared distance equal to 2 sigma^2 gives exactly exp(-1)
        k = GaussianKernel(0.5)
        x = [0.0, 0.0]
        y = [math.sqrt(2) * 0.5, 0.0]
        assert kappa(x, y, k) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_scalar_oracle(self):
        k = GaussianKernel(0.7)
        expected = math.exp(-2.0 / (2.0 * 0.49))
        assert kappa([0.0, 0.0], [1.0, 1.0], k) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.129922, abs=1e-5)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            kappa([1.0], [1.0, 2.0], GaussianKernel(1.0))

    def test_positive_width_required(self):
        with pytest.raises(ValueError):
            GaussianKernel(0.0)


class TestKernelizedInput:
    def test_at_center(self):
        d = grid_dictionary([-1, -1], [1, 1], 3)
        k = GaussianKernel(0.7)
        vec = kernelized_input(d, k, d.centers[3])
        assert vec[3] == 1.0
        assert ((vec > 0) & (vec <= 1)).all()

    def test_single_center(self):
        d = Dictionary(np.array([[0.5, 0.5]]))
        k = GaussianKernel(0.7)
        vec = kernelized_input(d, k, [0.0, 0.0])
        assert vec.shape == (1,)
        assert vec[0] == pytest.approx(kappa([0.0, 0.0], [0.5, 0.5], k))

    def test_elementwise_oracle(self):
        d = grid_dictionary([-1, -1], [1, 1], 5)
        k = GaussianKernel(0.7)
        u = np.array([0.0, 0.0])
        vec = kernelized_input(d, k, u)
        for ell in range(d.size):
            assert vec[ell] == pytest.approx(kappa(u, d.centers[ell], k), rel=1e-14)

    def test_dimension_mismatch(self):
        d = grid_dictionary([-1, -1], [1, 1], 2)
        with pytest.raises(DimensionMismatchError):
            kernelized_input(d, GaussianKernel(1.0), [1.0, 2.0, 3.0])


class TestGram:
    def test_single_center(self):
        gf = gram(Dictionary(np.array([[1.0, 2.0]])), GaussianKernel(0.9))
        for mat in (gf.g, gf.g_sqrt, gf.g_inv_sqrt, gf.solve(np.eye(1))):
            assert np.allclose(mat, [[1.0]])

    def test_two_centers_forced_offdiagonal(self):
        sigma = 0.6
        delta = math.sqrt(2) * sigma
        d = Dictionary(np.array([[0.0], [delta]]))
        gf = gram(d, GaussianKernel(sigma))
        assert gf.g[0, 1] == pytest.approx(math.exp(-1.0), rel=1e-12)
        assert gf.g[0, 0] == gf.g[1, 1] == 1.0

    def test_grid_dictionary_factorization(self):
        d = grid_dictionary([-1, -1], [1, 1], 5)
        gf = gram(d, GaussianKernel(0.7))
        r = np.linalg.norm(gf.g_sqrt @ gf.g_sqrt - gf.g) / np.linalg.norm(gf.g)
        assert r < 1e-10
        assert np.linalg.norm(gf.solve(gf.g) - np.eye(25)) < 1e-8
        assert np.allclose(np.diag(gf.g), 1.0)
        assert np.abs(gf.g).max() <= 1.0

    def test_solve_matches_inverse(self):
        d = grid_dictionary([-1, -1], [1, 1], 4)
        gf = gram(d, GaussianKernel(0.8))
        rng = np.random.default_rng(0)
        b = rng.standard_normal(16)
        assert np.allclose(gf.solve(b), np.linalg.solve(gf.g, b), atol=1e-10)

    def test_near_duplicate_names_pair(self):
        d = Dictionary(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1e-12]]))
        with pytest.raises(NotPositiveDefiniteError) as err:
            gram(d, GaussianKernel(0.7))
        assert "1" in str(err.value) and "2" in str(err.value)

    def test_inner_product_preservation(self):
        rng = np.random.default_rng(7)
        for trial in range(5):
            d = Dictionary(rng.uniform(-1, 1, size=(6, 2)))
            k = GaussianKernel(0.7)
            gf = gram(d, k)
            a, b = rng.standard_normal(6), rng.standard_normal(6)
            lhs = (gf.g_sqrt @ a) @ (gf.g_sqrt @ b)
            rhs = a @ gf.g @ b
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)
            # definitional: the quadratic form is the double kernel expansion
            expansion = sum(
                a[l] * b[m] * kappa(d.centers[l], d.centers[m], k)
                for l in range(6)
                for m in range(6)
            )
            assert rhs == pytest.approx(expansion, rel=1e-12)


class TestGridDictionary:
    def test_reference_grid(self):
        d = grid_dictionary([-1, -1], [1, 1], 5)
        assert d.size == 25
        assert d.input_dim == 2
        axis = np.unique(d.centers[:, 0])
        assert np.allclose(axis, [-1.0, -0.5, 0.0, 0.5, 1.0])
        # centers pairwise distinct
        assert len({tuple(c) for c in d.centers}) == 25

    def test_degenerate_single_point(self):
        d = grid_dictionary([-1, -2], [1, 2], 1)
        assert d.size == 1
        assert np.array_equal(d.centers[0], [-1.0, -2.0])

    def test_two_points_1d(self):
        d = grid_dictionary([0.0], [1.0], 2)
        assert np.array_equal(np.sort(d.centers[:, 0]), [0.0, 1.0])

    def test_size_cap(self):
        with pytest.raises(KaflabError):
            grid_dictionary([0, 0, 0], [1, 1, 1], 30)  # 27000 > default cap


class TestCoherenceSelect:
    def test_tiny_threshold_keeps_first_only(self):
        rng = np.random.default_rng(11)
        samples = rng.normal(0, 0.5, size=(50, 2))
        d = coherence_select(samples, GaussianKernel(0.7), 1e-9)
        assert d.size == 1
        assert np.array_equal(d.centers[0], samples[0])

    def test_duplicate_rejected(self):
        samples = np.array([[0.0, 0.0], [2.0, 2.0], [0.0, 0.0], [2.0, 2.0]])
        d = coherence_select(samples, GaussianKernel(0.7), 0.999)
        assert d.size == 2

    def test_deterministic(self):
        rng = np.random.default_rng(12)
        samples = rng.normal(0, 0.5, size=(200, 2))
        d1 = coherence_select(samples, GaussianKernel(0.75), 0.8)
        d2 = coherence_select(samples, GaussianKernel(0.75), 0.8)
        assert np.array_equal(d1.centers, d2.centers)

    def test_threshold_calibration_hits_target(self):
        rng = np.random.default_rng(13)
        samples = rng.normal(0, 0.5, size=(500, 2))
        k = GaussianKernel(0.75)
        mu0 = coherence_threshold_for_size(samples, k, 12)
        assert 0 < mu0 < 1
        assert coherence_select(samples, k, mu0).size == 12


def list_select(samples, k, mu0):
    """Coherence selection as a plain list-growing loop: the bit-exact reference."""
    two_s2 = 2.0 * k.sigma**2
    centers = [samples[0]]
    for u in samples[1:]:
        c = np.asarray(centers)
        if np.exp(-((c - u) ** 2).sum(axis=1) / two_s2).max() <= mu0:
            centers.append(u)
    return np.asarray(centers)


class TestCoherenceSelectExact:
    """The buffered, early-stopping selection keeps exactly the reference centers."""

    @pytest.fixture(scope="class")
    def stream(self):
        cfg = load_config(CONFIGS / "experiment2.cfg")
        return calibration_samples(cfg)[:2000], GaussianKernel(cfg.sigma)

    @pytest.mark.parametrize("mu0", [0.05, 0.3, 0.6, 0.8, 0.9])
    def test_same_centers(self, stream, mu0):
        samples, k = stream
        ref = list_select(samples, k, mu0)
        assert np.array_equal(coherence_select(samples, k, mu0).centers, ref)
        for stop in (1, 2, ref.shape[0] // 2 + 1, ref.shape[0] + 1):
            head = coherence_select(samples, k, mu0, stop_after=stop).centers
            assert np.array_equal(head, ref[:stop])

    def test_same_calibrated_threshold(self, stream):
        samples, k = stream
        lo, hi = 0.0, 1.0
        for _ in range(60):  # the bisection on full selections
            mid = (lo + hi) / 2.0
            size = list_select(samples, k, mid).shape[0]
            if size == 12:
                break
            lo, hi = (mid, hi) if size < 12 else (lo, mid)
        assert coherence_threshold_for_size(samples, k, 12) == mid


class TestDictionaryCsv:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(21)
        d = Dictionary(rng.standard_normal((17, 3)))
        path = tmp_path / "dict.csv"
        d.save_csv(path)
        loaded = Dictionary.load_csv(path)
        assert np.array_equal(loaded.centers, d.centers)

    def test_single_center_round_trip(self, tmp_path):
        d = Dictionary(np.array([[0.1, -0.2]]))
        path = tmp_path / "dict.csv"
        d.save_csv(path)
        assert np.array_equal(Dictionary.load_csv(path).centers, d.centers)
