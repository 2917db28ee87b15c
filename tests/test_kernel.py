"""Gaussian kernel, dictionary construction, Gram factorization and the
inner-product-preserving coordinate transform."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CONFIGS, EXP2_SEED, gram_from_differences, kappa, kernel_values_inputs_major
from kaflab.config import build_dictionary, calibration_samples, load_config
from kaflab.errors import DimensionMismatchError, KaflabError, NotPositiveDefiniteError
from kaflab.kernel import (
    Dictionary,
    GaussianKernel,
    coherence_select,
    coherence_threshold_for_size,
    gram,
    grid_dictionary,
    kernelized_input,
)


def one_center(x, y, k):
    """The kernel value between input ``x`` and the one center ``y`` of a dictionary."""
    return kernelized_input(Dictionary(np.array([y], dtype=float)), k, x)[0]


class TestKappa:
    """Kernel values on a one-center dictionary."""

    def test_zero_distance(self):
        k = GaussianKernel(1.3)
        assert one_center([0.4, -2.0], [0.4, -2.0], k) == 1.0

    def test_forced_exponent(self):
        # squared distance equal to 2 sigma^2 gives exactly exp(-1)
        k = GaussianKernel(0.5)
        x = [0.0, 0.0]
        y = [math.sqrt(2) * 0.5, 0.0]
        assert one_center(x, y, k) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_scalar_oracle(self):
        k = GaussianKernel(0.7)
        expected = math.exp(-2.0 / (2.0 * 0.49))
        assert one_center([0.0, 0.0], [1.0, 1.0], k) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.129922, abs=1e-5)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            one_center([1.0], [1.0, 2.0], GaussianKernel(1.0))

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

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("shape", [(), (27, 5)], ids=["one_input", "stacked"])
    def test_equals_the_summed_expression(self, dim, shape):
        """In place, the values keep the bits of the sum over axes and the
        exponent ``-d2 / (2 sigma^2)``."""
        rng = np.random.default_rng(dim)
        d = Dictionary(rng.uniform(-1, 1, (7, dim)))
        k = GaussianKernel(0.7)
        u = rng.normal(0.0, 0.5, (*shape, dim))
        d2 = sum((d.centers[:, a] - u[..., a, None]) ** 2 for a in range(dim))
        expected = np.exp(-d2 / (2.0 * k.sigma**2))
        vec = kernelized_input(d, k, u)
        assert vec.shape == (*shape, 7)
        assert np.array_equal(vec, expected)
        out = np.full((*shape, 7), np.nan)
        assert kernelized_input(d, k, u, out=out) is out
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("r", [1, 7], ids=["one_center", "seven_centers"])
    @pytest.mark.parametrize("shape", [(), (27, 5)], ids=["one_input", "stacked"])
    def test_work_holds_the_squared_distances(self, dim, r, shape):
        """On return, the work array holds each center's squared distance to each
        input, center by input, bit for bit."""
        rng = np.random.default_rng(10 * dim + r)
        c = rng.uniform(-1, 1, (r, dim))
        u = rng.normal(0.0, 0.5, (*shape, dim))
        work = np.full(r * max(1, u.size // dim), np.nan)
        kernelized_input(Dictionary(c), GaussianKernel(0.7), u, work=work)
        flat = u.reshape(-1, dim)
        assert np.array_equal(work.reshape(r, -1), ((c[:, None] - flat[None]) ** 2).sum(-1))


class TestCentersMajorLayout:
    """The centers-major layout keeps the bits of the inputs-major formula."""

    @settings(max_examples=100, deadline=None)
    @given(
        dim=st.integers(1, 3),
        r=st.integers(1, 9),
        lead=st.sampled_from([(), (1,), (5,), (27, 5), (3, 1), (2, 4)]),
        sigma=st.floats(0.05, 3.0),
        scale=st.sampled_from([1e-3, 0.5, 3.0]),
        use_out=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_the_inputs_major_formula(self, dim, r, lead, sigma, scale, use_out, seed):
        rng = np.random.default_rng(seed)
        d = Dictionary(rng.uniform(-1, 1, (r, dim)))
        k = GaussianKernel(sigma)
        u = rng.normal(0.0, scale, (*lead, dim))
        expected = kernel_values_inputs_major(d, k, u)
        out = np.full((*lead, r), np.nan) if use_out else None
        vec = kernelized_input(d, k, u, out=out)
        assert vec.shape == (*lead, r)
        assert np.array_equal(vec, expected)
        assert out is None or vec is out
        # the engine's input layout: each coordinate plane contiguous
        planar = np.moveaxis(np.ascontiguousarray(np.moveaxis(u, -1, 0)), 0, -1)
        work = np.empty(r * max(1, u.size // dim) + 3)  # a larger work buffer is fine
        assert np.array_equal(kernelized_input(d, k, planar, work=work), expected)


class TestGram:
    def test_single_center(self):
        gf = gram(Dictionary(np.array([[1.0, 2.0]])), GaussianKernel(0.9))
        for mat in (gf.g, gf.g_sqrt, gf.g_inv_sqrt, gf.g_inv @ np.eye(1)):
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
        assert np.linalg.norm(gf.g_inv @ gf.g - np.eye(25)) < 1e-8
        assert np.allclose(np.diag(gf.g), 1.0)
        assert np.abs(gf.g).max() <= 1.0

    def test_solve_matches_inverse(self):
        d = grid_dictionary([-1, -1], [1, 1], 4)
        gf = gram(d, GaussianKernel(0.8))
        rng = np.random.default_rng(0)
        b = rng.standard_normal(16)
        assert np.allclose(gf.g_inv @ b, np.linalg.solve(gf.g, b), atol=1e-10)

    def test_near_duplicate_names_pair(self):
        d = Dictionary(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1e-12]]))
        with pytest.raises(NotPositiveDefiniteError) as err:
            gram(d, GaussianKernel(0.7))
        assert str(err.value) == ("dictionary centers 1 and 2 are near-duplicates (distance "
                                  "1.000e-12); Gram matrix cannot be positive definite")

    def test_not_positive_definite_names_the_closest_pair(self):
        d = Dictionary(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1e-7], [0.0, 1.0]]))
        with pytest.raises(NotPositiveDefiniteError) as err:
            gram(d, GaussianKernel(0.7))
        assert str(err.value).endswith("closest center pair is (1, 2) at distance 1.000000e-07")

    @pytest.mark.parametrize("name", ["experiment1", "experiment2", "null"])
    def test_equals_the_differences_formula_on_shipped_dictionaries(self, name):
        cfg = load_config(CONFIGS / f"{name}.cfg")
        d, k = build_dictionary(cfg)[0], GaussianKernel(cfg.sigma)
        gf, (expected, _) = gram(d, k), gram_from_differences(d, k)
        assert all(map(np.array_equal, (gf.g, gf.g_sqrt, gf.g_inv_sqrt, gf.g_inv), expected))

    @settings(max_examples=100, deadline=None)
    @given(r=st.integers(1, 40), dim=st.integers(1, 3), sigma=st.floats(0.05, 3.0),
           scale=st.sampled_from([0.1, 1.0, 5.0]), seed=st.integers(0, 2**32 - 1))
    def test_equals_the_differences_formula(self, r, dim, sigma, scale, seed):
        """G and its factors keep the bits of the formula over the (r, r, L)
        differences; where that G does not factor, the error names its closest pair."""
        d = Dictionary(np.random.default_rng(seed).uniform(-scale, scale, (r, dim)))
        k = GaussianKernel(sigma)
        expected, diff2 = gram_from_differences(d, k)
        if expected is None:
            np.fill_diagonal(diff2, np.inf)
            i, j = np.unravel_index(np.argmin(diff2), diff2.shape)
            with pytest.raises(NotPositiveDefiniteError) as err:
                gram(d, k)
            assert str(err.value).endswith(
                f"closest center pair is ({i}, {j}) at distance {np.sqrt(diff2[i, j]):.6e}")
            return
        gf = gram(d, k)
        assert all(map(np.array_equal, (gf.g, gf.g_sqrt, gf.g_inv_sqrt, gf.g_inv), expected))

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
        mu0, d, truncated = coherence_threshold_for_size(samples, k, 12)
        assert 0 < mu0 < 1 and not truncated
        assert np.array_equal(coherence_select(samples, k, mu0).centers, d.centers)
        assert d.size == 12


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

    @pytest.fixture(scope="class")
    def stream3(self, stream):
        """Three-tap inputs ``[u_n, u_{n-1}, u_{n-2}]`` from the same calibration stream."""
        samples, k = stream
        return np.column_stack([samples[1:], samples[:-1, 1]]), k

    @pytest.mark.parametrize("mu0", [0.05, 0.3, 0.6, 0.8, 0.9])
    def test_same_centers_three_taps(self, stream3, mu0):
        samples, k = stream3
        ref = list_select(samples, k, mu0)
        assert ref.shape[1] == 3
        assert np.array_equal(coherence_select(samples, k, mu0).centers, ref)
        n = ref.shape[0]
        for stop in sorted({1, 2, 3, max(1, n // 3), n // 2 + 1, max(1, n - 1), n, n + 1, n + 5}):
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
        assert coherence_threshold_for_size(samples, k, 12)[0] == mid


class TestCalibrationJump:
    """On some seeds no threshold keeps exactly ``target_size`` centers."""

    @pytest.mark.parametrize("seed", [110, 155])
    def test_size_jump_keeps_the_first_target_centers(self, seed):
        cfg = dataclasses.replace(load_config(CONFIGS / "experiment2.cfg"), seed=seed)
        d, info = build_dictionary(cfg)
        assert d.size == info["size"] == cfg.target_size == 31
        assert info["truncated"] is True
        samples, k, mu0 = calibration_samples(cfg), GaussianKernel(cfg.sigma), info["mu0"]
        # mu0 is the smallest threshold above the target: the next double
        # down keeps fewer centers
        below = coherence_select(samples, k, np.nextafter(mu0, 0.0)).size
        full = coherence_select(samples, k, mu0).centers
        assert below < cfg.target_size < full.shape[0]
        assert np.array_equal(d.centers, full[:cfg.target_size])

    def test_shipped_seed_is_not_truncated(self):
        cfg = load_config(CONFIGS / "experiment2.cfg")
        assert cfg.seed == EXP2_SEED
        d, info = build_dictionary(cfg)
        assert info["truncated"] is False and info["mu0"] == 0.84375
        samples, k = calibration_samples(cfg), GaussianKernel(cfg.sigma)
        assert np.array_equal(d.centers, coherence_select(samples, k, 0.84375).centers)
