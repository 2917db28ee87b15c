"""Property tests of the spectral theory engine on random small models.

Each example builds a real moment model (closed-form second and fourth
moments, inverse-Gram transform) for 1 to 5 centers drawn from a grid, a
random kernel width and input law, and cross statistics with a known
minimum MSE. The step size ranges from deep inside the mean-square stable
region to far beyond it. The engine's symmetric block, eigenvalues, radius
and transient curve are checked against the lexicographic matrix
``conftest.lex_k`` and the step-by-step recursion ``conftest.transient_states``.
The fourth moments are checked too: the block of ``fourth_tensor`` is exactly
symmetric, equal on the three pairings of each index multiset and bounded by
Cauchy-Schwarz, and the model's ``t_sym`` is symmetric and PSD.
"""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import lex_k, transient_states, vec_lex
from kaflab.analysis import build_k, mean_stability_bound, steady_state_mse, transient_mse
from kaflab.errors import DivergenceError
from kaflab.kernel import Dictionary, GaussianKernel
from kaflab.linalg import sym_eig, sym_index, unvec_sym
from kaflab.moments import InputModel, build_model, fourth_tensor, second_moment
from kaflab.sim import stationary_covariance

# Deterministic examples, no example database on disk.
PROPERTY = settings(max_examples=50, deadline=None, derandomize=True, database=None)

# Candidate centers: a 5 x 5 grid over [-1, 1]^2, spacing 0.5.
GRID = np.array([(x, y) for x in np.linspace(-1, 1, 5) for y in np.linspace(-1, 1, 5)])


@st.composite
def laws(draw):
    """A dictionary of 1 to 5 grid centers, a kernel and an input law."""
    r = draw(st.integers(1, 5))
    d = Dictionary(GRID[draw(st.permutations(range(len(GRID))))[:r]])
    kern = GaussianKernel(draw(st.floats(0.3, 0.7)))
    im = InputModel(stationary_covariance(draw(st.floats(-0.5, 0.9)), draw(st.floats(0.3, 1.0))))
    return d, kern, im


@st.composite
def models(draw):
    """A moment model and a step size, as a multiple of the mean stability bound."""
    d, kern, im = draw(laws())
    alpha = np.array(draw(st.lists(st.floats(-1, 1), min_size=d.size, max_size=d.size)))
    # p = R alpha makes alpha the Wiener solution; d2 sets j_min > 0
    p = second_moment(d, kern, im) @ alpha
    excess = draw(st.floats(0.01, 1.0))
    d2 = max(float(p @ alpha), 1e-3) * (1.0 + excess)
    m = build_model(d, kern, im, p, d2)
    eta = draw(st.sampled_from([0.01, 0.1, 0.3, 0.6, 1.0, 1.5, 3.0])) * mean_stability_bound(m)
    return m, eta


def sym_to_lex(r):
    """Columns: the lexicographic vectors of the orthonormal symmetric basis."""
    n = r * (r + 1) // 2
    return np.column_stack([vec_lex(unvec_sym(e, r)) for e in np.eye(n)])


@PROPERTY
@given(models())
def test_symmetric_block_is_projected_lexicographic_k(case):
    m, eta = case
    k = lex_k(m, eta).k
    scale = max(1.0, np.abs(k).max())
    assert np.abs(k - k.T).max() <= 1e-12 * scale
    p = sym_to_lex(m.dim)
    assert np.abs(build_k(m, eta).k_sym - p.T @ k @ p).max() <= 1e-12 * scale


@PROPERTY
@given(models())
def test_spectrum_is_symmetric_block_plus_closed_form(case):
    m, eta = case
    km = build_k(m, eta)
    k = lex_k(m, eta).k
    mu = sym_eig(m.r_tilde).eigenvalues
    anti = [1 - eta * (mu[i] + mu[j]) for i in range(m.dim) for j in range(i + 1, m.dim)]
    union = np.sort(np.concatenate([km.eigenvalues, anti]))
    scale = max(1.0, km.radius)
    assert np.abs(union - np.linalg.eigvalsh((k + k.T) / 2)).max() <= 1e-12 * scale
    general = np.abs(np.linalg.eigvals(k)).max()
    assert abs(km.radius - general) <= 1e-12 * general


@PROPERTY
@given(models())
def test_spectral_curve_matches_recursion(case):
    m, eta = case
    km = build_k(m, eta)
    # fast-growing cases stop well before the curve can overflow
    n = 500 if km.radius < 1.5 else min(500, int(200 / np.log10(km.radius)))
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            ref = np.array([s.mse for s in transient_states(m, eta, n)])
        except DivergenceError:
            return
        curve = transient_mse(m, km, n).mse
    assert curve[0] == ref[0]
    assert (np.abs(curve - ref) / np.abs(ref)).max() <= 1e-10


@PROPERTY
@given(models())
def test_steady_state_is_the_lexicographic_fixed_point(case):
    m, eta = case
    km = build_k(m, eta)
    if km.radius >= 1:
        return
    _, c_inf = steady_state_mse(m, km)
    c = vec_lex(c_inf)
    resid = lex_k(m, eta).k @ c + eta**2 * m.j_min * vec_lex(m.r_tilde) - c
    assert np.abs(resid).max() <= 1e-10 * np.abs(c).max()


@PROPERTY
@given(models())
def test_correlation_stays_psd_when_stable(case):
    m, eta = case
    if build_k(m, eta).radius >= 1:
        return
    for state in transient_states(m, eta, 300):
        w = np.linalg.eigvalsh(state.c_tilde)
        assert w[0] >= -1e-12 * max(w[-1], 1e-300)


@PROPERTY
@given(laws())
def test_fourth_moment_block_is_symmetric(law):
    s = fourth_tensor(*law)
    assert np.array_equal(s, s.T)


@PROPERTY
@given(laws())
def test_fourth_moment_block_agrees_on_every_pairing(law):
    s, r = fourth_tensor(*law), law[0].size
    for w, x, y, z in itertools.combinations_with_replacement(range(r), 4):
        value = s[sym_index(w, x, r), sym_index(y, z, r)]
        assert s[sym_index(w, y, r), sym_index(x, z, r)] == value
        assert s[sym_index(w, z, r), sym_index(x, y, r)] == value


@PROPERTY
@given(laws())
def test_fourth_moment_block_obeys_cauchy_schwarz(law):
    # S[a, b] = E[(kappa_i kappa_j)(kappa_s kappa_t)]; equality holds when the two
    # pairs share a midpoint, so rounding is allowed one part in 10^12
    s = fourth_tensor(*law)
    diag = np.diag(s)
    assert (np.abs(s) <= np.sqrt(np.outer(diag, diag)) * (1 + 1e-12)).all()


@PROPERTY
@given(models())
def test_fourth_moment_operator_is_symmetric_psd(case):
    t = case[0].t_sym
    assert np.array_equal(t, t.T)
    w = np.linalg.eigvalsh(t)
    assert w[0] >= -1e-12 * w[-1]
