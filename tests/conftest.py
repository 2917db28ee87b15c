"""Shared fixtures: moment models built once per session.

The toy model (2x2 grid, r = 4) keeps analysis unit tests fast; the full
experiment models are session-scoped because the cross statistics and the
fourth-moment tensor are the expensive pieces.
"""

from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from kaflab.config import build_dictionary, load_config
from kaflab.kernel import GaussianKernel, grid_dictionary
from kaflab.linalg import kron
from kaflab.moments import InputModel, build_model, estimate_cross_stats
from kaflab.sim import InputGenerator, SystemKind, SystemSimulator, stationary_covariance

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# Master seeds of the shipped experiment recipes (see configs/).
EXP1_SEED = 20260809
EXP2_SEED = 20260810

# Kernel width of the toy model.
TOY_SIGMA = 0.7


def toy_dictionary():
    """2x2 grid (r = 4) of the toy model."""
    return grid_dictionary([-1, -1], [1, 1], 2)


def input_model():
    """Input law shared by every fixture model: AR(1), rho = 0.5, sigma_u = 0.5."""
    return InputModel(stationary_covariance(0.5, 0.5))


class LexK(NamedTuple):
    """Lexicographic transition matrix ``k = I - eta (k1 + k2) + eta^2 k3``."""

    k: np.ndarray
    k1: np.ndarray
    k2: np.ndarray
    k3: np.ndarray


def lex_k(m, eta):
    """The r^2 x r^2 transition matrix in the Kronecker form of Parreira,
    Bermudez, Richard and Tourneret (IEEE TSP 2012): ``k1 = I (x) r_tilde``,
    ``k2 = r_tilde (x) I`` and ``k3[l + m r, p + q r] = s_tilde[l, m, p, q]``.

    The oracle that the symmetric-block engine of ``kaflab.analysis`` is
    checked against; the library itself never builds it.
    """
    r = m.dim
    k1 = kron(np.eye(r), m.r_tilde)
    k2 = kron(m.r_tilde, np.eye(r))
    k3 = m.s_tilde.transpose(1, 0, 3, 2).reshape(r * r, r * r)
    return LexK(np.eye(r * r) - eta * (k1 + k2) + eta**2 * k3, k1, k2, k3)


def model_for(dictionary, sigma, system_kind, sigma_nu, seed, n_samples):
    kern = GaussianKernel(sigma)
    im = input_model()
    gen = InputGenerator(rho=0.5, sigma_u=0.5)
    system = SystemSimulator(kind=system_kind, noise_sigma=sigma_nu)
    stats = estimate_cross_stats(system, gen, dictionary, kern, n_samples, seed=seed)
    model = build_model(dictionary, kern, im, stats.p, stats.d2,
                        d2_stderr=stats.d2_stderr)
    return model, stats


@pytest.fixture(scope="session")
def toy_model():
    """Small (r = 4), fast-mixing model of the polynomial plant."""
    model, _ = model_for(toy_dictionary(), TOY_SIGMA, SystemKind.POLYNOMIAL, 0.05, seed=301,
                         n_samples=100_000)
    return model


@pytest.fixture(scope="session")
def exp1_model():
    """Full first-experiment model (5x5 grid, r = 25)."""
    d = grid_dictionary([-1, -1], [1, 1], 5)
    model, stats = model_for(d, 0.7, SystemKind.POLYNOMIAL, 0.05, seed=EXP1_SEED,
                             n_samples=1_000_000)
    return model, stats, d


@pytest.fixture(scope="session")
def exp2_dictionary():
    """Coherence-selected dictionary of the second experiment (r = 31)."""
    cfg = load_config(CONFIGS / "experiment2.cfg")
    d, info = build_dictionary(cfg)
    return d, info, cfg


@pytest.fixture(scope="session")
def exp2_model(exp2_dictionary):
    d, info, cfg = exp2_dictionary
    model, stats = model_for(d, cfg.sigma, SystemKind.FLUID_FLOW, cfg.sigma_nu,
                             seed=cfg.seed, n_samples=cfg.n_moment_samples)
    return model, stats, d
