"""Output checks. Each returns ``(ok, detail)`` and never raises on a wrong output.

They test against independent computations or against properties the method
must have, never against a stored copy of earlier output.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np

# Relative agreement required between the one-run simulate and the
# benchmark's own loop, measured against the curve's largest value.
ONE_RUN_RTOL = 1e-9
THEORY_ROW0_RTOL = 1e-9


def read_kv(path: Path) -> dict:
    """``key = value`` lines of a kaflab text output."""
    out = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key.strip()] = value.strip()
    return out


def read_curve(path: Path) -> np.ndarray:
    """The ``mse`` column of an ``n,mse`` curve file."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[:, 1]


def _sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _guard(check):
    """Turn an unreadable, malformed or missing output into a failed check."""

    def run(*args):
        try:
            return check(*args)
        except Exception as exc:  # whatever a wrong output raises, the check fails
            return False, f"{type(exc).__name__}: {exc}"

    run.__name__ = check.__name__
    return run


@_guard
def manifest_sums(out_dir: Path):
    """Every output listed in ``manifest.json`` hashes to its recorded sum."""
    outputs = json.loads((Path(out_dir) / "manifest.json").read_text())["outputs"]
    bad = [n for n, s in outputs.items() if _sha256(Path(out_dir) / n) != s]
    if not outputs or bad:
        return False, f"{len(bad)} of {len(outputs)} sums differ: {bad}"
    return True, f"{len(outputs)} sums match"


@_guard
def same_sums(dir_a: Path, dir_b: Path):
    """Two runs of one command list identical output sums."""
    a = json.loads((Path(dir_a) / "manifest.json").read_text())["outputs"]
    b = json.loads((Path(dir_b) / "manifest.json").read_text())["outputs"]
    if a != b:
        return False, f"sums differ for {sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))}"
    return True, f"{len(a)} identical sums"


@_guard
def theory_starts_at_d2(analyze_dir: Path):
    """Coefficients start at zero, so the theoretical MSE at n = 0 is ``d2``."""
    row0 = read_curve(Path(analyze_dir) / "theory.csv")[0]
    d2 = float(read_kv(Path(analyze_dir) / "steady_state.txt")["d2"])
    rel = abs(row0 - d2) / abs(d2)
    return rel <= THEORY_ROW0_RTOL, f"|theory[0] - d2| / d2 = {rel:.2e}"


@_guard
def steady_state_above_jmin(analyze_dir: Path):
    """The steady-state MSE can never be below the minimum MSE."""
    kv = read_kv(Path(analyze_dir) / "steady_state.txt")
    mse, j_min = float(kv["steady_state_mse"]), float(kv["j_min"])
    return mse >= j_min, f"steady_state_mse {mse:.6g} vs j_min {j_min:.6g}"


@_guard
def stability_verdicts(analyze_dir: Path):
    """Both verdicts PASS, eta under the mean bound, spectral radius under 1."""
    kv = read_kv(Path(analyze_dir) / "stability.txt")
    eta, bound = float(kv["eta"]), float(kv["mean_stability_bound"])
    radius = float(kv["k_spectral_radius"])
    ok = (
        kv["mean_stable"] == "PASS"
        and kv["mean_square_stable"] == "PASS"
        and kv["transient"] == "ok"
        and eta < bound
        and radius < 1.0
    )
    return ok, (
        f"mean {kv['mean_stable']}, mean-square {kv['mean_square_stable']}, "
        f"eta {eta:.4g} < bound {bound:.4g}, radius {radius:.10f}"
    )


@_guard
def simulation_matches_theory(compare_dir: Path, workload):
    """``kaflab compare`` figures within the acceptance suite's tolerances."""
    kv = read_kv(Path(compare_dir) / "metrics.txt")
    parts, ok = [], True
    if workload.steady_band_tol is not None:
        err = float(kv["steady_band_rel_error"])
        ok &= err < workload.steady_band_tol
        parts.append(f"steady band {err:.4f} < {workload.steady_band_tol}")
    if workload.max_smoothed_gap is not None:
        gap = float(kv["max_log10_gap_smoothed_after_50"])
        ok &= gap < workload.max_smoothed_gap
        parts.append(f"smoothed log10 gap {gap:.4f} < {workload.max_smoothed_gap}")
    if workload.max_band_db is not None:
        overlay = np.loadtxt(Path(compare_dir) / "overlay.csv", delimiter=",",
                             skiprows=1, ndmin=2)
        band = overlay[-max(1, len(overlay) // 10):]
        db = 10.0 * np.log10(band[:, 1].mean() / band[:, 2].mean())
        ok &= abs(db) < workload.max_band_db
        parts.append(f"steady band {db:+.3f} dB within {workload.max_band_db} dB")
    return bool(ok) and bool(parts), "; ".join(parts)


def own_learning_curve(config_path: Path, mu0: float | None = None) -> np.ndarray:
    """Squared a-priori errors of run 0, from the benchmark's own filter loop.

    Uses kaflab only for the configuration, the dictionary and the seeded
    input stream (``experiment_stream`` with ``MC_RUN_SALT``); the kernel
    vector, the Gram matrix and its solves, and the update are computed here.
    A coherence dictionary is selected at ``mu0``, the threshold the simulate
    reported, instead of repeating its bisection.
    """
    from kaflab.config import build_dictionary, load_config
    from kaflab.sim import MC_RUN_SALT, InputGenerator, SystemSimulator, experiment_stream

    cfg = load_config(config_path)
    if cfg.dictionary_kind == "coherence":
        cfg = dataclasses.replace(cfg, mu0=mu0, target_size=None)
    centers = build_dictionary(cfg)[0].centers
    two_s2 = 2.0 * cfg.sigma**2
    g = np.exp(-((centers[:, None, :] - centers[None, :, :]) ** 2).sum(-1) / two_s2)
    u, d = experiment_stream(
        InputGenerator(rho=cfg.rho, sigma_u=cfg.sigma_u),
        SystemSimulator(kind=cfg.system_kind, noise_sigma=cfg.sigma_nu),
        cfg.n_iters,
        seed=(cfg.seed, MC_RUN_SALT, 0),
    )
    kind = cfg.filter_kind.value
    alpha = np.zeros(len(centers))
    e2 = np.empty(cfg.n_iters)
    for i in range(cfg.n_iters):
        kap = np.exp(-((centers - u[i]) ** 2).sum(axis=1) / two_s2)
        e = d[i] - alpha @ kap
        e2[i] = e * e
        if kind == "natural_klms":
            alpha += cfg.eta * e * np.linalg.solve(g, kap)
        elif kind == "selective":
            idx = np.sort(np.argsort(-kap, kind="stable")[: cfg.s_n])
            alpha[idx] += cfg.eta * e * np.linalg.solve(g[np.ix_(idx, idx)], kap[idx])
        else:
            alpha += cfg.eta * e * kap / (cfg.eps_reg + kap @ kap)
    return e2


@_guard
def one_run_recomputed(simulate_dir: Path, config_path: Path):
    """A one-run ``simulated.csv`` equals the benchmark's own loop."""
    sim = read_curve(Path(simulate_dir) / "simulated.csv")
    manifest = json.loads((Path(simulate_dir) / "manifest.json").read_text())
    own = own_learning_curve(config_path, manifest["dictionary"].get("mu0"))
    if sim.shape != own.shape:
        return False, f"length {sim.size}, own loop {own.size}"
    rel = float(np.abs(sim - own).max() / np.abs(own).max())
    return rel <= ONE_RUN_RTOL, f"max |sim - own| / max |own| = {rel:.2e}"
