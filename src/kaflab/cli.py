"""Command-line front end: run experiments, compute theory, compare, report.

Commands write plain CSV/text artifacts plus a JSON manifest listing every
output with its content hash, the resolved configuration and the seed, so a
run can be reproduced byte-identically from the manifest alone.

Exit codes: 0 success, 2 configuration error, 3 numerical
divergence/instability (including failed moment checks), 4 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    build_k,
    complexity_report,
    mean_square_stable,
    mean_stability_bound,
    steady_state_mse,
    transient_mse,
)
from .config import (
    ExperimentConfig,
    build_dictionary,
    build_input_model,
    build_setup,
    build_system,
    load_config,
    moments_cache_key,
)
from .errors import (
    ConfigError,
    DivergenceError,
    EigenSolverError,
    KaflabError,
    NotPositiveDefiniteError,
    NotStableError,
)
from .kernel import GaussianKernel
from .moments import (
    build_model,
    estimate_cross_stats,
    fourth_tensor,
    load_moment_model,
    mc_fourth_entries,
    mc_second_moment,
    save_moment_model,
    second_moment,
)
from .sim import (
    MOMENTS_CHECK_SALT,
    CurveKind,
    InputGenerator,
    load_learning_curve,
    mc_learning_curve,
    save_learning_curve,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

# Window of the moving average applied to curves before the smoothed gap
# metrics; wide enough to suppress per-iteration Monte-Carlo noise, narrow
# relative to any transient feature of interest.
SMOOTH_WINDOW = 51


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _write_manifest(out_dir: Path, command: str, cfg: ExperimentConfig | None,
                    extra: dict, outputs: list[Path]) -> Path:
    manifest = {
        "command": command,
        "package_version": __version__,
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "outputs": {p.name: _sha256(p) for p in outputs},
    }
    if cfg is not None:
        manifest["config_path"] = cfg.path
        manifest["config_sha256"] = _sha256(Path(cfg.path))
        manifest["resolved_config"] = cfg.echo
        manifest["seed"] = cfg.seed
    manifest.update(extra)
    path = out_dir / "manifest.json"
    with open(path, "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    return path


def _load_config_with_seed(args) -> ExperimentConfig:
    cfg = load_config(args.config)
    if getattr(args, "seed", None) is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg


def _obtain_model(cfg: ExperimentConfig, d, info: dict, cache_dir: Path):
    """Build the moment model from cached or freshly estimated cross statistics.

    Only the cross statistics are cached: they take a long stream, while the
    closed-form moments and the model built from them are cheaper to compute
    than to read back. A record that is missing or unreadable is a miss.
    """
    im = build_input_model(cfg)
    kern = GaussianKernel(cfg.sigma)
    cache_file = cache_dir / f"cross_stats_{moments_cache_key(cfg, d, im)}.json"
    try:
        stats = load_moment_model(cache_file, d.size)
    except (OSError, ValueError):
        stats = None
    info["moments_cache"] = str(cache_file)
    info["moments_cache_hit"] = stats is not None
    if stats is None:
        stats = estimate_cross_stats(
            build_system(cfg),
            InputGenerator(rho=cfg.rho, sigma_u=cfg.sigma_u),
            d,
            kern,
            cfg.n_moment_samples,
            cfg.seed,
        )
        cache_dir.mkdir(parents=True, exist_ok=True)
        save_moment_model(stats, cache_file)
    return build_model(d, kern, im, stats.p, stats.d2, d2_stderr=stats.d2_stderr)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    cfg = _load_config_with_seed(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    d, info = build_dictionary(cfg)
    setup = build_setup(cfg, d)
    curve = mc_learning_curve(setup, cfg.n_runs, cfg.n_iters, cfg.seed,
                              workers=args.workers)
    sim_path = out / "simulated.csv"
    save_learning_curve(curve, sim_path)
    _write_manifest(out, "simulate", cfg,
                    {"dictionary": info, "n_runs": cfg.n_runs,
                     "n_iters": cfg.n_iters}, [sim_path])
    print(f"wrote {sim_path} ({cfg.n_runs} runs x {cfg.n_iters} iterations)")
    return EXIT_OK


class _Laps:
    """Wall time of consecutive stages, in seconds, for the manifest."""

    def __init__(self):
        self.seconds: dict[str, float] = {}
        self._last = time.perf_counter()

    def lap(self, stage: str) -> None:
        now = time.perf_counter()
        self.seconds[stage] = round(now - self._last, 6)
        self._last = now


def cmd_analyze(args) -> int:
    cfg = _load_config_with_seed(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cache_dir = Path(args.cache_dir) if args.cache_dir else out / "moments_cache"
    laps = _Laps()
    d, info = build_dictionary(cfg)
    laps.lap("dictionary")
    model = _obtain_model(cfg, d, info, cache_dir)
    laps.lap("moments")

    bound = mean_stability_bound(model)
    mean_ok = 0 < cfg.eta < bound
    km = build_k(model, cfg.eta)
    stable, radius = mean_square_stable(km)
    laps.lap("spectrum")

    curve, transient_note = None, "ok"
    try:
        curve = transient_mse(model, cfg.eta, cfg.n_iters - 1, check_stability=False, km=km)
    except DivergenceError as exc:
        transient_note = f"diverged_at_step_{exc.last_finite_step + 1}"
    laps.lap("transient")
    mse_inf = steady_state_mse(model, cfg.eta, km=km)[0] if stable else None
    laps.lap("steady_state")

    theory_path = out / "theory.csv"
    if curve is not None:
        save_learning_curve(curve, theory_path)
    else:
        with open(theory_path, "w", encoding="utf-8", newline="\n") as f:
            f.write("n,mse\n")

    steady_path = out / "steady_state.txt"
    with open(steady_path, "w", encoding="utf-8", newline="\n") as f:
        f.write(f"eta = {cfg.eta:.17g}\n")
        f.write(f"j_min = {model.j_min:.17g}\n")
        f.write(f"d2 = {model.d2:.17g}\n")
        if mse_inf is not None:
            f.write(f"steady_state_mse = {mse_inf:.17g}\n")
        else:
            f.write("steady_state_mse = unavailable\n")

    stab_path = out / "stability.txt"
    with open(stab_path, "w", encoding="utf-8", newline="\n") as f:
        f.write(f"eta = {cfg.eta:.17g}\n")
        f.write(f"mean_stability_bound = {bound:.17g}\n")
        f.write(f"mean_stable = {'PASS' if mean_ok else 'FAIL'}\n")
        f.write(f"k_spectral_radius = {radius:.17g}\n")
        f.write(f"mean_square_stable = {'PASS' if stable else 'FAIL'}\n")
        f.write(f"transient = {transient_note}\n")
    laps.lap("write")

    counters = {"r": model.dim, "k_dim": km.eigenvalues.size, "k_spectral_radius": radius}
    _write_manifest(out, "analyze", cfg,
                    {"dictionary": info, "counters": counters, "timings": laps.seconds},
                    [theory_path, steady_path, stab_path])
    print(f"wrote {theory_path}, {steady_path}, {stab_path}")
    return EXIT_OK


def _moving_average(x: np.ndarray, window: int) -> np.ndarray:
    if window <= 1:
        return x
    ones = np.ones(window)
    return np.convolve(x, ones, mode="same") / np.convolve(
        np.ones_like(x), ones, mode="same"
    )


def _log10_gap(sim: np.ndarray, theory: np.ndarray) -> np.ndarray:
    gap = np.zeros_like(sim)
    both_pos = (sim > 0) & (theory > 0)
    gap[both_pos] = np.abs(np.log10(sim[both_pos]) - np.log10(theory[both_pos]))
    one_zero = (sim > 0) != (theory > 0)
    gap[one_zero] = np.inf
    return gap


def compare_curves(sim: np.ndarray, theory: np.ndarray,
                   smooth_window: int = SMOOTH_WINDOW) -> dict:
    """Gap metrics between a simulated and a theoretical MSE curve.

    ``steady_band_rel_error`` averages over the final 10% of iterations;
    the log-gap metrics come in raw and moving-average-smoothed variants,
    each overall and restricted to iterations after 50.
    """
    n = min(sim.size, theory.size)
    sim, theory = sim[:n], theory[:n]
    band = slice(max(0, n - max(1, n // 10)), n)
    t_band = theory[band].mean()
    steady_err = abs(sim[band].mean() - t_band) / t_band if t_band > 0 else 0.0
    raw = _log10_gap(sim, theory)
    smoothed = _log10_gap(_moving_average(sim, smooth_window),
                          _moving_average(theory, smooth_window))
    after = slice(min(51, n), n)
    return {
        "n_compared": n,
        "steady_band_rel_error": float(steady_err),
        "max_log10_gap": float(raw.max()) if n else 0.0,
        "max_log10_gap_after_50": float(raw[after].max()) if raw[after].size else 0.0,
        "max_log10_gap_smoothed": float(smoothed.max()) if n else 0.0,
        "max_log10_gap_smoothed_after_50": (
            float(smoothed[after].max()) if smoothed[after].size else 0.0
        ),
        "smooth_window": smooth_window,
        "initial_mse_sim": float(sim[0]) if n else 0.0,
        "initial_mse_theory": float(theory[0]) if n else 0.0,
    }


def cmd_compare(args) -> int:
    try:
        sim = load_learning_curve(args.sim, kind=CurveKind.SIMULATED)
        theory = load_learning_curve(args.theory, kind=CurveKind.THEORETICAL)
    except ValueError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if len(sim) != len(theory):
        print(
            f"warning: curve lengths differ ({len(sim)} vs {len(theory)}); "
            f"truncating to the shorter",
            file=sys.stderr,
        )
    n = min(len(sim), len(theory))
    overlay_path = out / "overlay.csv"
    with open(overlay_path, "w", encoding="utf-8", newline="\n") as f:
        f.write("n,mse_sim,mse_theory\n")
        for i in range(n):
            f.write(f"{i},{sim.mse[i]:.17g},{theory.mse[i]:.17g}\n")
    metrics = compare_curves(sim.mse, theory.mse, smooth_window=args.smooth_window)
    metrics_path = out / "metrics.txt"
    with open(metrics_path, "w", encoding="utf-8", newline="\n") as f:
        for key, val in metrics.items():
            f.write(f"{key} = {val:.17g}\n" if isinstance(val, float) else f"{key} = {val}\n")
    _write_manifest(out, "compare", None,
                    {"sim_csv": str(args.sim), "theory_csv": str(args.theory)},
                    [overlay_path, metrics_path])
    print(f"wrote {overlay_path}, {metrics_path}")
    return EXIT_OK


def cmd_moments_check(args) -> int:
    cfg = _load_config_with_seed(args)
    d, _ = build_dictionary(cfg)
    im = build_input_model(cfg)
    kern = GaussianKernel(cfg.sigma)
    mc_kern = GaussianKernel(cfg.sigma * args.mc_sigma_scale)
    n = args.samples

    closed = second_moment(d, kern, im)
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=(cfg.seed, MOMENTS_CHECK_SALT, 0))
    )
    mc, stderr = mc_second_moment(d, mc_kern, im, n, rng)
    worst = 0.0
    n_fail = 0
    print(f"# second-moment check over {n} samples")
    print("l,m,closed,mc,stderr,z,verdict")
    for l in range(d.size):
        for mcol in range(l, d.size):
            z = abs(closed[l, mcol] - mc[l, mcol]) / max(stderr[l, mcol], 1e-300)
            worst = max(worst, z)
            ok = z <= 4.0
            n_fail += 0 if ok else 1
            print(
                f"{l},{mcol},{closed[l, mcol]:.10g},{mc[l, mcol]:.10g},"
                f"{stderr[l, mcol]:.3g},{z:.2f},{'PASS' if ok else 'FAIL'}"
            )

    n4 = args.fourth_samples or n
    rng4 = np.random.default_rng(
        np.random.SeedSequence(entropy=(cfg.seed, MOMENTS_CHECK_SALT, 1))
    )
    entries = sorted(
        {tuple(rng4.integers(0, d.size, 4)) for _ in range(args.fourth_entries)}
    )
    tensor = fourth_tensor(d, kern, im)
    mc4, stderr4 = mc_fourth_entries(d, mc_kern, im, entries, n4, rng4)
    print(f"# fourth-moment check: {len(entries)} entries over {n4} samples")
    print("i,j,s,t,closed,mc,stderr,z,verdict")
    for e_i, e in enumerate(entries):
        val = tensor[e]
        z = abs(val - mc4[e_i]) / max(stderr4[e_i], 1e-300)
        worst = max(worst, z)
        ok = z <= 4.0
        n_fail += 0 if ok else 1
        print(
            f"{e[0]},{e[1]},{e[2]},{e[3]},{val:.10g},{mc4[e_i]:.10g},"
            f"{stderr4[e_i]:.3g},{z:.2f},{'PASS' if ok else 'FAIL'}"
        )
    print(f"# worst |z| = {worst:.2f}, failures = {n_fail}")
    if n_fail:
        print("# RESULT: FAIL")
        return EXIT_NUMERIC
    print("# RESULT: PASS")
    return EXIT_OK


def cmd_complexity(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "complexity.csv"
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("r,full,selective\n")
        for r in range(1, args.r_max + 1):
            full, sel = complexity_report(r, args.L, args.s_n)
            f.write(f"{r},{full},{sel}\n")
    _write_manifest(out, "complexity", None,
                    {"L": args.L, "r_max": args.r_max, "s_n": args.s_n}, [path])
    print(f"wrote {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kaflab",
        description="Kernel adaptive filtering lab: simulation and MSE theory",
    )
    parser.add_argument("--version", action="version", version=f"kaflab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run the Monte-Carlo learning curve")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--workers", type=int, default=None,
                   help="process fan-out (default: KAFLAB_THREADS or 1)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", help="compute the theoretical curves and verdicts")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--cache-dir", default=None,
                   help="cross-statistics cache directory (default: <out>/moments_cache)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("compare", help="overlay a simulated and a theoretical curve")
    p.add_argument("--sim", required=True)
    p.add_argument("--theory", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--smooth-window", type=int, default=SMOOTH_WINDOW)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("moments-check", help="closed-form moments vs Monte-Carlo")
    p.add_argument("--config", required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--fourth-entries", type=int, default=10)
    p.add_argument("--fourth-samples", type=int, default=None)
    p.add_argument("--mc-sigma-scale", type=float, default=1.0,
                   help="scale the kernel width used by the MC estimator only; "
                        "values != 1 should make the checks fail (self-test)")
    p.set_defaults(func=cmd_moments_check)

    p = sub.add_parser("complexity", help="per-iteration multiply counts vs r")
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--r-max", type=int, required=True)
    p.add_argument("--s-n", type=int, required=True)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_complexity)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NotPositiveDefiniteError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DivergenceError, NotStableError, EigenSolverError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except KaflabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
