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
import itertools
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    SMOOTH_WINDOW,
    build_k,
    check_k_size,
    compare_curves,
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
    InvariantError,
    KaflabError,
    NotPositiveDefiniteError,
    NotStableError,
)
from .filters import FilterKind
from .kernel import GaussianKernel
from .moments import (
    build_model,
    estimate_cross_stats,
    load_moment_model,
    mc_fourth_entries,
    mc_second_moment,
    multi_point_moment,
    save_moment_model,
    second_moment,
)
from .sim import (
    MOMENTS_CHECK_SALT,
    InputGenerator,
    Laps,
    LearningCurve,
    load_learning_curve,
    mc_learning_curve,
    run_chunk_size,
    save_learning_curve,
    write_atomic,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

# The update whose theory ``analyze`` writes, whatever the configured filter:
# for a selective or normalized filter it is a reference curve, and
# stability.txt says so.
THEORY_MODELS = FilterKind.NATURAL_KLMS


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
    write_atomic(path, [json.dumps(manifest, indent=2, sort_keys=True), "\n"])
    return path


def _write_values(path: Path, values: dict) -> None:
    """One ``key = value`` line per entry: a float to 17 digits, anything else as text."""
    write_atomic(path, (f"{key} = {val:.17g}\n" if isinstance(val, float) else f"{key} = {val}\n"
                        for key, val in values.items()))


def _load_config_with_seed(args) -> ExperimentConfig:
    cfg = load_config(args.config)
    if getattr(args, "seed", None) is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg


def _obtain_model(cfg: ExperimentConfig, d, info: dict, cache_dir: Path, laps: Laps):
    """The moment model, built from cached or freshly obtained cross statistics, and
    those statistics.

    Only the cross statistics are cached: for a plant without a closed form they
    take a long stream, while the closed-form moments and the model built from them
    are cheaper to compute than to read back. A record that is missing or
    unreadable is a miss.
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
        stats = estimate_cross_stats(build_system(cfg),
                                     InputGenerator(rho=cfg.rho, sigma_u=cfg.sigma_u), d, kern,
                                     cfg.n_moment_samples, cfg.seed, laps)
        cache_dir.mkdir(parents=True, exist_ok=True)
        save_moment_model(stats, cache_file)
    return build_model(d, kern, im, stats.p, stats.d2, d2_stderr=stats.d2_stderr), stats


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    cfg = _load_config_with_seed(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    laps = Laps()
    d, info = build_dictionary(cfg)
    setup = build_setup(cfg, d)
    laps.lap("dictionary")
    within = Laps("stream", "kernel_values", "steps")
    counters = {"r": d.size, "n_runs": cfg.n_runs, "n_iters": cfg.n_iters,
                "run_chunk": min(cfg.n_runs, run_chunk_size(d.size)),
                "kernel_values": cfg.n_runs * cfg.n_iters * d.size}
    curve = mc_learning_curve(setup, cfg.n_runs, cfg.n_iters, cfg.seed, within, counters)
    laps.lap("monte_carlo")
    sim_path = out / "simulated.csv"
    save_learning_curve(curve, sim_path)
    laps.lap("write")
    _write_manifest(out, "simulate", cfg,
                    {"dictionary": info, "counters": counters, "timings": laps.rounded(),
                     "timings_within": {"monte_carlo": within.rounded()}},
                    [sim_path])
    print(f"wrote {sim_path} ({cfg.n_runs} runs x {cfg.n_iters} iterations)")
    return EXIT_OK


def cmd_analyze(args) -> int:
    cfg = _load_config_with_seed(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cache_dir = Path(args.cache_dir) if args.cache_dir else out / "moments_cache"
    laps = Laps()
    d, info = build_dictionary(cfg)
    check_k_size(d.size)  # before the moments: they cost far more than the refusal
    laps.lap("dictionary")
    within = Laps("cross_stats_stream", "cross_stats_kernels")
    model, stats = _obtain_model(cfg, d, info, cache_dir, within)
    laps.lap("moments")

    bound = mean_stability_bound(model)
    mean_ok = 0 < cfg.eta < bound
    km = build_k(model, cfg.eta)
    stable, radius = mean_square_stable(km)
    laps.lap("spectrum")

    curve, transient_note = LearningCurve(mse=np.empty(0)), "ok"  # header only if it diverges
    try:
        curve = transient_mse(model, km, cfg.n_iters - 1)
    except DivergenceError as exc:
        transient_note = f"diverged_at_step_{exc.last_finite_step + 1}"
    laps.lap("transient")
    mse_inf = steady_state_mse(model, km)[0] if stable else None
    laps.lap("steady_state")

    theory_path = out / "theory.csv"
    save_learning_curve(curve, theory_path)
    steady_path = out / "steady_state.txt"
    _write_values(steady_path, {"eta": cfg.eta, "j_min": model.j_min, "d2": model.d2,
                                "steady_state_mse": "unavailable" if mse_inf is None else mse_inf})
    stab_path = out / "stability.txt"
    _write_values(stab_path, {
        "eta": cfg.eta, "mean_stability_bound": bound,
        "mean_stable": "PASS" if mean_ok else "FAIL",
        "k_spectral_radius": radius, "mean_square_stable": "PASS" if stable else "FAIL",
        "transient": transient_note,
        **({} if cfg.filter_kind is THEORY_MODELS else {"theory_models": THEORY_MODELS.value}),
    })
    laps.lap("write")

    counters = {"r": model.dim, "k_dim": km.eigenvalues.size, "k_spectral_radius": radius,
                "cross_stats_samples": 0 if info["moments_cache_hit"] else stats.n_samples,
                "cross_stats_blocks": within.counts["cross_stats_kernels"],
                "cross_stats_source": "stream" if stats.n_samples else "closed_form"}
    _write_manifest(out, "analyze", cfg,
                    {"dictionary": info, "counters": counters, "timings": laps.rounded(),
                     "timings_within": {"moments": within.rounded()},
                     "theory_models": THEORY_MODELS.value},
                    [theory_path, steady_path, stab_path])
    print(f"wrote {theory_path}, {steady_path}, {stab_path}")
    return EXIT_OK


def cmd_compare(args) -> int:
    try:
        sim = load_learning_curve(args.sim)
        theory = load_learning_curve(args.theory)
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
    rows = (f"{i},{a:.17g},{b:.17g}\n" for i, a, b in zip(range(n), sim.mse, theory.mse))
    write_atomic(overlay_path, itertools.chain(["n,mse_sim,mse_theory\n"], rows))
    metrics_path = out / "metrics.txt"
    _write_values(metrics_path, compare_curves(sim.mse, theory.mse,
                                               smooth_window=args.smooth_window))
    _write_manifest(out, "compare", None,
                    {"sim_csv": str(args.sim), "theory_csv": str(args.theory)},
                    [overlay_path, metrics_path])
    print(f"wrote {overlay_path}, {metrics_path}")
    return EXIT_OK


def _check_rows(rows) -> tuple[float, int]:
    """Print each ``(index, closed, mc, stderr)`` row with its z score and verdict.

    Returns the largest z and the number of rows beyond four standard errors.
    """
    worst, n_fail = 0.0, 0
    for index, closed, mc, stderr in rows:
        z = abs(closed - mc) / max(stderr, 1e-300)
        worst, ok = max(worst, z), z <= 4.0
        n_fail += not ok
        print(f"{index},{closed:.10g},{mc:.10g},{stderr:.3g},{z:.2f},{'PASS' if ok else 'FAIL'}")
    return worst, n_fail


def cmd_moments_check(args) -> int:
    cfg = _load_config_with_seed(args)
    d, _ = build_dictionary(cfg)
    im = build_input_model(cfg)
    kern = GaussianKernel(cfg.sigma)
    n = args.samples

    closed = second_moment(d, kern, im)
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=(cfg.seed, MOMENTS_CHECK_SALT, 0))
    )
    mc, stderr = mc_second_moment(d, kern, im, n, rng)
    print(f"# second-moment check over {n} samples")
    print("l,m,closed,mc,stderr,z,verdict")
    worst2, fail2 = _check_rows((f"{l},{c}", closed[l, c], mc[l, c], stderr[l, c])
                                for l in range(d.size) for c in range(l, d.size))

    rng4 = np.random.default_rng(
        np.random.SeedSequence(entropy=(cfg.seed, MOMENTS_CHECK_SALT, 1))
    )
    entries = sorted(
        {tuple(rng4.integers(0, d.size, 4)) for _ in range(args.fourth_entries)}
    )
    mc4, stderr4 = mc_fourth_entries(d, kern, im, entries, n, rng4)
    print(f"# fourth-moment check: {len(entries)} entries over {n} samples")
    print("i,j,s,t,closed,mc,stderr,z,verdict")
    # the centers in sorted order, as fourth_tensor sums them: the same bits, no m x m block
    closed4 = (multi_point_moment(d.centers[sorted(e)], kern, im) for e in entries)
    worst4, fail4 = _check_rows(zip((",".join(map(str, e)) for e in entries), closed4, mc4, stderr4))
    worst, n_fail = max(worst2, worst4), fail2 + fail4
    print(f"# worst |z| = {worst:.2f}, failures = {n_fail}")
    if n_fail:
        print("# RESULT: FAIL")
        return EXIT_NUMERIC
    print("# RESULT: PASS")
    return EXIT_OK


def cmd_complexity(args) -> int:
    if args.s_n > args.r_max:
        raise ConfigError(f"--s-n {args.s_n} exceeds --r-max {args.r_max}: no r holds s_n centers")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "complexity.csv"
    rows = ("{},{},{}\n".format(r, *complexity_report(r, args.L, args.s_n))
            for r in range(args.s_n, args.r_max + 1))
    write_atomic(path, itertools.chain(["r,full,selective\n"], rows))
    _write_manifest(out, "complexity", None,
                    {"L": args.L, "r_max": args.r_max, "s_n": args.s_n}, [path])
    print(f"wrote {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _checked(convert, ok, need: str):
    """An argparse type: ``convert(text)`` if ``ok`` holds for it, else a usage error."""
    def parse(text: str):
        if not ok(convert(text)):
            raise argparse.ArgumentTypeError(f"must be {need}, got {text}")
        return convert(text)

    parse.__name__ = convert.__name__  # argparse names it on bad text: "invalid int value"
    return parse


_positive_int = _checked(int, lambda v: v >= 1, "at least 1")
_nonnegative_int = _checked(int, lambda v: v >= 0, "at least 0")


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
    p.add_argument("--seed", type=_nonnegative_int, default=None,
                   help="override the config seed")
    p.add_argument("--workers", type=int, default=None,
                   help="ignored, for old scripts: the CPU set (taskset) sets the processes")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", help="compute the theoretical curves and verdicts")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_nonnegative_int, default=None)
    p.add_argument("--cache-dir", default=None,
                   help="cross-statistics cache directory (default: <out>/moments_cache)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("compare", help="overlay a simulated and a theoretical curve")
    p.add_argument("--sim", required=True)
    p.add_argument("--theory", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--smooth-window", type=_positive_int, default=SMOOTH_WINDOW)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("moments-check", help="closed-form moments vs Monte-Carlo")
    p.add_argument("--config", required=True)
    p.add_argument("--samples", type=_positive_int, required=True)
    p.add_argument("--seed", type=_nonnegative_int, default=None)
    p.add_argument("--fourth-entries", type=_positive_int, default=10)
    p.set_defaults(func=cmd_moments_check)

    p = sub.add_parser("complexity", help="per-iteration multiply counts vs r")
    p.add_argument("--L", type=_positive_int, required=True)
    p.add_argument("--r-max", type=_positive_int, required=True)
    p.add_argument("--s-n", type=_positive_int, required=True)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_complexity)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, NotPositiveDefiniteError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DivergenceError, NotStableError, EigenSolverError, InvariantError) as exc:
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
