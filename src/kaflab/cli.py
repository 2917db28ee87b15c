"""Command-line front end: run experiments, compute theory, compare, report.

Commands write plain CSV/text artifacts plus a JSON manifest listing every
output with its content hash, the resolved configuration and the seed, so a
run can be reproduced byte-identically from the manifest alone.

Exit codes: 0 success, 2 configuration error, 3 numerical
divergence/instability (including failed moment checks) or memory exhausted, 4 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import hashlib
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__, linalg
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
)
from .errors import (
    ArtifactError,
    ConfigError,
    DivergenceError,
    EigenSolverError,
    InvariantError,
    KaflabError,
    NotPositiveDefiniteError,
    NotStableError,
)
from .filters import FilterKind
from .kernel import MAX_DICTIONARY_SIZE, GaussianKernel
from .moments import (
    build_model,
    estimate_cross_stats,
    load_moment_model,
    mc_fourth_entries,
    mc_second_moment,
    multi_point_moment,
    record_name,
    save_moment_model,
    second_moment,
)
from .sim import (
    MOMENTS_CHECK_SALT,
    Laps,
    LearningCurve,
    load_learning_curve,
    mc_learning_curve,
    run_chunk_size,
    save_learning_curve,
    write_atomic,
    write_table,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

# The update whose theory ``analyze`` writes, whatever the configured filter:
# for a selective or normalized filter it is a reference curve, and
# stability.txt says so.
THEORY_MODELS = FilterKind.NATURAL_KLMS

STATUS_FILE = "/proc/self/status"  # the peak resident set in the manifests, on Linux


class Run:
    """One command's ``--out``, and its stage clock and counters, kept by ``main``; the command
    lists the artifacts it wrote (none: no manifest), other manifest fields and a note."""

    def __init__(self, out: Path | None):
        self.out = out
        self.laps, self.counters = Laps(), {}
        self.outputs: list[Path] = []
        self.fields: dict = {}
        self.note = ""


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _write_manifest(command: str, cfg: ExperimentConfig | None, run: Run, blas_threads) -> None:
    """``manifest.json`` in ``run.out``: each output's sha256, the config and seed if any, and,
    outside the hashed outputs, the BLAS build and threads and a lapping command's stages and
    counters with this process's peak memory (a forked child's is the engine's counter)."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    manifest = {
        "command": command,
        "package_version": __version__,
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "outputs": {p.name: _sha256(p) for p in run.outputs},
        "blas": {key: blas.get(key) for key in ("name", "version")},
        "blas_threads": blas_threads,
    }
    if cfg is not None:
        manifest["config_path"] = cfg.path
        manifest["config_sha256"] = _sha256(Path(cfg.path))
        manifest["resolved_config"] = cfg.echo
        manifest["seed"] = cfg.seed
    if run.laps.counts:
        manifest.update(timings=run.laps.rounded(), counters={**run.counters, **_peak_rss()})
    manifest.update(run.fields)
    write_atomic(run.out / "manifest.json", [json.dumps(manifest, indent=2, sort_keys=True), "\n"])


def _peak_rss() -> dict:
    """This process's peak resident set (VmHWM) in MB of 2^20 bytes; none without the file."""
    try:
        with open(STATUS_FILE, encoding="utf-8", errors="replace") as f:
            return {"peak_rss_mb": next(int(line.split()[1]) / 1024 for line in f
                                        if line.startswith("VmHWM:"))}
    except (OSError, StopIteration):
        return {}


def _write_values(path: Path, values: dict) -> None:
    """One ``key = value`` line per entry: a float to 17 digits, anything else as text."""
    write_atomic(path, (f"{key} = {val:.17g}\n" if isinstance(val, float) else f"{key} = {val}\n"
                        for key, val in values.items()))


def _load(args) -> ExperimentConfig | None:
    """The command's config with ``--seed`` applied, None for a command that reads none;
    every refusal of the inputs comes before ``--out`` exists."""
    if args.command == "complexity" and args.s_n > args.r_max:
        raise ConfigError(f"--s-n {args.s_n} exceeds --r-max {args.r_max}: no r holds s_n centers")
    if "config" not in args:
        return None
    cfg = load_config(args.config)
    return cfg if args.seed is None else dataclasses.replace(cfg, seed=args.seed)


# ---------------------------------------------------------------------------
# Commands: each computes and writes its artifacts into ``--out``, which exists
# ---------------------------------------------------------------------------


def cmd_simulate(args, cfg: ExperimentConfig, run: Run) -> int:
    d, info = build_dictionary(cfg)
    setup = build_setup(cfg, d)
    run.laps.lap("dictionary")
    within = Laps("stream", "kernel_values", "steps")
    run.counters.update(r=d.size, n_runs=cfg.n_runs, n_iters=cfg.n_iters,
                        run_chunk=min(cfg.n_runs, run_chunk_size(d.size)),
                        kernel_values=cfg.n_runs * cfg.n_iters * d.size)
    curve = mc_learning_curve(setup, cfg.n_runs, cfg.n_iters, cfg.seed, within, run.counters)
    run.laps.lap("monte_carlo")
    run.outputs = [run.out / "simulated.csv"]
    save_learning_curve(curve, run.outputs[0])
    run.laps.lap("write")
    run.fields.update(dictionary=info, timings_within={"monte_carlo": within.rounded()})
    run.note = f" ({cfg.n_runs} runs x {cfg.n_iters} iterations)"
    return EXIT_OK


def cmd_analyze(args, cfg: ExperimentConfig, run: Run) -> int:
    d, info = build_dictionary(cfg)
    check_k_size(d.size)  # before the moments: they cost far more than the refusal
    run.laps.lap("dictionary")
    im, kern, system = build_input_model(cfg), GaussianKernel(cfg.sigma), build_system(cfg)
    cache_dir = Path(args.cache_dir or run.out / "moments_cache")
    cache_file = cache_dir / record_name(system, d, kern, im)
    try:
        stats = load_moment_model(cache_file, d.size)
    except (OSError, ValueError):
        stats = None
    if stats is not None:  # the closed-form moments, recomputed
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "minimum MSE is negative")  # a miss, if so
            model = build_model(d, kern, im, stats.p, stats.d2)
        stats = stats if 0 <= model.j_min < np.inf else None  # else no signal's: a miss
    fresh = stats is None
    info["moments_cache"], info["moments_cache_hit"] = str(cache_file), not fresh
    if fresh:
        stats = estimate_cross_stats(system, im, d, kern)
        model = build_model(d, kern, im, stats.p, stats.d2)
    run.laps.lap("moments")

    bound = mean_stability_bound(model)
    mean_ok = 0 < cfg.eta < bound
    km = build_k(model, cfg.eta)
    stable, radius = mean_square_stable(km)
    run.laps.lap("spectrum")

    curve, transient_note = LearningCurve(mse=np.empty(0)), "ok"  # header only if it diverges
    try:
        curve = transient_mse(model, km, cfg.n_iters - 1)
    except DivergenceError as exc:
        transient_note = f"diverged_at_step_{exc.last_finite_step + 1}"
    run.laps.lap("transient")
    mse_inf = steady_state_mse(model, km)[0] if stable else None
    run.laps.lap("steady_state")

    theory_path, steady_path, stab_path = run.outputs = [
        run.out / name for name in ("theory.csv", "steady_state.txt", "stability.txt")]
    save_learning_curve(curve, theory_path)
    _write_values(steady_path, {"eta": cfg.eta, "j_min": model.j_min, "d2": model.d2,
                                "steady_state_mse": "unavailable" if mse_inf is None else mse_inf})
    _write_values(stab_path, {
        "eta": cfg.eta, "mean_stability_bound": bound,
        "mean_stable": "PASS" if mean_ok else "FAIL",
        "k_spectral_radius": radius, "mean_square_stable": "PASS" if stable else "FAIL",
        "transient": transient_note,
        **({} if cfg.filter_kind is THEORY_MODELS else {"theory_models": THEORY_MODELS.value}),
    })
    if fresh:  # only now: a refused analyze leaves nothing in --out
        cache_dir.mkdir(parents=True, exist_ok=True)
        save_moment_model(stats, cache_file)
    run.laps.lap("write")

    g_eig = model.gram.eigenvalues
    run.counters.update(r=model.dim, k_dim=km.eigenvalues.size, k_spectral_radius=radius,
                        gram_condition=float(g_eig[-1] / g_eig[0]),
                        cross_stats_samples=0, cross_stats_source="closed_form")
    run.fields.update(dictionary=info, theory_models=THEORY_MODELS.value)
    return EXIT_OK


def cmd_compare(args, cfg, run: Run) -> int:
    sim, theory = load_learning_curve(args.sim), load_learning_curve(args.theory)
    if len(sim) != len(theory):
        print(
            f"warning: curve lengths differ ({len(sim)} vs {len(theory)}); "
            f"truncating to the shorter",
            file=sys.stderr,
        )
    n = min(len(sim), len(theory))
    overlay_path, metrics_path = run.outputs = [run.out / "overlay.csv", run.out / "metrics.txt"]
    write_table(overlay_path, "n,mse_sim,mse_theory", "%d,%.17g,%.17g", range(n), sim.mse[:n],
                theory.mse[:n])
    _write_values(metrics_path, compare_curves(sim.mse, theory.mse,
                                               smooth_window=args.smooth_window))
    run.fields.update(sim_csv=str(args.sim), theory_csv=str(args.theory))
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


def cmd_moments_check(args, cfg: ExperimentConfig, run: Run) -> int:
    d, _ = build_dictionary(cfg)
    if args.fourth_entries > d.size**4:  # a coherence dictionary's r is known only now
        raise ConfigError(f"--fourth-entries {args.fourth_entries} exceeds the {d.size**4} "
                          f"distinct fourth-moment entries of r = {d.size} centers")
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


def cmd_complexity(args, cfg, run: Run) -> int:
    run.outputs = [run.out / "complexity.csv"]
    rs = range(args.s_n, args.r_max + 1)
    write_table(run.outputs[0], "r,full,selective", "%d,%d,%d", rs,
                *zip(*(complexity_report(r, args.L, args.s_n) for r in rs)))
    run.fields.update(L=args.L, r_max=args.r_max, s_n=args.s_n)
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
_dictionary_size = _checked(int, lambda v: 1 <= v <= MAX_DICTIONARY_SIZE,
                            f"between 1 and {MAX_DICTIONARY_SIZE}, the largest dictionary")


def _build_parser() -> argparse.ArgumentParser:
    config = argparse.ArgumentParser(add_help=False)  # the options every config command shares
    config.add_argument("--config", required=True)
    config.add_argument("--seed", type=_nonnegative_int, default=None,
                        help="override the config seed")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", required=True)

    parser = argparse.ArgumentParser(
        prog="kaflab",
        description="Kernel adaptive filtering lab: simulation and MSE theory",
    )
    parser.add_argument("--version", action="version", version=f"kaflab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[config, out], help="run the Monte-Carlo learning curve")
    p.add_argument("--workers", type=int, default=None,
                   help="ignored, for old scripts: the CPU set (taskset) sets the processes")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", parents=[config, out],
                       help="compute the theoretical curves and verdicts")
    p.add_argument("--cache-dir", default=None,
                   help="cross-statistics cache directory (default: <out>/moments_cache)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("compare", parents=[out], help="overlay a simulated and a theoretical curve")
    p.add_argument("--sim", required=True)
    p.add_argument("--theory", required=True)
    p.add_argument("--smooth-window", type=_positive_int, default=SMOOTH_WINDOW)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("moments-check", parents=[config], help="closed-form moments vs Monte-Carlo")
    p.add_argument("--samples", type=_positive_int, required=True)
    p.add_argument("--fourth-entries", type=_positive_int, default=10)
    p.set_defaults(func=cmd_moments_check)

    p = sub.add_parser("complexity", help="per-iteration multiply counts vs r")
    p.add_argument("--L", type=_positive_int, required=True)
    p.add_argument("--r-max", type=_dictionary_size, required=True)
    p.add_argument("--s-n", type=_positive_int, required=True)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_complexity)
    return parser


def main(argv=None) -> int:
    """Run one command at one BLAS thread: config, ``--out``, the command on a :class:`Run`,
    manifest and "wrote" line; every failure ends in one stderr line and its exit code."""
    args = _build_parser().parse_args(argv)
    try:
        with linalg.one_blas_thread() as blas_threads:
            cfg = _load(args)
            run = Run(Path(args.out) if "out" in args else None)
            if run.out is not None:
                run.out.mkdir(parents=True, exist_ok=True)
            code = args.func(args, cfg, run)
            if run.outputs:
                _write_manifest(args.command, cfg, run, blas_threads)
                print(f"wrote {', '.join(map(str, run.outputs))}{run.note}")
            return code
    except (ConfigError, NotPositiveDefiniteError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DivergenceError, NotStableError, EigenSolverError, InvariantError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (OSError, ArtifactError) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except KaflabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
