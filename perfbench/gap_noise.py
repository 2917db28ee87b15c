"""How the smoothed log-gap check of exp1-grid25 depends on the number of runs.

Usage, from the root of a kaflab checkout::

    python3 perfbench/gap_noise.py --seeds 101-140 --runs 960

For each seed it writes experiment 1 with that seed, gets the theory curve
from ``kaflab analyze``, and runs ``--runs`` Monte-Carlo runs of the natural
KLMS filter at once with a vectorised copy of the filter loop (the runs use
kaflab's seeded ``experiment_stream`` with ``MC_RUN_SALT``, as ``kaflab
simulate`` does, so a group of the first N runs gives exactly the curve of an
N-run simulate). It splits the runs into disjoint groups of each size and
prints ``max_log10_gap_smoothed_after_50`` of every group, then a summary
with the chance, from a Gumbel fit, that one group exceeds the 0.15 limit.
Memory is about 250 MB for 960 runs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
GROUP_SIZES = (96, 120, 160, 192, 240, 320)
LIMIT = 0.15


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_curves(cfg, n_runs: int) -> np.ndarray:
    """Squared a-priori errors of runs 0 .. n_runs - 1, one row per run."""
    from kaflab.config import build_dictionary
    from kaflab.sim import MC_RUN_SALT, InputGenerator, SystemSimulator, experiment_stream

    centers = build_dictionary(cfg)[0].centers
    two_s2 = 2.0 * cfg.sigma**2
    g = np.exp(-((centers[:, None, :] - centers[None, :, :]) ** 2).sum(-1) / two_s2)
    g_inv = np.linalg.inv(g)
    u = np.empty((n_runs, cfg.n_iters, centers.shape[1]))
    d = np.empty((n_runs, cfg.n_iters))
    for i in range(n_runs):
        u[i], d[i] = experiment_stream(
            InputGenerator(rho=cfg.rho, sigma_u=cfg.sigma_u),
            SystemSimulator(kind=cfg.system_kind, noise_sigma=cfg.sigma_nu),
            cfg.n_iters,
            seed=(cfg.seed, MC_RUN_SALT, i),
        )
    alpha = np.zeros((n_runs, len(centers)))
    e2 = np.empty((n_runs, cfg.n_iters))
    for n in range(cfg.n_iters):
        kap = np.exp(-((u[:, n, None, :] - centers[None]) ** 2).sum(-1) / two_s2)
        e = d[:, n] - (alpha * kap).sum(axis=1)
        e2[:, n] = e * e
        alpha += cfg.eta * e[:, None] * (kap @ g_inv)
    return e2


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="101-140", help="a seed or a range lo-hi")
    parser.add_argument("--runs", type=int, default=960)
    args = parser.parse_args()
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import kaflab.cli
    from kaflab.config import load_config

    from workloads import write_config

    gaps: dict[int, list[float]] = {k: [] for k in GROUP_SIZES}
    work = ROOT / "perfbench" / "_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        for seed in seed_list(args.seeds):
            path = write_config(ROOT / "configs" / "experiment1.cfg", {}, seed,
                                Path(tmp) / f"seed{seed}.cfg")
            out = Path(tmp) / f"analyze{seed}"
            with contextlib.redirect_stdout(io.StringIO()):
                kaflab.cli.main(["analyze", "--config", str(path), "--out", str(out)])
            theory = np.loadtxt(out / "theory.csv", delimiter=",", skiprows=1)[:, 1]
            e2 = run_curves(load_config(path), args.runs)
            for k in GROUP_SIZES:
                row = [
                    kaflab.cli.compare_curves(e2[j * k:(j + 1) * k].mean(axis=0), theory)[
                        "max_log10_gap_smoothed_after_50"]
                    for j in range(args.runs // k)
                ]
                gaps[k] += row
                if row:
                    print(seed, k, " ".join(f"{x:.4f}" for x in row), flush=True)
            whole = kaflab.cli.compare_curves(e2.mean(axis=0), theory)
            print(seed, "all", args.runs, f"{whole['max_log10_gap_smoothed_after_50']:.4f}",
                  flush=True)
    print("runs groups mean sd max P(>limit)")
    for k, values in gaps.items():
        if len(values) < 2:
            continue
        v = np.array(values)
        beta = v.std() * math.sqrt(6) / math.pi
        mu = v.mean() - 0.5772 * beta
        p = 1.0 - math.exp(-math.exp(-(LIMIT - mu) / beta))
        print(f"{k} {v.size} {v.mean():.3f} {v.std():.3f} {v.max():.3f} {p:.1e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
