"""The benchmark's workloads: which shipped config each starts from and what it overrides.

Every workload writes its configs from ``configs/`` with the overrides below
and, unless it keeps the shipped seed, the run seed taken from ``--seed``, so
the program only ever reads generated inputs.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from pathlib import Path

# Iterations of the one-run simulate that the benchmark recomputes with its own
# loop; long enough to cover the fast transient and part of the steady state.
ONE_RUN_ITERS = 2000


@dataclass(frozen=True)
class Workload:
    name: str
    base: str  # config file under configs/
    overrides: dict = field(default_factory=dict)  # {section: {key: value}}
    workers: int = 1  # kaflab simulate --workers
    seeded: bool = True  # False keeps the base config's own [run] seed
    steady_band_tol: float | None = None  # |sim band - theory band| / theory band
    max_smoothed_gap: float | None = None  # max_log10_gap_smoothed_after_50
    max_band_db: float | None = None  # |10 log10(sim band / theory band)|


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's first experiment: r = 25 grid, cubic plant, full update,
        # the shipped 10,000-iteration horizon. The smoothed log-gap check
        # (0.15) is a maximum over 10,000 noisy points: at 96 runs it read
        # 0.093 +- 0.014 over 400 groups of runs and failed on some seeds; at
        # 192 runs it reads 0.065 +- 0.010, nine standard deviations clear.
        # Two workers keep the simulate near the analyze in cost.
        Workload(
            "exp1-grid25",
            "experiment1.cfg",
            {"run": {"n_runs": "192"}},
            workers=2,
            steady_band_tol=0.15,
            max_smoothed_gap=0.15,
        ),
        # The second experiment: coherence-selected r = 31 dictionary (bisection
        # on the calibration stream), IIR plant with 200 warm-up samples, a
        # 62 MB moment cache. 3,000 iterations keep the r^4-per-step transient
        # recursion to under a third of the shipped horizon's cost. It keeps
        # the shipped seed: on some seeds (110 and 155 of 100-199) the
        # bisection cannot reach exactly 31 centers and every command exits 2.
        Workload(
            "exp2-coherence31",
            "experiment2.cfg",
            {"run": {"n_runs": "64", "n_iters": "3000"}},
            seeded=False,
            steady_band_tol=0.20,
            max_smoothed_gap=0.15,
        ),
        # Experiment 1's dictionary and plant with the selective update: many
        # short runs fanned out over two workers, so per-run set-up, the
        # per-step argsort and small solves, and process fan-out dominate.
        # BENCHMARK.json does not list it (README.md, "Workloads"): in a slow
        # spell its 1-4 s commands need several rounds per run to be steady,
        # which would take two ten-seed sets of all workloads past an hour.
        Workload(
            "exp1-selective-manyruns",
            "experiment1.cfg",
            {
                "filter": {"kind": "selective", "s_n": "1"},
                "run": {"n_runs": "256", "n_iters": "1000"},
                "moments": {"n_samples": "200000"},
            },
            workers=2,
            max_band_db=3.0,
        ),
    )
}


def write_config(base: Path, overrides: dict, seed: int | None, path: Path) -> Path:
    """Write ``base`` with ``overrides`` applied and ``[run] seed`` set to ``seed``
    (left as it is when ``seed`` is None)."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    with open(base, encoding="utf-8") as f:
        parser.read_file(f, source=str(base))
    for section, values in overrides.items():
        for key, value in values.items():
            parser[section][key] = value
    if seed is not None:
        parser["run"]["seed"] = str(seed)
    with open(path, "w", encoding="utf-8") as f:
        parser.write(f)
    return path


def one_run_overrides(w: Workload) -> dict:
    """Overrides for the single-run simulate that the benchmark recomputes itself."""
    merged = {s: dict(v) for s, v in w.overrides.items()}
    n_iters = int(merged.get("run", {}).get("n_iters", ONE_RUN_ITERS))
    merged.setdefault("run", {}).update(
        {"n_runs": "1", "n_iters": str(min(n_iters, ONE_RUN_ITERS))}
    )
    return merged
