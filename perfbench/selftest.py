"""Self-test of the benchmark on tiny inputs (``python3 perfbench/run.py --self-test``).

It shows that a run prints every metric named in ``BENCHMARK.json`` with its
unit, traced and untraced, and that each output check passes on genuine
outputs and fails on a wrong one: a scaled ``theory.csv`` row, an edited
verdict, a manifest that no longer matches, a swapped or scaled
``simulated.csv``.
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path

import checks
from run import END_TO_END, PER_LAYER, ROOT, WORK, Run, run_workload
from workloads import Workload

# A 2 x 2 grid (r = 4), few short runs and the smallest moment sample the
# config accepts; tolerances are loose because four runs are noisy, and the
# wrong outputs below miss them by far.
SELF_TEST = Workload(
    "self-test",
    "experiment1.cfg",
    {
        "dictionary": {"points_per_axis": "2"},
        "run": {"n_runs": "4", "n_iters": "300"},
        "moments": {"n_samples": "10000"},
    },
    workers=2,
    steady_band_tol=1.0,
    max_smoothed_gap=1.0,
    max_band_db=3.0,
)
SEED = 5


def _edit(path: Path, old: str, new: str) -> None:
    text = path.read_text(encoding="utf-8")
    if old not in text:
        raise ValueError(f"{old!r} not in {path}")
    path.write_text(text.replace(old, new, 1), encoding="utf-8")


def _scale_curve(path: Path, factor: float, first_row_only: bool = False) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    for i in range(1, 2 if first_row_only else len(lines)):
        n, v = lines[i].split(",")
        lines[i] = f"{n},{float(v) * factor:.17g}"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _copy(src: Path, name: str) -> Path:
    dst = src.with_name(name)
    shutil.copytree(src, dst)
    return dst


def main() -> int:
    failures = []

    def expect(name: str, cond: bool, detail: str = "") -> None:
        print(f"{'pass' if cond else 'FAIL'} {name} {detail}", flush=True)
        if not cond:
            failures.append(name)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect("BENCHMARK.json end_to_end matches the run's metrics",
           {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END)
    expect("BENCHMARK.json per_layer matches the traced run's metrics",
           {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER)

    base = WORK / f"self-test-pid{os.getpid()}"
    try:
        for trace, units in ((False, END_TO_END), (True, PER_LAYER)):
            result = run_workload(SELF_TEST, SEED, 0, trace, base / f"trace{int(trace)}")
            printed = {k: v["unit"] for k, v in result["metrics"].items()
                       if isinstance(v["value"], (int, float))}
            expect(f"--trace {int(trace)} prints every metric with its unit",
                   printed == units, str(sorted(set(units) - set(printed))))
            expect(f"--trace {int(trace)} run is correct with no failed operation",
                   result["correct"] and result["failed"] == 0 and result["attempted"] > 0)

        run = Run(SELF_TEST, SEED, base / "checks")
        d = base / "checks" / "round"
        run.round(d)

        def pair(name, check, good_args, bad_args):
            ok_good, detail_good = check(*good_args)
            ok_bad, detail_bad = check(*bad_args)
            expect(f"{name}: passes on genuine output", ok_good, detail_good)
            expect(f"{name}: fails on wrong output", not ok_bad, detail_bad)

        bad = _copy(d / "cold", "cold-row0")
        _scale_curve(bad / "theory.csv", 1.001, first_row_only=True)
        pair("theory starts at d2", checks.theory_starts_at_d2, [d / "cold"], [bad])
        pair("manifest sums", checks.manifest_sums, [d / "cold"], [bad])

        bad = _copy(d / "cold", "cold-mse")
        j_min = float(checks.read_kv(bad / "steady_state.txt")["j_min"])
        mse = checks.read_kv(bad / "steady_state.txt")["steady_state_mse"]
        _edit(bad / "steady_state.txt", f"steady_state_mse = {mse}",
              f"steady_state_mse = {j_min / 2:.17g}")
        pair("steady state >= j_min", checks.steady_state_above_jmin, [d / "cold"], [bad])

        bad = _copy(d / "cold", "cold-verdict")
        _edit(bad / "stability.txt", "mean_square_stable = PASS", "mean_square_stable = FAIL")
        pair("stability verdicts (verdict)", checks.stability_verdicts, [d / "cold"], [bad])
        bad = _copy(d / "cold", "cold-radius")
        radius = checks.read_kv(bad / "stability.txt")["k_spectral_radius"]
        _edit(bad / "stability.txt", f"k_spectral_radius = {radius}", "k_spectral_radius = 1.5")
        pair("stability verdicts (radius)", checks.stability_verdicts, [d / "cold"], [bad])

        bad = _copy(d / "warm", "warm-sum")
        manifest = json.loads((bad / "manifest.json").read_text())
        manifest["outputs"]["theory.csv"] = "0" * 64
        (bad / "manifest.json").write_text(json.dumps(manifest))
        pair("cold and warm analyze agree", checks.same_sums, [d / "cold", d / "warm"],
             [d / "cold", bad])

        bad = _copy(d / "one", "one-swapped")
        shutil.copy(d / "sim" / "simulated.csv", bad / "simulated.csv")
        pair("one-run curve equals own loop", checks.one_run_recomputed,
             [d / "one", run.one_cfg], [bad, run.one_cfg])

        bad = _copy(d / "sim", "sim-scaled")
        _scale_curve(bad / "simulated.csv", 3.0)
        run.command("compare (scaled simulation)",
                    ["compare", "--sim", bad / "simulated.csv",
                     "--theory", d / "cold" / "theory.csv", "--out", d / "cmp-scaled"],
                    d / "cmp-scaled")
        pair("simulation matches theory", checks.simulation_matches_theory,
             [d / "cmp", SELF_TEST], [d / "cmp-scaled", SELF_TEST])
    finally:
        shutil.rmtree(base, ignore_errors=True)

    print(f"self-test: {len(failures)} failure(s)" + (f": {failures}" if failures else ""))
    return 1 if failures else 0
