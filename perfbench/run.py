"""Benchmark of the ``kaflab`` commands as a user runs them.

Usage, from the root of a kaflab checkout::

    python3 perfbench/run.py --workload exp1-grid25 --seed 1 --seconds 1 --trace 0
    python3 perfbench/run.py --self-test

One round runs ``kaflab simulate``, ``kaflab analyze`` twice on one cache
directory (cold, then warm) and ``kaflab compare``, each in its own fresh
interpreter, one after another, plus an untimed one-run simulate that the
benchmark recomputes with its own loop.
Rounds repeat until ``--seconds`` have passed; every round is whole. The
output checks run between commands, outside the timed sections. With
``--trace 1`` the run makes one untraced and one traced round and reports the
per-layer metrics instead. Reported times are scaled to the machine's nominal
speed with the reference task in ``reference.py``; the raw times are printed
beside each operation. The last line of standard output is the result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, Workload, one_run_overrides, write_config

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORK = BENCH / "_work"
CHILD = BENCH / "child.py"

# One BLAS thread per process: with two pool workers that is nproc (2) busy
# threads, and single-threaded OpenBLAS avoids the slow first calls seen with
# two threads on the general eigensolver.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# A run must end within 180 s; no single command of any workload comes near.
COMMAND_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "simulate_s": "s",
    "analyze_cold_s": "s",
    "analyze_warm_s": "s",
    "simulate_peak_rss_mb": "MB",
    "analyze_peak_rss_mb": "MB",
    "cache_bytes": "bytes",
}

PER_LAYER = {
    "cli.import_s": "s",
    "cli.write_outputs_s": "s",
    "cli.compare_s": "s",
    "config.build_dictionary_s": "s",
    "kernel.coherence_select_calls": "count",
    "kernel.gram_s": "s",
    "kernel.kernelized_input_calls": "count",
    "moments.cross_stats_s": "s",
    "moments.cross_stats_samples_per_s": "1/s",
    "moments.closed_forms_s": "s",
    "moments.build_model_s": "s",
    "moments.cache_write_s": "s",
    "moments.cache_read_s": "s",
    "sim.stream_s": "s",
    "sim.mc_s": "s",
    "sim.run_iters_per_s": "1/s",
    "filters.step_calls": "count",
    "filters.step_s": "s",
    "analysis.build_k_calls": "count",
    "analysis.build_k_s": "s",
    "analysis.stability_s": "s",
    "analysis.steady_state_s": "s",
    "analysis.transient_s": "s",
    "analysis.transient_steps_per_s": "1/s",
    "linalg.spectral_radius_calls": "count",
    "linalg.spectral_radius_s": "s",
    "trace.overhead_simulate_s": "s",
    "trace.overhead_analyze_cold_s": "s",
    "trace.overhead_analyze_warm_s": "s",
    "trace.overhead_compare_s": "s",
}

TIMED_COMMANDS = ("simulate", "analyze-cold", "analyze-warm", "compare")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    for var in THREAD_VARS:
        env[var] = str(BLAS_THREADS)
    env.pop("KAFLAB_THREADS", None)
    return env


def environment(w: Workload) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        sha = proc.stdout.strip() or sha
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((ROOT / "src").rglob("*.py"))
    )
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": nproc(),
        "blas_threads": BLAS_THREADS,
        "simulate_workers": min(w.workers, nproc()),
        "src_lines": src_lines,
    }


def steal_s() -> float:
    """CPU time the hypervisor took from this machine's CPUs so far (/proc/stat)."""
    with open("/proc/stat", encoding="ascii") as f:
        fields = f.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Run:
    """One benchmark run: its configs, its operation counts and its samples."""

    def __init__(self, w: Workload, seed: int, run_dir: Path):
        import checks
        import reference

        self.checks = checks
        self.reference = reference
        self.w = w
        self.dir = run_dir
        self.dir.mkdir(parents=True)
        base = ROOT / "configs" / w.base
        seed = seed if w.seeded else None
        self.cfg = write_config(base, w.overrides, seed, run_dir / "workload.cfg")
        self.one_cfg = write_config(base, one_run_overrides(w), seed, run_dir / "one_run.cfg")
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.setup_s: list[float] = []
        self.import_s: list[float] = []
        self.reference_times: list[float] = []

    def op(self, name: str, ok: bool, detail: str) -> None:
        self.attempted += 1
        self.failed += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}", flush=True)

    def check(self, name: str, fn, *args) -> None:
        ok, detail = fn(*args)
        self.op(name, ok, detail)

    def command(self, name: str, argv: list[str], out: Path, trace: bool = False):
        """Run one kaflab command in a fresh interpreter; its report, or None."""
        out.parent.mkdir(parents=True, exist_ok=True)
        result = out.with_name(out.name + ".result.json")
        spec = {"argv": [str(a) for a in argv], "config": str(self.cfg), "result": str(result)}
        if trace:
            worker_dir = out.with_name(out.name + ".workers")
            worker_dir.mkdir()
            spec["worker_dir"] = str(worker_dir)
        self.reference_times.append(self.reference.reference_s())
        with open(out.with_name(out.name + ".log"), "w", encoding="utf-8") as log:
            steal0 = steal_s()
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, str(CHILD), json.dumps(spec)],
                cwd=ROOT, env=self.env, stdout=log, stderr=subprocess.STDOUT,
                start_new_session=True,
            )
            try:
                proc.wait(timeout=COMMAND_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
            stolen = steal_s() - steal0
        report = None
        if proc.returncode == 0 and result.is_file():
            report = json.loads(result.read_text())
            self.setup_s.append(report["ready"] - start)
            self.import_s.append(report["import_s"])
        if report is not None and report["rc"] == 0:
            self.op(name, True, f"{report['main_s']:.3f} s, cpu {report['cpu_s']:.3f} s, "
                               f"machine steal {stolen:.2f} s")
            return report
        tail = out.with_name(out.name + ".log").read_text(errors="replace")[-300:]
        rc = report["rc"] if report else proc.returncode
        self.op(name, False, f"exit {rc}: {tail!r}")
        return None

    def simulate_one_run(self, out: Path) -> None:
        """The one-run simulate that the own loop recomputes. It is not timed, so it
        runs in this process, which has imported kaflab for the checks already."""
        import kaflab.cli

        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = kaflab.cli.main(["simulate", "--config", str(self.one_cfg), "--out", str(out)])
        except Exception as exc:  # a crash is one failed operation, not the end of the run
            self.op("simulate-one-run", False, f"{type(exc).__name__}: {exc}")
            return
        self.op("simulate-one-run", rc == 0, f"exit {rc}")

    def round(self, d: Path, trace: bool = False) -> dict:
        """One whole round of commands and checks; the commands' reports."""
        c = self.checks
        workers = ["--workers", str(min(self.w.workers, nproc()))] if self.w.workers > 1 else []
        self.simulate_one_run(d / "one")
        self.check("one-run curve equals own loop", c.one_run_recomputed, d / "one", self.one_cfg)
        reports = {
            "simulate": self.command(
                "simulate", ["simulate", "--config", self.cfg, "--out", d / "sim", *workers],
                d / "sim", trace),
            "analyze-cold": self.command(
                "analyze-cold", ["analyze", "--config", self.cfg, "--out", d / "cold",
                                 "--cache-dir", d / "cache"], d / "cold", trace),
        }
        cache_bytes = _dir_bytes(d / "cache") if (d / "cache").is_dir() else None
        reports["analyze-warm"] = self.command(
            "analyze-warm", ["analyze", "--config", self.cfg, "--out", d / "warm",
                             "--cache-dir", d / "cache"], d / "warm", trace)
        reports["compare"] = self.command(
            "compare", ["compare", "--sim", d / "sim" / "simulated.csv",
                        "--theory", d / "cold" / "theory.csv", "--out", d / "cmp"],
            d / "cmp", trace)
        for sub in ("one", "sim", "cold", "warm", "cmp"):
            self.check(f"manifest sums ({sub})", c.manifest_sums, d / sub)
        self.check("cold and warm analyze agree", c.same_sums, d / "cold", d / "warm")
        self.check("theory starts at d2", c.theory_starts_at_d2, d / "cold")
        self.check("steady state >= j_min", c.steady_state_above_jmin, d / "cold")
        self.check("stability verdicts", c.stability_verdicts, d / "cold")
        self.check("simulation matches theory", c.simulation_matches_theory, d / "cmp", self.w)
        reports["cache_bytes"] = cache_bytes
        return reports

    def speed(self) -> float:
        """How much slower the machine ran than nominal: the run's median
        reference time over ``NOMINAL_S``. In a slow spell the readings
        scatter widely, and the median follows the commands' own times
        more closely than the fastest reading does (``README.md``)."""
        if not self.reference_times:
            return 1.0
        return statistics.median(self.reference_times) / self.reference.NOMINAL_S

    def result(self, metrics: dict, units: dict) -> dict:
        """The result line; times and rates are scaled to the nominal speed."""
        speed = self.speed()
        print("speed " + json.dumps({"reference_s": self.reference_times, "factor": speed}))
        scale = {"s": 1.0 / speed, "1/s": speed}
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                k: {
                    "value": (metrics[k] * scale[u]
                              if u in scale and metrics.get(k) is not None
                              else metrics.get(k)),
                    "unit": u,
                }
                for k, u in units.items()
            },
        }


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def end_to_end(run: Run, rounds: list[dict]) -> dict:
    def main_s(cmd):
        return _median(r[cmd]["main_s"] if r[cmd] else None for r in rounds)

    def rss_mb(cmd):
        return _median(r[cmd]["maxrss_kb"] / 1024 if r[cmd] else None for r in rounds)

    return {
        "setup_s": _median(run.setup_s),
        "simulate_s": main_s("simulate"),
        "analyze_cold_s": main_s("analyze-cold"),
        "analyze_warm_s": main_s("analyze-warm"),
        "simulate_peak_rss_mb": rss_mb("simulate"),
        "analyze_peak_rss_mb": rss_mb("analyze-cold"),
        "cache_bytes": _median(r["cache_bytes"] for r in rounds),
    }


def per_layer(run: Run, plain: dict, traced: dict) -> dict:
    """Per-layer metrics of a traced round; times and counts are round totals,
    except the two ``*_calls`` counts named per analyze."""
    from kaflab.config import load_config

    cfg = load_config(run.cfg)

    def total(name, field, commands=TIMED_COMMANDS):
        index = {"calls": 0, "self": 1, "incl": 2}[field]
        return sum(
            traced[c]["trace"]["totals"].get(name, [0, 0.0, 0.0])[index]
            for c in commands if traced.get(c)
        )

    def rate(work, name):
        seconds = total(name, "incl")
        return work * total(name, "calls") / seconds if seconds else None

    def overhead(cmd):
        if traced.get(cmd) and plain.get(cmd):
            return traced[cmd]["main_s"] - plain[cmd]["main_s"]
        return None

    outputs = ("simulate", "analyze-cold", "analyze-warm")
    analyzes = 2
    return {
        "cli.import_s": _median(run.import_s),
        "cli.write_outputs_s": total("cli.write_outputs", "self", outputs),
        "cli.compare_s": traced["compare"]["main_s"] if traced.get("compare") else None,
        "config.build_dictionary_s": total("config.build_dictionary", "self"),
        "kernel.coherence_select_calls": total("kernel.coherence_select", "calls"),
        "kernel.gram_s": total("kernel.gram", "self"),
        "kernel.kernelized_input_calls": total("kernel.kernelized_input", "calls"),
        "moments.cross_stats_s": total("moments.cross_stats", "self"),
        "moments.cross_stats_samples_per_s": rate(cfg.n_moment_samples, "moments.cross_stats"),
        "moments.closed_forms_s": total("moments.closed_forms", "self"),
        "moments.build_model_s": total("moments.build_model", "self"),
        "moments.cache_write_s": total("moments.cache_write", "self"),
        "moments.cache_read_s": total("moments.cache_read", "self"),
        "sim.stream_s": total("sim.stream", "self"),
        "sim.mc_s": total("sim.mc", "incl"),
        "sim.run_iters_per_s": rate(cfg.n_runs * cfg.n_iters, "sim.mc"),
        "filters.step_calls": total("filters.step", "calls"),
        "filters.step_s": total("filters.step", "self"),
        "analysis.build_k_calls": total("analysis.build_k", "calls") / analyzes,
        "analysis.build_k_s": total("analysis.build_k", "self"),
        "analysis.stability_s": total("analysis.stability", "self"),
        "analysis.steady_state_s": total("analysis.steady_state", "self"),
        "analysis.transient_s": total("analysis.transient", "self"),
        "analysis.transient_steps_per_s": rate(cfg.n_iters - 1, "analysis.transient"),
        "linalg.spectral_radius_calls": total("linalg.spectral_radius", "calls") / analyzes,
        "linalg.spectral_radius_s": total("linalg.spectral_radius", "self"),
        "trace.overhead_simulate_s": overhead("simulate"),
        "trace.overhead_analyze_cold_s": overhead("analyze-cold"),
        "trace.overhead_analyze_warm_s": overhead("analyze-warm"),
        "trace.overhead_compare_s": overhead("compare"),
    }


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, run_dir: Path) -> dict:
    print("env " + json.dumps(environment(w)), flush=True)
    run = Run(w, seed, run_dir)
    if trace:
        plain = run.round(run_dir / "plain")
        traced = run.round(run_dir / "traced", trace=True)
        for sub in ("sim", "cold", "cmp"):
            run.check(f"tracing leaves outputs unchanged ({sub})", run.checks.same_sums,
                      run_dir / "plain" / sub, run_dir / "traced" / sub)
        spans = {c: traced[c]["trace"]["spans"] for c in TIMED_COMMANDS if traced.get(c)}
        (WORK / f"trace-{w.name}-seed{seed}.json").write_text(json.dumps(spans))
        return run.result(per_layer(run, plain, traced), PER_LAYER)
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        d = run_dir / f"round{len(rounds)}"
        rounds.append(run.round(d))
        shutil.rmtree(d)
    return run.result(end_to_end(run, rounds), END_TO_END)


def preflight(w: Workload) -> list[str]:
    """Files of the checkout the benchmark needs; the ones missing."""
    needed = [ROOT / "src" / "kaflab" / "cli.py", ROOT / "configs" / w.base]
    return [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run the benchmark's own tests on tiny inputs")
    args = parser.parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    if args.self_test:
        import selftest

        return selftest.main()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    w = WORKLOADS[args.workload]
    missing = preflight(w)
    if missing:
        print(f"not a kaflab checkout: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    run_dir = WORK / f"{w.name}-seed{args.seed}-pid{os.getpid()}"
    try:
        result = run_workload(w, args.seed, args.seconds, bool(args.trace), run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
