"""Command-line surface: artifacts, manifests, exit codes, determinism."""

import ast
import configparser
import dataclasses
import importlib
import json
import os
import subprocess
import sys
import tempfile
import textwrap
import time
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import CONFIGS, fourth_tensor_whole, kaflab_env, peak_growth_mb, sym_index
from kaflab import cli, linalg
from kaflab.cli import EXIT_CONFIG, EXIT_IO, EXIT_NUMERIC, EXIT_OK, compare_curves, main
from kaflab.config import ExperimentConfig, build_dictionary, build_input_model, load_config
from kaflab.kernel import GaussianKernel, gram

TINY_CONFIG = """\
[kernel]
sigma = 0.7

[input]
rho = 0.5
sigma_u = 0.5

[system]
kind = polynomial
sigma_nu = 0.05

[dictionary]
kind = grid
lo = -1, -1
hi = 1, 1
points_per_axis = 2

[filter]
kind = natural_klms
eta = {eta}

[run]
n_runs = 2
n_iters = {n_iters}
seed = {seed}

[moments]
n_samples = 10000
"""


def write_tiny(tmp_path, eta=0.075, n_iters=40, seed=5, name="tiny.cfg"):
    path = tmp_path / name
    path.write_text(TINY_CONFIG.format(eta=eta, n_iters=n_iters, seed=seed))
    return path


def read_curve(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def read_manifest(out, *also):
    """``out``'s manifest, once ``out`` is seen to hold its outputs, the manifest and
    the entries ``also`` and nothing else, such as a temporary file."""
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(p.name for p in out.iterdir()) == sorted([*manifest["outputs"], "manifest.json",
                                                            *also])
    return manifest


class TestSimulate:
    def test_manifest_records_the_engine_layers(self, tmp_path, monkeypatch):
        """``timings_within.monte_carlo`` splits the Monte-Carlo stage into the stream
        draws, the kernel values and the steps, which together take all of it but the
        chunk sums and the curve's checks; ``counters.kernel_values`` counts the kernel
        values formed, runs x iterations x r. On one CPU, so that one process laps them
        all: a pipeline's laps sum two processes' busy time."""
        import kaflab.sim

        monkeypatch.setattr(kaflab.sim.os, "sched_getaffinity", lambda pid: {0})
        cfg = write_tiny(tmp_path, n_iters=3000)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        manifest = read_manifest(out)
        layers = manifest["timings_within"]["monte_carlo"]
        assert set(layers) == {"stream", "kernel_values", "steps"}
        assert all(t > 0 for t in layers.values())
        assert sum(layers.values()) <= manifest["timings"]["monte_carlo"]
        assert sum(layers.values()) >= 0.9 * manifest["timings"]["monte_carlo"]
        assert manifest["counters"]["kernel_values"] == 2 * 3000 * 4

    def test_null_system_writes_zero_curve(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["simulate", "--config", str(CONFIGS / "null.cfg"), "--out", str(out)])
        assert rc == EXIT_OK
        data = read_curve(out / "simulated.csv")
        assert data.shape == (50, 2)
        assert (data[:, 1] == 0).all()

    def test_manifest_lists_outputs(self, tmp_path):
        cfg = write_tiny(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        manifest = read_manifest(out)
        assert "simulated.csv" in manifest["outputs"]
        assert manifest["seed"] == 5
        assert manifest["resolved_config"]["filter"]["eta"] == "0.075"

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_tiny(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", str(cfg), "--out", str(out1)])
        main(["simulate", "--config", str(cfg), "--out", str(out2)])
        assert (out1 / "simulated.csv").read_bytes() == (out2 / "simulated.csv").read_bytes()
        m1 = read_manifest(out1)
        m2 = read_manifest(out2)
        assert m1["outputs"] == m2["outputs"]

    def test_workers_option_is_ignored(self, tmp_path):
        cfg = write_tiny(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == EXIT_OK
        assert main(["simulate", "--config", str(cfg), "--out", str(out2),
                     "--workers", "2"]) == EXIT_OK
        assert (out1 / "simulated.csv").read_bytes() == (out2 / "simulated.csv").read_bytes()

    def test_manifest_records_counters_and_timings(self, tmp_path):
        cfg = write_tiny(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        m = read_manifest(out)
        assert m["counters"].pop("peak_rss_mb", 1.0) > 0  # where /proc/self/status exists
        assert m["counters"] == {"r": 4, "n_runs": 2, "n_iters": 40, "run_chunk": 2,
                                 "kernel_values": 2 * 40 * 4, "mc_processes": 1}
        assert set(m["timings"]) == {"dictionary", "monte_carlo", "write"}
        assert all(t >= 0 for t in m["timings"].values())
        assert set(m["outputs"]) == {"simulated.csv"}

    def test_refused_pinning_steps_the_same_bits(self, tmp_path, monkeypatch):
        """With ``os.sched_setaffinity`` refused (``PermissionError``) in this process and
        in the forked child, a run of more than 128 runs still splits its chunk, exits 0,
        writes the bytes of the run before, leaves no child and never asks to pin."""
        import kaflab.sim

        if len(os.sched_getaffinity(0)) < 2:
            pytest.skip("one CPU: no chunk is split")
        cfg = write_tiny(tmp_path, n_iters=30)
        cfg.write_text(cfg.read_text().replace("n_runs = 2", "n_runs = 150"))
        before = os.sched_getaffinity(0)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "a")]) == EXIT_OK

        calls = []

        def refused(pid, cpus):
            calls.append(cpus)
            raise PermissionError(1, "Operation not permitted")

        monkeypatch.setattr(kaflab.sim.os, "sched_setaffinity", refused)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "b")]) == EXIT_OK
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert os.sched_getaffinity(0) == before
        assert calls == []
        assert (tmp_path / "a" / "simulated.csv").read_bytes() \
            == (tmp_path / "b" / "simulated.csv").read_bytes()
        processes = [read_manifest(tmp_path / run)["counters"]["mc_processes"] for run in "ab"]
        assert processes == [2, 2]  # the 150 runs split at 72 here

    @pytest.mark.parametrize("n_cpus, n_runs, n_iters, forked", [
        (2, 150, 30, True), (2, 7, 1500, True), (1, 150, 30, False), (1, 7, 1500, False),
        (2, 7, 300, False),
    ], ids=["split", "pipeline", "one_cpu-split", "one_cpu-pipeline", "one_block"])
    def test_manifest_records_the_forked_childs_peak(self, tmp_path, monkeypatch, n_cpus,
                                                     n_runs, n_iters, forked):
        """A split (150 runs) or pipelined (7 runs of three kernel blocks) ``simulate``
        records ``counters.child_peak_rss_mb``, the forked child's peak resident set; one
        that steps whole, on one CPU or in one kernel block, records none."""
        import kaflab.sim

        monkeypatch.setattr(kaflab.sim.os, "sched_getaffinity", lambda pid: set(range(n_cpus)))
        cfg = write_tiny(tmp_path, n_iters=n_iters)
        cfg.write_text(cfg.read_text().replace("n_runs = 2", f"n_runs = {n_runs}"))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_OK
        counters = read_manifest(tmp_path / "out")["counters"]
        assert counters["mc_processes"] == 1 + forked
        if forked:
            assert counters["child_peak_rss_mb"] > 0
        else:
            assert "child_peak_rss_mb" not in counters

    def test_seed_override_changes_stream(self, tmp_path):
        cfg = write_tiny(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", str(cfg), "--out", str(out1)])
        main(["simulate", "--config", str(cfg), "--out", str(out2), "--seed", "99"])
        a = read_curve(out1 / "simulated.csv")
        b = read_curve(out2 / "simulated.csv")
        assert not np.array_equal(a, b)
        assert read_manifest(out2)["seed"] == 99


@pytest.mark.skipif(sys.platform != "linux", reason="VmHWM is read from /proc on Linux")
def test_manifests_record_the_peak_memory_and_the_gram_condition(tmp_path, monkeypatch):
    """``simulate`` and ``analyze`` record ``counters.peak_rss_mb``, the process's VmHWM,
    and ``analyze`` records ``counters.gram_condition``, G's largest over its smallest
    eigenvalue, as ``gram`` computed them. Both lie outside the hashed outputs: with the
    status file missing, the peak is left out and every output keeps its sha256."""
    cfg = write_tiny(tmp_path)
    statuses = (cli.STATUS_FILE, str(tmp_path / "no-status"))
    manifests = {}
    for status in statuses:
        monkeypatch.setattr(cli, "STATUS_FILE", status)
        for command in ("simulate", "analyze"):
            out = tmp_path / f"{command}-{len(manifests)}"
            assert main([command, "--config", str(cfg), "--out", str(out),
                         *(["--cache-dir", str(tmp_path / "cache")] if command == "analyze"
                           else [])]) == EXIT_OK
            manifests[command, status] = read_manifest(out)
    c = load_config(cfg)
    eig = gram(build_dictionary(c)[0], GaussianKernel(c.sigma)).eigenvalues
    for command in ("simulate", "analyze"):
        measured, missing = (manifests[command, s] for s in statuses)
        assert 10 < measured["counters"]["peak_rss_mb"] < 1000
        assert "peak_rss_mb" not in missing["counters"]
        assert measured["outputs"] == missing["outputs"]
    for m in (manifests["analyze", s] for s in statuses):
        assert m["counters"]["gram_condition"] == eig[-1] / eig[0] > 1.0


class TestAnalyze:
    def test_produces_verdicts_and_curve(self, tmp_path):
        cfg = write_tiny(tmp_path)
        out = tmp_path / "out"
        assert main(["analyze", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        theory = read_curve(out / "theory.csv")
        assert theory.shape == (40, 2)
        stability = (out / "stability.txt").read_text()
        assert "mean_stable = PASS" in stability
        assert "mean_square_stable = PASS" in stability
        steady = (out / "steady_state.txt").read_text()
        assert "steady_state_mse = " in steady
        assert "unavailable" not in steady

    def test_over_cap_dictionary_is_refused_before_the_moments(self, tmp_path, monkeypatch,
                                                                capsys):
        """A dictionary whose K exceeds ``K_CAP`` exits 3 with ``build_k``'s message
        before the cross statistics are obtained: no cache record is written."""
        import kaflab.analysis

        monkeypatch.setattr(kaflab.analysis, "K_CAP", 15)  # the tiny grid has r^2 = 16
        cache, out = tmp_path / "cache", tmp_path / "out"
        assert main(["analyze", "--config", str(write_tiny(tmp_path)), "--out", str(out),
                     "--cache-dir", str(cache)]) == EXIT_NUMERIC
        assert capsys.readouterr().err == (
            "error: r = 4 centers, above the cap of r <= 3: the transition matrix would have "
            "r(r+1)/2 = 10 rows\n")
        assert not cache.exists()
        assert list(out.iterdir()) == []

    def test_moments_cache_round_trip(self, tmp_path):
        cfg = write_tiny(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cache = tmp_path / "cache"
        main(["analyze", "--config", str(cfg), "--out", str(out1),
              "--cache-dir", str(cache)])
        m1 = read_manifest(out1)
        assert m1["dictionary"]["moments_cache_hit"] is False
        (record,) = cache.iterdir()  # one small record, no leftover temporary file
        assert record.name.startswith("cross_stats_") and record.suffix == ".json"
        assert record.stat().st_size < 10_000
        main(["analyze", "--config", str(cfg), "--out", str(out2),
              "--cache-dir", str(cache)])
        m2 = read_manifest(out2)
        assert m2["dictionary"]["moments_cache_hit"] is True
        assert (out1 / "theory.csv").read_bytes() == (out2 / "theory.csv").read_bytes()

    def test_manifest_records_counters_and_timings(self, tmp_path):
        cfg = write_tiny(tmp_path)
        cache = tmp_path / "cache"
        manifests = []
        for name in ("cold", "warm"):
            assert main(["analyze", "--config", str(cfg), "--out", str(tmp_path / name),
                         "--cache-dir", str(cache)]) == EXIT_OK
            manifests.append(read_manifest(tmp_path / name))
        cold, warm = manifests
        assert cold["outputs"] == warm["outputs"]
        for m in manifests:
            assert m["counters"]["r"] == 4
            assert m["counters"]["k_dim"] == 10
            stability = dict(line.split(" = ") for line in
                             (tmp_path / "cold" / "stability.txt").read_text().splitlines())
            assert m["counters"]["k_spectral_radius"] == float(stability["k_spectral_radius"])
            assert (m["counters"]["cross_stats_source"], m["counters"]["cross_stats_samples"]) \
                == ("closed_form", 0)
            assert set(m["timings"]) == {"dictionary", "moments", "spectrum", "transient",
                                         "steady_state", "write"}
            assert all(t >= 0 for t in m["timings"].values())

    def test_fluid_flow_theory_does_not_depend_on_the_sample_count(self, tmp_path):
        """The second experiment's cross statistics are exact: ``[moments] n_samples`` is
        accepted and read by nothing, so 10^4 and 10^6 give the same bytes, and the
        manifest records a closed form and no sample."""
        text = (CONFIGS / "experiment2.cfg").read_text()
        assert "kind = fluid_flow" in text and "n_samples = 1000000" in text
        (tmp_path / "small.cfg").write_text(text.replace("n_samples = 1000000",
                                                         "n_samples = 10000"))
        for cfg, out in ((CONFIGS / "experiment2.cfg", "large"), (tmp_path / "small.cfg", "small")):
            assert main(["analyze", "--config", str(cfg), "--out", str(tmp_path / out)]) \
                == EXIT_OK
        large, small = (read_manifest(tmp_path / out, "moments_cache")
                        for out in ("large", "small"))
        assert large["outputs"] == small["outputs"]
        for m in (large, small):
            assert (m["counters"]["cross_stats_source"], m["counters"]["cross_stats_samples"]) \
                == ("closed_form", 0)
            assert "timings_within" not in m

    def test_polynomial_theory_does_not_depend_on_the_seed(self, tmp_path):
        """The polynomial plant's cross statistics are exact, so the seed, which drives
        only the stream estimate, leaves the theory as it is."""
        cfg = write_tiny(tmp_path)
        for seed in ("1", "2"):
            assert main(["analyze", "--config", str(cfg), "--out", str(tmp_path / seed),
                         "--seed", seed]) == EXIT_OK
        assert (tmp_path / "1" / "theory.csv").read_bytes() \
            == (tmp_path / "2" / "theory.csv").read_bytes()

    def test_negative_theory_is_a_numerical_error(self, tmp_path, capsys):
        """On a 7 x 7 grid of the first experiment, G is so ill-conditioned that
        rounding drives the transient curve below j_min, after the cross statistics. That is
        one ``numerical error`` line naming the step, the value and K's spectral radius, no
        stdout, and nothing in ``--out``, not even the default cache directory's record."""
        text = (CONFIGS / "experiment1.cfg").read_text()
        assert text.count("points_per_axis = 5") == 1
        cfg = tmp_path / "grid7.cfg"
        cfg.write_text(text.replace("points_per_axis = 5", "points_per_axis = 7"))
        out = tmp_path / "out"
        assert main(["analyze", "--config", str(cfg), "--out", str(out)]) == EXIT_NUMERIC
        stdout, err = capsys.readouterr()
        assert err.startswith("numerical error: transient curve is negative at step ")
        assert err.count("\n") == 1 and "spectral radius" in err
        assert stdout == ""
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("kind", ["natural_klms", "selective", "knlms"])
    def test_says_which_theory_it_wrote(self, tmp_path, kind):
        cfg = write_tiny(tmp_path)
        cfg.write_text(cfg.read_text().replace("kind = natural_klms", f"kind = {kind}"))
        out = tmp_path / "out"
        assert main(["analyze", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        manifest = read_manifest(out, "moments_cache")  # the default cache directory
        assert manifest["resolved_config"]["filter"]["kind"] == kind
        assert manifest["theory_models"] == "natural_klms"
        lines = (out / "stability.txt").read_text().splitlines()
        if kind == "natural_klms":  # the file is as it always was
            assert lines[-1].startswith("transient = ")
            assert not any(line.startswith("theory_models") for line in lines)
        else:
            assert lines[-1] == "theory_models = natural_klms"

    @pytest.mark.parametrize("damage", ["truncate", "foreign", "non_finite", "negative_d2",
                                        "p_times_10"])
    def test_damaged_cache_is_a_miss(self, tmp_path, damage):
        """A record that is not whole, or whose statistics are no signal's (non-finite, a
        negative d2, or a p that makes the minimum MSE negative), is recomputed and
        rewritten, with the cold run's bytes and no warning."""
        cfg = write_tiny(tmp_path)
        cache = tmp_path / "cache"
        first, second = tmp_path / "a", tmp_path / "b"
        assert main(["analyze", "--config", str(cfg), "--out", str(first),
                     "--cache-dir", str(cache)]) == EXIT_OK
        (record,) = cache.iterdir()
        cold = record.read_bytes()
        if damage == "truncate":
            record.write_bytes(record.read_bytes()[: record.stat().st_size // 2])
        elif damage == "foreign":
            record.write_text("n,mse\n0,1.0\n")
        else:  # a whole record of the right length, its statistics no signal's
            tampered = json.loads(record.read_text())
            if damage == "non_finite":
                tampered["p"], tampered["d2"] = [float("nan")] * len(tampered["p"]), float("nan")
            elif damage == "negative_d2":
                tampered["d2"] = -1.0
            else:
                tampered["p"] = [10.0 * p for p in tampered["p"]]
            record.write_text(json.dumps(tampered))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["analyze", "--config", str(cfg), "--out", str(second),
                         "--cache-dir", str(cache)]) == EXIT_OK
        assert [str(w.message) for w in caught] == []
        assert record.read_bytes() == cold
        manifest = read_manifest(second)
        assert manifest["dictionary"]["moments_cache_hit"] is False
        for name in ("theory.csv", "steady_state.txt", "stability.txt"):
            assert (first / name).read_bytes() == (second / name).read_bytes()
        rewritten = json.loads(record.read_text())
        assert np.isfinite([*rewritten["p"], rewritten["d2"]]).all()
        # the miss rewrote a whole record, which the next run reads
        third = tmp_path / "c"
        assert main(["analyze", "--config", str(cfg), "--out", str(third),
                     "--cache-dir", str(cache)]) == EXIT_OK
        manifest = read_manifest(third)
        assert manifest["dictionary"]["moments_cache_hit"] is True

    def test_closed_form_record_is_shared_across_seeds(self, tmp_path):
        cache = tmp_path / "cache"
        for seed in (1, 2):
            out = tmp_path / f"seed{seed}"
            assert main(["analyze", "--config", str(CONFIGS / "null.cfg"), "--out", str(out),
                         "--seed", str(seed), "--cache-dir", str(cache)]) == EXIT_OK
        assert read_manifest(tmp_path / "seed1")["dictionary"]["moments_cache_hit"] is False
        assert read_manifest(tmp_path / "seed2")["dictionary"]["moments_cache_hit"] is True
        assert len(list(cache.iterdir())) == 1

    def test_single_center_matches_hand_formulas(self, tmp_path):
        # r = 1: every output is a scalar formula
        cfg_path = tmp_path / "r1.cfg"
        cfg_path.write_text(
            TINY_CONFIG.format(eta=0.075, n_iters=20, seed=5).replace(
                "points_per_axis = 2", "points_per_axis = 1"
            )
        )
        out = tmp_path / "out"
        assert main(["analyze", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK

        from kaflab.config import build_dictionary, build_input_model, load_config
        from kaflab.kernel import GaussianKernel
        from kaflab.moments import estimate_cross_stats, fourth_tensor, second_moment
        from kaflab.sim import SystemSimulator

        cfg = load_config(cfg_path)
        d, _ = build_dictionary(cfg)
        assert d.size == 1
        im = build_input_model(cfg)
        kern = GaussianKernel(cfg.sigma)
        r_t = second_moment(d, kern, im)[0, 0]  # G = [[1]], so no transform
        s_t = fourth_tensor(d, kern, im)[0, 0]
        stats = estimate_cross_stats(
            SystemSimulator(kind=cfg.system_kind, noise_sigma=cfg.sigma_nu), im, d, kern,
        )
        j_min = stats.d2 - stats.p[0] ** 2 / r_t
        k_scalar = 1 - 2 * cfg.eta * r_t + cfg.eta**2 * s_t
        mse_inf = j_min + r_t * (cfg.eta**2 * j_min * r_t) / (1 - k_scalar)

        steady = dict(
            line.split(" = ") for line in
            (out / "steady_state.txt").read_text().splitlines()
        )
        stability = dict(
            line.split(" = ") for line in
            (out / "stability.txt").read_text().splitlines()
        )
        assert float(steady["steady_state_mse"]) == pytest.approx(mse_inf, rel=1e-10)
        assert float(steady["j_min"]) == pytest.approx(j_min, rel=1e-10)
        assert float(stability["mean_stability_bound"]) == pytest.approx(
            2 / r_t, rel=1e-10
        )
        assert float(stability["k_spectral_radius"]) == pytest.approx(
            abs(k_scalar), rel=1e-10
        )

    def test_unstable_config_records_fail(self, tmp_path):
        cfg = write_tiny(tmp_path, eta=1000.0, n_iters=30)
        out = tmp_path / "out"
        with np.errstate(over="ignore", invalid="ignore"):
            rc = main(["analyze", "--config", str(cfg), "--out", str(out)])
        assert rc == EXIT_OK
        stability = (out / "stability.txt").read_text()
        assert "mean_stable = FAIL" in stability
        assert "mean_square_stable = FAIL" in stability
        assert "steady_state_mse = unavailable" in (out / "steady_state.txt").read_text()


class TestCompare:
    def test_identical_curves_have_zero_gaps(self, tmp_path):
        cfg = write_tiny(tmp_path)
        out = tmp_path / "sim"
        main(["simulate", "--config", str(cfg), "--out", str(out)])
        cmp_out = tmp_path / "cmp"
        rc = main(["compare", "--sim", str(out / "simulated.csv"),
                   "--theory", str(out / "simulated.csv"), "--out", str(cmp_out)])
        assert rc == EXIT_OK
        assert set(read_manifest(cmp_out)["outputs"]) == {"overlay.csv", "metrics.txt"}
        metrics = dict(
            line.split(" = ") for line in
            (cmp_out / "metrics.txt").read_text().splitlines()
        )
        assert float(metrics["steady_band_rel_error"]) == 0.0
        assert float(metrics["max_log10_gap"]) == 0.0
        assert float(metrics["max_log10_gap_smoothed"]) == 0.0
        overlay = np.loadtxt(cmp_out / "overlay.csv", delimiter=",", skiprows=1)
        assert np.array_equal(overlay[:, 1], overlay[:, 2])

    def test_failed_metrics_write_keeps_the_previous_file(self, tmp_path, monkeypatch):
        """A metric that cannot be formatted fails the write of metrics.txt after it
        began: the error propagates, the previous file stays whole and no temporary
        file is left."""
        curve, cmp_out = tmp_path / "curve.csv", tmp_path / "cmp"
        curve.write_text("n,mse\n0,1.0\n1,0.5\n")
        argv = ["compare", "--sim", str(curve), "--theory", str(curve), "--out", str(cmp_out)]
        assert main(argv) == EXIT_OK
        before = (cmp_out / "metrics.txt").read_bytes()

        class Unformattable:
            def __format__(self, spec):
                raise RuntimeError("cannot format")

        monkeypatch.setattr("kaflab.cli.compare_curves",
                            lambda *args, **kwargs: {"first": 1.0, "second": Unformattable()})
        with pytest.raises(RuntimeError, match="cannot format"):
            main(argv)
        assert (cmp_out / "metrics.txt").read_bytes() == before
        assert not list(cmp_out.glob("*.tmp"))

    def test_length_mismatch_truncates_with_warning(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("n,mse\n" + "".join(f"{i},{1.0}\n" for i in range(10)))
        b.write_text("n,mse\n" + "".join(f"{i},{1.0}\n" for i in range(7)))
        rc = main(["compare", "--sim", str(a), "--theory", str(b),
                   "--out", str(tmp_path / "cmp")])
        assert rc == EXIT_OK
        assert "truncating" in capsys.readouterr().err
        overlay = np.loadtxt(tmp_path / "cmp" / "overlay.csv", delimiter=",", skiprows=1)
        assert overlay.shape[0] == 7

    @pytest.mark.parametrize("text", ["n,mse\n", "mse\n1.0\n2.0\n", "n,mse\n0,1.0\n1,0.00326",
                                      "n,mse\n0,1.0\n1,nan\n", "n,mse\n0,inf\n1,0.5\n",
                                      "n,mse\n0,1.0\n1,-0.5\n"],
                             ids=["header_only", "one_column", "torn_last_row", "nan_row",
                                  "inf_row", "negative_row"])
    def test_curve_without_data_is_io_error(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        good = tmp_path / "good.csv"
        good.write_text("n,mse\n0,1.0\n1,0.5\n")
        rc = main(["compare", "--sim", str(bad), "--theory", str(good),
                   "--out", str(tmp_path / "cmp")])
        assert rc == EXIT_IO
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("io error: ") and str(bad) in err
        assert not (tmp_path / "cmp" / "metrics.txt").exists()

    @pytest.mark.parametrize("window", ["0", "-5"])
    def test_smooth_window_below_one_is_rejected(self, tmp_path, capsys, window):
        curve = tmp_path / "curve.csv"
        curve.write_text("n,mse\n0,1.0\n1,0.5\n")
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--sim", str(curve), "--theory", str(curve),
                  "--out", str(tmp_path / "cmp"), "--smooth-window", window])
        assert exc.value.code == 2
        assert "--smooth-window" in capsys.readouterr().err
        assert not (tmp_path / "cmp").exists()

    def test_window_past_the_curve_is_cut_where_every_window_covers_it(self, tmp_path):
        """From 2n - 1 on, each window covers the whole curve of n points: ``metrics.txt``
        keeps its bytes, the echoed window aside, at that width, one above it and at 10^8,
        which ends within a second."""
        from kaflab.sim import LearningCurve, save_learning_curve

        rng, n = np.random.default_rng(6), 300
        paths = [tmp_path / "sim.csv", tmp_path / "theory.csv"]
        for path in paths:
            save_learning_curve(LearningCurve(mse=rng.exponential(1.0, n)), path)
        texts = {}
        for window in (2 * n - 1, 2 * n, 10**8):
            start = time.perf_counter()
            assert main(["compare", "--sim", str(paths[0]), "--theory", str(paths[1]),
                         "--out", str(tmp_path / str(window)),
                         "--smooth-window", str(window)]) == EXIT_OK
            seconds = time.perf_counter() - start
            lines = (tmp_path / str(window) / "metrics.txt").read_text().splitlines()
            assert f"smooth_window = {window}" in lines
            texts[window] = [line for line in lines if not line.startswith("smooth_window")]
        assert seconds < 1.0
        assert texts[2 * n - 1] == texts[2 * n] == texts[10**8]
        assert len(texts[10**8]) == 8

    def test_short_curve_is_smoothed_to_its_own_length(self):
        """A curve shorter than the window keeps its length, and every point of a
        two-point curve averages both: the gap of [1, 1] against [10, 1] is that of
        1 against 5.5, not the raw first point's 1.0."""
        from kaflab.analysis import _moving_average

        assert _moving_average(np.linspace(1.0, 2.0, 40), 51).shape == (40,)
        metrics = compare_curves(np.array([1.0, 1.0]), np.array([10.0, 1.0]))
        assert metrics["max_log10_gap_smoothed"] == pytest.approx(np.log10(5.5), rel=1e-12)

    def test_compare_curves_metrics(self):
        sim = np.full(100, 2.0)
        theory = np.full(100, 1.0)
        metrics = compare_curves(sim, theory, smooth_window=5)
        assert metrics["steady_band_rel_error"] == pytest.approx(1.0)
        assert metrics["max_log10_gap"] == pytest.approx(np.log10(2.0))

    def test_converged_transient_vs_fixed_point_constant(self, toy_model):
        # comparing a converged theoretical curve against its own fixed-point
        # level leaves only the recursion-vs-solve residual
        from kaflab.analysis import build_k, steady_state_mse, transient_mse

        km = build_k(toy_model, 0.3)
        mse_inf, _ = steady_state_mse(toy_model, km)
        curve = transient_mse(toy_model, km, 20_000)
        metrics = compare_curves(curve.mse, np.full(curve.mse.size, mse_inf))
        assert metrics["steady_band_rel_error"] < 1e-6


class TestMomentsCheck:
    def test_passes_on_clean_config(self, tmp_path, capsys):
        cfg = write_tiny(tmp_path, seed=17)
        rc = main(["moments-check", "--config", str(cfg), "--samples", "40000",
                   "--fourth-entries", "3"])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "# RESULT: PASS" in out

    def test_fourth_entries_above_r4_is_a_config_error(self, tmp_path, monkeypatch, capsys):
        """r^4 is the count of distinct fourth-moment entries (256 on the tiny grid): that
        many are drawn, one more is refused with exit 2 and one ``config error`` line
        before any draw."""
        cfg = write_tiny(tmp_path, seed=17)
        assert main(["moments-check", "--config", str(cfg), "--samples", "40000",
                     "--fourth-entries", "256"]) == EXIT_OK
        assert "# RESULT: PASS" in capsys.readouterr().out
        monkeypatch.setattr(cli, "mc_second_moment", mock.Mock(side_effect=AssertionError))
        assert main(["moments-check", "--config", str(cfg), "--samples", "40000",
                     "--fourth-entries", "257"]) == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("config error: --fourth-entries 257 exceeds the 256 ")
        assert err.count("\n") == 1
        assert not cli.mc_second_moment.called

    def test_detects_corrupted_kernel_width(self, tmp_path, monkeypatch, capsys):
        """A biased Monte-Carlo mean, here that of a kernel 10% too wide, fails the
        check with exit 3."""
        import kaflab.cli as cli

        mc_second_moment = cli.mc_second_moment
        monkeypatch.setattr(cli, "mc_second_moment", lambda d, k, *args: mc_second_moment(
            d, GaussianKernel(1.1 * k.sigma), *args))
        cfg = write_tiny(tmp_path, seed=17)
        rc = main(["moments-check", "--config", str(cfg), "--samples", "40000",
                   "--fourth-entries", "3"])
        out = capsys.readouterr().out
        assert rc == EXIT_NUMERIC
        assert "FAIL" in out

    def test_closed_fourth_moments_are_the_multiset_form_entries(self, monkeypatch, capsys):
        """The closed fourth moments it prints, each ``multi_point_moment`` of its sorted
        centers, are the entries of the block by index multisets (``fourth_tensor_whole``)
        bit for bit, though only the drawn entries are evaluated."""
        import kaflab.cli as cli

        tables, check_rows = [], cli._check_rows

        def recorded(rows):
            tables.append(list(rows))
            return check_rows(tables[-1])

        monkeypatch.setattr(cli, "_check_rows", recorded)
        path = CONFIGS / "experiment1.cfg"
        assert main(["moments-check", "--config", str(path), "--samples", "40000",
                     "--fourth-entries", "200"]) == EXIT_OK
        capsys.readouterr()
        cfg = load_config(path)
        d, _ = build_dictionary(cfg)
        block = fourth_tensor_whole(d, GaussianKernel(cfg.sigma), build_input_model(cfg))
        entries = [tuple(map(int, index.split(","))) for index, *_ in tables[1]]
        expected = [block[sym_index(i, j, d.size), sym_index(s, t, d.size)]
                    for i, j, s, t in entries]
        assert len(entries) > 150
        assert np.array_equal([closed for _, closed, *_ in tables[1]], expected)

    def test_large_dictionary_stays_small(self, tmp_path):
        """On a 9 x 9 grid at sigma = 0.35 (r = 81) the whole run, imports included, raises
        a bare interpreter's peak by under 150 MB: the m x m fourth-moment block (m =
        3,321) that it once built for the drawn entries took the run to 432 MB."""
        text = (CONFIGS / "experiment1.cfg").read_text()
        for old, new in (("points_per_axis = 5", "points_per_axis = 9"),
                         ("sigma = 0.7\n", "sigma = 0.35\n")):
            assert text.count(old) == 1
            text = text.replace(old, new)
        cfg = tmp_path / "grid9.cfg"
        cfg.write_text(text)
        assert peak_growth_mb("", f"""
            import contextlib, io
            from kaflab.cli import main
            with contextlib.redirect_stdout(io.StringIO()):
                main(["moments-check", "--config", {str(cfg)!r}, "--samples", "40000",
                      "--fourth-entries", "200"])
        """) < 150


class TestComplexity:
    def test_reference_row(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["complexity", "--L", "2", "--r-max", "25", "--s-n", "1",
                   "--out", str(out)])
        assert rc == EXIT_OK
        assert set(read_manifest(out)["outputs"]) == {"complexity.csv"}
        rows = np.loadtxt(out / "complexity.csv", delimiter=",", skiprows=1, dtype=int)
        assert rows.shape == (25, 3)
        assert tuple(rows[24]) == (25, 725, 101)

    def test_growth_orders(self, tmp_path):
        out = tmp_path / "out"
        main(["complexity", "--L", "2", "--r-max", "20", "--s-n", "1",
              "--out", str(out)])
        rows = np.loadtxt(out / "complexity.csv", delimiter=",", skiprows=1, dtype=int)
        full, sel = rows[:, 1], rows[:, 2]
        # selective cost is affine in r; full cost is quadratic
        assert (np.diff(sel, 2) == 0).all()
        assert (np.diff(full, 2) == 2).all()

    def test_single_row(self, tmp_path):
        out = tmp_path / "out"
        main(["complexity", "--L", "3", "--r-max", "1", "--s-n", "1",
              "--out", str(out)])
        rows = np.loadtxt(out / "complexity.csv", delimiter=",", skiprows=1,
                          dtype=int, ndmin=2)
        assert rows.shape == (1, 3)
        assert tuple(rows[0]) == (1, (3 + 1 + 2) * 1, (3 + 1 + 1) * 1 + 1)

    def test_table_starts_at_s_n(self, tmp_path):
        out = tmp_path / "out"
        assert main(["complexity", "--L", "2", "--r-max", "5", "--s-n", "3",
                     "--out", str(out)]) == EXIT_OK
        rows = np.loadtxt(out / "complexity.csv", delimiter=",", skiprows=1, dtype=int)
        assert rows[:, 0].tolist() == [3, 4, 5]

    def test_s_n_above_r_max_is_config_error(self, tmp_path, capsys):
        rc = main(["complexity", "--L", "2", "--r-max", "4", "--s-n", "10",
                   "--out", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG
        assert "--s-n 10 exceeds --r-max 4" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag", ["--L", "--r-max", "--s-n"])
    def test_nonpositive_argument_is_rejected(self, tmp_path, capsys, flag):
        argv = {"--L": "2", "--r-max": "4", "--s-n": "1", flag: "0"}
        with pytest.raises(SystemExit) as exc:
            main(["complexity", *(a for kv in argv.items() for a in kv),
                  "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_r_max_above_the_largest_dictionary_is_rejected(self, tmp_path, capsys):
        """``--r-max`` is bounded by ``MAX_DICTIONARY_SIZE``: one more is a usage error
        (exit 2) that writes nothing, where 10^9 used to stream a 13 GB table."""
        from kaflab.kernel import MAX_DICTIONARY_SIZE

        for r_max in (MAX_DICTIONARY_SIZE + 1, 10**9):
            with pytest.raises(SystemExit) as exc:
                main(["complexity", "--L", "2", "--r-max", str(r_max), "--s-n", "1",
                      "--out", str(tmp_path / "out")])
            assert exc.value.code == 2
            assert f"--r-max: must be between 1 and {MAX_DICTIONARY_SIZE}" \
                in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        out = tmp_path / "at_the_bound"
        assert main(["complexity", "--L", "2", "--r-max", str(MAX_DICTIONARY_SIZE),
                     "--s-n", str(MAX_DICTIONARY_SIZE), "--out", str(out)]) == EXIT_OK
        assert (out / "complexity.csv").read_text().splitlines()[1:] == [
            f"{MAX_DICTIONARY_SIZE},{(2 + MAX_DICTIONARY_SIZE + 2) * MAX_DICTIONARY_SIZE},"
            f"{(2 + MAX_DICTIONARY_SIZE + 1) * MAX_DICTIONARY_SIZE + MAX_DICTIONARY_SIZE**3}"]


class TestErrorPaths:
    def test_missing_config(self, tmp_path, capsys):
        rc = main(["simulate", "--config", str(tmp_path / "nope.cfg"),
                   "--out", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_parse_error_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[kernel]\nsigma = 0.7\nbogus line without equals\n")
        rc = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        assert "line" in capsys.readouterr().err.lower()

    def test_semantic_error_names_key(self, tmp_path, capsys):
        cfg = write_tiny(tmp_path, eta=-1.0)
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        assert "eta" in capsys.readouterr().err

    def test_missing_section(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[kernel]\nsigma = 0.7\n")
        rc = main(["analyze", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        assert "[input]" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "analyze"])
    @pytest.mark.parametrize(
        "old,new",
        [
            ("eta = 0.075", "eta = inf"),
            ("sigma_nu = 0.0", "sigma_nu = inf"),
            ("sigma = 0.7", "sigma = nan"),
            ("lo = -1, -1", "lo = -1, inf"),
        ],
        ids=["eta_inf", "sigma_nu_inf", "sigma_nan", "lo_inf"],
    )
    def test_non_finite_value_is_config_error(self, tmp_path, capsys, command, old, new):
        text = (CONFIGS / "null.cfg").read_text()
        assert old in text
        bad = tmp_path / "bad.cfg"
        bad.write_text(text.replace(old, new))
        rc = main([command, "--config", str(bad), "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "analyze"])
    @pytest.mark.parametrize(
        "old,new",
        [
            (b"sigma = 0.7", b"sigma = 0.75%"),
            (b"# Noise-free", b"# Bruit nul (\xe9crit en Latin-1), noise-free"),
            # the input is embedded in two taps, so a grid's lo and hi hold two entries
            (b"lo = -1, -1\nhi = 1, 1", b"lo = -1, -1, -1\nhi = 1, 1, 1"),
        ],
        ids=["percent_in_value", "not_utf8", "three_entry_grid"],
    )
    def test_malformed_text_is_one_line_config_error(self, tmp_path, capsys, command, old,
                                                     new):
        text = (CONFIGS / "null.cfg").read_bytes()
        assert text.count(old) == 1
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(text.replace(old, new))
        rc = main([command, "--config", str(bad), "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("dictionary,r", [
        ("kind = grid\nlo = -1, -1\nhi = 1, 1\npoints_per_axis = 2", 4),
        ("kind = coherence\ntarget_size = 3\ncalib_samples = 500", 3),
    ], ids=["grid", "coherence"])
    def test_selective_s_n_above_the_dictionary_is_config_error(self, tmp_path, capsys,
                                                                 dictionary, r):
        # a coherence dictionary's size is known only after its calibration
        text = TINY_CONFIG.format(eta=0.075, n_iters=20, seed=5).replace(
            "kind = grid\nlo = -1, -1\nhi = 1, 1\npoints_per_axis = 2", dictionary)
        for s_n, expected in ((r + 1, EXIT_CONFIG), (r, EXIT_OK)):
            cfg = tmp_path / f"s_n{s_n}.cfg"
            cfg.write_text(text.replace("kind = natural_klms", f"kind = selective\ns_n = {s_n}"))
            rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / f"o{s_n}")])
            assert rc == expected
        err = capsys.readouterr().err
        assert err == f"config error: [filter] s_n = {r + 1} exceeds the dictionary size r = {r}\n"

    @pytest.mark.parametrize("command,flag,value", [
        ("moments-check", "--samples", "0"),
        ("moments-check", "--samples", "-5"),
        ("moments-check", "--fourth-entries", "0"),
        ("moments-check", "--seed", "-1"),
        ("simulate", "--seed", "-1"),
        ("analyze", "--seed", "-1"),
    ])
    def test_out_of_range_option_is_usage_error(self, tmp_path, capsys, command, flag, value):
        # the last occurrence of an option wins, so "--samples 40000 --samples 0" reads 0
        valid = (["--samples", "40000"] if command == "moments-check"
                 else ["--out", str(tmp_path / "o")])
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(write_tiny(tmp_path)), *valid, flag, value])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_divergent_simulation_exits_numeric(self, tmp_path, capsys):
        cfg = write_tiny(tmp_path, eta=500.0, n_iters=2000)
        with np.errstate(over="ignore", invalid="ignore"):
            rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == EXIT_NUMERIC
        assert "numerical error" in capsys.readouterr().err

    @pytest.mark.parametrize("command, engine", [
        ("simulate", "mc_learning_curve"), ("analyze", "transient_mse"),
        pytest.param("simulate", None, id="simulate-address_space_limit"),
        pytest.param("analyze", None, id="analyze-address_space_limit"),
    ])
    def test_memory_error_is_one_line_with_exit_3(self, tmp_path, monkeypatch, capsys, command,
                                                   engine):
        """An allocation that fails ends in one ``error: out of memory:`` line, exit 3, no
        stdout and nothing in ``--out``: the engine's, made to raise ``MemoryError``, or,
        for real, the first experiment's at an ``n_iters`` of 2e9 in a child process under
        a 3 GB address-space limit."""
        out = tmp_path / "out"
        if engine is None:
            if sys.platform != "linux":
                pytest.skip("the address-space limit is tested on Linux")
            import resource

            text = (CONFIGS / "experiment1.cfg").read_text()
            assert text.count("n_iters = 10000") == 1
            cfg = tmp_path / "long.cfg"
            cfg.write_text(text.replace("n_iters = 10000", "n_iters = 2000000000"))
            limit = 3_000_000 * 1024
            proc = subprocess.run(
                [sys.executable, "-m", "kaflab.cli", command, "--config", str(cfg), "--out",
                 str(out)], capture_output=True, text=True, env=kaflab_env(),
                preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
            code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
        else:
            def too_large(*args, **kwargs):
                raise MemoryError("Unable to allocate 14.9 GiB for an array with shape "
                                  "(2000000000,) and data type float64")

            monkeypatch.setattr(cli, engine, too_large)
            code = main([command, "--config", str(write_tiny(tmp_path)), "--out", str(out)])
            stdout, stderr = capsys.readouterr()
        assert code == EXIT_NUMERIC
        assert stderr == ("error: out of memory: Unable to allocate 14.9 GiB for an array with "
                          "shape (2000000000,) and data type float64\n")
        assert stdout == ""
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["simulate", "analyze"])
    def test_coherence_dictionary_above_the_largest_is_refused_early(self, tmp_path, capsys,
                                                                      command):
        """A ``mu0`` that keeps more than ``MAX_DICTIONARY_SIZE`` centers (17,719 of these
        20,000 samples) is a config error once the selection holds one more, within seconds
        and before any ``gram``: one stderr line, exit 2, nothing in ``--out``."""
        from kaflab.kernel import MAX_DICTIONARY_SIZE

        text = (CONFIGS / "experiment2.cfg").read_text()
        cfg = tmp_path / "wide.cfg"
        cfg.write_text(text.replace("target_size = 31\ncalib_samples = 5000",
                                    "mu0 = 0.99999\ncalib_samples = 20000"))
        assert "mu0 = 0.99999" in cfg.read_text()
        out, start = tmp_path / "out", time.monotonic()
        assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert time.monotonic() - start < 10
        assert capsys.readouterr() == ("", (
            f"config error: [dictionary] mu0 = 0.99999 keeps more than {MAX_DICTIONARY_SIZE} "
            "centers, the largest dictionary\n"))
        assert list(out.iterdir()) == []


class TestOneCommandPath:
    """``main`` runs every command the same way: config, ``--out``, clock and counters,
    manifest and "wrote" line, at one BLAS thread."""

    SHARED = {"blas", "blas_threads", "command", "created_utc", "outputs", "package_version"}
    CONFIGURED = SHARED | {"config_path", "config_sha256", "counters", "dictionary",
                           "resolved_config", "seed", "timings"}

    def test_manifests_and_wrote_lines_keep_every_field(self, tmp_path, capsys):
        """The manifest keys and counters of each command, and its stdout line."""
        cfg, (sim, th, cmp, cx) = write_tiny(tmp_path), (tmp_path / name for name in "stmx")
        runs = {
            "simulate": (["--config", str(cfg), "--out", str(sim)], sim,
                         f"wrote {sim / 'simulated.csv'} (2 runs x 40 iterations)",
                         self.CONFIGURED | {"timings_within"},
                         {"r", "n_runs", "n_iters", "run_chunk", "kernel_values", "mc_processes",
                          "peak_rss_mb"}),
            "analyze": (["--config", str(cfg), "--out", str(th)], th,
                        f"wrote {th / 'theory.csv'}, {th / 'steady_state.txt'}, "
                        f"{th / 'stability.txt'}",
                        self.CONFIGURED | {"theory_models"},
                        {"r", "k_dim", "k_spectral_radius", "gram_condition",
                         "cross_stats_samples", "cross_stats_source", "peak_rss_mb"}),
            "compare": (["--sim", str(sim / "simulated.csv"), "--theory", str(th / "theory.csv"),
                         "--out", str(cmp)], cmp,
                        f"wrote {cmp / 'overlay.csv'}, {cmp / 'metrics.txt'}",
                        self.SHARED | {"sim_csv", "theory_csv"}, None),
            "complexity": (["--L", "2", "--r-max", "3", "--s-n", "1", "--out", str(cx)], cx,
                           f"wrote {cx / 'complexity.csv'}", self.SHARED | {"L", "r_max", "s_n"},
                           None),
        }
        for command, (argv, out, wrote, keys, counters) in runs.items():
            assert main([command, *argv]) == EXIT_OK
            assert capsys.readouterr() == (wrote + "\n", "")
            manifest = read_manifest(out, *(["moments_cache"] if command == "analyze" else []))
            assert set(manifest) == keys, command
            assert set(manifest.get("counters", {})) == (counters or set()), command
            assert manifest["blas_threads"] in (1, "unknown")
            assert set(manifest["blas"]) == {"name", "version"}

    @pytest.mark.parametrize("command", ["simulate", "analyze"])
    def test_refused_commands_leave_no_file(self, tmp_path, monkeypatch, capsys, command):
        """A config error stops before ``--out`` is made; a numerical refusal after it
        (a divergence in ``simulate``, K above its cap in ``analyze``) leaves it empty."""
        import kaflab.analysis

        monkeypatch.setattr(kaflab.analysis, "K_CAP", 15)  # the tiny grid has r^2 = 16
        out = tmp_path / "out"
        for eta, code in (("0", EXIT_CONFIG), ("500.0", EXIT_NUMERIC)):
            cfg = write_tiny(tmp_path, eta=eta, n_iters=2000)
            with np.errstate(over="ignore", invalid="ignore"):
                assert main([command, "--config", str(cfg), "--out", str(out)]) == code
            assert capsys.readouterr().out == ""
            assert not out.exists() or not any(p.is_file() for p in out.rglob("*"))
        assert out.is_dir()

    def test_refused_analyze_leaves_no_cache_record(self, tmp_path):
        """The cross statistics are recorded only once the theory is written, so a refused
        ``analyze`` leaves no record in the default cache directory (the 7 x 7 grid of
        ``TestAnalyze::test_negative_theory_is_a_numerical_error``). A cold run there
        records them, and a warm run reads them."""
        out, tiny, hits = tmp_path / "out", write_tiny(tmp_path), []
        for _ in range(2):
            assert main(["analyze", "--config", str(tiny), "--out", str(out)]) == EXIT_OK
            hits.append(read_manifest(out, "moments_cache")["dictionary"]["moments_cache_hit"])
            assert len(list((out / "moments_cache").iterdir())) == 1
        assert hits == [False, True]

    def test_analyze_seed_picks_the_coherence_calibration_stream(self, tmp_path):
        """``--seed`` is not ignored by ``analyze``: it seeds the calibration stream that a
        coherence dictionary is picked from, so ``simulate`` and ``analyze`` at one seed
        record the same dictionary, and another seed resolves another threshold."""
        text = (CONFIGS / "experiment2.cfg").read_text(encoding="utf-8")
        assert text.count("n_runs = 300") == text.count("n_iters = 10000") == 1
        cfg = tmp_path / "exp2.cfg"
        cfg.write_text(text.replace("n_runs = 300", "n_runs = 2")
                       .replace("n_iters = 10000", "n_iters = 20"), encoding="utf-8")
        picked = {}
        for seed in ("1", "2"):
            for command in ("simulate", "analyze"):
                out = tmp_path / f"{command}-{seed}"
                assert main([command, "--config", str(cfg), "--out", str(out),
                             "--seed", seed]) == EXIT_OK
                info = read_manifest(out, *(["moments_cache"] if command == "analyze"
                                            else []))["dictionary"]
                picked[command, seed] = {k: info[k] for k in ("size", "mu0", "truncated")}
        for seed in ("1", "2"):
            assert picked["simulate", seed] == picked["analyze", seed]
        assert picked["analyze", "1"]["mu0"] != picked["analyze", "2"]["mu0"]


@pytest.mark.skipif(linalg._openblas() is None, reason="no OpenBLAS is mapped: nothing pinned")
class TestOneBlasThread:
    SPY = textwrap.dedent("""
        import os, sys
        from kaflab import cli, linalg, sim
        cfg, out, seen = sys.argv[1:]
        get_threads, run_chunk = linalg._openblas()[1], sim._run_chunk

        def spy(*args):  # each process's BLAS threads while it steps its part of a chunk
            with open(seen, "a") as f:
                f.write(f"{os.getpid()} {get_threads()}\\n")
            return run_chunk(*args)

        sim._run_chunk = spy
        before = get_threads()
        codes = [cli.main([command, "--config", cfg, "--out", f"{out}/{command}"])
                 for command in ("simulate", "analyze")]
        print(before, get_threads(), codes)
    """)

    def test_bits_do_not_depend_on_the_thread_count(self, tmp_path):
        """At ``OPENBLAS_NUM_THREADS`` 1 and 2, ``simulate`` (130 runs, split in two
        processes where two CPUs are free) and ``analyze`` write the same bytes; both halves
        of the split chunk step at one thread, and the old count is back after ``main``."""
        cfg = write_tiny(tmp_path, n_iters=30)
        cfg.write_text(cfg.read_text().replace("n_runs = 2", "n_runs = 130"))
        sums = {}
        for threads in ("1", "2"):
            out, seen = tmp_path / threads, tmp_path / f"seen-{threads}"
            proc = subprocess.run([sys.executable, "-c", self.SPY, str(cfg), str(out), str(seen)],
                                  capture_output=True, text=True,
                                  env=kaflab_env(OPENBLAS_NUM_THREADS=threads))
            assert proc.returncode == 0, proc.stderr
            before, after, codes = proc.stdout.splitlines()[-1].split(maxsplit=2)
            assert before == after and codes.strip() == "[0, 0]"
            manifests = [read_manifest(out / c, *(["moments_cache"] if c == "analyze" else []))
                         for c in ("simulate", "analyze")]
            assert [m["blas_threads"] for m in manifests] == [1, 1]
            sums[threads] = [m["outputs"] for m in manifests]
            steppers = dict(line.split() for line in seen.read_text().splitlines())
            assert set(steppers.values()) == {"1"}
            processes = manifests[0]["counters"]["mc_processes"]
            assert len(steppers) == processes == (2 if len(os.sched_getaffinity(0)) > 1 else 1)
        assert sums["1"] == sums["2"]

    def test_without_openblas_nothing_is_pinned(self, tmp_path, monkeypatch):
        """With no OpenBLAS in the memory map the thread count is left as it is, the manifest
        says ``unknown``, and the outputs keep their bytes."""
        cfg = write_tiny(tmp_path)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "a")]) == EXIT_OK
        monkeypatch.setattr(linalg, "MAPS_FILE", str(tmp_path / "no-maps"))
        assert linalg._openblas() is None
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "b")]) == EXIT_OK
        pinned, unpinned = (read_manifest(tmp_path / run) for run in "ab")
        assert (pinned["blas_threads"], unpinned["blas_threads"]) == (1, "unknown")
        assert pinned["outputs"] == unpinned["outputs"]


# The keys of the shipped configs that the mutated-config property replaces, and with what:
# float keys with extreme finite, zero, negative and non-finite values (a grid bound in its
# first entry), integer keys only with values that are refused, so that no run grows.
FLOAT_KEYS = [("kernel", "sigma"), ("input", "rho"), ("input", "sigma_u"),
              ("system", "sigma_nu"), ("dictionary", "lo"), ("dictionary", "hi"),
              ("filter", "eta")]
INT_KEYS = [("dictionary", "points_per_axis"), ("dictionary", "target_size"),
            ("dictionary", "calib_samples"), ("run", "n_runs"), ("run", "n_iters"),
            ("run", "seed"), ("moments", "n_samples")]
FLOAT_TEXTS = ["1e300", "-1e300", "1e-300", "-1e-300", "1e150", "1e-150", "1e308", "-1e308", "0",
               "-0.0", "-1", "-0.25", "nan", "inf", "-inf"]
INT_TEXTS = ["0", "-1", "-300", "ten", "2.5"]


def shipped_parser(name: str) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(CONFIGS / f"{name}.cfg", encoding="utf-8")
    return parser


@st.composite
def mutated_configs(draw):
    """A shipped config's name and 1-3 of its numeric keys, each with a replacement text."""
    name = draw(st.sampled_from(["experiment1", "experiment2", "null"]))
    parser = shipped_parser(name)
    keys = draw(st.lists(st.sampled_from([k for k in FLOAT_KEYS + INT_KEYS
                                          if parser.has_option(*k)]),
                         min_size=1, max_size=3, unique=True))
    return name, {key: draw(st.sampled_from(FLOAT_TEXTS if key in FLOAT_KEYS else INT_TEXTS))
                  for key in keys}


class TestMutatedConfigs:
    """Every command ends in its artifacts or in one error line with exit 2, 3 or 4 on the
    shipped configs with numeric values replaced, at tiny run sizes, in-process. The 200
    drawn cases and the examples take about 2 s on a 2-CPU machine."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=mutated_configs())
    @example(case=("experiment1", {("kernel", "sigma"): "1e300"}))
    @example(case=("experiment1", {("kernel", "sigma"): "1e-300"}))
    @example(case=("experiment1", {("input", "sigma_u"): "1e300"}))
    @example(case=("experiment1", {("system", "sigma_nu"): "1e300"}))
    @example(case=("experiment1", {("filter", "eta"): "1e300"}))
    @example(case=("experiment1", {("dictionary", "lo"): "-1e308",
                                   ("dictionary", "hi"): "1e308"}))
    @example(case=("experiment1", {("kernel", "sigma"): "1e150"}))  # sigma^4 overflows
    def test_commands_end_in_an_exit_code(self, case):
        name, changes = case
        parser = shipped_parser(name)
        for key, most in (("n_runs", 2), ("n_iters", 20)):
            parser["run"][key] = str(min(int(parser["run"][key]), most))
        for (section, key), text in changes.items():
            if key in ("lo", "hi"):  # the first entry of the bound; the second is kept
                text = f"{text},{parser[section][key].split(',', 1)[1]}"
            parser[section][key] = text
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            cfg = tmp / "mutated.cfg"
            with open(cfg, "w", encoding="utf-8") as f:
                parser.write(f)
            for command, extra in (("simulate", []),
                                   ("analyze", ["--cache-dir", str(tmp / "cache")])):
                out = tmp / command
                code = main([command, "--config", str(cfg), "--out", str(out), *extra])
                assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERIC, EXIT_IO), (command, code)
                if code != EXIT_OK:
                    assert not out.exists() or not any(p.is_file() for p in out.rglob("*"))
            code = main(["moments-check", "--config", str(cfg), "--samples", "1000"])
            assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERIC, EXIT_IO), ("moments-check", code)


def benchmark_lookups(perfbench: Path) -> set[tuple[str, str]]:
    """The ``(module, attribute)`` pairs of kaflab that the benchmark's scripts import
    by name or read off an imported kaflab module."""
    pairs = set()
    for path in perfbench.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {}  # name bound in the script -> kaflab module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("kaflab"):
                pairs.update((node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Import):
                modules.update((alias.asname or alias.name, alias.name) for alias in node.names
                               if alias.name.startswith("kaflab."))
        pairs.update((modules[ast.unparse(node.value)], node.attr) for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute) and ast.unparse(node.value) in modules)
    return pairs


def test_names_the_benchmark_looks_up_resolve(monkeypatch):
    """Every kaflab name that perfbench/ wraps or imports exists: its tracer's ``WRAPS``,
    the private ``kaflab.sim._run_single`` it wraps besides, and the names its scripts
    import, so pruning one fails here and not only in the benchmark's self-test."""
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    monkeypatch.syspath_prepend(str(perfbench))
    tracing = importlib.import_module("tracing")
    wanted = {(module, attr) for module, attr, _, _ in tracing.WRAPS}
    wanted |= {("kaflab.sim", "_run_single")} | benchmark_lookups(perfbench)
    assert ("kaflab.sim", "experiment_stream") in wanted and ("kaflab.cli", "main") in wanted
    missing = sorted((module, attr) for module, attr in wanted
                     if not hasattr(importlib.import_module(module), attr))
    assert not missing, f"names the benchmark looks up are gone: {missing}"


def test_config_fields_the_benchmark_reads_exist():
    """Every ``cfg.<name>`` that perfbench/ reads off a loaded config is a field of
    ``ExperimentConfig``, so renaming one fails here and not only in the benchmark's
    output checks."""
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    read = {node.attr for path in perfbench.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute) and ast.unparse(node.value) == "cfg"}
    assert {"sigma", "rho", "sigma_u", "system_kind", "sigma_nu", "eta", "s_n"} <= read
    missing = sorted(read - {f.name for f in dataclasses.fields(ExperimentConfig)})
    assert not missing, f"config fields the benchmark reads are gone: {missing}"


def test_import_needs_no_scipy():
    """A fresh interpreter imports the command line without loading any scipy module."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, kaflab.cli; print(sorted(k for k in sys.modules if k.startswith('scipy')))"],
        capture_output=True, text=True, env=kaflab_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_commands_need_numpy_only(tmp_path):
    """simulate, analyze and compare run on the null config in an interpreter where
    scipy and hypothesis cannot be imported: kaflab depends on numpy alone."""
    script = textwrap.dedent("""
        import sys
        sys.modules["scipy"] = sys.modules["hypothesis"] = None
        from kaflab.cli import main
        cfg, out = sys.argv[1], sys.argv[2]
        print([main(argv) for argv in (
            ["simulate", "--config", cfg, "--out", out + "/sim"],
            ["analyze", "--config", cfg, "--out", out + "/th"],
            ["compare", "--sim", out + "/sim/simulated.csv",
             "--theory", out + "/th/theory.csv", "--out", out + "/cmp"])])
    """)
    proc = subprocess.run([sys.executable, "-c", script, str(CONFIGS / "null.cfg"),
                           str(tmp_path)], capture_output=True, text=True, env=kaflab_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0]", proc.stdout + proc.stderr


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "kaflab.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "kaflab" in proc.stdout
