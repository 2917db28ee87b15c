"""Command-line surface: artifacts, manifests, exit codes, determinism."""

import ast
import dataclasses
import importlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from conftest import CONFIGS, peak_growth_mb
from kaflab.cli import EXIT_CONFIG, EXIT_IO, EXIT_NUMERIC, EXIT_OK, compare_curves, main
from kaflab.config import ExperimentConfig, build_dictionary, build_input_model, load_config
from kaflab.kernel import GaussianKernel, kernelized_input
from kaflab.linalg import sym_index
from kaflab.moments import fourth_tensor
from kaflab.sim import SystemKind

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
    def test_manifest_records_the_engine_layers(self, tmp_path):
        """``timings_within.monte_carlo`` splits the Monte-Carlo stage into the stream
        draws, the kernel values and the steps, which together take all of it but the
        chunk sums and the curve's checks; ``counters.kernel_values`` counts the kernel
        values formed, runs x iterations x r."""
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
        assert m["counters"] == {"r": 4, "n_runs": 2, "n_iters": 40, "run_chunk": 2,
                                 "kernel_values": 2 * 40 * 4, "mc_processes": 1}
        assert set(m["timings"]) == {"dictionary", "monte_carlo", "write"}
        assert all(t >= 0 for t in m["timings"].values())
        assert set(m["outputs"]) == {"simulated.csv"}

    def test_seed_override_changes_stream(self, tmp_path):
        cfg = write_tiny(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", str(cfg), "--out", str(out1)])
        main(["simulate", "--config", str(cfg), "--out", str(out2), "--seed", "99"])
        a = read_curve(out1 / "simulated.csv")
        b = read_curve(out2 / "simulated.csv")
        assert not np.array_equal(a, b)
        assert read_manifest(out2)["seed"] == 99


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
        assert capsys.readouterr().err == \
            "error: transition matrix would have 16 rows, above the cap of 15\n"
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
            assert m["counters"]["cross_stats_source"] == "closed_form"
            assert set(m["timings"]) == {"dictionary", "moments", "spectrum", "transient",
                                         "steady_state", "write"}
            assert all(t >= 0 for t in m["timings"].values())

    def test_manifest_records_the_estimator_layers(self, tmp_path):
        """A cold run records the cross-statistics stream and kernel seconds within
        ``timings.moments``, and the samples and stream blocks it drew: 10^5 samples
        at r = 4 are 4 blocks of at most MC_WORK_BYTES // 32 = 32,768. A warm run
        draws none. The fluid-flow plant has no closed form, so a cold run draws the
        stream."""
        cfg = write_tiny(tmp_path)
        cfg.write_text(cfg.read_text().replace("n_samples = 10000", "n_samples = 100000")
                       .replace("kind = polynomial", "kind = fluid_flow"))
        cache = tmp_path / "cache"
        manifests = []
        for name in ("cold", "warm"):
            assert main(["analyze", "--config", str(cfg), "--out", str(tmp_path / name),
                         "--cache-dir", str(cache)]) == EXIT_OK
            manifests.append(read_manifest(tmp_path / name))
        cold, warm = manifests
        layers = cold["timings_within"]["moments"]
        assert set(layers) == {"cross_stats_stream", "cross_stats_kernels"}
        assert all(t > 0 for t in layers.values())
        assert sum(layers.values()) <= cold["timings"]["moments"]
        assert (cold["counters"]["cross_stats_samples"], cold["counters"]["cross_stats_blocks"]) \
            == (100_000, 4)
        assert warm["timings_within"]["moments"] == dict.fromkeys(layers, 0.0)
        assert (warm["counters"]["cross_stats_samples"], warm["counters"]["cross_stats_blocks"]) \
            == (0, 0)
        assert cold["counters"]["cross_stats_source"] == warm["counters"]["cross_stats_source"] \
            == "stream"

    def test_estimator_blocks_count_the_kernel_evaluations(self, tmp_path, monkeypatch):
        """A cold fluid-flow run records as ``cross_stats_blocks`` the number of calls
        the estimator makes to ``kernelized_input``, one per kernel sub-block."""
        import kaflab.moments

        cfg = write_tiny(tmp_path)
        cfg.write_text(cfg.read_text().replace("n_samples = 10000", "n_samples = 250000")
                       .replace("kind = polynomial", "kind = fluid_flow"))
        calls = []

        def counted(*args, **kwargs):
            calls.append(len(args[2]))
            return kernelized_input(*args, **kwargs)

        monkeypatch.setattr(kaflab.moments, "kernelized_input", counted)
        assert main(["analyze", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_OK
        counters = read_manifest(tmp_path / "out", "moments_cache")["counters"]
        assert sum(calls) == counters["cross_stats_samples"] == 250_000
        assert counters["cross_stats_blocks"] == len(calls) == 10

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
        rounding drives the transient curve below zero. That is one ``numerical error``
        line naming the step, the value and K's spectral radius, and no artifact."""
        text = (CONFIGS / "experiment1.cfg").read_text()
        assert "points_per_axis = 5" in text
        cfg = tmp_path / "grid7.cfg"
        cfg.write_text(text.replace("points_per_axis = 5", "points_per_axis = 7"))
        out = tmp_path / "out"
        assert main(["analyze", "--config", str(cfg), "--out", str(out)]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.startswith("numerical error: transient curve is negative at step ")
        assert err.count("\n") == 1 and "spectral radius" in err
        assert [p.name for p in out.iterdir()] == ["moments_cache"]

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

    @pytest.mark.parametrize("damage", ["truncate", "foreign"])
    def test_damaged_cache_is_a_miss(self, tmp_path, damage):
        cfg = write_tiny(tmp_path)
        cache = tmp_path / "cache"
        first, second = tmp_path / "a", tmp_path / "b"
        assert main(["analyze", "--config", str(cfg), "--out", str(first),
                     "--cache-dir", str(cache)]) == EXIT_OK
        (record,) = cache.iterdir()
        if damage == "truncate":
            record.write_bytes(record.read_bytes()[: record.stat().st_size // 2])
        else:
            record.write_text("n,mse\n0,1.0\n")
        assert main(["analyze", "--config", str(cfg), "--out", str(second),
                     "--cache-dir", str(cache)]) == EXIT_OK
        manifest = read_manifest(second)
        assert manifest["dictionary"]["moments_cache_hit"] is False
        for name in ("theory.csv", "steady_state.txt", "stability.txt"):
            assert (first / name).read_bytes() == (second / name).read_bytes()
        # the miss rewrote a whole record, which the next run reads
        third = tmp_path / "c"
        assert main(["analyze", "--config", str(cfg), "--out", str(third),
                     "--cache-dir", str(cache)]) == EXIT_OK
        manifest = read_manifest(third)
        assert manifest["dictionary"]["moments_cache_hit"] is True

    def test_cache_key_separates_seed_from_sample_count(self):
        import dataclasses

        from kaflab.config import (
            build_dictionary, build_input_model, load_config, moments_cache_key,
        )

        # a fluid-flow record depends on both the seed and the sample count
        cfg = dataclasses.replace(load_config(CONFIGS / "null.cfg"),
                                  system_kind=SystemKind.FLUID_FLOW)
        d, _ = build_dictionary(cfg)
        im = build_input_model(cfg)
        a = dataclasses.replace(cfg, seed=12, n_moment_samples=10_000)
        b = dataclasses.replace(cfg, seed=1, n_moment_samples=210_000)
        assert moments_cache_key(a, d, im) != moments_cache_key(b, d, im)
        # a closed-form record depends on neither
        for kind in (SystemKind.NULL, SystemKind.POLYNOMIAL):
            a, b = (dataclasses.replace(c, system_kind=kind) for c in (a, b))
            assert moments_cache_key(a, d, im) == moments_cache_key(b, d, im)

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
        from kaflab.sim import InputGenerator, SystemSimulator

        cfg = load_config(cfg_path)
        d, _ = build_dictionary(cfg)
        assert d.size == 1
        im = build_input_model(cfg)
        kern = GaussianKernel(cfg.sigma)
        r_t = second_moment(d, kern, im)[0, 0]  # G = [[1]], so no transform
        s_t = fourth_tensor(d, kern, im)[0, 0]
        stats = estimate_cross_stats(
            SystemSimulator(kind=cfg.system_kind, noise_sigma=cfg.sigma_nu),
            InputGenerator(rho=cfg.rho, sigma_u=cfg.sigma_u),
            d, kern, cfg.n_moment_samples, cfg.seed,
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

    @pytest.mark.parametrize("text", ["n,mse\n", "mse\n1.0\n2.0\n", "n,mse\n0,1.0\n1,0.00326"],
                             ids=["header_only", "one_column", "torn_last_row"])
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

    def test_closed_fourth_moments_are_the_block_entries(self, monkeypatch, capsys):
        """The closed fourth moments it prints are ``fourth_tensor``'s block entries bit
        for bit, though only the drawn entries are evaluated."""
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
        block = fourth_tensor(d, GaussianKernel(cfg.sigma), build_input_model(cfg))
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
    import kaflab

    src = str(Path(kaflab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, kaflab.cli; print(sorted(k for k in sys.modules if k.startswith('scipy')))"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_commands_need_numpy_only(tmp_path):
    """simulate, analyze and compare run on the null config in an interpreter where
    scipy and hypothesis cannot be imported: kaflab depends on numpy alone."""
    import kaflab

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
    src = str(Path(kaflab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script, str(CONFIGS / "null.cfg"),
                           str(tmp_path)], capture_output=True, text=True, env=env)
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
