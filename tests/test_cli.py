"""Command-line surface: artifacts, manifests, exit codes, determinism."""

import json
import subprocess
import sys

import numpy as np
import pytest

from conftest import CONFIGS
from kaflab.cli import EXIT_CONFIG, EXIT_IO, EXIT_NUMERIC, EXIT_OK, compare_curves, main

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


class TestSimulate:
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
        manifest = json.loads((out / "manifest.json").read_text())
        assert "simulated.csv" in manifest["outputs"]
        assert manifest["seed"] == 5
        assert manifest["resolved_config"]["filter"]["eta"] == "0.075"

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_tiny(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", str(cfg), "--out", str(out1)])
        main(["simulate", "--config", str(cfg), "--out", str(out2)])
        assert (out1 / "simulated.csv").read_bytes() == (out2 / "simulated.csv").read_bytes()
        m1 = json.loads((out1 / "manifest.json").read_text())
        m2 = json.loads((out2 / "manifest.json").read_text())
        assert m1["outputs"] == m2["outputs"]

    def test_seed_override_changes_stream(self, tmp_path):
        cfg = write_tiny(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", str(cfg), "--out", str(out1)])
        main(["simulate", "--config", str(cfg), "--out", str(out2), "--seed", "99"])
        a = read_curve(out1 / "simulated.csv")
        b = read_curve(out2 / "simulated.csv")
        assert not np.array_equal(a, b)
        assert json.loads((out2 / "manifest.json").read_text())["seed"] == 99


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

    def test_moments_cache_round_trip(self, tmp_path):
        cfg = write_tiny(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cache = tmp_path / "cache"
        main(["analyze", "--config", str(cfg), "--out", str(out1),
              "--cache-dir", str(cache)])
        m1 = json.loads((out1 / "manifest.json").read_text())
        assert m1["dictionary"]["moments_cache_hit"] is False
        (record,) = cache.iterdir()  # one small record, no leftover temporary file
        assert record.name.startswith("cross_stats_") and record.suffix == ".json"
        assert record.stat().st_size < 10_000
        main(["analyze", "--config", str(cfg), "--out", str(out2),
              "--cache-dir", str(cache)])
        m2 = json.loads((out2 / "manifest.json").read_text())
        assert m2["dictionary"]["moments_cache_hit"] is True
        assert (out1 / "theory.csv").read_bytes() == (out2 / "theory.csv").read_bytes()

    def test_manifest_records_counters_and_timings(self, tmp_path):
        cfg = write_tiny(tmp_path)
        cache = tmp_path / "cache"
        manifests = []
        for name in ("cold", "warm"):
            assert main(["analyze", "--config", str(cfg), "--out", str(tmp_path / name),
                         "--cache-dir", str(cache)]) == EXIT_OK
            manifests.append(json.loads((tmp_path / name / "manifest.json").read_text()))
        cold, warm = manifests
        assert cold["outputs"] == warm["outputs"]
        for m in manifests:
            assert m["counters"]["r"] == 4
            assert m["counters"]["k_dim"] == 10
            stability = dict(line.split(" = ") for line in
                             (tmp_path / "cold" / "stability.txt").read_text().splitlines())
            assert m["counters"]["k_spectral_radius"] == float(stability["k_spectral_radius"])
            assert set(m["timings"]) == {"dictionary", "moments", "spectrum", "transient",
                                         "steady_state", "write"}
            assert all(t >= 0 for t in m["timings"].values())

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
        manifest = json.loads((second / "manifest.json").read_text())
        assert manifest["dictionary"]["moments_cache_hit"] is False
        for name in ("theory.csv", "steady_state.txt", "stability.txt"):
            assert (first / name).read_bytes() == (second / name).read_bytes()
        # the miss rewrote a whole record, which the next run reads
        third = tmp_path / "c"
        assert main(["analyze", "--config", str(cfg), "--out", str(third),
                     "--cache-dir", str(cache)]) == EXIT_OK
        manifest = json.loads((third / "manifest.json").read_text())
        assert manifest["dictionary"]["moments_cache_hit"] is True

    def test_cache_key_separates_seed_from_sample_count(self):
        import dataclasses

        from kaflab.config import (
            build_dictionary, build_input_model, load_config, moments_cache_key,
        )

        cfg = load_config(CONFIGS / "null.cfg")
        d, _ = build_dictionary(cfg)
        im = build_input_model(cfg)
        a = dataclasses.replace(cfg, seed=12, n_moment_samples=10_000)
        b = dataclasses.replace(cfg, seed=1, n_moment_samples=210_000)
        assert moments_cache_key(a, d, im) != moments_cache_key(b, d, im)

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
        s_t = fourth_tensor(d, kern, im)[0, 0, 0, 0]
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
        metrics = dict(
            line.split(" = ") for line in
            (cmp_out / "metrics.txt").read_text().splitlines()
        )
        assert float(metrics["steady_band_rel_error"]) == 0.0
        assert float(metrics["max_log10_gap"]) == 0.0
        assert float(metrics["max_log10_gap_smoothed"]) == 0.0
        overlay = np.loadtxt(cmp_out / "overlay.csv", delimiter=",", skiprows=1)
        assert np.array_equal(overlay[:, 1], overlay[:, 2])

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

    @pytest.mark.parametrize("text", ["n,mse\n", "mse\n1.0\n2.0\n"],
                             ids=["header_only", "one_column"])
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

    def test_compare_curves_metrics(self):
        sim = np.full(100, 2.0)
        theory = np.full(100, 1.0)
        metrics = compare_curves(sim, theory, smooth_window=5)
        assert metrics["steady_band_rel_error"] == pytest.approx(1.0)
        assert metrics["max_log10_gap"] == pytest.approx(np.log10(2.0))

    def test_converged_transient_vs_fixed_point_constant(self, toy_model):
        # comparing a converged theoretical curve against its own fixed-point
        # level leaves only the recursion-vs-solve residual
        from kaflab.analysis import steady_state_mse, transient_mse

        mse_inf, _ = steady_state_mse(toy_model, 0.3)
        curve = transient_mse(toy_model, 0.3, 20_000, check_stability=False)
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

    def test_detects_corrupted_kernel_width(self, tmp_path, capsys):
        cfg = write_tiny(tmp_path, seed=17)
        rc = main(["moments-check", "--config", str(cfg), "--samples", "40000",
                   "--fourth-entries", "3", "--mc-sigma-scale", "1.1"])
        out = capsys.readouterr().out
        assert rc == EXIT_NUMERIC
        assert "FAIL" in out


class TestComplexity:
    def test_reference_row(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["complexity", "--L", "2", "--r-max", "25", "--s-n", "1",
                   "--out", str(out)])
        assert rc == EXIT_OK
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

    def test_divergent_simulation_exits_numeric(self, tmp_path, capsys):
        cfg = write_tiny(tmp_path, eta=500.0, n_iters=2000)
        with np.errstate(over="ignore", invalid="ignore"):
            rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == EXIT_NUMERIC
        assert "numerical error" in capsys.readouterr().err


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "kaflab.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "kaflab" in proc.stdout
