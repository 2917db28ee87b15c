"""Experiment configuration files: flat ``key = value`` sections (INI).

A config fully describes one experiment: kernel width, input process, plant,
dictionary recipe, filter, run sizes and the master seed. ``load_config``
validates everything up front and reports offending section/key (or the parse
error's line number); the build helpers turn a config into the concrete
objects the library works with.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, KaflabError
from .kernel import (
    Dictionary,
    GaussianKernel,
    coherence_select,
    coherence_threshold_for_size,
    gram,
    grid_dictionary,
)
from .moments import (CROSS_STATS_BURN_IN, CROSS_STATS_FORMAT_VERSION, InputModel,
                      has_closed_form)
from .sim import (
    CALIBRATION_SALT,
    ExperimentSetup,
    FilterKind,
    InputGenerator,
    SystemKind,
    SystemSimulator,
    ar1_stream,
    embed_input,
    stationary_covariance,
)

DEFAULT_CALIBRATION_SAMPLES = 5000


@dataclass(frozen=True)
class ExperimentConfig:
    """Typed view of one configuration file."""

    sigma: float
    rho: float
    sigma_u: float
    system_kind: SystemKind
    sigma_nu: float
    dictionary_kind: str  # "grid" | "coherence"
    grid_lo: tuple[float, ...] | None
    grid_hi: tuple[float, ...] | None
    points_per_axis: int | None
    mu0: float | None
    target_size: int | None
    calib_samples: int
    filter_kind: FilterKind
    eta: float
    s_n: int
    eps_reg: float
    n_runs: int
    n_iters: int
    seed: int
    n_moment_samples: int
    path: str = ""
    echo: dict = field(default_factory=dict, compare=False)


class _Section:
    """Typed accessors over one config section with uniform error reporting."""

    def __init__(self, parser: configparser.ConfigParser, name: str):
        if not parser.has_section(name):
            raise ConfigError(f"missing required section [{name}]")
        self.name = name
        self.sec = parser[name]
        self.read: set[str] = set()  # keys asked for, present or not

    def _get(self, key: str, cast, required: bool = True, default=None):
        self.read.add(key)
        if key not in self.sec:
            if required:
                raise ConfigError(f"missing required key {key!r} in section [{self.name}]")
            return default
        raw = self.sec[key].strip()
        try:
            return cast(raw)
        except (ValueError, TypeError) as exc:
            raise ConfigError(
                f"invalid value for [{self.name}] {key} = {raw!r}: {exc}"
            ) from exc

    def floatv(self, key, **kw):
        return self._get(key, _finite_float, **kw)

    def intv(self, key, **kw):
        return self._get(key, int, **kw)

    def strv(self, key, **kw):
        return self._get(key, str, **kw)

    def floats(self, key, **kw):
        return self._get(key, lambda s: tuple(_finite_float(t) for t in s.split(",")), **kw)


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("must be a finite number")
    return value


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def load_config(path) -> ExperimentConfig:
    """Parse and validate a configuration file.

    A section or key that the chosen kinds do not read is an error, so that a
    misspelt name is not silently replaced by its default.
    """
    path = Path(path)
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as f:
            parser.read_file(f, source=str(path))
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text: {exc}") from exc
    except configparser.Error as exc:
        # configparser errors carry line numbers in their message
        raise ConfigError(f"config parse error: {exc}") from exc

    kernel = _Section(parser, "kernel")
    inp = _Section(parser, "input")
    system = _Section(parser, "system")
    dic = _Section(parser, "dictionary")
    filt = _Section(parser, "filter")
    run = _Section(parser, "run")
    moments = _Section(parser, "moments") if parser.has_section("moments") else None

    sigma = kernel.floatv("sigma")
    _require(sigma > 0, "[kernel] sigma must be positive")
    rho = inp.floatv("rho")
    _require(0 <= rho < 1, "[input] rho must lie in [0, 1)")
    sigma_u = inp.floatv("sigma_u")
    _require(sigma_u > 0, "[input] sigma_u must be positive")

    kind_raw = system.strv("kind")
    try:
        system_kind = SystemKind(kind_raw)
    except ValueError:
        raise ConfigError(
            f"[system] kind must be one of "
            f"{[k.value for k in SystemKind]}, got {kind_raw!r}"
        ) from None
    sigma_nu = system.floatv("sigma_nu")
    _require(sigma_nu >= 0, "[system] sigma_nu must be nonnegative")

    dictionary_kind = dic.strv("kind")
    grid_lo = grid_hi = None
    points_per_axis = mu0 = target_size = None
    calib_samples = DEFAULT_CALIBRATION_SAMPLES
    if dictionary_kind == "grid":
        grid_lo = dic.floats("lo")
        grid_hi = dic.floats("hi")
        points_per_axis = dic.intv("points_per_axis")
        _require(len(grid_lo) == len(grid_hi), "[dictionary] lo and hi lengths differ")
        _require(len(grid_lo) == 2, f"[dictionary] lo and hi must hold 2 entries, the input "
                                    f"embedding length, got {len(grid_lo)}")
        _require(
            all(h > l for l, h in zip(grid_lo, grid_hi)),
            "[dictionary] hi must exceed lo elementwise",
        )
        _require(points_per_axis >= 1, "[dictionary] points_per_axis must be >= 1")
    elif dictionary_kind == "coherence":
        mu0 = dic.floatv("mu0", required=False)
        target_size = dic.intv("target_size", required=False)
        calib_samples = dic.intv(
            "calib_samples", required=False, default=DEFAULT_CALIBRATION_SAMPLES
        )
        _require(
            (mu0 is None) != (target_size is None),
            "[dictionary] coherence needs exactly one of mu0 or target_size",
        )
        if mu0 is not None:
            _require(0 < mu0 < 1, "[dictionary] mu0 must lie in (0, 1)")
        if target_size is not None:
            _require(target_size >= 1, "[dictionary] target_size must be >= 1")
        _require(calib_samples >= 2, "[dictionary] calib_samples must be >= 2")
    else:
        raise ConfigError(
            f"[dictionary] kind must be 'grid' or 'coherence', got {dictionary_kind!r}"
        )

    fkind_raw = filt.strv("kind")
    try:
        filter_kind = FilterKind(fkind_raw)
    except ValueError:
        raise ConfigError(
            f"[filter] kind must be one of "
            f"{[k.value for k in FilterKind]}, got {fkind_raw!r}"
        ) from None
    eta = filt.floatv("eta")
    _require(eta > 0, "[filter] eta must be positive")
    s_n = filt.intv("s_n", required=False, default=1)
    _require(s_n >= 1, "[filter] s_n must be >= 1")
    eps_reg = filt.floatv("eps_reg", required=False, default=1e-2)
    _require(eps_reg > 0, "[filter] eps_reg must be positive")

    n_runs = run.intv("n_runs")
    n_iters = run.intv("n_iters")
    seed = run.intv("seed")
    _require(n_runs >= 1, "[run] n_runs must be >= 1")
    _require(n_iters >= 1, "[run] n_iters must be >= 1")
    _require(seed >= 0, "[run] seed must be nonnegative")

    n_moment_samples = (
        moments.intv("n_samples", required=False, default=1_000_000)
        if moments
        else 1_000_000
    )
    _require(n_moment_samples >= 10_000, "[moments] n_samples must be >= 10^4")

    read = {sec.name: sec.read for sec in (kernel, inp, system, dic, filt, run, moments) if sec}
    for name in parser.sections():
        _require(name in read, f"unknown section [{name}]")
        for key in parser[name]:
            _require(key in read[name], f"[{name}] {key} is unknown or unused by the chosen kinds")

    echo = {s: dict(parser[s]) for s in parser.sections()}
    return ExperimentConfig(
        sigma=sigma,
        rho=rho,
        sigma_u=sigma_u,
        system_kind=system_kind,
        sigma_nu=sigma_nu,
        dictionary_kind=dictionary_kind,
        grid_lo=grid_lo,
        grid_hi=grid_hi,
        points_per_axis=points_per_axis,
        mu0=mu0,
        target_size=target_size,
        calib_samples=calib_samples,
        filter_kind=filter_kind,
        eta=eta,
        s_n=s_n,
        eps_reg=eps_reg,
        n_runs=n_runs,
        n_iters=n_iters,
        seed=seed,
        n_moment_samples=n_moment_samples,
        path=str(path),
        echo=echo,
    )


def calibration_samples(cfg: ExperimentConfig) -> np.ndarray:
    """Pregenerated embedded input stream used to pick coherence centers."""
    gen = InputGenerator(rho=cfg.rho, sigma_u=cfg.sigma_u)
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=(cfg.seed, CALIBRATION_SALT, 0))
    )
    return embed_input(ar1_stream(gen, cfg.calib_samples + 1, rng))


def build_dictionary(cfg: ExperimentConfig) -> tuple[Dictionary, dict]:
    """Materialize the configured dictionary; returns it plus resolution info.

    For a coherence dictionary with ``target_size``, the threshold is found by
    bisection over a fixed pregenerated input stream; the resolved value is
    reported in the info dict, and ``truncated`` says whether the size jumped
    past the target so that only the first ``target_size`` centers were kept.
    """
    kern = GaussianKernel(cfg.sigma)
    if cfg.dictionary_kind == "grid":
        try:
            d = grid_dictionary(cfg.grid_lo, cfg.grid_hi, cfg.points_per_axis)
        except (ValueError, KaflabError) as exc:
            raise ConfigError(f"invalid grid dictionary: {exc}") from exc
        return d, {"kind": "grid", "size": d.size}
    samples = calibration_samples(cfg)
    if cfg.mu0 is not None:
        mu0, d, truncated = cfg.mu0, coherence_select(samples, kern, cfg.mu0), False
    else:
        try:
            mu0, d, truncated = coherence_threshold_for_size(samples, kern, cfg.target_size)
        except KaflabError as exc:
            raise ConfigError(f"coherence calibration failed: {exc}") from exc
    return d, {"kind": "coherence", "size": d.size, "mu0": mu0,
               "calib_samples": cfg.calib_samples, "truncated": truncated}


def build_input_model(cfg: ExperimentConfig) -> InputModel:
    return InputModel(stationary_covariance(cfg.rho, cfg.sigma_u, L=2))


def build_system(cfg: ExperimentConfig) -> SystemSimulator:
    return SystemSimulator(kind=cfg.system_kind, noise_sigma=cfg.sigma_nu)


def build_setup(cfg: ExperimentConfig, d: Dictionary) -> ExperimentSetup:
    """The frozen Monte-Carlo bundle over ``d``, whose size bounds a selective ``s_n``."""
    _require(cfg.filter_kind is not FilterKind.SELECTIVE or cfg.s_n <= d.size,
             f"[filter] s_n = {cfg.s_n} exceeds the dictionary size r = {d.size}")
    kern = GaussianKernel(cfg.sigma)
    return ExperimentSetup(
        kernel=kern,
        dictionary=d,
        gram=gram(d, kern),
        input_gen=InputGenerator(rho=cfg.rho, sigma_u=cfg.sigma_u),
        system=build_system(cfg),
        filter_kind=cfg.filter_kind,
        eta=cfg.eta,
        s_n=cfg.s_n,
        eps_reg=cfg.eps_reg,
    )


def moments_cache_key(cfg: ExperimentConfig, d: Dictionary, im: InputModel) -> str:
    """Content hash identifying a cached cross-statistics record.

    Keyed by everything the record depends on: its format version, the
    dictionary, kernel width and input covariance, and the plant, noise
    level, seed, sample count and burn-in of the estimation stream. A plant
    with closed-form cross statistics draws no stream, so its key leaves the
    last three out, and runs that differ only in them share one record.
    """
    h = hashlib.sha256()
    h.update(f"cross-stats-v{CROSS_STATS_FORMAT_VERSION}".encode())
    h.update(d.centers.tobytes())
    h.update(np.float64(cfg.sigma).tobytes())
    h.update(im.r_u.tobytes())
    h.update(cfg.system_kind.value.encode())
    h.update(np.float64(cfg.sigma_nu).tobytes())
    if not has_closed_form(build_system(cfg)):
        # separated, so that seed 12 with 10^4 samples and seed 1 with 210,000 differ
        h.update(f"{cfg.seed},{cfg.n_moment_samples},{CROSS_STATS_BURN_IN}".encode())
    return h.hexdigest()[:16]
