"""Experiment configuration files: flat ``key = value`` sections (INI).

A config fully describes one experiment: kernel width, input process, plant,
dictionary recipe, filter, run sizes and the master seed. ``load_config``
validates everything up front and reports offending section/key (or the parse
error's line number); the build helpers turn a config into the concrete
objects the library works with.
"""

from __future__ import annotations

import configparser
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, KaflabError
from .kernel import (
    MAX_DICTIONARY_SIZE,
    Dictionary,
    GaussianKernel,
    coherence_select,
    coherence_threshold_for_size,
    gram,
    grid_dictionary,
)
from .moments import InputModel
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

    def __init__(self, parser: configparser.ConfigParser, name: str, required: bool = True):
        if required and not parser.has_section(name):
            raise ConfigError(f"missing required section [{name}]")
        self.name = name
        self.sec = parser[name] if parser.has_section(name) else {}
        self.read: set[str] = set()  # keys asked for, present or not

    def get(self, key: str, cast, must=None, required: bool = True, default=None):
        """``cast`` of the key's text, or ``default`` if an optional key is absent.

        ``must``, a ``(test, text)`` rule such as :data:`_POSITIVE`, is checked at once
        (:meth:`check`).
        """
        self.read.add(key)
        if key not in self.sec:
            if required:
                raise ConfigError(f"missing required key {key!r} in section [{self.name}]")
            value = default
        else:
            raw = self.sec[key].strip()
            try:
                value = cast(raw)
            except (ValueError, TypeError) as exc:
                raise ConfigError(
                    f"invalid value for [{self.name}] {key} = {raw!r}: {exc}"
                ) from exc
        if must:
            self.check(key, value, must)
        return value

    def check(self, key: str, value, must) -> None:
        """``[section] key must <text>`` unless ``value`` is None or passes ``test``."""
        test, text = must
        _require(value is None or test(value), f"[{self.name}] {key} must {text}")

    def kind(self, enum):
        """The member of ``enum`` named by the section's ``kind`` key."""
        raw = self.get("kind", str)
        try:
            return enum(raw)
        except ValueError:
            raise ConfigError(
                f"[{self.name}] kind must be one of {[k.value for k in enum]}, got {raw!r}"
            ) from None


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("must be a finite number")
    return value


def _floats(text: str) -> tuple[float, ...]:
    return tuple(_finite_float(t) for t in text.split(","))


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _normal(x: float) -> bool:  # a finite normal double: no overflow, no underflow
    return sys.float_info.min <= abs(x) <= sys.float_info.max


# Range rules of single keys, as (test, the text after "[section] key must"); the last three
# test the powers and reciprocals that the theory forms, none of which may overflow.
_POSITIVE = (lambda v: v > 0, "be positive")
_NONNEGATIVE = (lambda v: v >= 0, "be nonnegative")
_AT_LEAST_1 = (lambda v: v >= 1, "be >= 1")
_AT_MOST_R = (lambda v: v <= MAX_DICTIONARY_SIZE,
              f"be <= {MAX_DICTIONARY_SIZE}, the largest dictionary")
_NORMAL_SQUARE = (lambda v: _normal(v * v), "keep its square finite and normal")
_NORMAL_WIDTH = (lambda v: _normal(v * v) and _normal(0.5 / (v * v)),
                 "keep sigma^2 and 1/(2 sigma^2) finite and normal")
_NORMAL_FOURTH = (lambda v: _normal((v * v) * (v * v)), "keep sigma^4 finite and normal")


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
    moments = _Section(parser, "moments", required=False)

    sigma = kernel.get("sigma", _finite_float, _POSITIVE)
    kernel.check("sigma", sigma, _NORMAL_WIDTH)
    kernel.check("sigma", sigma, _NORMAL_FOURTH)
    rho = inp.get("rho", _finite_float, (lambda v: 0 <= v < 1, "lie in [0, 1)"))
    sigma_u = inp.get("sigma_u", _finite_float, _POSITIVE)
    inp.check("sigma_u", sigma_u, _NORMAL_SQUARE)
    system_kind = system.kind(SystemKind)
    sigma_nu = system.get("sigma_nu", _finite_float, _NONNEGATIVE)
    system.check("sigma_nu", sigma_nu,
                 (lambda v: v == 0 or _normal(v * v), "be 0 or keep its square finite and normal"))

    dictionary_kind = dic.get("kind", str)
    grid_lo = grid_hi = None
    points_per_axis = mu0 = target_size = None
    calib_samples = DEFAULT_CALIBRATION_SAMPLES
    # Keys read together are cast before any of their range rules is checked.
    if dictionary_kind == "grid":
        grid_lo = dic.get("lo", _floats)
        grid_hi = dic.get("hi", _floats)
        points_per_axis = dic.get("points_per_axis", int)
        _require(len(grid_lo) == len(grid_hi), "[dictionary] lo and hi lengths differ")
        _require(len(grid_lo) == 2, f"[dictionary] lo and hi must hold 2 entries, the input "
                                    f"embedding length, got {len(grid_lo)}")
        _require(all(h > l for l, h in zip(grid_lo, grid_hi)),
                 "[dictionary] hi must exceed lo elementwise")
        dic.check("points_per_axis", points_per_axis, _AT_LEAST_1)
        _require(points_per_axis == 1 or all(_normal((h - l) / (points_per_axis - 1))
                                             for l, h in zip(grid_lo, grid_hi)),
                 "[dictionary] lo and hi must be a finite normal spacing "
                 "(hi - lo)/(points_per_axis - 1) apart on each axis")
        # the largest squared norm of a sum of four centers, as the fourth moments form it
        far = sum((4 * max(-l, h)) * (4 * max(-l, h)) for l, h in zip(grid_lo, grid_hi))
        _require(_normal(far) and _normal(far / (2 * sigma * sigma)),
                 "[dictionary] lo and hi must keep the squared norm of a sum of four centers, "
                 "and that over 2 sigma^2, finite and normal")
    elif dictionary_kind == "coherence":
        mu0 = dic.get("mu0", _finite_float, required=False)
        target_size = dic.get("target_size", int, required=False)
        calib_samples = dic.get("calib_samples", int, required=False,
                                default=DEFAULT_CALIBRATION_SAMPLES)
        _require((mu0 is None) != (target_size is None),
                 "[dictionary] coherence needs exactly one of mu0 or target_size")
        dic.check("mu0", mu0, (lambda v: 0 < v < 1, "lie in (0, 1)"))
        dic.check("target_size", target_size, _AT_LEAST_1)
        dic.check("target_size", target_size, _AT_MOST_R)
        dic.check("calib_samples", calib_samples, (lambda v: v >= 2, "be >= 2"))
    else:
        raise ConfigError(
            f"[dictionary] kind must be 'grid' or 'coherence', got {dictionary_kind!r}"
        )

    filter_kind = filt.kind(FilterKind)
    eta = filt.get("eta", _finite_float, _POSITIVE)
    filt.check("eta", eta, _NORMAL_SQUARE)
    s_n = filt.get("s_n", int, _AT_LEAST_1, required=False, default=1)
    eps_reg = filt.get("eps_reg", _finite_float, _POSITIVE, required=False, default=1e-2)

    n_runs, n_iters, seed = (run.get(key, int) for key in ("n_runs", "n_iters", "seed"))
    run.check("n_runs", n_runs, _AT_LEAST_1)
    run.check("n_iters", n_iters, _AT_LEAST_1)
    run.check("seed", seed, _NONNEGATIVE)

    n_moment_samples = moments.get("n_samples", int, (lambda v: v >= 10_000, "be >= 10^4"),
                                   required=False, default=1_000_000)

    read = {sec.name: sec.read for sec in (kernel, inp, system, dic, filt, run, moments)}
    for name in parser.sections():
        _require(name in read, f"unknown section [{name}]")
        for key in parser[name]:
            _require(key in read[name], f"[{name}] {key} is unknown or unused by the chosen kinds")

    echo = {s: dict(parser[s]) for s in parser.sections()}
    return ExperimentConfig(
        sigma=sigma, rho=rho, sigma_u=sigma_u, system_kind=system_kind, sigma_nu=sigma_nu,
        dictionary_kind=dictionary_kind, grid_lo=grid_lo, grid_hi=grid_hi,
        points_per_axis=points_per_axis, mu0=mu0, target_size=target_size,
        calib_samples=calib_samples, filter_kind=filter_kind, eta=eta, s_n=s_n,
        eps_reg=eps_reg, n_runs=n_runs, n_iters=n_iters, seed=seed,
        n_moment_samples=n_moment_samples, path=str(path), echo=echo,
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
    past the target so that only the first ``target_size`` centers were kept. A ``mu0``
    keeping more than ``MAX_DICTIONARY_SIZE`` centers is a :class:`ConfigError`.
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
        mu0, truncated = cfg.mu0, False
        d = coherence_select(samples, kern, mu0, stop_after=MAX_DICTIONARY_SIZE + 1)
        _require(d.size <= MAX_DICTIONARY_SIZE, f"[dictionary] mu0 = {mu0} keeps more than "
                 f"{MAX_DICTIONARY_SIZE} centers, the largest dictionary")
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

