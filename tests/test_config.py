"""Config loading at the boundary: mutated config text is either a config or a
:class:`ConfigError`, never any other exception."""

import importlib
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CONFIGS
from kaflab.cli import main
from kaflab.config import load_config
from kaflab.errors import ConfigError

# Deterministic examples, no example database on disk.
FUZZ = settings(max_examples=300, deadline=None, derandomize=True, database=None)

BASE = (CONFIGS / "null.cfg").read_bytes()
LINES = BASE.decode("utf-8").splitlines(keepends=True)
VALUE_LINES = [n for n, line in enumerate(LINES) if " = " in line]

# Text a file can hold: any code point but the lone surrogates UTF-8 cannot encode.
TEXT = st.text(st.characters(exclude_categories=("Cs",)), max_size=20)


@st.composite
def replaced_value(draw):
    """One ``key = value`` line with its value replaced by arbitrary text."""
    lines = list(LINES)
    n = draw(st.sampled_from(VALUE_LINES))
    key = lines[n].split(" = ", 1)[0]
    lines[n] = f"{key} = {draw(TEXT)}\n"
    return "".join(lines).encode("utf-8")


@st.composite
def edited_lines(draw):
    """Some lines deleted and some duplicated in place."""
    ops = draw(st.lists(st.sampled_from(["keep", "delete", "duplicate"]),
                        min_size=len(LINES), max_size=len(LINES)))
    counts = {"keep": 1, "delete": 0, "duplicate": 2}
    return "".join(line * counts[op] for line, op in zip(LINES, ops)).encode("utf-8")


@st.composite
def injected_bytes(draw):
    """Arbitrary bytes inserted at one position of the file."""
    at = draw(st.integers(0, len(BASE)))
    return BASE[:at] + draw(st.binary(min_size=1, max_size=8)) + BASE[at:]


@FUZZ
@given(st.one_of(replaced_value(), edited_lines(), injected_bytes()))
def test_mutated_config_loads_or_raises_config_error(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzzed.cfg"
        path.write_bytes(data)
        try:
            load_config(path)
        except ConfigError:
            pass



UNREAD_NAMES = [  # (text of null.cfg, its replacement, the name the error gives)
    ("n_samples = 10000", "n_sample = 10000", "[moments] n_sample"),
    ("[moments]", "[moment]", "[moment]"),
    ("points_per_axis = 2", "points_per_axis = 2\nmu0 = 0.5", "[dictionary] mu0"),
    ("[run]", "[plotting]\nwidth = 3\n\n[run]", "[plotting]"),
]


def test_only_names_the_chosen_kinds_read_are_accepted(tmp_path, monkeypatch):
    """A section or key the chosen kinds do not read is refused, not replaced by its
    default (``[moments] n_sample = 10000`` used to leave the sample count at 10^6),
    while every shipped config and every config the benchmark writes from them loads."""
    for path in sorted(CONFIGS.glob("*.cfg")):
        load_config(path)
    monkeypatch.syspath_prepend(str(CONFIGS.parent / "perfbench"))
    workloads = importlib.import_module("workloads")
    for w in workloads.WORKLOADS.values():
        for overrides in (w.overrides, workloads.one_run_overrides(w)):
            load_config(workloads.write_config(CONFIGS / w.base, overrides, 1,
                                               tmp_path / f"{w.name}.cfg"))
    text = BASE.decode("utf-8")
    for old, new, named in UNREAD_NAMES:
        assert old in text
        path = tmp_path / "edited.cfg"
        path.write_text(text.replace(old, new), encoding="utf-8")
        with pytest.raises(ConfigError, match=re.escape(named)):
            load_config(path)


FAR_GRID = ("[dictionary] lo and hi must keep the squared norm of a sum of four centers, "
            "and that over 2 sigma^2, finite and normal")

# (shipped config, its text, the replacement, the whole line `kaflab simulate` prints)
OUT_OF_RANGE = [
    ("null", "sigma = 0.7", "sigma = 0", "[kernel] sigma must be positive"),
    ("null", "rho = 0.5", "rho = 1", "[input] rho must lie in [0, 1)"),
    ("null", "sigma_u = 0.5", "sigma_u = 0", "[input] sigma_u must be positive"),
    ("null", "sigma_nu = 0.0", "sigma_nu = -1e-9", "[system] sigma_nu must be nonnegative"),
    ("null", "points_per_axis = 2", "points_per_axis = 0",
     "[dictionary] points_per_axis must be >= 1"),
    ("experiment2", "target_size = 31", "mu0 = 1", "[dictionary] mu0 must lie in (0, 1)"),
    ("experiment2", "target_size = 31", "target_size = 0",
     "[dictionary] target_size must be >= 1"),
    ("experiment2", "calib_samples = 5000", "calib_samples = 1",
     "[dictionary] calib_samples must be >= 2"),
    ("null", "eta = 0.075", "eta = 0", "[filter] eta must be positive"),
    ("null", "eta = 0.075", "eta = 0.075\ns_n = 0", "[filter] s_n must be >= 1"),
    ("null", "eta = 0.075", "eta = 0.075\neps_reg = 0", "[filter] eps_reg must be positive"),
    ("null", "n_runs = 2", "n_runs = 0", "[run] n_runs must be >= 1"),
    ("null", "n_iters = 50", "n_iters = 0", "[run] n_iters must be >= 1"),
    ("null", "seed = 7", "seed = -1", "[run] seed must be nonnegative"),
    ("null", "n_samples = 10000", "n_samples = 9999", "[moments] n_samples must be >= 10^4"),
    ("null", "kind = null", "kind = linear",
     "[system] kind must be one of ['polynomial', 'fluid_flow', 'null'], got 'linear'"),
    ("null", "kind = grid", "kind = random",
     "[dictionary] kind must be 'grid' or 'coherence', got 'random'"),
    ("null", "kind = natural_klms", "kind = rls",
     "[filter] kind must be one of ['natural_klms', 'selective', 'knlms'], got 'rls'"),
    # finite values whose squares or reciprocals overflow or underflow
    ("null", "sigma = 0.7", "sigma = 1e300",
     "[kernel] sigma must keep sigma^2 and 1/(2 sigma^2) finite and normal"),
    ("null", "sigma = 0.7", "sigma = 1e-300",
     "[kernel] sigma must keep sigma^2 and 1/(2 sigma^2) finite and normal"),
    ("null", "sigma = 0.7", "sigma = 1e150", "[kernel] sigma must keep sigma^4 finite and normal"),
    ("null", "sigma_u = 0.5", "sigma_u = 1e300", "[input] sigma_u must keep its square finite "
                                                 "and normal"),
    ("null", "sigma_nu = 0.0", "sigma_nu = 1e300",
     "[system] sigma_nu must be 0 or keep its square finite and normal"),
    ("null", "eta = 0.075", "eta = 1e300", "[filter] eta must keep its square finite and normal"),
    # a grid whose spacing overflows
    ("experiment1", "lo = -1, -1\nhi = 1, 1", "lo = -1e308, -1\nhi = 1e308, 1",
     "[dictionary] lo and hi must be a finite normal spacing (hi - lo)/(points_per_axis - 1) "
     "apart on each axis"),
    # a grid whose fourth moments' squared norms overflow, though its spacing does not
    ("experiment1", "lo = -1, -1", "lo = -1e300, -1", FAR_GRID),
]


def case_ids(cases):
    """Each case's section and key, and after its first case the value it sets too."""
    seen = set()
    for _, _, new, message in cases:
        name = message.split(" must")[0]
        yield name if name not in seen else f"{name} {new.split(' = ')[-1]}"
        seen.add(name)


@pytest.mark.parametrize("base,old,new,message", OUT_OF_RANGE, ids=list(case_ids(OUT_OF_RANGE)))
def test_value_just_outside_its_range_is_named_in_one_line(tmp_path, capsys, base, old, new,
                                                           message):
    """Each range-checked key, one step past its bound, each finite value whose square or
    reciprocal overflows or underflows, and each unknown ``kind``: exit 2 and exactly one
    ``config error:`` line that names the section and key."""
    text = (CONFIGS / f"{base}.cfg").read_text(encoding="utf-8")
    assert text.count(old) == 1
    path = tmp_path / "edited.cfg"
    path.write_text(text.replace(old, new), encoding="utf-8")
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize("command,tail", [("simulate", ["--out", "o"]), ("analyze", ["--out", "o"]),
                                          ("moments-check", ["--samples", "1000"])])
def test_grid_whose_moments_overflow_is_refused_by_every_command(tmp_path, monkeypatch, capsys,
                                                                 command, tail):
    """``lo = -1e300, -1`` on the first experiment used to pass: ``simulate`` exited 0 with
    overflow warnings and ``analyze`` failed in the eigensolver. Every command that reads the
    config now exits 2 with one line, before any output directory is made."""
    monkeypatch.chdir(tmp_path)
    text = (CONFIGS / "experiment1.cfg").read_text(encoding="utf-8")
    Path("far.cfg").write_text(text.replace("lo = -1, -1", "lo = -1e300, -1"), encoding="utf-8")
    assert main([command, "--config", "far.cfg", *tail]) == 2
    assert capsys.readouterr() == ("", f"config error: {FAR_GRID}\n")
    assert not Path("o").exists()
