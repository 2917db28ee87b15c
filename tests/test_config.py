"""Config loading at the boundary: mutated config text is either a config or a
:class:`ConfigError`, never any other exception."""

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CONFIGS
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

