"""A fixed reference task that measures how fast the machine is running right now.

The reference machine is a shared virtual machine whose speed drifted by a
factor of two within an hour while the same kaflab commands were timed
(``README.md``). The benchmark times this task between its commands and
reports every time scaled by ``NOMINAL_S`` over the run's median reference
time, so that a drift of the machine cancels and a change of kaflab does not:
the task uses only the standard library and numpy, never kaflab.

It mixes the kinds of work the kaflab commands do: compiling and running
Python source (as imports do), formatting and parsing numbers as text (as the
CSV outputs and the moment cache do), many small numpy calls in a Python loop
(as the filter steps do) and a dense contraction (as the transient recursion
does).
"""

from __future__ import annotations

import time

import numpy as np

# The task's time on the reference machine in a fast spell; it only sets the
# scale of the reported times.
NOMINAL_S = 0.22

# Passes over the task per reading: about 0.22 s in all on a fast spell.
REPEATS = 6

_SOURCE = "\n".join(
    f"def f{i}(x, y={i}):\n    return [x * y + k for k in range(8)] + [str(x)]\n"
    for i in range(150)
)


def reference_s() -> float:
    """Wall time of one run of the fixed reference task."""
    rng = np.random.default_rng(0)
    centers = rng.standard_normal((25, 2))
    inputs = rng.standard_normal((1500, 2))
    tensor = rng.standard_normal((25, 25, 25, 25))
    mat = np.eye(25)
    values = rng.standard_normal(15000)
    start = time.perf_counter()
    for _ in range(REPEATS):
        namespace: dict = {}
        exec(compile(_SOURCE, "<reference>", "exec"), namespace)
        text = ",".join(f"{v:.17g}" for v in values)
        parsed = np.array(text.split(","), dtype=float)
        alpha = np.zeros(25)
        for u in inputs:
            kap = np.exp(-((centers - u) ** 2).sum(axis=1))
            alpha += 1e-3 * (parsed[0] - alpha @ kap) * kap
        for _ in range(20):
            mat = np.tensordot(tensor, mat, axes=([3, 2], [0, 1])) / 625.0
    return time.perf_counter() - start
