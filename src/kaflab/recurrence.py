"""The all-pole recurrence of the AR(1) input and the fluid-flow plant.

:func:`all_pole` steps many streams a row at a time in lockstep, and one stream
over Python floats, each output rounded in the order of scipy's ``lfilter``, so
that either layout gives that filter's bits.
"""

from __future__ import annotations

import numpy as np


def all_pole(x: np.ndarray, a1: float, a2: float = 0.0, state: np.ndarray | None = None,
             out: np.ndarray | None = None):
    """``y_n = x_n - a1 y_{n-1} - a2 y_{n-2}`` along axis 0.

    The filter ``1 / (1 + a1 z^-1 + a2 z^-2)``. ``x`` is one stream of shape
    (T,), or a time-major chunk (T, m) of independent streams, stepped one row
    of m columns at a time in place, with no temporary larger than a row. ``y``
    is written to ``out`` if given (which may be ``x`` itself), else to a new
    array. One stream (also a (T, 1) chunk) is stepped over Python floats,
    which costs less per sample than a lockstep row.

    Without ``state`` the filter starts at rest and ``y`` is returned. Given
    ``state``, the two outputs ``(y_{-1}, y_{-2})`` before the first, an array
    (2, ...) of one row's shape, it continues from them and returns ``y`` with
    the state after its last output, so a stream filtered block by block, the
    state carried across, equals the stream filtered whole.

    Each output is ``((-(a2 y_{n-2}) + 0.0) - a1 y_{n-1}) + x_n``, rounded after
    every operation. That is the order in which the direct-form-II-transposed
    ``lfilter([1], [1, a1, a2], x)`` computes it, and keeping it is what makes
    the result equal to that filter's bit for bit, in either layout: a
    reassociated or fused form would round differently. With ``a2 = 0`` the
    first term is ``+0.0`` for every finite ``y_{n-2}``, so an output takes
    ``(0.0 - a1 y_{n-1}) + x_n``: three operations, the same bits. Neither form
    depends on the sign of a zero in the state. The lockstep rows take the short
    form, a third faster; the float loop keeps the one form, as the short one saves it 0.1 ms
    per 5,000 samples.
    """
    x = np.asarray(x, dtype=float)
    start = np.zeros((2, *x.shape[1:])) if state is None else np.asarray(state, dtype=float)
    y = np.empty_like(x) if out is None else out
    if x.size == x.shape[0]:  # one stream, also in a (T, 1) chunk
        column = (slice(None),) + (0,) * (x.ndim - 1)
        y[column] = _floats(x[column], a1, a2, *start.ravel().tolist())
    else:
        _lockstep(x, y, a1, a2, *start)
    if state is None:
        return y
    return y, np.concatenate([y[:-3:-1], start])[:2]


def _floats(x: np.ndarray, a1: float, a2: float, y1: float, y2: float) -> np.ndarray:
    """:func:`all_pole` over the 1-D ``x`` from ``(y_{-1}, y_{-2})``, stepped over floats."""
    def outputs(rows, y1, y2):
        for xn in rows:
            y1, y2 = ((-(a2 * y2) + 0.0) - a1 * y1) + xn, y1
            yield y1

    return np.fromiter(outputs(x.tolist(), float(y1), float(y2)), float, len(x))


def _lockstep(x: np.ndarray, y, a1: float, a2: float, y1: np.ndarray, y2: np.ndarray):
    """:func:`all_pole` over the columns of the time-major ``x`` from the rows ``(y1, y2)``,
    into the rows of ``y``."""
    a1, minus_a2, zero = map(np.array, (a1, -a2, 0.0))  # 0-d arrays: a ufunc takes them faster
    t, s = np.empty(x.shape[1:]), np.empty(x.shape[1:])
    for xn, yn in zip(x, y):
        if a2:
            np.add(np.multiply(minus_a2, y2, out=t), zero, out=t)
            np.subtract(t, np.multiply(a1, y1, out=s), out=t)
        else:
            np.subtract(zero, np.multiply(a1, y1, out=t), out=t)
        y1, y2 = np.add(t, xn, out=yn), y1
