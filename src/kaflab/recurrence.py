"""The all-pole recurrence of the AR(1) input and the fluid-flow plant.

:func:`all_pole` steps many streams a row at a time in lockstep, and one long
stream as checked lockstep segments, each output rounded in the order of
scipy's ``lfilter``, so that every layout gives that filter's bits.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# all_pole runs one long stream as segments of ALL_POLE_SEGMENT samples, the
# columns of a time-major chunk stepped in lockstep, when there are at least
# ALL_POLE_MIN_SEGMENTS of them; a shorter stream is stepped over floats, as a
# lockstep row costs as much as 12 (AR(1)) to 21 (two poles) steps over floats
# and a segment's warm-up is up to two segments long. On the 68,648 samples
# of the cross-statistics stream's first block (one Xeon core, numpy 2.4), the
# AR(1) input took 24 ns a sample and the fluid-flow plant 48 ns, warm-ups
# included, against 141 and 185 ns over floats. 128-sample segments took the
# input to 20 ns but leave the plant (W = 302 > 2 * 128) over floats.
ALL_POLE_SEGMENT = 256
ALL_POLE_MIN_SEGMENTS = 64


def all_pole(x: np.ndarray, a1: float, a2: float = 0.0, state: np.ndarray | None = None,
             out: np.ndarray | None = None):
    """``y_n = x_n - a1 y_{n-1} - a2 y_{n-2}`` along axis 0.

    The filter ``1 / (1 + a1 z^-1 + a2 z^-2)``. ``x`` is one stream of shape
    (T,), or a time-major chunk (T, m) of independent streams, stepped one row
    of m columns at a time in place, with no temporary larger than a row. ``y``
    is written to ``out`` if given (which may be ``x`` itself), else to a new
    array.

    One stream (also a (T, 1) chunk) is stepped over Python floats, unless it
    is long enough to run as at least ``ALL_POLE_MIN_SEGMENTS`` segments of
    ``ALL_POLE_SEGMENT`` samples after a head of W samples. The segments are
    then the columns of one time-major chunk, each started from rest W samples
    before its start, where W = ceil(2 * 53 / -log2 rho) + 8 for the pole
    radius rho: two runs of a contracting recurrence from different states
    agree to the last bit after finitely many steps, which W leaves room for.
    The head is stepped over floats from the given state. A segment is exact
    if and only if its last two warm-up outputs equal the outputs before it,
    the recurrence's whole state; a segment that fails that check is stepped
    again over floats from the outputs before it, and the next is checked
    against those. So the outputs never depend on W, which only sets how
    rarely a segment is stepped again, and equal those of the loop over
    floats bit for bit. For rho >= 1, or W > 2 ``ALL_POLE_SEGMENT``, the whole
    stream is stepped over floats. Run in place, the stream's input is copied
    first, as a segment stepped again needs it.

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
    depends on the sign of a zero in the state.
    """
    x = np.asarray(x, dtype=float)
    start = np.zeros((2, *x.shape[1:])) if state is None else np.asarray(state, dtype=float)
    y = np.empty_like(x) if out is None else out
    if x.size == x.shape[0]:  # one stream, also in a (T, 1) chunk
        column = (slice(None),) + (0,) * (x.ndim - 1)
        _one_stream(x[column], y[column], a1, a2, *start.ravel().tolist())
    else:
        _lockstep(x, y, a1, a2, *start)
    if state is None:
        return y
    return y, np.concatenate([y[:-3:-1], start])[:2]


def _floats(x: np.ndarray, a1: float, a2: float, y1: float, y2: float) -> np.ndarray:
    """:func:`all_pole` over the 1-D ``x`` from ``(y_{-1}, y_{-2})``, stepped over floats."""
    def outputs(rows, y1, y2):
        if not a2:
            for xn in rows:
                y1 = (0.0 - a1 * y1) + xn
                yield y1
            return
        for xn in rows:
            y1, y2 = ((-(a2 * y2) + 0.0) - a1 * y1) + xn, y1
            yield y1

    return np.fromiter(outputs(x.tolist(), float(y1), float(y2)), float, len(x))


def _lockstep(x: np.ndarray, y, a1: float, a2: float, y1: np.ndarray, y2: np.ndarray):
    """:func:`all_pole` over the columns of the time-major ``x`` from the rows ``(y1, y2)``,
    into the rows of ``y``; returns the last two outputs."""
    a1, minus_a2, zero = map(np.array, (a1, -a2, 0.0))  # 0-d arrays: a ufunc takes them faster
    t, s = np.empty(x.shape[1:]), np.empty(x.shape[1:])
    for xn, yn in zip(x, y):
        if a2:
            np.add(np.multiply(minus_a2, y2, out=t), zero, out=t)
            np.subtract(t, np.multiply(a1, y1, out=s), out=t)
        else:
            np.subtract(zero, np.multiply(a1, y1, out=t), out=t)
        y1, y2 = np.add(t, xn, out=yn), y1
    return y1, y2


def _warmup_steps(a1: float, a2: float) -> float:
    """Steps from rest after which a segment should have the recurrence's true state:
    ``ceil(2 * 53 / -log2 rho) + 8`` for the pole radius rho < 1, else infinite."""
    disc = a1 * a1 - 4.0 * a2
    rho = math.sqrt(a2) if disc < 0 else (abs(a1) + math.sqrt(disc)) / 2.0
    if not rho < 1.0:
        return math.inf
    return 8 + (math.ceil(106 / -math.log2(rho)) if rho > 0 else 0)


def _one_stream(x: np.ndarray, y: np.ndarray, a1: float, a2: float, y1: float,
                y2: float) -> None:
    """:func:`all_pole` over the 1-D ``x`` from ``(y1, y2)`` into the 1-D ``y``: the head
    and the tail over floats, the segments between them in checked lockstep."""
    seg, w = ALL_POLE_SEGMENT, _warmup_steps(a1, a2)
    k = (len(x) - w) // seg if w <= 2 * seg else 0  # the segments
    if k < ALL_POLE_MIN_SEGMENTS:
        y[:] = _floats(x, a1, a2, y1, y2)
        return
    if np.may_share_memory(x, y):
        x = x.copy()
    view, (sx,), (sy,) = np.lib.stride_tricks.as_strided, x.strides, y.strides
    # Column c is segment c, x[w + c seg:][:seg], and its warm-up x[c seg:][:w]; all the
    # warm-ups are stepped before any output is written, keeping only the last three rows.
    w1, w2 = _lockstep(view(x, (w, k), (sx, seg * sx), writeable=False),
                       itertools.cycle(np.empty((3, k))), a1, a2, *np.zeros((2, k)))
    y[:w] = _floats(x[:w], a1, a2, y1, y2)
    _lockstep(view(x[w:], (seg, k), (sx, seg * sx), writeable=False),
              view(y[w:], (seg, k), (sy, seg * sy)), a1, a2, w1, w2)
    before = view(y[w - 2:], (2, k), (sy, seg * sy), writeable=False)  # y_{s-2}, y_{s-1}

    def inexact(c):  # the segments from c on whose warm-up state is not the true one
        return c + np.flatnonzero((w2[c:] != before[0, c:]) | (w1[c:] != before[1, c:]))

    bad = inexact(0)
    while bad.size:
        a = w + seg * bad[0]
        y[a:a + seg] = _floats(x[a:a + seg], a1, a2, y[a - 1], y[a - 2])
        bad = inexact(bad[0] + 1)
    a = w + seg * k
    y[a:] = _floats(x[a:], a1, a2, y[a - 1], y[a - 2])
