"""Spans and counts around kaflab's public functions, installed from outside.

A function is wrapped where its callers look it up: ``kaflab.cli`` imports by
name, so ``kaflab.cli.build_k`` and ``kaflab.analysis.build_k`` are wrapped
separately around the same function. Three kinds of wrapper:

- ``span``: one record (name, start, end, parent) per call; the parent's self
  time excludes it.
- ``timed``: per-step functions, counted and timed in aggregate only.
- ``count``: counted only, and not subtracted from the caller's self time.

Monte-Carlo runs in pool workers are forked from the traced process, so they
inherit the wrappers; the wrapper around the private
``kaflab.sim._run_single``, the only way to see into workers, traces each such
run alone and appends its totals to a per-worker file that
:meth:`Tracer.finish` merges. Worker times are therefore busy time summed
over workers. The other private name wrapped is
``kaflab.cli._write_manifest``, the manifest writer.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from pathlib import Path

SPAN, TIMED, COUNT = "span", "timed", "count"

# (module where the caller looks the name up, attribute, trace name, kind)
WRAPS = [
    ("kaflab.cli", "build_dictionary", "config.build_dictionary", SPAN),
    ("kaflab.kernel", "coherence_select", "kernel.coherence_select", COUNT),
    ("kaflab.config", "gram", "kernel.gram", SPAN),
    ("kaflab.moments", "gram", "kernel.gram", SPAN),
    ("kaflab.filters", "kernelized_input", "kernel.kernelized_input", COUNT),
    ("kaflab.cli", "estimate_cross_stats", "moments.cross_stats", SPAN),
    ("kaflab.moments", "second_moment", "moments.closed_forms", SPAN),
    ("kaflab.moments", "fourth_tensor", "moments.closed_forms", SPAN),
    ("kaflab.cli", "build_model", "moments.build_model", SPAN),
    ("kaflab.cli", "save_moment_model", "moments.cache_write", SPAN),
    ("kaflab.cli", "load_moment_model", "moments.cache_read", SPAN),
    ("kaflab.cli", "mc_learning_curve", "sim.mc", SPAN),
    ("kaflab.sim", "experiment_stream", "sim.stream", SPAN),
    ("kaflab.sim", "natural_klms_step", "filters.step", TIMED),
    ("kaflab.sim", "selective_step", "filters.step", TIMED),
    ("kaflab.sim", "knlms_step", "filters.step", TIMED),
    ("kaflab.cli", "save_learning_curve", "cli.write_outputs", SPAN),
    ("kaflab.cli", "_write_manifest", "cli.write_outputs", SPAN),
    ("kaflab.cli", "build_k", "analysis.build_k", SPAN),
    ("kaflab.analysis", "build_k", "analysis.build_k", SPAN),
    ("kaflab.cli", "mean_stability_bound", "analysis.stability", SPAN),
    ("kaflab.cli", "mean_square_stable", "analysis.stability", SPAN),
    ("kaflab.analysis", "mean_square_stable", "analysis.stability", SPAN),
    ("kaflab.cli", "transient_mse", "analysis.transient", SPAN),
    ("kaflab.analysis", "transient_mse", "analysis.transient", SPAN),
    ("kaflab.cli", "steady_state_mse", "analysis.steady_state", SPAN),
    ("kaflab.analysis", "spectral_radius", "linalg.spectral_radius", SPAN),
]


def _add(totals: dict, name: str, calls: int, self_s: float, incl_s: float) -> None:
    t = totals.setdefault(name, [0, 0.0, 0.0])
    t[0] += calls
    t[1] += self_s
    t[2] += incl_s


class Tracer:
    """Collects spans and aggregate counts in memory for one kaflab command."""

    def __init__(self, worker_dir: Path):
        self.pid = os.getpid()
        self.worker_dir = Path(worker_dir)
        self.spans: list[tuple[str, float, float, int | None]] = []
        self.totals: dict = {}  # name -> [calls, self_s, incl_s]
        self.stack: list[list] = []  # open spans: [span index, child seconds]

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self.stack[-1][0] if self.stack else None
            index = len(self.spans)
            self.spans.append((name, time.perf_counter(), 0.0, parent))
            frame = [index, 0.0]
            self.stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                start = self.spans[index][1]
                self.spans[index] = (name, start, end, parent)
                dur = end - start
                if self.stack:
                    self.stack[-1][1] += dur
                _add(self.totals, name, 1, dur - frame[1], dur)

        return wrapper

    def _timed(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - start
                if self.stack:
                    self.stack[-1][1] += dur
                _add(self.totals, name, 1, dur, dur)

        return wrapper

    def _count(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t = self.totals.setdefault(name, [0, 0.0, 0.0])
            t[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _worker_run(self, fn):
        """Trace a Monte-Carlo run alone when it executes in a forked pool worker."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() == self.pid:
                return fn(*args, **kwargs)
            self.spans, self.totals, self.stack = [], {}, []
            try:
                return fn(*args, **kwargs)
            finally:
                path = self.worker_dir / f"worker-{os.getpid()}.jsonl"
                with open(path, "a", encoding="utf-8") as f:
                    f.write(json.dumps(self.totals) + "\n")

        return wrapper

    def install(self) -> None:
        make = {SPAN: self._span, TIMED: self._timed, COUNT: self._count}
        for module_name, attr, name, kind in WRAPS:
            module = importlib.import_module(module_name)
            setattr(module, attr, make[kind](name, getattr(module, attr)))
        sim = importlib.import_module("kaflab.sim")
        sim._run_single = self._worker_run(sim._run_single)

    # -- results ------------------------------------------------------------

    def finish(self) -> dict:
        """Spans and per-name totals, with the pool workers' totals merged in."""
        totals = {k: list(v) for k, v in self.totals.items()}
        workers = sorted(self.worker_dir.glob("worker-*.jsonl"))
        for path in workers:
            with open(path, encoding="utf-8") as f:
                for line in f:
                    for name, (calls, self_s, incl_s) in json.loads(line).items():
                        _add(totals, name, calls, self_s, incl_s)
        return {"spans": self.spans, "totals": totals, "worker_files": len(workers)}
