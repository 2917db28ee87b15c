"""Run one kaflab command in this fresh interpreter and report how long it took.

Usage: ``python3 perfbench/child.py SPEC_JSON`` where the spec holds ``argv``
(for ``kaflab.cli.main``), ``config`` (the workload config, loaded as every
command's set-up), ``result`` (where to write the report) and, for a traced
command, ``worker_dir``. The report gives the end of set-up as a
``time.perf_counter`` reading, which on Linux is the system-wide monotonic
clock, so the parent can time set-up from before it started this process.
"""

import json
import resource
import sys
import time


def _cpu_s() -> float:
    """CPU seconds of this process and of its ended children (pool workers)."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def main() -> int:
    spec = json.loads(sys.argv[1])
    t0 = time.perf_counter()
    import kaflab.cli as cli

    t_import = time.perf_counter()
    cli.load_config(spec["config"])
    ready = time.perf_counter()

    tracer = None
    if spec.get("worker_dir"):
        from tracing import Tracer

        tracer = Tracer(spec["worker_dir"])
        tracer.install()
    cpu0 = _cpu_s()
    start = time.perf_counter()
    rc = cli.main(spec["argv"])
    main_s = time.perf_counter() - start
    cpu_s = _cpu_s() - cpu0

    report = {
        "ready": ready,
        "import_s": t_import - t0,
        "main_s": main_s,
        "cpu_s": cpu_s,
        "rc": rc,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        report["trace"] = tracer.finish()
    with open(spec["result"], "w", encoding="utf-8") as f:
        json.dump(report, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
