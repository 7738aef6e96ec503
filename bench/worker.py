"""One benchmark worker: a fresh process that runs a request list in order.

    python3 bench/worker.py REQUESTS.json RESULT.json [--trace]

Each request is one CLI invocation, `beckring.cli.main(argv)` called in this
process with stdout and stderr captured. Outside the timed regions, the
calibration kernel (calibrate.py) reads the machine's speed before the first
request and after each one. One client, closed loop: the next
request starts when the previous one returned. Before the first request the
worker imports beckring.cli and resolves the canonical AN ring, as every CLI
call does. With --trace it installs the tracer first and also writes spans.
"""

from __future__ import annotations

import contextlib
import ctypes
import ctypes.util
import gc
import io
import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _heap_trimmer():
    """glibc's malloc_trim, or a no-op where the C library has none."""
    try:
        libc = ctypes.CDLL(ctypes.util.find_library("c"))
        trim = libc.malloc_trim
    except (OSError, AttributeError, TypeError):
        return lambda: None
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    return lambda: trim(0)


def main(argv: list[str]) -> int:
    requests_path, result_path = argv[0], argv[1]
    trace = "--trace" in argv[2:]
    sys.path.insert(0, SRC)
    sys.path.append(os.path.dirname(os.path.abspath(__file__)))
    t0 = time.perf_counter()
    import beckring.cli

    if not os.path.abspath(beckring.cli.__file__).startswith(SRC + os.sep):
        print(f"beckring imported from {beckring.cli.__file__}, not {SRC}", file=sys.stderr)
        return 3
    tracer = None
    if trace:
        import tracer as tracer_mod

        tracer = tracer_mod.install()
        tracer.request = "setup"
    from beckring import catalog

    import calibrate

    catalog.canonical_anderson_naseer()
    setup_s = time.perf_counter() - t0
    if tracer is not None:
        # set-up spans stay (they carry request id "setup"); counters restart
        tracer.counts.clear()

    with open(requests_path, encoding="utf-8") as f:
        requests = json.load(f)
    records = []
    cli = sys.modules["beckring.cli"]
    trim_heap = _heap_trimmer()
    # the machine's speed before the first request and after each one
    speed = [calibrate.sample()]
    for i, req in enumerate(requests):
        if tracer is not None:
            tracer.request = i
        out, err = io.StringIO(), io.StringIO()
        exc = None
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(list(req["argv"]))
            except Exception:
                rc = None
                exc = traceback.format_exc()
        end = time.perf_counter()
        records.append(
            {"rc": rc, "start": start, "end": end, "stdout": out.getvalue(),
             "stderr": err.getvalue(), "exception": exc,
             "max_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        )
        # A CLI call starts from an empty heap. Between requests, outside the
        # timed region, collect garbage and hand free heap pages back, so a
        # request's memory peak does not depend on what ran before it.
        gc.collect()
        trim_heap()
        speed.append(calibrate.sample())
    result = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "records": records,
        "calibration_s": speed,
    }
    if tracer is not None:
        result["spans"] = tracer.spans
        result["counts"] = dict(tracer.counts)
        result["check_s"] = dict(tracer.check_s)
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
