"""One fresh benchmark process: import spinqpt.cli, run a list of argv
through ``spinqpt.cli.run``, and print one JSON line with the timings.

Reads the job ``{"calls": [[argv...], ...], "trace": bool}`` from stdin.
Run it from the root of a checkout with ``src`` on ``PYTHONPATH``;
``perfbench/run.py`` starts it with BLAS and OpenMP pinned to one thread.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback


def main():
    job = json.load(sys.stdin)
    started = time.perf_counter()
    import spinqpt.cli as cli
    setup_s = time.perf_counter() - started

    import spans
    tally = spans.SweepTally()
    missing = tally.install()
    tracer = spans.Tracer().install() if job["trace"] else None

    results = []
    started = time.perf_counter()
    for argv in job["calls"]:
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = cli.run(argv)
        except Exception:  # counted as a failed call; the run goes on
            traceback.print_exc()
            code = "exception"
        results.append((code, out.getvalue()))
    wall_s = time.perf_counter() - started

    report = {"setup_s": setup_s, "wall_s": wall_s,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
              "results": results, "points": tally.points, "flagged": tally.flagged,
              "missing": missing, "versions": _versions()}
    if tracer is not None:
        report["layers"], report["trace_report"] = tracer.summary(wall_s)
        report["missing"] += tracer.missing
    print(json.dumps(report))


def _versions():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


if __name__ == "__main__":
    main()
