"""spinqpt benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Every measured run is a fresh Python
process (``perfbench/child.py``) with ``src`` on its path and BLAS/OpenMP
pinned to one thread.  With ``--trace 0`` it prints the end-to-end
metrics of ``BENCHMARK.json``; with ``--trace 1`` it adds one traced
process and prints the per-layer metrics.  The last line of stdout is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
See ``perfbench/README.md`` for the workloads and the layer map.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 5        # fresh interpreters timed for setup_s, after one warm-up
CHILD_TIMEOUT_S = 150    # one process; a whole run must end within 180 s
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def run_child(calls, trace=False, root="."):
    """Run ``calls`` in a fresh process; returns its decoded report."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(root), "src"), **PINNED)
    proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py")],
                          input=json.dumps({"calls": calls, "trace": trace}),
                          stdout=subprocess.PIPE, text=True, env=env, cwd=root,
                          timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"benchmark process exited with {proc.returncode}")
    return json.loads(lines[-1])


def measure(calls, seconds):
    """Fresh processes of ``calls`` while the next one fits in ``seconds``."""
    runs = []
    started = time.perf_counter()
    while True:
        runs.append(run_child(calls))
        elapsed = time.perf_counter() - started
        if elapsed * (len(runs) + 1) / len(runs) > seconds:
            return runs


def machine():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu, **PINNED}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "spinqpt", "cli.py")):
        print("error: src/spinqpt not found; run from the root of a spinqpt checkout",
              file=sys.stderr)
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    calls = workloads.generate(args.workload, args.seed)
    try:
        result, lines = benchmark(args, calls, spec)
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


def benchmark(args, calls, spec):
    lines = [f"workload {args.workload}, seed {args.seed}, trace {args.trace}"]
    lines += ["argv: " + " ".join(argv) for argv in calls]
    setup = []
    if not args.trace:
        run_child([])  # compiles bytecode; not timed
        setup = [run_child([])["setup_s"] for _ in range(SETUP_SAMPLES)]
    runs = measure(calls, args.seconds)
    untraced_wall = statistics.median(r["wall_s"] for r in runs)
    lines.append("environment: " + json.dumps({**machine(), **runs[0]["versions"]}))
    lines.append("wall_s per process: " + ", ".join(f"{r['wall_s']:.3f}" for r in runs))

    if args.trace:
        traced = run_child(calls, trace=True)
        runs.append(traced)
        values = {**traced["layers"], "trace.overhead_s": traced["wall_s"] - untraced_wall}
        lines += traced["trace_report"]
        wanted = spec["per_layer"]
    else:
        values = {"wall_s": untraced_wall,
                  "setup_s": statistics.median(setup),
                  "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs)}
        wanted = spec["end_to_end"]

    failures = []
    for r in runs:
        failures += workloads.check(args.workload, calls, r["results"])
    outputs = {tuple(workloads.strip_wall_time(text) for _, text in r["results"])
               for r in runs}
    if len(outputs) != 1:
        failures.append("outputs differ between processes"
                        + (" (traced against untraced)" if args.trace else ""))
    attempted = sum(len(calls) + r["points"] for r in runs)
    failed = sum(sum(code != 0 for code, _ in r["results"]) + r["flagged"] for r in runs)
    missing = sorted({name for r in runs for name in r["missing"]})
    lines += [f"check failed: {msg}" for msg in failures]
    lines += workloads.notes(args.workload, runs[0]["results"])
    lines.append(f"check_failures {len(failures)}, failed_share {failed / attempted:.6g} "
                 f"({failed} of {attempted} calls and sweep points)")
    if missing:
        lines.append("could not record (name missing): " + ", ".join(missing))

    names = [m["name"] for m in wanted]
    if set(names) != set(values):
        raise ValueError(f"metrics {sorted(values)} do not match BENCHMARK.json {names}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    lines += [f"{name} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    return ({"correct": not failures, "attempted": attempted, "failed": failed,
             "metrics": metrics}, lines)


if __name__ == "__main__":
    sys.exit(main())
