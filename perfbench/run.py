#!/usr/bin/env python3
"""fuzzydist benchmark: time one workload end to end, verifying every output.

Run from the root of a checkout:

    python3 perfbench/run.py --workload validate --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Workloads and metrics are listed in BENCHMARK.json, whose metric lists this
script emits, and explained in perfbench/README.md.  The library is imported
from ``src/`` of the checkout, with BLAS pinned to one thread through
FUZZYDIST_THREADS=1 before numpy loads.

With ``--trace 0`` the workload runs as passes until ``--seconds`` have
elapsed (at least MIN_PASSES), and the end-to-end metrics are reported:
the median pass time ``wall_s``, the median set-up time ``setup_s`` of
SETUP_SAMPLES fresh interpreters, and ``peak_rss_mb``.  With ``--trace 1``
one untraced pass is followed by one traced pass, and the per-layer metrics
come from the traced pass; for validate, each check is then also timed
alone, untraced, through ``run_checks(names=[name])``.

Every run writes perfbench/out/BENCH_<workload>_seed<seed>_trace<k>.json
(environment, metrics, pass times, failures); traced runs also write their
spans next to it.  The last line of stdout is one JSON object with keys
correct, attempted, failed and metrics.  The exit code is 0 only when every
checked output was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MIN_PASSES = 2
SETUP_SAMPLES = 7
WORKLOAD_NAMES = ("validate", "connes-sup", "quantum-sweep")


def bootstrap():
    """Put the checkout's src/ first on the path and pin BLAS before numpy loads."""
    os.environ["FUZZYDIST_THREADS"] = "1"
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import fuzzydist.cli  # the package and cli import no numpy
    if Path(fuzzydist.__file__).resolve().parent != src / "fuzzydist":
        raise ImportError("fuzzydist imported from %s, not from %s" % (fuzzydist.__file__, src))
    fuzzydist.cli._configure_threads()
    sys.path.insert(0, str(HERE))


def environment(seed):
    import numpy
    import scipy

    def blas(mod):
        dep = getattr(mod.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
        return "%s %s" % (dep.get("name", "?"), dep.get("version", "?"))

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "numpy_blas": blas(numpy), "scipy_blas": blas(scipy),
            "nproc": os.cpu_count(),
            "threads": {v: os.environ.get(v) for v in
                        ("FUZZYDIST_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
            "git_commit": git_commit(), "seed": seed, "platform": platform.platform()}


def git_commit():
    """HEAD of the checkout, read from .git without running git; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def setup_samples(workload, seed):
    """Set-up times of fresh interpreters; the first, which warms file caches, is dropped."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_SAMPLES + 1):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times[1:]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_pass(wl):
    t0 = time.perf_counter()
    failures = wl.run_pass()
    return time.perf_counter() - t0, failures


def run_untraced(wl, seconds):
    walls, failures = [], []
    t_end = time.perf_counter() + seconds
    while len(walls) < MIN_PASSES or time.perf_counter() < t_end:
        wall, fails = timed_pass(wl)
        walls.append(wall)
        failures += fails
    return walls, failures


def run_traced(wl, name, seed):
    """One untraced pass, one traced pass, and for validate each check alone, untraced."""
    import workloads
    from tracer import Tracer

    untraced, failures = timed_pass(wl)
    attempted = 2 * wl.items
    tracer = Tracer()
    tracer.install()
    try:
        traced, fails = timed_pass(wl)
    finally:
        tracer.uninstall()
    failures += fails
    metrics = tracer.metrics()
    metrics["trace_overhead_s"] = traced - untraced
    metrics["traced_wall_s"] = traced
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / ("SPANS_%s_seed%d.json.gz" % (name, seed)))
    if name == "validate":
        # each check alone and untraced, so its time adds up like wall_s does
        validate = sys.modules["fuzzydist.validate"]
        for check in workloads.VALIDATE_CHECKS:
            t0 = time.perf_counter()
            try:
                results = validate.run_checks(names=[check], seed=seed)
                ok = len(results) == 1 and results[0].passed
            except Exception as exc:  # counted as a failed item
                ok, results = False, exc
            metrics["validate.check.%s.s" % check] = time.perf_counter() - t0
            attempted += 1
            if not ok:
                failures.append("run_checks(names=[%r]) gave %r" % (check, results))
    return [untraced, traced], attempted, failures, metrics


def run_all(args):
    """Run every workload in its own process and print the end-to-end table."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {"correct": False, "attempted": 1,
                                                      "failed": 1, "metrics": {}}
        correct = correct and result["correct"] and proc.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        for key, val in result["metrics"].items():
            metrics["%s.%s" % (name, key)] = val
        print("%-14s" % name + "  ".join("%s %.4g %s" % (k, v["value"], v["unit"])
                                        for k, v in result["metrics"].items())
              + "  error_rate %.4g 1" % (result["failed"] / max(result["attempted"], 1)))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--perturb", type=float, default=0.0,
                        help="self-test: scale the first item's reference by 1 + PERTURB")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        bootstrap()
    except (OSError, ImportError, ValueError) as exc:
        print("perfbench: cannot start: %s" % exc, file=sys.stderr)
        return 2
    import workloads

    if args.setup_probe:
        workloads.build(args.workload, args.seed)
        print(time.perf_counter() - t0)
        return 0
    if args.workload == "all":
        return run_all(args)

    setup = None if args.trace else setup_samples(args.workload, args.seed)
    wl = workloads.build(args.workload, args.seed, args.perturb)
    if args.trace:
        walls, attempted, failures, measured = run_traced(wl, args.workload, args.seed)
        wanted = spec["per_layer"]
    else:
        walls, failures = run_untraced(wl, args.seconds)
        attempted = wl.items * len(walls)
        measured = {"wall_s": statistics.median(walls), "setup_s": statistics.median(setup),
                    "peak_rss_mb": peak_rss_mb()}
        wanted = spec["end_to_end"]
    failed = len(failures)
    metrics = {m["name"]: {"value": measured.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}

    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "perturb": args.perturb,
              "environment": environment(args.seed), "pass_wall_s": walls,
              "setup_samples_s": setup, "attempted": attempted, "failed": failed,
              "error_rate": failed / attempted, "failures": failures,
              "workload_details": wl.details, "metrics": metrics,
              "all_measured": measured}
    path = OUT / ("BENCH_%s_seed%d_trace%d.json" % (args.workload, args.seed, args.trace))
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")

    for msg in failures:
        print("FAILED: %s" % msg, file=sys.stderr)
    for key, val in metrics.items():
        print("%s %s %.6g %s" % (args.workload, key, val["value"], val["unit"]))
    print("%s error_rate %.6g 1 (%d of %d items)" % (args.workload, failed / attempted,
                                                      failed, attempted))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
