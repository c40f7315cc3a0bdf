#!/usr/bin/env python3
"""Self-test of the benchmark harness.  Run from the root of a checkout:

    python3 perfbench/selftest.py

Checks, each by running perfbench/run.py as the benchmark driver would:

* with one reference of connes-sup and of quantum-sweep scaled by 1 + 1e-6,
  the run reports failed > 0 (error_rate > 0) and exits nonzero;
* every metric name in BENCHMARK.json matches [A-Za-z0-9_.-]+, and a run
  emits exactly the end-to-end metrics listed there;
* in a directory holding only BENCHMARK.json and perfbench/, the run exits
  nonzero without printing a result.

Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = ["perfbench/run.py", "--seed", "3", "--seconds", "1", "--trace", "0"]


def run(cwd, *extra):
    proc = subprocess.run([sys.executable, *RUN, *extra], cwd=cwd, capture_output=True,
                          text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None)


def main():
    problems = []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    problems += ["bad metric name %r" % n for n in names
                 if not re.fullmatch(r"[A-Za-z0-9_.-]+", n)]

    for workload in ("quantum-sweep", "connes-sup"):
        code, result = run(ROOT, "--workload", workload, "--perturb", "1e-6")
        if code == 0 or result is None or result["failed"] == 0 or result["correct"]:
            problems.append("%s with a perturbed reference: exit %r, result %r"
                            % (workload, code, result))
        elif set(result["metrics"]) != {m["name"] for m in spec["end_to_end"]}:
            problems.append("%s emitted metrics %s" % (workload, sorted(result["metrics"])))

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, result = run(bare, "--workload", "quantum-sweep")
    shutil.rmtree(bare)
    if code == 0 or result is not None:
        problems.append("without src/: exit %r, result %r" % (code, result))

    for p in problems:
        print("selftest: %s" % p)
    print("selftest: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
