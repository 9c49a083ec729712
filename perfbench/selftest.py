"""Self-test of the benchmark's correctness checks.

    python3 perfbench/selftest.py

For each workload: run it briefly, check that every op passes against
its reference, then corrupt one reference (the walker's result, or the
feed parser behind the CorONA oracle) and check that the same ops now
fail, i.e. that ``failed_ratio`` would be above 0.  It also checks that
``perfbench/spec.json`` describes exactly the workloads and per-layer
metrics of ``BENCHMARK.json``.  Exits 1 on any failure.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def corrupt_walker(workloads):
    """Return a walker that gets one program's result wrong."""
    real = workloads.walker_run
    state = {"victim": None}

    def wrong(source, entry, args):
        result, printed = real(source, entry, args)
        if state["victim"] in (None, source):
            state["victim"] = source
            return ("corrupted", result), printed
        return result, printed

    return real, wrong


def main() -> int:
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import workloads
    from spans import Recorder

    problems = []
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "spec.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if names != list(workloads.WORKLOADS) or names != list(spec["workloads"]):
        problems.append("BENCHMARK.json, workloads.py and spec.json name different workloads")
    if [m["name"] for m in bench["per_layer"]] != list(spec["per_layer"]):
        problems.append("spec.json does not map exactly the per-layer metrics of BENCHMARK.json")

    for name, cls in workloads.WORKLOADS.items():
        wl = cls(1, Recorder())
        wl.setup()
        records = wl.measure(1.0, wl.ops())
        clean = sum(v is not None for v in wl.check(records))
        if name == "corona-evolve":
            from repro.programs.corona import driver

            real = driver.parse_feed
            driver.parse_feed = lambda content: (lambda p: p and (p[0] + 1, p[1]))(real(content))
            try:
                corrupted = sum(v is not None for v in wl.check(records))
            finally:
                driver.parse_feed = real
        else:
            real, wrong = corrupt_walker(workloads)
            workloads.walker_run = wrong
            try:
                corrupted = sum(v is not None for v in wl.check(records))
            finally:
                workloads.walker_run = real
        print(f"{name:14s} ops {len(records):5d}  failed clean {clean}  "
              f"failed with one corrupted reference {corrupted}")
        if clean:
            problems.append(f"{name}: {clean} ops fail against the true references")
        if not corrupted:
            problems.append(f"{name}: a corrupted reference went unnoticed")
    for p in problems:
        print(f"FAILED: {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
