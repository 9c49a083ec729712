"""Run the benchmark several times and report each metric's spread.

    python3 perfbench/repeat.py --workloads cold-run,steady-run --seeds 1-10 --seconds 15

For every workload and end-to-end metric it prints the median, the first
and third quartile (``statistics.quantiles(values, n=4)``), and the
spread (third minus first quartile, as a share of the median) next to
the metric's bound in ``BENCHMARK.json``.  With fewer than four seeds,
or with ``--trace 1`` (the traced mode), it prints each seed's value
side by side instead.  Each run's
result line is appended to ``perfbench/out/repeat.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text: str):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result.update(workload=workload, seed=seed, trace=trace, seconds=seconds)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "repeat.jsonl"), "a") as f:
        f.write(json.dumps(result) + "\n")
    return result


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0.0
    for workload in args.workloads.split(","):
        results = [run_once(workload, s, args.seconds, args.trace) for s in seeds(args.seeds)]
        bad = [r["seed"] for r in results if not r["correct"]]
        print(f"== {workload}: {len(results)} runs, incorrect seeds: {bad or 'none'}")
        failed = [r["failed"] / r["attempted"] for r in results]
        print(f"  {'failed_ratio':16s} " + " ".join(f"{v:.4g}" for v in failed)
              + f"  (attempted {' '.join(str(r['attempted']) for r in results)})")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            med = statistics.median(values)
            if args.trace or len(values) < 4:
                print(f"  {name:40s} " + " ".join(f"{v:.4g}" for v in values) + f" {unit}")
                continue
            q1, _q2, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            worst = max(worst, spread / bound if bound else 0.0)
            print(f"  {name:16s} median {med:12.5g} {unit:5s} q1 {q1:12.5g} q3 {q3:12.5g} "
                  f"spread {spread:6.1%} bound {bound:.0%} "
                  f"{'OK' if bound and spread <= bound / 3 else 'WIDE'}")
    if not args.trace:
        print(f"largest spread / bound: {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
