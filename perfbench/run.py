"""J&s benchmark: one workload per run, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload cold-run --seed 1 --seconds 20 --trace 0

Runs from the root of a checkout and imports the package from ``src/``.
The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` reports every ``per_layer`` metric of ``BENCHMARK.json``
and writes the run's spans to ``perfbench/out/``.  The lines above the JSON give the
same numbers for a reader, plus ``failed_ratio``.

Every time is CPU time of the benchmark's one thread.  The end-to-end
times are scaled to a reference host speed (``calibrate.py``); the
unscaled ones are printed above the JSON.  Per-layer times are not
scaled; ``calibrate.kernel.ms`` gives the host speed they were taken at.

Internal roles (spawned by the benchmark itself, one at a time):
``--role setup`` sets the workload up in a fresh process and prints the
set-up time; ``--role counts`` runs the workload's fixed count phase and
prints its counters.
"""

from time import thread_time

from calibrate import NEAREST, REF_MS, Calibration  # this script's directory

#: host speed samples right before and right after set-up (calibrate.py)
SETUP_CAL = Calibration()
SETUP_CAL.samples(NEAREST)
T_START = thread_time()  # before `import repro`: set-up time starts here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: set-up is measured this many times per run (this process plus fresh
#: child processes); the median is reported
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 120


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("run", "setup", "counts"), default="run")
    return ap.parse_args(argv)


def child(args, role: str) -> dict:
    """Run this script in a fresh process with another role; waits for it."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--role", role]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"--role {role} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quantile(values, q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def verify(wl, records):
    verdicts = wl.check(records)
    failures = [v for v in verdicts if v is not None]
    for why in failures[:5]:
        print(f"FAILED: {why}", file=sys.stderr)
    return len(failures)


def setup_time() -> dict:
    """CPU time of set-up so far, scaled to the reference speed by the
    kernel samples taken right before and right after it."""
    raw = thread_time() - T_START
    SETUP_CAL.samples(NEAREST)
    return {"setup_s": raw * REF_MS / SETUP_CAL.kernel_ms(), "unscaled_s": raw,
            "kernel_ms": SETUP_CAL.kernel_ms()}


def end_to_end(args, wl) -> dict:
    ops = wl.ops()
    setups = [setup_time()["setup_s"]]
    records = wl.measure(args.seconds, ops)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = verify(wl, records)
    setups += [child(args, "setup")["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    attempted = len(records)
    # every time scaled to the reference speed of the host (calibrate.py)
    factors = wl.cal.factors([r[4] for r in records])
    lat_ms = [r[2] * f * 1e3 for r, f in zip(records, factors)]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (attempted / sum(r[3] * f for r, f in zip(records, factors)), "1/s"),
        "latency_p50_ms": (statistics.median(lat_ms), "ms"),
        "latency_p95_ms": (quantile(lat_ms, 0.95), "ms"),
        "ok_ratio": ((attempted - failed) / attempted, "1"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    raw_ms = [r[2] * 1e3 for r in records]
    print(f"# {args.workload} seed={args.seed} loop={wl.loop} samples={attempted} "
          f"setup_samples={len(setups)} failed_ratio={failed / attempted:.6f}")
    print(f"# unscaled: ops_per_s={attempted / sum(r[3] for r in records):.4f} "
          f"latency_p50_ms={statistics.median(raw_ms):.4f} "
          f"latency_p95_ms={quantile(raw_ms, 0.95):.4f}; kernel median "
          f"{wl.cal.kernel_ms():.4f} ms over {len(wl.cal.took)} samples (REF_MS {REF_MS})")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


#: counters that must repeat exactly across two same-seed runs
REPEATABLE = ("codegen.bodies_emitted", "runtime.specialize.slots_built",
              "incremental.strategy.incremental", "incremental.strategy.scratch",
              "incremental.strategy.noop", "incremental.recomputed",
              "incremental.revalidated", "incremental.reused", "corona.avg_hops")


def per_layer(args, wl, restore, import_ms: float) -> dict:
    from spans import LAYER_SPANS, spans_path

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        layers = json.load(f)["per_layer"]
    rec = wl.rec
    records = wl.measure(args.seconds, wl.ops(), trace=True)
    restore()
    self_t, total_t = rec.op_times(), rec.op_times(total=True)
    extra = wl.layer_metrics(records)
    failed = verify(wl, records)

    counts = [child(args, "counts") for _ in range(2)]
    unstable = {k: (counts[0].get(k), counts[1].get(k))
                for k in REPEATABLE if counts[0].get(k) != counts[1].get(k)}
    if unstable:
        print(f"FAILED: counts differ between two same-seed runs: {unstable}", file=sys.stderr)

    def busy_rate(traced: bool) -> float:
        part = [r for r in records if r[5] is traced]
        return len(part) / sum(r[3] for r in part) if part else 0.0

    plain_rate, traced_rate = busy_rate(False), busy_rate(True)
    lex_s = rec.total_seconds("source.lex")
    values = {e["name"]: 0.0 for e in layers}
    for name in values:
        span = name[:-3]
        per_op = (self_t if span in LAYER_SPANS else total_t).get(span)
        if name.endswith(".ms") and per_op:
            values[name] = statistics.median(per_op.values()) * 1e3
    values.update(counts[0])
    values.update(extra)
    values.update({
        "import.ms": import_ms,
        "source.tokens_per_s": rec.tokens / lex_s if lex_s else 0.0,
        "trace.ops_per_s.untraced": plain_rate,
        "trace.ops_per_s.traced": traced_rate,
        "trace.overhead_pct": (plain_rate - traced_rate) / plain_rate * 100.0
        if plain_rate else 0.0,
        "calibrate.kernel.ms": wl.cal.kernel_ms(),
    })
    path = spans_path(ROOT, args.workload, args.seed)
    rec.write(path)
    print(f"# {args.workload} seed={args.seed} traced: {len(rec.spans)} spans -> "
          f"{os.path.relpath(path, ROOT)}; tracing overhead "
          f"{values['trace.overhead_pct']:.2f}% ({traced_rate:.1f} traced vs "
          f"{plain_rate:.1f} untraced ops per busy second)")
    metrics = {e["name"]: (values[e["name"]], e["unit"]) for e in layers}
    return {"correct": failed == 0 and not unstable, "attempted": len(records),
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"no J&s sources under {SRC}: run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    t = thread_time()
    import repro
    import_ms = (thread_time() - t) * 1e3
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from spans import Recorder, wrap_layers
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    rec = Recorder()
    wl = WORKLOADS[args.workload](args.seed, rec)
    if args.role == "counts":
        print(json.dumps(wl.counts(), sort_keys=True))
        return 0
    if args.trace and args.role == "run":
        restore = wrap_layers(rec)  # set-up is traced as op -1
        rec.enabled = True
        wl.setup()
        rec.enabled = False
        out = per_layer(args, wl, restore, import_ms)
    else:
        wl.setup()
        if args.role == "setup":
            print(json.dumps(setup_time()))
            return 0
        out = end_to_end(args, wl)
    for name, (value, unit) in out["metrics"].items():
        print(f"{name:40s} {value:14.6f} {unit}")
    out["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in out["metrics"].items()}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
