"""Runtime benchmark of the two execution tiers.

Measures the same trimmed jolden driver set as BENCH_obs.json /
BENCH_queries.json plus the CorONA workload on both backends:

- ``walker``: the tree-walking reference interpreter,
- ``codegen``: AOT specialization (slotted object layouts, read plans,
  sealed-family devirtualization) plus emitted + ``compile()``d Python
  per specialized method body (``repro/runtime/codegen.py``).

Times are steady-state: one interpreter per backend, one warm-up call
(so specialization, emission, and inline-cache fills are excluded), then
the best of ``ROUNDS`` timed calls.  One floor is enforced per jolden
program: codegen at least ``MIN_SPEEDUP``x faster than the walker.
CorONA is recorded for the report but carries no hard floor (its wall
time is dominated by Python code crossing the API boundary).
Each measurement also locks semantics: both backends must produce the
identical result and printed output.

The numbers land in ``BENCH_runtime.json`` at the repo root (uploaded
as a CI artifact by the runtime-bench job).

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_runtime_json.py -q -s
"""

import json
import time
from pathlib import Path

import pytest

from repro import clear_caches, obs
from repro.programs import cached_program
from repro.programs.corona import CoronaSystem
from repro.programs.jolden import bisort, em3d, treeadd

ROOT = Path(__file__).resolve().parent.parent
JSON_PATH = ROOT / "BENCH_runtime.json"
MIN_SPEEDUP = 3.0
ROUNDS = 3

#: Same trimmed jolden driver set as the query and obs benchmarks, so
#: all BENCH_*.json files describe the same workloads.
JOLDEN = [
    (treeadd, (9, 2)),
    (bisort, (6, 12345)),
    (em3d, (48, 4, 4, 777)),
]

BACKENDS = ("walker", "codegen")

_RESULTS = {}


@pytest.fixture(autouse=True)
def _runtime_restored():
    yield
    obs.disable()
    obs.TRACER.reset()
    clear_caches()


def _best(fn):
    best, value = float("inf"), None
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - t0)
    return best, value


def _entry(args, seconds, floor):
    return {
        "args": args,
        "seconds_walker": round(seconds["walker"], 6),
        "seconds_codegen": round(seconds["codegen"], 6),
        "speedup_codegen_vs_walker": round(
            seconds["walker"] / seconds["codegen"], 3
        ),
        "floor_codegen_vs_walker": floor,
    }


@pytest.mark.parametrize("module,args", JOLDEN, ids=[m.NAME for m, _ in JOLDEN])
def test_jolden_codegen_floor(module, args):
    program = cached_program(module.SOURCE)
    seconds, observed = {}, {}
    for backend in BACKENDS:
        interp = program.interp(mode="jns", backend=backend)
        ref = interp.new_instance(("Main",), ())

        def run_once():
            del interp.output[:]
            return interp.call_method(ref, "run", list(args))

        run_once()  # warm: specialize/emit/fill caches outside the clock
        seconds[backend], result = _best(run_once)
        observed[backend] = (result, tuple(interp.output))

    assert observed["walker"] == observed["codegen"], (
        f"{module.NAME}: backends disagree: {observed}"
    )
    entry = _RESULTS[f"jolden:{module.NAME}"] = _entry(
        list(args), seconds, MIN_SPEEDUP
    )
    speedup = entry["speedup_codegen_vs_walker"]
    assert speedup >= MIN_SPEEDUP, (
        f"{module.NAME}: codegen is only {speedup:.2f}x faster than the "
        f"walker (floor {MIN_SPEEDUP}x): "
        f"{seconds['codegen']:.4f}s vs {seconds['walker']:.4f}s"
    )


def test_corona_workload_recorded():
    """CorONA on both backends: semantics must agree; times are
    recorded without a floor (driver-bound workload)."""
    seconds, observed = {}, {}
    for backend in BACKENDS:
        system = CoronaSystem(size=16, objects=48, backend=backend)
        system.run_phase("corona", fetches=150)  # warm
        seconds[backend], stats = _best(
            lambda: system.run_phase("corona", fetches=150, seed=77)
        )
        observed[backend] = (stats.lookups, stats.total_hops, stats.misses)

    assert observed["walker"] == observed["codegen"], (
        f"corona: backends disagree: {observed}"
    )
    _RESULTS["corona:workload"] = _entry(
        {"size": 16, "objects": 48, "fetches": 150}, seconds, None
    )


def test_write_bench_json():
    """Runs last (file order): persist everything measured above."""
    assert _RESULTS, "measurement tests did not run"
    payload = {
        "benchmark": "walker vs codegen (AOT specialization + Python codegen)",
        "mode": "jns",
        "rounds": ROUNDS,
        "min_speedup_codegen_vs_walker": MIN_SPEEDUP,
        "method": (
            "steady state: one interpreter per backend, one warm-up call, "
            "best-of-rounds timed calls; identical results asserted across "
            "walker/codegen before timing counts"
        ),
        "results": _RESULTS,
    }
    JSON_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {JSON_PATH}")
    for name, entry in _RESULTS.items():
        print(
            f"  {name}: codegen {entry['seconds_codegen']}s, walker "
            f"{entry['seconds_walker']}s, "
            f"{entry['speedup_codegen_vs_walker']}x"
        )
