"""The four workloads.

Each workload takes its seed, builds its state in ``setup`` and yields
an endless, seed-determined op stream from ``ops``; ``run_op`` is the
timed call into the program.  After the timed loop ``check`` compares
every op's observation with a reference the codegen tier did not
produce (the walker, ``repro.check_source``, or the CorONA oracle
rules).  ``counts`` runs a fixed, seed-determined prefix of the stream
in a fresh process and returns the counters that must repeat exactly.

Every execution uses ``backend="codegen"``; ``backend="walker"`` is used
only for references.
"""

from __future__ import annotations

import gc
import random
from statistics import median
from time import perf_counter, thread_time
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Tuple

from calibrate import NEAREST, Calibration
from programs import BENCH_MAIN, STEADY_ARGS, cold_programs, jolden_source, sharing_source
from spans import Recorder


class Failed(NamedTuple):
    """Observation of an op that raised."""

    error: str


def shuffled_blocks(rng: random.Random, items: List[Any]) -> Iterator[Any]:
    """Every item once per block, in a seeded order: the op mix is the
    same for every seed, only the order changes."""
    while True:
        block = list(items)
        rng.shuffle(block)
        yield from block


def walker_run(source: str, entry: str, args: Tuple) -> Tuple[Any, Tuple[str, ...]]:
    import repro

    interp = repro.compile_program(source).interp(backend="walker")
    result = interp.run(entry, args)
    return result, tuple(interp.output)


def codegen_counts(interps) -> Dict[str, int]:
    """Emission and specialization counters summed over interpreters
    (``stats()`` of each interpreter's code generator and specializer).
    Every interpreter must have run codegen code: a missing generator or
    specializer raises, so the counts can never pass on zeros."""
    out = {"codegen.bodies_emitted": 0, "codegen.sites_inlined": 0,
           "runtime.specialize.slots_built": 0,
           "runtime.specialize.sites_devirtualized": 0,
           "runtime.specialize.views_elided": 0}
    for it in interps:
        if it.backend != "codegen" or it._cg is None or it.spec is None:
            raise RuntimeError(f"interpreter without codegen state (backend {it.backend!r})")
        for k, v in it._cg.stats().items():
            out[f"codegen.{k}"] += v
        for k, v in it.spec.stats().items():
            out[f"runtime.specialize.{k}"] += v
    return out


def hits(stats, engines=(), query: Optional[str] = None) -> Tuple[int, int]:
    """(hits, lookups) of a ``CacheStats`` snapshot, filtered by engine
    and query name."""
    h = n = 0
    for s in stats.stats:
        if (not engines or s.engine in engines) and (query is None or s.name == query):
            h += s.hits
            n += s.hits + s.misses
    return h, n


def rate(pairs) -> float:
    """Hit rate over summed (hits, lookups) pairs."""
    pairs = list(pairs)
    h = sum(p[0] for p in pairs)
    n = sum(p[1] for p in pairs)
    return h / n if n else 0.0


class Workload:
    name = ""
    loop = "closed"
    #: ops per shuffled block of the stream: every block has the same op
    #: mix, so the traced run switches the recorder per block
    block = 1

    def __init__(self, seed: int, rec: Recorder) -> None:
        self.seed = seed
        self.rec = rec
        self.rng = random.Random(f"{self.name}:{seed}")
        self.cal = Calibration()

    def setup(self) -> None:
        pass

    def ops(self) -> Iterator[Any]:
        raise NotImplementedError

    def run_op(self, op: Any) -> Any:
        raise NotImplementedError

    def reference(self, op: Any) -> Any:
        """The walker's observation for ``op``."""
        raise NotImplementedError

    def check(self, records: List[tuple]) -> List[Optional[str]]:
        """Per record: None when correct, else why it failed."""
        refs = {op: self.reference(op) for op in {r[0] for r in records}}
        return [None if value == refs[op] else f"{op}: {value!r} != walker {refs[op]!r}"
                for op, value, *_ in records]

    def counts(self) -> Dict[str, float]:
        raise NotImplementedError

    def layer_metrics(self, records: List[tuple]) -> Dict[str, float]:
        return {}

    def measure(self, seconds: float, ops: Iterator[Any],
                trace: bool = False) -> List[tuple]:
        """Closed loop, one client: the next op starts when the last ends.
        Returns one record per op: (op, observation, latency s, service s,
        start time, traced).  Latency and service are the CPU time of this
        thread (``thread_time``: time the host takes the core away is left
        out), the start time is on the wall clock.  With ``trace`` the
        recorder is on for alternate runs of ``block`` ops, so traced and
        untraced ops interleave with the same op mix.  The loop ends with a whole
        block, so every run has the same op mix.  Between ops, outside
        their times, the loop takes a host speed sample (``calibrate``)."""
        rec = self.rec
        records = []
        run_op = self.run_op
        cal = self.cal
        cal.samples(NEAREST)
        end = perf_counter() + seconds
        i = 0
        while perf_counter() < end or i % self.block:
            cal.maybe()
            op = next(ops)
            rec.op = i
            traced = rec.enabled = trace and (i // self.block) % 2 == 0
            start, cpu = perf_counter(), thread_time()
            try:
                value = run_op(op)
            except Exception as exc:  # counted as a failed op
                value = Failed(f"{type(exc).__name__}: {exc}")
            lat = thread_time() - cpu
            records.append((op, value, lat, lat, start, traced))
            i += 1
        rec.enabled = False
        cal.samples(NEAREST)
        return records


# ---------------------------------------------------------------------------
# cold-run
# ---------------------------------------------------------------------------


class ColdRun(Workload):
    """One-shot ``repro run``: clear every cache, then source text through
    ``compile_program`` → ``Program.interp(backend="codegen")`` → ``run``."""

    name = "cold-run"
    block = 13  # every program once

    def setup(self) -> None:
        self.programs = cold_programs()

    def ops(self):
        return shuffled_blocks(self.rng, list(range(len(self.programs))))

    def _cold(self, prog):
        import repro

        repro.clear_caches()
        program = repro.compile_program(prog.source)
        interp = program.interp(backend="codegen")
        return program, interp, interp.run(prog.entry, prog.args)

    def run_op(self, i: int):
        prog = self.programs[i]
        with self.rec.span(f"cold.{prog.name}"):
            _program, interp, result = self._cold(prog)
        return result, tuple(interp.output)

    def reference(self, i: int):
        prog = self.programs[i]
        return walker_run(prog.source, prog.entry, prog.args)

    def counts(self):
        self.setup()
        out: Dict[str, float] = {}
        lang = []
        ops = self.ops()
        for _ in range(len(self.programs)):
            program, interp, _result = self._cold(self.programs[next(ops)])
            for k, v in codegen_counts([interp]).items():
                out[k] = out.get(k, 0) + v
            # the check-time snapshot of the class table and sharing checker
            lang.append(hits(program.report.cache_stats, engines=("table", "sharing")))
        out["lang.queries.hit_rate"] = rate(lang)
        return out

    def layer_metrics(self, records):
        """First and second call on a fresh interpreter, per program."""
        import repro

        first, second = [], []
        for prog in self.programs:
            repro.clear_caches()
            interp = repro.compile_program(prog.source).interp(backend="codegen")
            for bucket in (first, second):
                t = thread_time()
                interp.run(prog.entry, prog.args)
                bucket.append(thread_time() - t)
        f, s = median(first) * 1e3, median(second) * 1e3
        return {"runtime.first_call.ms": f, "runtime.second_call.ms": s,
                "runtime.warmup.ms": median(a - b for a, b in zip(first, second)) * 1e3}


# ---------------------------------------------------------------------------
# steady-run
# ---------------------------------------------------------------------------


class SteadyRun(Workload):
    """Generated-code throughput: warm ``call_method(Main, "run", args)``
    on the ten jolden drivers."""

    name = "steady-run"
    block = 10  # every driver once

    def setup(self) -> None:
        import repro

        self.drivers = sorted(STEADY_ARGS)
        self.interps, self.mains = {}, {}
        for name in self.drivers:
            interp = repro.compile_program(jolden_source(name)).interp(backend="codegen")
            interp.run("Main.run", STEADY_ARGS[name])  # specialize, emit, warm
            del interp.output[:]
            self.interps[name] = interp
            self.mains[name] = interp.new_instance(("Main",), ())

    def ops(self):
        return shuffled_blocks(self.rng, self.drivers)

    def run_op(self, name: str):
        interp = self.interps[name]
        with self.rec.span(f"runtime.call.{name}"):
            result = interp.call_method(self.mains[name], "run", list(STEADY_ARGS[name]))
        printed = tuple(interp.output)
        del interp.output[:]
        return result, printed

    def reference(self, name: str):
        return walker_run(jolden_source(name), "Main.run", STEADY_ARGS[name])

    def counts(self):
        self.setup()
        before = {n: it.cache_stats() for n, it in self.interps.items()}
        ops = self.ops()
        for _ in range(2 * len(self.drivers)):
            self.run_op(next(ops))
        out: Dict[str, float] = codegen_counts(self.interps.values())
        pairs = []
        for n, it in self.interps.items():  # over the ops, not the set-up
            (h1, n1), (h0, n0) = (hits(s, ("interp",), "dispatch")
                                  for s in (it.cache_stats(), before[n]))
            pairs.append((h1 - h0, n1 - n0))
        out["runtime.dispatch.hit_rate"] = rate(pairs)
        return out

    def measure(self, seconds, ops, trace=False):
        before = sum(s["collections"] for s in gc.get_stats())
        records = super().measure(seconds, ops, trace)
        self.gc_collections = sum(s["collections"] for s in gc.get_stats()) - before
        return records

    def layer_metrics(self, records):
        return {"runtime.gc.collections": self.gc_collections}


# ---------------------------------------------------------------------------
# edit-check
# ---------------------------------------------------------------------------

#: Per session: the program-class body edit (snippet, template, values)
#: and the BenchMain body edit (snippet, template, values).
EDIT_SITES = {
    "trees": (("int total = id * 2;", "int total = id * {};", (2, 3)),
              ("int height() { return 6; }", "int height() {{ return {}; }}", (5, 6))),
    "lambdac": (('new base.Abs("$x", new base.Abs("$y", new base.Var("$y")))',
                 'new base.Abs("$x", new base.Abs("$y", new base.Var("{}")))', ("$y", "$x")),
                ("int fuel() { return 200; }", "int fuel() {{ return {}; }}", (200, 150))),
    "corona": (("this.capacity = 4;", "this.capacity = {};", (4, 2)),
               ("int fetches() { return 12; }", "int fetches() {{ return {}; }}", (12, 8))),
}
PICK = "int pick(int a) { return a; }"
PICK_SIG = "int pick(int b) { return b; }"      # parameter renamed: interface edit
PICK_ERR = "int pick(int a) { return q; }"      # unresolved name
ERROR_CODE = "JNS-RESOLVE-001"
HEADER = "class BenchMain {"
HEADER_PAD = "class BenchMain { int pad;"     # new field: structural edit
#: per session and block; ``run`` edits the program class and BenchMain
#: in turn, so the op mix is the same for every seed
EPISODES = ("body-prog", "body-main", "sig", "scratch", "error", "run", "noop")
COUNT_REQUESTS_EDIT = 60


class EditCheck(Workload):
    """The ``repro serve`` loop, in process through ``CheckService.handle``."""

    name = "edit-check"
    block = 48  # every episode once per session: 16 requests each

    def setup(self) -> None:
        from repro.serve import CheckService

        self.sessions = sorted(EDIT_SITES)
        self.base = {}
        for s in self.sessions:
            prog, main = sharing_source(s)[: -len(BENCH_MAIN[s])], BENCH_MAIN[s]
            for text, snippet in ((prog, EDIT_SITES[s][0][0]), (main, EDIT_SITES[s][1][0]),
                                  (main, PICK), (main, HEADER)):
                if text.count(snippet) != 1:
                    raise RuntimeError(f"edit site {snippet!r} not unique in {s}")
            self.base[s] = (prog, main)
        self._texts: Dict[tuple, str] = {}
        self.svc = CheckService()
        self.state = {s: {"prog": 0, "main": 0, "pick": PICK, "header": HEADER}
                      for s in self.sessions}
        for i, s in enumerate(self.sessions):
            self.rec.op = -1 - i  # one set-up op per session
            for req in ({"op": "open", "session": s, "source": self.text(s, self.state[s])},
                        {"op": "check", "session": s},
                        {"op": "run", "session": s, "entry": "BenchMain.main"}):
                with self.rec.span(f"serve.{req['op']}"):
                    resp = self.svc.handle(req)
                if not resp.get("ok"):
                    raise RuntimeError(f"set-up {req['op']} failed on {s}: {resp}")

    def text(self, s: str, st: Dict[str, Any]) -> str:
        """The session's text in state ``st``; one string per state, so the
        records of a long run do not hold a copy of the text per op."""
        key = (s, st["prog"], st["main"], st["pick"], st["header"])
        if key not in self._texts:
            self._texts[key] = self._render(s, st)
        return self._texts[key]

    def _render(self, s: str, st: Dict[str, Any]) -> str:
        prog, main = self.base[s]
        (p_snip, p_tmpl, p_vals), (m_snip, m_tmpl, m_vals) = EDIT_SITES[s]
        prog = prog.replace(p_snip, p_tmpl.format(p_vals[st["prog"]]))
        main = main.replace(m_snip, m_tmpl.format(m_vals[st["main"]]))
        main = main.replace(PICK, st["pick"]).replace(HEADER, st["header"])
        return prog + main

    def ops(self):
        """Requests, grouped in episodes: (kind, session, request, text)."""
        state = {s: dict(st) for s, st in self.state.items()}
        episodes = shuffled_blocks(self.rng, [(s, e) for s in self.sessions for e in EPISODES])
        run_site = {s: "main" for s in self.sessions}
        while True:
            s, kind = next(episodes)
            st = state[s]
            steps = []
            if kind == "run":
                run_site[s] = site = "prog" if run_site[s] == "main" else "main"
                kind = f"run-{site}"
            if kind.startswith(("body-", "run-")):
                site = kind.split("-")[1]
                st[site] = 1 - st[site]
                steps = [("edit", st), ("check" if kind.startswith("body") else "run", st)]
            elif kind == "sig":
                st["pick"] = PICK_SIG if st["pick"] == PICK else PICK
                steps = [("edit", st), ("check", st)]
            elif kind == "noop":  # the same text again
                steps = [("edit", st), ("check", st)]
            elif kind == "scratch":
                st["header"] = HEADER_PAD if st["header"] == HEADER else HEADER
                steps = [("edit", st), ("check", st)]
            else:  # error, then its revert
                bad = dict(st, pick=PICK_ERR)
                steps = [("edit", bad), ("check", bad), ("edit", st), ("check", st)]
            for op, snapshot in steps:
                text = self.text(s, snapshot)
                req = {"op": op, "session": s}
                if op == "edit":
                    req["source"] = text
                elif op == "run":
                    req["entry"] = "BenchMain.main"
                yield kind, s, req, text

    def run_op(self, op):
        kind, s, req, _text = op
        with self.rec.span("serve.run_after_edit" if req["op"] == "run" else f"serve.{req['op']}"):
            return self.svc.handle(req)

    def check(self, records):
        import repro

        diags, runs = {}, {}
        out = []
        for (kind, s, req, text), resp, *_ in records:
            if isinstance(resp, Failed) or "error" in resp:
                out.append(f"{s} {req['op']}: {resp}")
                continue
            if req["op"] == "check":
                if text not in diags:
                    diags[text] = [d.to_dict() for d in repro.check_source(text, file=f"<{s}>").diagnostics]
                want_err = PICK_ERR in text
                codes = {d["code"] for d in resp["diagnostics"] if d.get("severity") == "error"}
                if codes != ({ERROR_CODE} if want_err else set()):
                    out.append(f"{s} check after {kind}: error codes {sorted(codes)}")
                elif resp["diagnostics"] != diags[text]:
                    out.append(f"{s} check after {kind}: differs from check_source")
                else:
                    out.append(None)
            elif req["op"] == "run":
                if text not in runs:
                    runs[text] = walker_run(text, "BenchMain.main", ())
                got = (resp.get("result"), tuple(resp.get("output", ())))
                out.append(None if resp.get("ok") and got == runs[text]
                           else f"{s} run: {got!r} != walker {runs[text]!r}")
            else:
                out.append(None if resp.get("ok") else f"{s} edit: {resp}")
        return out

    def counts(self):
        import repro

        self.setup()
        out = {f"incremental.strategy.{k}": 0 for k in ("incremental", "scratch", "noop")}
        out.update({f"incremental.{k}": 0 for k in ("recomputed", "revalidated", "reused")})
        lang = []
        ops = self.ops()
        for _ in range(COUNT_REQUESTS_EDIT):
            op = next(ops)
            before = hits(repro.cache_stats(), ("table", "sharing"))
            resp = self.run_op(op)
            stats = resp.get("stats") or {}
            if op[2]["op"] == "edit":
                out[f"incremental.strategy.{stats['strategy']}"] += 1
            elif op[2]["op"] == "check":
                for k, v in stats["check"].items():
                    out[f"incremental.{k}"] += v
                # the class-table and sharing-checker queries this check ran
                after = hits(repro.cache_stats(), ("table", "sharing"))
                if after[0] < before[0] or after[1] < before[1]:
                    raise RuntimeError("a query cache was dropped during a check")
                lang.append((after[0] - before[0], after[1] - before[1]))
        out["lang.queries.hit_rate"] = rate(lang)
        return out

    def layer_metrics(self, records):
        # handle() time minus the response's own edit_ms: the service's
        # dispatch, trace and metrics overhead around the incremental edit
        overhead = [lat - resp["stats"]["edit_ms"] / 1e3
                    for (_k, _s, req, _t), resp, lat, *_ in records
                    if req["op"] == "edit" and isinstance(resp, dict) and "stats" in resp]
        tally = {k: 0 for k in ("recomputed", "revalidated", "reused")}
        for (_k, _s, req, _t), resp, *_ in records:
            if req["op"] == "check" and isinstance(resp, dict):
                for k, v in (resp.get("stats") or {}).get("check", {}).items():
                    tally[k] += v
        total = sum(tally.values())
        return {"serve.overhead.ms": median(overhead) * 1e3 if overhead else 0.0,
                "serve.run.ms": self._warm_run_ms(),
                "incremental.reuse_ratio": (tally["reused"] + tally["revalidated"]) / total
                if total else 0.0}

    def _warm_run_ms(self) -> float:
        """``run`` with no edit in between: the kept-warm interpreter."""
        samples = []
        for s in self.sessions:
            self.svc.handle({"op": "run", "session": s, "entry": "BenchMain.main"})
            for _ in range(3):
                t = thread_time()
                self.svc.handle({"op": "run", "session": s, "entry": "BenchMain.main"})
                samples.append(thread_time() - t)
        return median(samples) * 1e3


# ---------------------------------------------------------------------------
# corona-evolve
# ---------------------------------------------------------------------------

#: The traffic of the chaos driver (``repro.programs.corona.driver``,
#: ``ChaosDriver`` defaults): 256 nodes in 4 shards, 96 feed keys, half
#: of the requests on the 3 hottest keys, every 8th request a publish,
#: and each fetch entering its shard's ring at a random node.
SHARDS = 4
RING = 64            # DHT nodes per shard (256 / 4)
KEYS = 96            # global feed keys; key % SHARDS owns, key // SHARDS is local
HOT = 3
PUBLISH_EVERY = 8
#: Requests per second.  About half of the closed-loop service capacity
#: measured on a 2-core x86 VM, so an evolution pause drains instead of
#: piling up.
RATE = 400.0
#: Evolution windows, as shares of the schedule: each shard moves to
#: pccorona in the first window and to beecorona in the second.  Shard k
#: evolves in the k-th quarter of a window, so two pauses never overlap.
WINDOWS = (("pccorona", 0.05, 0.25), ("beecorona", 0.30, 0.50))
COUNT_REQUESTS = 3000


class CoronaEvolve(Workload):
    """Live CorONA evolution under an open-loop request stream."""

    name = "corona-evolve"
    loop = "open"
    block = 400  # one second of requests, 50 publishes among them

    def setup(self) -> None:
        from repro.programs.corona.driver import feed_content
        from repro.programs.corona.system import CoronaSystem

        self.feed_content = feed_content
        self.shards = [CoronaSystem(size=RING, objects=0, backend="codegen", seed=1000 + i)
                       for i in range(SHARDS)]
        self.family = ["corona"] * SHARDS
        self.issued = {}
        for key in range(KEYS):
            self._publish(key, 1)
        for shard in self.shards:  # warm the base family's code
            shard.fetch(0, 0, "corona")
        self.evolve_ms: List[float] = []
        self.preserved: List[bool] = []

    def _publish(self, key: int, version: int) -> None:
        self.shards[key % SHARDS].publish(key // SHARDS, version, self.feed_content(key, version))
        self.issued[key] = version

    def schedule(self, n: int) -> Dict[int, List[Tuple[int, str]]]:
        """Request index → evolutions to apply before it."""
        rng = random.Random(f"{self.name}:{self.seed}:evolve")
        out: Dict[int, List[Tuple[int, str]]] = {}
        for family, lo, hi in WINDOWS:
            width = (hi - lo) / SHARDS
            for shard in range(SHARDS):
                at = lo + width * (shard + rng.uniform(0.25, 0.75))
                out.setdefault(int(n * at), []).append((shard, family))
        return out

    def ops(self):
        """The chaos driver's request draw: a key (hot or uniform), every
        PUBLISH_EVERY-th request a publish of the key's next version, the
        others a fetch from a random start node."""
        rng = self.rng
        next_version = {}
        i = 0
        while True:
            key = rng.randrange(HOT) if rng.random() < 0.5 else rng.randrange(KEYS)
            i += 1
            if i % PUBLISH_EVERY == 0:
                v = next_version.get(key, 1) + 1
                next_version[key] = v
                yield ("publish", key, v)
            else:
                yield ("fetch", key, rng.randrange(RING))

    def run_op(self, op):
        kind, key, arg = op
        shard = key % SHARDS
        if kind == "publish":
            with self.rec.span("corona.publish"):
                self._publish(key, arg)
            return None
        family = self.family[shard]
        with self.rec.span("corona.fetch"):
            content = self.shards[shard].fetch(arg, key // SHARDS, family)
        return content, family, self.issued[key]

    def evolve(self, shard: int, family: str) -> None:
        t = thread_time()
        with self.rec.span("corona.evolve"):
            self.shards[shard].evolve(family)
        self.evolve_ms.append((thread_time() - t) * 1e3)
        self.family[shard] = family
        self.preserved.append(self.shards[shard].nodes_preserved())

    def measure(self, seconds, ops, trace=False):
        """Open loop: request i is due at t0 + i/RATE, and the generator
        waits for that time before it sends the request.

        A request's latency is timed from when it was due on the service's
        own clock: it starts when it is due or when the service has
        finished the request and any evolution before it, whichever is
        later, and then takes its service time, the CPU time the request
        took.  An evolution pause, or a slow run of requests, so becomes
        queueing delay for the requests behind it; time the host took
        the core away does not.  How late the generator started requests
        on the wall clock is kept in ``self.lags`` (``loadgen.lag_p95_ms``).
        Host speed samples (``calibrate``) are taken while the generator
        waits."""
        rec = self.rec
        n = int(seconds * RATE)
        evolutions = self.schedule(n)
        records = []
        self.lags = []
        run_op = self.run_op
        cal = self.cal
        cal.samples(NEAREST)
        t0 = perf_counter()
        free = 0.0  # when the service is done with all earlier work, in s from t0
        for i in range(n):
            rec.op = i
            for shard, family in evolutions.get(i, ()):
                self.evolve(shard, family)
                free += self.evolve_ms[-1] / 1e3
            op = next(ops)
            due = i / RATE
            if perf_counter() < t0 + due:
                cal.maybe()
            while perf_counter() < t0 + due:  # spin: sleeping cools the core
                pass
            traced = rec.enabled = trace and (i // self.block) % 2 == 0
            start, cpu = perf_counter(), thread_time()
            try:
                value = run_op(op)
            except Exception as exc:  # counted as a failed op
                value = Failed(f"{type(exc).__name__}: {exc}")
            service = thread_time() - cpu
            free = max(free, due) + service
            self.lags.append(start - t0 - due)
            records.append((op, value, free - due, service, start, traced))
        rec.enabled = False
        cal.samples(NEAREST)
        return records

    def check(self, records):
        from repro.programs.corona.driver import parse_feed

        out = []
        for op, value, *_ in records:
            out.append(self._oracle(op, value, parse_feed))
        if not all(self.preserved):
            out[-1] = "nodes_preserved() failed after an evolution"
        return out

    @staticmethod
    def _oracle(op, value, parse_feed) -> Optional[str]:
        """The chaos driver's per-request rules for a fetch."""
        if isinstance(value, Failed):
            return value.error
        if op[0] == "publish":
            return None
        content, family, issued = value
        parsed = parse_feed(content) if content is not None else None
        if parsed is None:
            return f"key {op[1]}: lost or malformed {content!r}"
        key, version = parsed
        if key != op[1]:
            return f"key {op[1]}: wrong key {key}"
        if not 1 <= version <= issued:
            return f"key {op[1]}: phantom version {version} > {issued}"
        if family == "corona" and version < issued:
            return f"key {op[1]}: stale {version} < {issued} under the base family"
        return None

    def counts(self):
        self.setup()
        evolutions = self.schedule(COUNT_REQUESTS)
        ops = self.ops()
        fetches = stale = 0
        for i in range(COUNT_REQUESTS):
            for shard, family in evolutions.get(i, ()):
                self.evolve(shard, family)
            value = self.run_op(next(ops))
            if value is not None:
                fetches += 1
                stale += self._is_stale(value)
        lookups = sum(s.stats().lookups for s in self.shards)
        hops = sum(s.stats().total_hops for s in self.shards)
        out: Dict[str, float] = codegen_counts(s.interp for s in self.shards)
        out["corona.avg_hops"] = hops / lookups
        out["corona.stale_ratio"] = stale / fetches
        for metric, engine, query in (("runtime.retarget.hit_rate", "interp", "retarget"),
                                      ("runtime.conforms.hit_rate", "interp", "conforms"),
                                      ("runtime.loader.hit_rate", "loader", None)):
            out[metric] = rate(hits(s.interp.cache_stats(), (engine,), query)
                               for s in self.shards)
        return out

    @staticmethod
    def _is_stale(value) -> bool:
        content, _family, issued = value
        return int(content.rsplit("-v", 1)[1]) < issued

    def layer_metrics(self, records):
        lags = sorted(self.lags)
        return {"corona.evolve.ms": median(self.evolve_ms) if self.evolve_ms else 0.0,
                "loadgen.lag_p95_ms": lags[int(0.95 * (len(lags) - 1))] * 1e3}


WORKLOADS = {w.name: w for w in (ColdRun, SteadyRun, EditCheck, CoronaEvolve)}
