"""Deterministic fault injection for the CorONA chaos driver (ISSUE 6).

This module supplies the three ingredients the sharded workload driver
(:mod:`repro.programs.corona.driver`) needs to run *reproducible* chaos
experiments:

* :class:`SimLoop` — a deterministic virtual-time scheduler for
  ``async def`` coroutines.  Tasks await :meth:`SimLoop.sleep` (virtual
  milliseconds) and :class:`SimFuture`/:class:`SimEvent`; the loop runs
  the ready queue FIFO and advances the clock only when every task is
  parked on a timer.  No wall clock, no threads, no real I/O — two runs
  with the same seed execute the same interleaving instruction for
  instruction, which is what makes chaos runs replay byte-for-byte.
  (A real asyncio event loop orders timer callbacks by wall-clock
  deadlines measured in real time, so it cannot give that guarantee;
  the coroutines themselves are ordinary ``async``/``await`` code.)
* :class:`Rng` — a splitmix64 generator with labeled :meth:`Rng.fork`
  streams.  Every consumer (workload shape, per-request fault rolls,
  retry jitter) forks its own stream keyed by a stable label, so the
  decisions taken for request *i* do not depend on how requests happen
  to interleave.
* :class:`FaultPlan` — a seeded, declarative description of the faults
  to inject: shard crash/restart windows (:class:`CrashFault`), dropped
  and delayed inter-shard messages (:class:`DropFault`,
  :class:`DelayFault`), and fuel exhaustion — a forced
  :class:`~repro.errors.JnsResourceError` ``JNS-RES-001`` inside a
  shard's interpreter — at chosen request indices (:class:`FuelFault`).
  Plans parse from a compact spec string or a JSON file
  (:meth:`FaultPlan.parse`) and round-trip through
  :meth:`FaultPlan.to_dict`, so a CI job can pin one byte-for-byte.

:class:`RetryPolicy` is the client-side half: capped exponential backoff
with jitter drawn from the *seeded* RNG, so even the retry schedule of a
chaos run replays exactly.

The driver counts every injection in its own metrics store
(``chaos.injected`` / ``chaos.injected.<kind>``); this module itself is
observability-free so it can be unit tested in isolation.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import os
from collections import deque
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Coroutine,
    Deque,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
)

__all__ = [
    "Rng",
    "SimFuture",
    "SimEvent",
    "SimTask",
    "SimLoop",
    "CrashFault",
    "DropFault",
    "DelayFault",
    "FuelFault",
    "FaultPlan",
    "RetryPolicy",
]

_MASK64 = (1 << 64) - 1


class Rng:
    """splitmix64: a tiny, fast, deterministic PRNG.

    Streams are *forkable*: :meth:`fork` derives an independent generator
    from the parent's seed and a stable string label (hashed with
    blake2b, never Python's salted ``hash``), so the stream consumed by
    one component is a pure function of ``(seed, label)`` — independent
    of how many values any other component drew."""

    __slots__ = ("seed", "_state")

    def __init__(self, seed: int) -> None:
        self.seed = seed & _MASK64
        self._state = self.seed

    def _next(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def randrange(self, n: int) -> int:
        """Uniform integer in ``[0, n)``."""
        if n <= 0:
            raise ValueError(f"randrange bound must be positive, got {n}")
        return self._next() % n

    def random(self) -> float:
        """Uniform float in ``[0, 1)`` (53-bit mantissa)."""
        return (self._next() >> 11) / float(1 << 53)

    def randbytes(self, n: int) -> bytes:
        """``n`` deterministic bytes from the stream (big-endian words).
        :class:`repro.telemetry.TraceContext` draws its 128-bit trace ids
        here so chaos replays regenerate identical trace trees."""
        if n < 0:
            raise ValueError(f"randbytes length must be >= 0, got {n}")
        out = bytearray()
        while len(out) < n:
            out += self._next().to_bytes(8, "big")
        return bytes(out[:n])

    def fork(self, label: str) -> "Rng":
        """An independent stream keyed by this generator's *seed* (not
        its current state) and ``label``."""
        digest = hashlib.blake2b(
            f"{self.seed}:{label}".encode(), digest_size=8
        ).digest()
        return Rng(int.from_bytes(digest, "big"))


# ----------------------------------------------------------------------
# deterministic virtual-time scheduling
# ----------------------------------------------------------------------


class SimFuture:
    """A one-shot awaitable resolved by the loop or another task."""

    __slots__ = ("_done", "_result", "_exc", "_callbacks", "_retrieved")

    def __init__(self) -> None:
        self._done = False
        self._result: Any = None
        self._exc: Optional[BaseException] = None
        self._callbacks: List[Callable[["SimFuture"], None]] = []
        self._retrieved = False

    def done(self) -> bool:
        return self._done

    def set_result(self, value: Any = None) -> None:
        if self._done:
            raise RuntimeError("SimFuture already resolved")
        self._done = True
        self._result = value
        callbacks, self._callbacks = self._callbacks, []
        for cb in callbacks:
            cb(self)

    def set_exception(self, exc: BaseException) -> None:
        if self._done:
            raise RuntimeError("SimFuture already resolved")
        self._done = True
        self._exc = exc
        callbacks, self._callbacks = self._callbacks, []
        for cb in callbacks:
            cb(self)

    def add_done_callback(self, cb: Callable[["SimFuture"], None]) -> None:
        if self._done:
            cb(self)
        else:
            self._callbacks.append(cb)

    def result(self) -> Any:
        if not self._done:
            raise RuntimeError("SimFuture not resolved")
        self._retrieved = True
        if self._exc is not None:
            raise self._exc
        return self._result

    def __await__(self):
        if not self._done:
            yield self
        self._retrieved = True
        if self._exc is not None:
            raise self._exc
        return self._result


class SimEvent:
    """An async event on the virtual loop (used as the shard pause gate:
    cleared while an evolution transition holds the shard, set to admit
    traffic).  Waiters wake in FIFO order — deterministically."""

    __slots__ = ("_set", "_waiters")

    def __init__(self, set_: bool = True) -> None:
        self._set = set_
        self._waiters: List[SimFuture] = []

    def is_set(self) -> bool:
        return self._set

    def set(self) -> None:
        self._set = True
        waiters, self._waiters = self._waiters, []
        for fut in waiters:
            fut.set_result(None)

    def clear(self) -> None:
        self._set = False

    async def wait(self) -> None:
        if self._set:
            return
        fut = SimFuture()
        self._waiters.append(fut)
        await fut


class SimTask:
    """One coroutine driven by the loop; itself awaitable (join)."""

    __slots__ = ("coro", "name", "future", "_loop")

    def __init__(self, coro: Coroutine, name: str, loop: "SimLoop") -> None:
        self.coro = coro
        self.name = name
        self.future = SimFuture()
        self._loop = loop

    def done(self) -> bool:
        return self.future.done()

    def __await__(self):
        return self.future.__await__()


class SimLoop:
    """Deterministic coroutine scheduler on a virtual millisecond clock.

    Ready tasks run FIFO; when the ready queue drains, the clock jumps
    to the earliest timer deadline (ties broken by registration order).
    A task exception is delivered to joiners via the task future; if the
    task is never awaited the exception re-raises out of :meth:`run` —
    failures are loud, never silently dropped."""

    def __init__(self) -> None:
        self.now = 0.0  #: virtual milliseconds since loop start
        self._ready: Deque[SimTask] = deque()
        self._timers: List[Tuple[float, int, SimFuture]] = []
        self._seq = 0
        self._alive = 0
        self._failed: List[SimTask] = []

    def create_task(self, coro: Coroutine, name: str = "task") -> SimTask:
        task = SimTask(coro, name, self)
        self._alive += 1
        self._ready.append(task)
        return task

    def sleep(self, delay_ms: float) -> SimFuture:
        """An awaitable that resolves ``delay_ms`` virtual ms from now."""
        fut = SimFuture()
        self._seq += 1
        heapq.heappush(self._timers, (self.now + max(0.0, delay_ms), self._seq, fut))
        return fut

    def _step(self, task: SimTask) -> None:
        try:
            awaited = task.coro.send(None)
        except StopIteration as stop:
            self._alive -= 1
            task.future.set_result(stop.value)
            return
        except BaseException as exc:
            self._alive -= 1
            task.future.set_exception(exc)
            self._failed.append(task)
            return
        if not isinstance(awaited, SimFuture):
            raise TypeError(
                f"task {task.name!r} awaited {type(awaited).__name__}, "
                "expected a SimFuture (use SimLoop.sleep / SimEvent)"
            )
        awaited.add_done_callback(lambda _fut: self._ready.append(task))

    def run(self, main: Optional[SimTask] = None) -> Any:
        """Run until ``main`` completes (or, with no ``main``, until no
        task can make progress).  Returns ``main``'s result."""
        while True:
            while self._ready:
                task = self._ready.popleft()
                self._step(task)
                if main is not None and main.done():
                    return main.future.result()
            if self._timers:
                deadline, _seq, fut = heapq.heappop(self._timers)
                self.now = max(self.now, deadline)
                fut.set_result(None)
                continue
            break
        if main is not None:
            # main still pending with nothing runnable: deadlock
            raise RuntimeError(
                f"virtual-time deadlock: task {main.name!r} never completed"
            )
        for task in self._failed:
            if not task.future._retrieved:
                task.future.result()  # re-raise the unretrieved failure
        return None


# ----------------------------------------------------------------------
# fault plans
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CrashFault:
    """Crash shard ``shard`` when global request ``at_request`` is
    issued; it stays down for ``down_ms`` virtual ms, then restarts
    (reboot + republish + journal-directed family recovery) on the next
    touch."""

    shard: int
    at_request: int
    down_ms: float = 120.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": "crash",
            "shard": self.shard,
            "at_request": self.at_request,
            "down_ms": self.down_ms,
        }


@dataclass(frozen=True)
class DropFault:
    """Drop each inter-shard message with probability ``rate`` (rolled
    from the per-request fault stream, so a given request's fate is a
    pure function of the seed)."""

    rate: float

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": "drop", "rate": self.rate}


@dataclass(frozen=True)
class DelayFault:
    """Delay each inter-shard message with probability ``rate`` by
    ``delay_ms`` virtual ms."""

    rate: float
    delay_ms: float = 8.0

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": "delay", "rate": self.rate, "delay_ms": self.delay_ms}


@dataclass(frozen=True)
class FuelFault:
    """Exhaust the serving shard's step budget when request
    ``at_request`` first reaches an interpreter: the call raises
    ``JNS-RES-001``, the driver resets the budget and retries."""

    at_request: int

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": "fuel", "at_request": self.at_request}


class FaultPlan:
    """A seeded, deterministic description of what to break and when.

    Construct directly, from a JSON file/string (:meth:`parse`), or from
    the compact spec DSL::

        crash:SHARD@REQ+DOWNMS   crash shard SHARD at request REQ for DOWNMS ms
        drop:RATE                drop inter-shard messages with probability RATE
        delay:RATE@MS            delay with probability RATE by MS virtual ms
        fuel:REQ                 trip JNS-RES-001 on the shard serving request REQ

    e.g. ``crash:1@120+150,drop:0.02,delay:0.05@6,fuel:77``.  The plan
    carries no RNG of its own: probabilistic decisions are rolled by the
    driver from per-request forks of the master seed, so a plan replays
    identically regardless of task interleaving."""

    def __init__(
        self,
        crashes: Iterable[CrashFault] = (),
        drops: Iterable[DropFault] = (),
        delays: Iterable[DelayFault] = (),
        fuel: Iterable[FuelFault] = (),
    ) -> None:
        self.crashes: Tuple[CrashFault, ...] = tuple(crashes)
        self.drops: Tuple[DropFault, ...] = tuple(drops)
        self.delays: Tuple[DelayFault, ...] = tuple(delays)
        self.fuel: Tuple[FuelFault, ...] = tuple(fuel)
        self.crash_at: Dict[int, List[CrashFault]] = {}
        for c in self.crashes:
            self.crash_at.setdefault(c.at_request, []).append(c)
        self.fuel_at = {f.at_request for f in self.fuel}

    def __bool__(self) -> bool:
        return bool(self.crashes or self.drops or self.delays or self.fuel)

    # -- message fate ---------------------------------------------------

    def message_fate(self, rng: Rng) -> Tuple[Optional[str], float]:
        """Roll the fate of one inter-shard message from ``rng`` (the
        per-request fault stream): ``("drop", 0)``, ``("delay", ms)``, or
        ``(None, 0)``.  Consumes one roll per configured fault so the
        stream layout is stable under plan growth."""
        for d in self.drops:
            if rng.random() < d.rate:
                return "drop", 0.0
        for d in self.delays:
            if rng.random() < d.rate:
                return "delay", d.delay_ms
        return None, 0.0

    # -- (de)serialization ---------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "faults": [
                f.to_dict()
                for f in (*self.crashes, *self.drops, *self.delays, *self.fuel)
            ]
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "FaultPlan":
        crashes: List[CrashFault] = []
        drops: List[DropFault] = []
        delays: List[DelayFault] = []
        fuel: List[FuelFault] = []
        for entry in payload.get("faults", []):
            kind = entry.get("kind")
            if kind == "crash":
                crashes.append(
                    CrashFault(
                        int(entry["shard"]),
                        int(entry["at_request"]),
                        float(entry.get("down_ms", 120.0)),
                    )
                )
            elif kind == "drop":
                drops.append(DropFault(float(entry["rate"])))
            elif kind == "delay":
                delays.append(
                    DelayFault(float(entry["rate"]), float(entry.get("delay_ms", 8.0)))
                )
            elif kind == "fuel":
                fuel.append(FuelFault(int(entry["at_request"])))
            else:
                raise ValueError(f"unknown fault kind {kind!r}")
        return cls(crashes, drops, delays, fuel)

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse a plan from a JSON file path, a JSON object string, or
        the compact spec DSL (see the class docstring)."""
        text = text.strip()
        if not text or text == "none":
            return cls()
        if os.path.isfile(text):
            with open(text) as f:
                return cls.from_dict(json.load(f))
        if text.startswith("{"):
            return cls.from_dict(json.loads(text))
        crashes: List[CrashFault] = []
        drops: List[DropFault] = []
        delays: List[DelayFault] = []
        fuel: List[FuelFault] = []
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            try:
                kind, _, spec = part.partition(":")
                if kind == "crash":
                    where, _, down = spec.partition("+")
                    shard_s, _, req_s = where.partition("@")
                    crashes.append(
                        CrashFault(
                            int(shard_s), int(req_s), float(down) if down else 120.0
                        )
                    )
                elif kind == "drop":
                    drops.append(DropFault(float(spec)))
                elif kind == "delay":
                    rate_s, _, ms = spec.partition("@")
                    delays.append(
                        DelayFault(float(rate_s), float(ms) if ms else 8.0)
                    )
                elif kind == "fuel":
                    fuel.append(FuelFault(int(spec.lstrip("@"))))
                else:
                    raise ValueError(f"unknown fault kind {kind!r}")
            except (ValueError, TypeError) as exc:
                raise ValueError(
                    f"bad fault spec {part!r}: {exc} "
                    "(expected crash:SHARD@REQ+DOWNMS, drop:RATE, "
                    "delay:RATE@MS, or fuel:REQ)"
                ) from None
        return cls(crashes, drops, delays, fuel)


# ----------------------------------------------------------------------
# client-side retry policy
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with seeded jitter.

    Attempt ``k`` (0-based) backs off ``min(cap_ms, base_ms * mult**k)``
    virtual ms, scaled by ``1 - jitter * u`` with ``u`` drawn from the
    caller's deterministic :class:`Rng` stream — so "random" jitter
    replays exactly from the seed.  ``budget_ms`` is the worst-case sum
    over all attempts; fault plans whose outages outlast it will see
    degraded (stale) serves or exhausted retries."""

    max_attempts: int = 8
    base_ms: float = 4.0
    mult: float = 2.0
    cap_ms: float = 64.0
    jitter: float = 0.5

    def backoff_ms(self, attempt: int, rng: Rng) -> float:
        raw = min(self.cap_ms, self.base_ms * (self.mult ** attempt))
        return raw * (1.0 - self.jitter * rng.random())

    @property
    def budget_ms(self) -> float:
        return sum(
            min(self.cap_ms, self.base_ms * (self.mult ** k))
            for k in range(self.max_attempts)
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "max_attempts": self.max_attempts,
            "base_ms": self.base_ms,
            "mult": self.mult,
            "cap_ms": self.cap_ms,
            "jitter": self.jitter,
        }
