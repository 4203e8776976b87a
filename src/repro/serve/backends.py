"""Pluggable execution backends: where a served job's pipeline actually runs.

The broker's worker threads drain the scheduler either way; each claims one
job at a time, and the backend decides what happens to it:

* :class:`ThreadPoolBackend` — run the pipeline in the claiming thread
  against the shard's shared in-process system.  Right when hosted-LLM
  round-trip latency dominates: threads overlap the waits, artifacts never
  leave the process, and the broker-wide :class:`ArtifactCache` is shared.
* :class:`ProcessPoolBackend` — an affinity-aware execution plane over
  explicit preforked worker processes.  Right when generated-code
  execution is CPU-bound: each process escapes the GIL and holds a
  process-local world/system/artifact cache.

  - **sticky affinity routing** — jobs hash to a (world, query) affinity
    key; the dispatcher remembers which worker served a key and sends
    resubmissions back to its warm caches, with a work-stealing fallback
    (an idle worker takes over a key whose bound worker has more than
    :data:`STEAL_THRESHOLD` jobs) so a hot world cannot starve the pool;
  - **one job per message** — a worker receives one row per request and
    answers with one reply per job, a plain pickle over its private reply
    pipe; per-job requests are small deltas against a :class:`JobPayload`
    template shipped once per worker per shard, and workers prefork with
    every already-registered world preloaded so first jobs land on warm
    state.

  A worker process that dies mid-job is respawned by a monitor thread;
  its in-flight job surfaces as :class:`WorkerCrashed` so the broker can
  retry it on a different worker.

Both backends produce byte-identical artifacts for the same job: the
pipeline is deterministic in (query, params, world config, registry), which
the payload carries in full — fingerprints are verified worker-side so a
hand-mutated world or unrebuildable registry fails loudly instead of
silently serving answers about a different Internet.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import multiprocessing
import os
import pickle
import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import Future
from dataclasses import dataclass
from multiprocessing import connection

from repro.core.artifacts import PipelineResult
from repro.core.pipeline import ArachNet
from repro.core.registry import default_registry
from repro.obs import NULL_TRACER, MetricsRegistry, Tracer
from repro.serve.cache import ArtifactCache
from repro.serve.scheduler import WorldShard
from repro.synth.scenarios import LatencyIncident
from repro.synth.world import WorldConfig, build_world

BACKEND_NAMES = ("thread", "process")

#: Params key intercepted (and stripped) worker-side for fault injection in
#: tests: ``{"_serve_fault": "exit"}`` kills the worker before the pipeline
#: runs, ``{"_serve_fault": {"exit_on_worker": 0}}`` kills it only on slot 0
#: (so a broker retry that excludes slot 0 succeeds elsewhere), and
#: ``{"_serve_fault": {"sleep_s": 0.5}}`` delays execution to build queue
#: depth deterministically.
FAULT_PARAM = "_serve_fault"

#: Sticky bindings kept per backend before the oldest are forgotten.
AFFINITY_MAP_BOUND = 65536

#: Jobs queued on a key's bound worker beyond which an idle worker steals
#: the job (and the binding) instead of letting it wait.
STEAL_THRESHOLD = 2


class BackendError(RuntimeError):
    """Unknown backend names, unpicklable payload parts, or non-rebuildable
    shard state the process backend cannot ship across the fork."""


class WorkerCrashed(BackendError):
    """A worker process died with this job in flight.  Carries the affinity
    slot so a retry can exclude it."""

    def __init__(self, worker_index: int, message: str = ""):
        super().__init__(
            message or f"worker process on affinity slot {worker_index} died mid-job"
        )
        self.worker_index = worker_index

    def __reduce__(self):
        return (WorkerCrashed, (self.worker_index, self.args[0]))


class JobDeadlineExceeded(BackendError):
    """The monitor plane killed a worker whose job overran its deadline.

    Deliberately not a :class:`WorkerCrashed`: a deadline miss is the
    job's fault, so the broker fails it instead of retrying it into a
    second deadline miss (sibling jobs on the killed worker *do* surface
    as ``WorkerCrashed`` and retry normally)."""

    def __init__(self, worker_index: int, timeout_s: float):
        super().__init__(
            f"job exceeded its {timeout_s}s deadline on worker slot "
            f"{worker_index}; the monitor killed the worker"
        )
        self.worker_index = worker_index
        self.timeout_s = timeout_s

    def __reduce__(self):  # pragma: no cover - never crosses the pipe today
        return (JobDeadlineExceeded, (self.worker_index, self.timeout_s))


def affinity_key(shard: WorldShard, query: str, params: dict | None) -> str:
    """Stable identity of one job: shard key, world fingerprint, query text
    and canonical params.  Sticky affinity routing hashes it to pick a warm
    worker, and the write-ahead journal reuses it as the exactly-once
    idempotency key — same material, same digest, one notion of "the same
    job"."""
    material = "\x00".join((
        shard.key,
        shard.world.fingerprint(),
        query,
        json.dumps(params, sort_keys=True, default=str) if params else "",
    ))
    return hashlib.blake2b(material.encode("utf-8"), digest_size=16).hexdigest()


@dataclass(frozen=True)
class JobPayload:
    """Everything a worker process needs to run one job, picklable.

    The world travels as its :class:`WorldConfig` (generation is a pure
    function of the config), the registry as the entry-name subset of the
    default registry; both carry fingerprints the worker re-verifies after
    rebuilding.  The backend ships one payload *template* per worker per
    shard; per-job messages carry only ``(query, params)`` deltas.
    """

    query: str
    params: dict | None
    world_config: WorldConfig
    world_fingerprint: str
    registry_names: tuple[str, ...]
    registry_fingerprint: str
    incidents: tuple[LatencyIncident, ...] = ()
    llm_factory: object | None = None
    #: Stable identity of ``llm_factory``, precomputed broker-side so worker
    #: processes key their system cache without re-pickling it per job.
    llm_key: str = ""
    cache_entries: int = 0  # 0 disables the process-local artifact cache
    #: Dispatch-span :class:`~repro.obs.TraceContext` when the broker is
    #: tracing, ``None`` otherwise.  Deliberately outside ``_system_key``:
    #: trace identity must never fragment the worker's system cache.
    trace: object | None = None


# -- worker-process side ------------------------------------------------------

#: Process-local systems keyed by everything a system is a function of.  One
#: entry per (world config, registry, incidents, llm) combination the worker
#: has served — the expensive objects are built once per process, never per
#: job, which is what makes the process backend's steady state fast.
_WORKER_SYSTEMS: dict[tuple, ArachNet] = {}


def _system_key(payload: JobPayload) -> tuple:
    return (
        payload.world_config,
        payload.registry_fingerprint,
        payload.incidents,
        payload.llm_key,
        payload.cache_entries,
    )


def _worker_system(payload: JobPayload) -> ArachNet:
    key = _system_key(payload)
    system = _WORKER_SYSTEMS.get(key)
    if system is None:
        world = build_world(payload.world_config)
        if world.fingerprint() != payload.world_fingerprint:
            raise BackendError(
                f"worker rebuilt world {world.fingerprint()} from config but the "
                f"broker serves {payload.world_fingerprint}; the process backend "
                "requires worlds reproducible from their WorldConfig"
            )
        registry = default_registry().subset(names=list(payload.registry_names))
        if registry.fingerprint() != payload.registry_fingerprint:
            raise BackendError(
                "worker could not rebuild the shard registry from the default "
                "registry by name subset; use the thread backend for custom registries"
            )
        kwargs: dict = {
            "curate": False,
            "cache": (
                ArtifactCache(max_entries=payload.cache_entries)
                if payload.cache_entries
                else None
            ),
        }
        if payload.llm_factory is not None:
            kwargs["llm"] = payload.llm_factory()
        system = ArachNet.for_world(
            world, registry=registry, incidents=list(payload.incidents), **kwargs
        )
        _WORKER_SYSTEMS[key] = system
    return system


#: This process's (tracer, metrics) pair, keyed by pid so a forked child
#: never keeps recording into instruments it inherited from its parent.
_WORKER_OBS: dict[int, tuple] = {}


def _worker_obs() -> tuple:
    pid = os.getpid()
    obs = _WORKER_OBS.get(pid)
    if obs is None:
        _WORKER_OBS.clear()
        obs = (Tracer(label=f"worker-{pid}"), MetricsRegistry())
        _WORKER_OBS[pid] = obs
    return obs


def _process_execute(payload: JobPayload,
                     worker_index: int = 0) -> tuple[PipelineResult, dict]:
    """Runs in the worker process: answer the query, report cache economics.

    With a trace context on the payload the whole run is wrapped in a
    ``worker.execute`` span parented under the broker's dispatch span, and
    the reply meta additionally carries this process's drained span records
    and metric deltas — observability rides the reply pipes, no extra IPC.
    """
    system = _worker_system(payload)
    if payload.trace is not None:
        tracer, registry = _worker_obs()
        registry.counter("worker_jobs_total", {"slot": str(worker_index)}).inc()
        with tracer.span("worker.execute", parent=payload.trace, cat="worker",
                         slot=worker_index) as span:
            result = system.answer(payload.query, params=payload.params,
                                   tracer=tracer, trace_parent=span)
        extra = {"spans": tracer.drain(), "metrics": registry.drain_deltas()}
    else:
        result = system.answer(payload.query, params=payload.params)
        extra = {}
    cache_stats = system.cache.stats() if system.cache is not None else None
    return result, {"pid": os.getpid(), "cache": cache_stats, **extra}


def _apply_fault(fault, index: int) -> None:
    if fault is None:
        return
    if fault == "exit":
        os._exit(3)
    if isinstance(fault, dict):
        if fault.get("exit_on_worker") == index:
            os._exit(3)
        sleep_s = fault.get("sleep_s")
        if sleep_s:
            time.sleep(float(sleep_s))


def _encode_exception(exc: Exception) -> tuple:
    try:
        blob = pickle.dumps(exc)
    except Exception:
        blob = None
    return ("exc", blob, type(exc).__name__, str(exc))


def _decode_exception(message: tuple) -> Exception:
    _, blob, type_name, text = message
    if blob is not None:
        try:
            return pickle.loads(blob)
        except Exception:
            pass
    return BackendError(f"{type_name}: {text}")


def _run_one(index, templates, row) -> tuple:
    job_id, shard_key, query, params = row[:4]
    trace = row[4] if len(row) > 4 else None
    try:
        if params:
            params = dict(params)
            _apply_fault(params.pop(FAULT_PARAM, None), index)
            params = params or None
        template = templates.get(shard_key)
        if template is None:
            raise BackendError(
                f"worker slot {index} never received a payload template for "
                f"shard {shard_key!r}"
            )
        payload = dataclasses.replace(template, query=query, params=params,
                                      trace=trace)
        result, meta = _process_execute(payload, worker_index=index)
        return ("done", index, job_id, True, result, meta)
    except Exception as exc:  # shipped back and re-raised broker-side
        return ("done", index, job_id, False, _encode_exception(exc), None)


def _worker_main(index: int, requests, replies,
                 close_fds: tuple[int, ...] = ()) -> None:
    """One worker process: take one job per request, reply once per job.

    ``replies`` is this worker's *own* pipe connection — workers never
    share a reply channel, so a worker SIGKILLed mid-write cannot poison
    a lock its siblings need (see ``_collector_loop``).  ``close_fds``
    are the other slots' inherited reply write-ends (fork start method
    only): closing them here is what lets the broker-side reader see EOF
    — instead of blocking forever on a half-written message — when any
    single worker dies.
    """
    for fd in close_fds:
        try:
            os.close(fd)
        except OSError:  # pragma: no cover - already closed
            pass
    templates: dict[str, JobPayload] = {}
    while True:
        try:
            message = requests.get()
        except (EOFError, OSError):  # broker side vanished
            return
        kind = message[0]
        if kind == "stop":
            return
        if kind == "preload":
            for shard_key, template in message[1].items():
                templates[shard_key] = template
                try:
                    _worker_system(template)
                except Exception:
                    # A bad template fails loudly at first job, with the
                    # error attached to a ticket someone is waiting on.
                    pass
            replies.send(("preloaded", index, os.getpid()))
            continue
        if kind == "forget":
            template = templates.pop(message[1], None)
            if template is not None:
                _WORKER_SYSTEMS.pop(_system_key(template), None)
            continue
        _, new_templates, row = message  # ("run", {shard: template}, row)
        templates.update(new_templates)
        reply = _run_one(index, templates, row)
        try:
            replies.send(reply)
        except OSError:  # broker side vanished
            return
        except Exception as exc:  # an unpicklable result fails its job only
            replies.send(("done", index, row[0], False,
                          _encode_exception(exc), None))


# -- broker side --------------------------------------------------------------


class ExecutionBackend:
    """The protocol the broker drives.  ``run`` is called concurrently from
    every worker thread; ``prepare`` is called once per registered world so
    misconfiguration fails at ``add_world`` time, not first-job time.

    ``run`` must deliver every produced :class:`StageTrace` to ``observer``
    (when given) — streamed live where the pipeline runs in-process, or
    replayed from the result where it ran elsewhere — so the provenance
    ledger sees partial traces even when a later stage fails in-process.
    """

    name = "base"
    #: The broker rebinds these to its own tracer/registry at construction;
    #: the class defaults keep a standalone backend fully functional.
    tracer = NULL_TRACER
    metrics: MetricsRegistry | None = None
    #: Optional :class:`~repro.obs.FlightRecorder`; the process backend
    #: heartbeats it per worker reply and dumps a postmortem on respawns.
    flight = None

    def start(self) -> "ExecutionBackend":
        return self

    def shutdown(self, wait: bool = True) -> None:
        pass

    def prepare(self, shard: WorldShard) -> None:
        pass

    def forget(self, shard_key: str) -> None:
        """Drop any per-shard state (templates, affinity bindings)."""

    def run(
        self,
        shard: WorldShard,
        query: str,
        params: dict | None,
        observer=None,
        excluded_workers: tuple[int, ...] = (),
        trace=None,
    ) -> PipelineResult:
        raise NotImplementedError

    def stats(self) -> dict:
        return {"backend": self.name}


class ThreadPoolBackend(ExecutionBackend):
    """Run jobs in the claiming worker thread (the original serve behaviour)."""

    name = "thread"

    def run(
        self,
        shard: WorldShard,
        query: str,
        params: dict | None,
        observer=None,
        excluded_workers: tuple[int, ...] = (),
        trace=None,
    ) -> PipelineResult:
        return shard.system.answer(query, params=params, observer=observer,
                                   tracer=self.tracer, trace_parent=trace)


class _WorkerSlot:
    """Broker-side view of one worker process (an affinity slot).

    The slot survives its process: a crashed worker is respawned in place
    with a bumped ``generation``, which lazily invalidates affinity
    bindings and template-shipping state tied to the old process.  Each
    generation gets a fresh request queue and a fresh *private* reply
    pipe (``reply_r`` broker-side, ``reply_w`` shipped to the process).

    A slot runs one job at a time: rows routed to it wait in ``pending``
    (which survives a respawn) until ``inflight`` is empty, so a job's
    deadline never counts time spent behind a sibling on the same slot.
    """

    __slots__ = ("index", "generation", "process", "request_q",
                 "reply_r", "reply_w", "templates_sent", "pending", "inflight")

    def __init__(self, index: int):
        self.index = index
        self.generation = 0
        self.process = None
        self.request_q = None
        self.reply_r = None
        self.reply_w = None
        self.templates_sent: set[str] = set()
        self.pending: deque = deque()  # (job_id, shard_key, query, params, trace)
        #: The running job: job_id -> monotonic time it reached the
        #: worker.  At most one entry; the deadline sweep reads the time.
        self.inflight: dict[int, float] = {}

    def depth(self) -> int:
        return len(self.pending) + len(self.inflight)


class ProcessPoolBackend(ExecutionBackend):
    """Affinity-aware execution plane over preforked processes.

    Explicit worker processes (not a :class:`multiprocessing.Pool`): each
    affinity slot owns a request queue, so the dispatcher controls *which*
    process a job lands on — the whole point of sticky routing.  A sender
    thread hands each idle slot its next pending row, a collector thread
    multiplexes every worker's *private* reply pipe (one pickled reply per
    job), and a monitor thread respawns dead workers and fails their
    in-flight job with :class:`WorkerCrashed` so the broker can retry it
    elsewhere.

    Replies deliberately do not share a queue: a shared
    ``multiprocessing`` queue serializes writers through a cross-process
    semaphore, and a worker SIGKILLed inside ``put`` dies holding it —
    deadlocking every surviving worker's replies (found by the chaos
    suite).  One pipe per worker means one writer per lockless channel;
    sibling processes close their inherited copies of each other's write
    ends so a dead writer always surfaces as EOF, never as a forever-
    blocking read.
    """

    name = "process"

    def __init__(
        self,
        num_workers: int = 4,
        llm_factory=None,
        cache_entries: int = 4096,
        start_method: str | None = None,
        job_timeout_s: float | None = None,
    ):
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if job_timeout_s is not None and job_timeout_s <= 0:
            raise ValueError("job_timeout_s must be positive (or None)")
        self.job_timeout_s = job_timeout_s
        self.num_workers = num_workers
        self._llm_factory = llm_factory
        self._cache_entries = cache_entries
        self._start_method = start_method
        self._ctx = None
        self._method = None
        self._slots: list[_WorkerSlot] = []
        self._templates: dict[str, JobPayload] = {}
        self._affinity: OrderedDict[str, tuple[int, int, str]] = OrderedDict()
        self._futures: dict[int, Future] = {}
        self._job_ids = itertools.count(1)
        #: Reply pipes of dead worker generations, drained to EOF by the
        #: collector so raced-in replies are consumed and the fds closed.
        self._retired_pipes: list = []
        self._wake_r = None
        self._wake_w = None
        self._threads: list[threading.Thread] = []
        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)
        self._stop = threading.Event()
        self._started = False
        self._stopped = False
        self._proc_cache_stats: dict[int, dict] = {}
        self._counts = {
            "hits": 0, "misses": 0, "steals": 0, "respawns": 0,
            "deadline_kills": 0,
        }

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "ProcessPoolBackend":
        if self._started:
            return self
        method = self._start_method
        if method is None:
            available = multiprocessing.get_all_start_methods()
            method = "fork" if "fork" in available else "spawn"
        self._ctx = multiprocessing.get_context(method)
        self._method = method
        self._wake_r, self._wake_w = self._ctx.Pipe(duplex=False)
        self._slots = [_WorkerSlot(i) for i in range(self.num_workers)]
        # Pipes first, forks second: each worker learns every sibling's
        # reply write-end so it can close its inherited copy (see
        # _worker_main's close_fds).
        for slot in self._slots:
            self._prepare_slot(slot)
        for slot in self._slots:
            self._launch(slot)
        # Prefork preload: every world registered before start is built in
        # every worker now, so first jobs land on warm state instead of
        # paying the world build inside a measured request.
        if self._templates:
            templates = dict(self._templates)
            for slot in self._slots:
                slot.templates_sent |= set(templates)
                slot.request_q.put(("preload", templates))
        self._threads = [
            threading.Thread(target=loop, name=f"arachnet-plane-{label}", daemon=True)
            for label, loop in (
                ("sender", self._sender_loop),
                ("collector", self._collector_loop),
                ("monitor", self._monitor_loop),
            )
        ]
        for thread in self._threads:
            thread.start()
        self._started = True
        return self

    def _prepare_slot(self, slot: _WorkerSlot) -> None:
        """Reset a slot for a fresh process (callers hold the lock after
        start).  Dispatch keeps working immediately: rows queued against the
        new request queue wait in its pipe until the process comes up.  The
        old generation's reply pipe is retired, not dropped — the collector
        drains it to EOF so replies that raced the death are consumed."""
        slot.request_q = self._ctx.SimpleQueue()
        if slot.reply_r is not None:
            self._retired_pipes.append(slot.reply_r)
        slot.reply_r, slot.reply_w = self._ctx.Pipe(duplex=False)
        slot.templates_sent = set()
        slot.process = None

    def _launch(self, slot: _WorkerSlot) -> None:
        close_fds: tuple[int, ...] = ()
        if self._method == "fork":
            # The child inherits every sibling pipe open in this parent at
            # fork time; hand it the write-end fds to close so a sibling's
            # death reads as EOF broker-side.
            close_fds = tuple(
                s.reply_w.fileno() for s in self._slots
                if s is not slot and s.reply_w is not None
            )
        process = self._ctx.Process(
            target=_worker_main,
            args=(slot.index, slot.request_q, slot.reply_w, close_fds),
            name=f"arachnet-worker-{slot.index}",
            daemon=True,
        )
        process.start()
        slot.process = process
        # The worker owns the write end now; holding our copy open would
        # mask its death from the reader.
        slot.reply_w.close()
        slot.reply_w = None

    def shutdown(self, wait: bool = True) -> None:
        with self._lock:
            if self._stopped or not self._started:
                self._stopped = True
                return
            self._stopped = True
            self._stop.set()
            self._work.notify_all()
        sender, collector, monitor = self._threads
        sender.join(timeout=5)
        for slot in self._slots:
            slot.request_q.put(("stop",))
        if not wait:
            # Abandoning shutdown: nothing will run or collect the
            # outstanding work, so fail its futures now rather than leave
            # callers blocked on events that can never fire.
            with self._lock:
                futures, self._futures = self._futures, {}
            for future in futures.values():
                future.set_exception(BackendError("process backend shut down"))
            self._wake_collector()
            return
        for slot in self._slots:
            if slot.process is None:  # pragma: no cover - raced a respawn
                continue
            slot.process.join(timeout=15)
            if slot.process.is_alive():  # pragma: no cover - stuck pipeline
                slot.process.terminate()
                slot.process.join(timeout=5)
        monitor.join(timeout=5)
        self._wake_collector()
        collector.join(timeout=15)
        # Fail anything still outstanding so no claimer thread hangs forever.
        with self._lock:
            futures, self._futures = self._futures, {}
        for future in futures.values():
            future.set_exception(BackendError("process backend shut down"))

    def kill_worker(self, index: int) -> None:
        """Fault injection for tests: hard-kill one worker process."""
        self._slots[index].process.kill()

    # -- shard registration ------------------------------------------------

    def prepare(self, shard: WorldShard) -> None:
        self._templates[shard.key] = self._template_for(shard)

    def forget(self, shard_key: str) -> None:
        with self._lock:
            self._templates.pop(shard_key, None)
            stale = [k for k, (_, _, owner) in self._affinity.items()
                     if owner == shard_key]
            for key in stale:
                del self._affinity[key]
            slots = [
                slot for slot in self._slots
                if slot.request_q is not None and shard_key in slot.templates_sent
            ]
            for slot in slots:
                slot.templates_sent.discard(shard_key)
        for slot in slots:
            slot.request_q.put(("forget", shard_key))

    # -- dispatch ----------------------------------------------------------

    def _affinity_key(self, shard: WorldShard, query: str,
                      params: dict | None) -> str:
        return affinity_key(shard, query, params)

    def _choose_slot(self, key: str, shard_key: str,
                     excluded: tuple[int, ...]) -> _WorkerSlot:
        """Sticky slot for ``key``, stolen by an idle slot when the bound
        one is backlogged; least-loaded assignment on first sight."""
        eligible = [s for s in self._slots if s.index not in excluded]
        if not eligible:  # excluding every slot would deadlock the retry
            eligible = self._slots
        bound = self._affinity.get(key)
        if bound is not None:
            index, generation, _ = bound
            slot = self._slots[index]
            if slot.generation == generation and index not in excluded:
                idle = [s for s in eligible
                        if s.index != index and s.depth() == 0]
                if slot.depth() > STEAL_THRESHOLD and idle:
                    thief = idle[0]
                    self._counts["steals"] += 1
                    self._affinity[key] = (thief.index, thief.generation,
                                           shard_key)
                    self._affinity.move_to_end(key)
                    return thief
                self._counts["hits"] += 1
                self._affinity.move_to_end(key)
                return slot
        self._counts["misses"] += 1
        slot = min(eligible, key=lambda s: (s.depth(), s.index))
        self._affinity[key] = (slot.index, slot.generation, shard_key)
        self._affinity.move_to_end(key)
        while len(self._affinity) > AFFINITY_MAP_BOUND:
            self._affinity.popitem(last=False)
        return slot

    def _dispatch(self, shard: WorldShard, query: str, params: dict | None,
                  excluded: tuple[int, ...] = (), trace=None) -> Future:
        if not self._started or self._stopped:
            raise BackendError("process backend is not started")
        if shard.key not in self._templates:
            self._templates[shard.key] = self._template_for(shard)
        key = self._affinity_key(shard, query, params)
        future = Future()
        with self._lock:
            slot = self._choose_slot(key, shard.key, excluded)
            job_id = next(self._job_ids)
            self._futures[job_id] = future
            slot.pending.append((job_id, shard.key, query, params, trace))
            self._work.notify_all()
        return future

    def run(
        self,
        shard: WorldShard,
        query: str,
        params: dict | None,
        observer=None,
        excluded_workers: tuple[int, ...] = (),
        trace=None,
    ) -> PipelineResult:
        result = self._dispatch(shard, query, params, excluded_workers,
                                trace=trace).result()
        self._replay(result, observer)
        return result

    @staticmethod
    def _replay(result: PipelineResult, observer) -> None:
        if observer is not None:
            # Traces travelled back inside the result; replay them.  (A job
            # that raised worker-side surfaces as an exception — its partial
            # trace does not cross the process boundary.)
            for trace in result.stage_trace:
                observer(trace)

    # -- plane threads -----------------------------------------------------

    def _sender_loop(self) -> None:
        """Give every idle slot its next pending row, one row per message.

        A slot with a job in flight gets nothing more until that job's
        reply (or the slot's respawn) empties ``inflight``, so a job's
        deadline clock starts when the job itself reaches the worker."""
        while True:
            sends = []
            with self._work:
                while not self._stop.is_set() and not any(
                    slot.pending and not slot.inflight for slot in self._slots
                ):
                    self._work.wait(0.1)
                if self._stop.is_set():
                    return
                now = time.monotonic()
                for slot in self._slots:
                    if not slot.pending or slot.inflight:
                        continue
                    row = slot.pending.popleft()
                    shard_key = row[1]
                    templates = {}
                    # Record only what actually ships: a template missing
                    # here (shard forgotten mid-dispatch) must not poison
                    # the slot for a later re-registration of the shard.
                    if (shard_key not in slot.templates_sent
                            and shard_key in self._templates):
                        templates[shard_key] = self._templates[shard_key]
                        slot.templates_sent.add(shard_key)
                    slot.inflight[row[0]] = now
                    sends.append((slot.request_q, ("run", templates, row)))
            for queue, message in sends:
                queue.put(message)

    def _wake_collector(self) -> None:
        try:
            self._wake_w.send_bytes(b"w")
        except (OSError, ValueError):  # pragma: no cover - already closing
            pass

    def _collector_loop(self) -> None:
        """Multiplex every worker's private reply pipe.

        A reader per writer means no cross-process reply lock exists to be
        poisoned by a SIGKILL; a worker that dies mid-write surfaces as
        EOF (its fd has no other holders) and its in-flight job is the
        monitor's to fail.  Retired pipes — prior generations of respawned
        slots — are drained to EOF so replies that raced the death are
        consumed and the pipe closed.
        """
        while True:
            with self._lock:
                # Purge pipes closed by a drain that raced slot retirement;
                # waiting on a closed fd would raise forever.
                self._retired_pipes = [
                    c for c in self._retired_pipes if not c.closed
                ]
                readers = {
                    slot.reply_r: False  # conn -> is_retired
                    for slot in self._slots
                    if slot.reply_r is not None and not slot.reply_r.closed
                }
                for conn in self._retired_pipes:
                    readers[conn] = True
            try:
                ready = connection.wait(
                    list(readers) + [self._wake_r], timeout=0.2
                )
            except (OSError, ValueError):  # a pipe retired mid-wait
                continue
            stop = False
            for conn in ready:
                if conn is self._wake_r:
                    try:
                        self._wake_r.recv_bytes()
                    except (EOFError, OSError):  # pragma: no cover
                        pass
                    stop = self._stop.is_set()
                    continue
                self._drain_pipe(conn, retired=readers[conn])
            if stop:
                # Final sweep: every worker has exited (or been killed);
                # their pipes hold only complete messages then EOF.
                with self._lock:
                    leftovers = ([s.reply_r for s in self._slots
                                  if s.reply_r is not None]
                                 + list(self._retired_pipes))
                for conn in leftovers:
                    self._drain_pipe(conn, retired=True)
                return

    def _drain_pipe(self, conn, retired: bool) -> None:
        """Consume every complete message on one reply pipe, closing it on
        EOF.  A live slot's pipe is detached from its slot when it EOFs —
        drained empty, it can carry nothing more, and leaving it in the
        wait set would spin the collector hot until the monitor respawns
        the slot (which, during shutdown, it never does)."""
        while True:
            try:
                if not conn.poll():
                    return
                message = conn.recv()
            except (EOFError, OSError):
                try:
                    conn.close()
                except OSError:  # pragma: no cover
                    pass
                with self._lock:
                    if retired:
                        if conn in self._retired_pipes:
                            self._retired_pipes.remove(conn)
                    else:
                        for slot in self._slots:
                            if slot.reply_r is conn:
                                # The monitor's _prepare_slot skips the
                                # retire step for a None pipe and builds a
                                # fresh one for the respawn.
                                slot.reply_r = None
                return
            self._handle_reply(message)

    def _handle_reply(self, message: tuple) -> None:
        if message[0] == "preloaded":
            with self._lock:
                self._proc_cache_stats.setdefault(message[2], None)
            return
        _, index, job_id, ok, outcome, meta = message
        if meta is not None:
            if self.flight is not None:
                # Reply metadata doubles as the worker's liveness signal.
                self.flight.heartbeat(f"worker-{index}", pid=meta["pid"])
            # Absorb worker-side observability before the future resolves,
            # so a caller that wakes on the result already sees its spans.
            spans = meta.get("spans")
            if spans:
                self.tracer.ingest(spans)
            deltas = meta.get("metrics")
            if deltas and self.metrics is not None:
                self.metrics.absorb(deltas)
        with self._lock:
            future = self._futures.pop(job_id, None)
            if future is not None:
                # A job already failed by the deadline sweep keeps its slot
                # busy until the kill it ordered respawns the worker.
                self._slots[index].inflight.pop(job_id, None)
                self._work.notify_all()
            if meta is not None:
                self._proc_cache_stats[meta["pid"]] = meta["cache"]
        if future is None:
            return
        if ok:
            future.set_result(outcome)
        else:
            future.set_exception(_decode_exception(outcome))

    def _enforce_deadlines(self) -> None:
        """The monitor plane's per-job deadline sweep.

        A job running longer than ``job_timeout_s`` has its future failed
        with :class:`JobDeadlineExceeded` and its worker process killed —
        preforked workers run arbitrary generated code, so the only
        reliable preemption is taking the process down and letting the
        respawn path rebuild the slot.  Rows still pending on the slot
        survive the respawn and run on the replacement.
        """
        now = time.monotonic()
        victims = []
        with self._lock:
            for slot in self._slots:
                if slot.process is None or not slot.process.is_alive():
                    continue  # already died; the sentinel path owns cleanup
                futures = [
                    self._futures.pop(job_id)
                    for job_id, sent in slot.inflight.items()
                    if now - sent > self.job_timeout_s
                    and job_id in self._futures
                ]
                if futures:
                    self._counts["deadline_kills"] += 1
                    victims.append((slot, slot.process, futures))
        for slot, process, futures in victims:
            for future in futures:
                future.set_exception(
                    JobDeadlineExceeded(slot.index, self.job_timeout_s))
            if self.flight is not None:
                self.flight.record("job_deadline_exceeded", {
                    "slot": slot.index,
                    "jobs": len(futures),
                    "timeout_s": self.job_timeout_s,
                })
            process.kill()  # the sentinel wait below respawns the slot

    def _monitor_loop(self) -> None:
        while not self._stop.is_set():
            if self.job_timeout_s is not None:
                self._enforce_deadlines()
            with self._lock:
                # Every spawned process, alive or not: a worker that died
                # between two wait windows has a ready sentinel and MUST
                # still be handled, or its in-flight jobs hang forever.
                sentinels = {
                    slot.process.sentinel: slot
                    for slot in self._slots
                    if slot.process is not None
                }
            if not sentinels:
                if self._stop.wait(0.1):
                    return
                continue
            ready = connection.wait(list(sentinels), timeout=0.2)
            for sentinel in ready:
                slot = sentinels[sentinel]
                crashed: list[Future] = []
                with self._lock:
                    if (self._stopped or slot.process is None
                            or slot.process.sentinel != sentinel):
                        continue
                    if slot.process.is_alive():  # pragma: no cover - raced
                        continue
                    # The in-flight job died with the process; pending
                    # (unsent) rows survive in the slot and reach the
                    # replacement.
                    for job_id in sorted(slot.inflight):
                        future = self._futures.pop(job_id, None)
                        if future is not None:
                            crashed.append(future)
                    slot.inflight.clear()
                    slot.generation += 1
                    self._counts["respawns"] += 1
                    self._prepare_slot(slot)
                    self._work.notify_all()
                # Fork outside the lock so process creation never stalls
                # dispatch/collection.  Forking here, after threads exist,
                # mirrors multiprocessing.Pool's own worker repopulation:
                # safe because the child only touches the fresh request
                # queue and its own private reply pipe (plus the close_fds
                # hand-off in _launch), never broker-side thread state.
                self._launch(slot)
                if self.flight is not None:
                    # The black box's SIGKILL path: record + dump while the
                    # dead generation's last spans are still in the ring.
                    # No deadlock: the dump's stat sources take self._lock,
                    # which is not held here.
                    detail = {
                        "slot": slot.index,
                        "generation": slot.generation,
                        "inflight_failed": len(crashed),
                    }
                    self.flight.record("worker_respawn", detail)
                    self.flight.dump("worker_respawn", extra=detail)
                for future in crashed:
                    future.set_exception(WorkerCrashed(slot.index))

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict:
        """Affinity economics, deadline kills, and aggregated per-process
        artifact-cache stats (last seen per pid)."""
        with self._lock:
            counts = dict(self._counts)
            snapshots = [s for s in self._proc_cache_stats.values() if s]
            processes = len(self._proc_cache_stats)
            bindings = len(self._affinity)
        merged = None
        if snapshots:
            merged = {
                "entries": sum(s["entries"] for s in snapshots),
                "hits": sum(s["hits"] for s in snapshots),
                "misses": sum(s["misses"] for s in snapshots),
                "evictions": sum(s["evictions"] for s in snapshots),
            }
            total = merged["hits"] + merged["misses"]
            merged["hit_rate"] = merged["hits"] / total if total else 0.0
        routed = counts["hits"] + counts["misses"] + counts["steals"]
        return {
            "backend": self.name,
            "workers": self.num_workers,
            "processes": processes,
            "cache": merged,
            "affinity": {
                "hits": counts["hits"],
                "misses": counts["misses"],
                "steals": counts["steals"],
                "hit_rate": counts["hits"] / routed if routed else 0.0,
                "bindings": bindings,
                "respawns": counts["respawns"],
            },
            "deadline": {
                "timeout_s": self.job_timeout_s,
                "kills": counts["deadline_kills"],
            },
        }

    def _template_for(self, shard: WorldShard) -> JobPayload:
        """Validate the shard is shippable and build its payload template."""
        system = shard.system
        if system.curate:
            raise BackendError(
                "process backend does not support curation (registry evolution "
                "would be process-local and diverge); use the thread backend"
            )
        registry = system.registry
        names = tuple(registry.names())
        if default_registry().subset(names=list(names)).fingerprint() != registry.fingerprint():
            raise BackendError(
                "process backend requires a registry derivable from the default "
                "registry by name subset; use the thread backend for custom entries"
            )
        try:
            llm_blob = pickle.dumps(self._llm_factory)
        except Exception as exc:
            raise BackendError(
                "llm_factory must be picklable for the process backend — use "
                f"functools.partial over a module-level class, not a lambda ({exc})"
            ) from None
        world = shard.world
        return JobPayload(
            query="",
            params=None,
            world_config=world.config,
            world_fingerprint=world.fingerprint(),
            registry_names=names,
            registry_fingerprint=registry.fingerprint(),
            incidents=tuple(system.context.incidents),
            llm_factory=self._llm_factory,
            llm_key=hashlib.sha256(llm_blob).hexdigest()[:16],
            cache_entries=self._cache_entries,
        )


def build_backend(
    name: str,
    num_workers: int = 4,
    llm_factory=None,
    cache_entries: int = 4096,
    job_timeout_s: float | None = None,
) -> ExecutionBackend:
    """Backend factory for :class:`ServeConfig.backend` names.

    ``job_timeout_s`` only binds on the process backend — the thread
    backend runs jobs on the claiming thread, which Python cannot preempt.
    """
    if name == "thread":
        return ThreadPoolBackend()
    if name == "process":
        return ProcessPoolBackend(
            num_workers=num_workers,
            llm_factory=llm_factory,
            cache_entries=cache_entries,
            job_timeout_s=job_timeout_s,
        )
    raise BackendError(f"unknown backend {name!r}; expected one of {BACKEND_NAMES}")
