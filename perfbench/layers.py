"""Per-layer timing for the traced run.

``Probes`` installs timing wrappers on a few public methods, records a
benchmark span around every wrapped call in the run's tracer, and keeps
the numbers the per-layer metrics need.  The ``*_layers`` functions turn
ledger rows, backend stats and probe totals into named metrics (see
``spec.PER_LAYER``).  Nothing here is installed in an untraced run.
"""

from __future__ import annotations

import functools
import threading
import time

from measure import percentile
from spec import AGENT_STAGES, LIVE_LAYERS, PER_LAYER_NAMES, QUERY_FAMILIES, TOOL_ENTRIES

#: Wrapped live-plane method -> the per-epoch layer it is charged to.
LIVE_METHODS = [
    ("repro.live.clock", "WorldTimeline", "step", "step"),
    ("repro.live.telemetry", "TracerouteFeed", "publish_epoch", "telemetry"),
    ("repro.live.telemetry", "BGPFeed", "publish_epoch", "telemetry"),
    ("repro.live.detectors", "DetectorBank", "process_pending", "detectors"),
    ("repro.live.standing", "StandingQueryManager", "on_epoch", "standing"),
    ("repro.live.standing", "StandingQueryManager", "collect", "standing"),
    ("repro.live.forensics", "ForensicTrigger", "on_epoch", "forensics"),
    ("repro.live.forensics", "ForensicTrigger", "collect", "forensics"),
]


class Probes:
    """Timing wrappers plus their accumulators; ``install``/``uninstall``
    bracket the traced workload."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.tool_s: dict[str, float] = {}
        self.tool_calls: dict[str, int] = {}
        self.journal_append_s: list[float] = []
        #: "cold" or "warm": which live phase epochs are charged to.
        self.live_phase = "cold"
        self.epochs: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._originals: list[tuple] = []

    # -- span stack --------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _timed(self, original, span_name, record):
        probes = self

        @functools.wraps(original)
        def timed(*args, **kwargs):
            name = span_name(args, kwargs)
            stack = probes._stack()
            span = probes.tracer.start_span(
                name, parent=stack[-1] if stack else None, cat="bench")
            stack.append(span)
            started = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                stack.pop()
                span.end()
                record(name, elapsed)

        return timed

    def _patch(self, cls, attr, replacement) -> None:
        self._originals.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    # -- install -----------------------------------------------------------

    def install(self) -> None:
        import importlib

        from repro.core.catalog import ToolCatalog
        from repro.core.pipeline import ArachNet
        from repro.serve.journal import WriteAheadJournal

        self._patch(ToolCatalog, "call", self._timed(
            ToolCatalog.call, lambda a, k: "tool." + a[1], self._record_tool))
        self._patch(WriteAheadJournal, "append", self._timed(
            WriteAheadJournal.append, lambda a, k: "journal.append",
            self._record_journal))
        for module, cls_name, method, layer in LIVE_METHODS:
            cls = getattr(importlib.import_module(module), cls_name)
            self._patch(cls, method, self._timed(
                cls.__dict__[method], lambda a, k, m=method, c=cls_name: f"live.{c}.{m}",
                functools.partial(self._record_live, layer)))
        # Tool calls run inside a served job: parent their spans under the
        # job's dispatch span, which the backend hands to ``answer``.
        original_answer = ArachNet.__dict__["answer"]
        probes = self

        @functools.wraps(original_answer)
        def answer(system, *args, **kwargs):
            stack = probes._stack()
            stack.append(kwargs.get("trace_parent"))
            try:
                return original_answer(system, *args, **kwargs)
            finally:
                stack.pop()

        self._patch(ArachNet, "answer", answer)

    def uninstall(self) -> None:
        while self._originals:
            cls, attr, original = self._originals.pop()
            setattr(cls, attr, original)

    # -- recorders ---------------------------------------------------------

    def _record_tool(self, name: str, elapsed: float) -> None:
        entry = name[len("tool."):]
        with self._lock:
            self.tool_s[entry] = self.tool_s.get(entry, 0.0) + elapsed
            self.tool_calls[entry] = self.tool_calls.get(entry, 0) + 1

    def _record_journal(self, name: str, elapsed: float) -> None:
        with self._lock:
            self.journal_append_s.append(elapsed)

    def _record_live(self, layer: str, name: str, elapsed: float) -> None:
        with self._lock:
            if layer == "step" or not self.epochs:
                self.epochs.append({"phase": self.live_phase})
            epoch = self.epochs[-1]
            epoch[layer] = epoch.get(layer, 0.0) + elapsed


# -- metric builders ---------------------------------------------------------


def empty_layers() -> dict[str, float]:
    """Every per-layer metric at 0: the value for a layer the workload
    does not exercise."""
    return {name: 0.0 for name in PER_LAYER_NAMES}


def ledger_layers(rows: list, family_of: dict[str, str]) -> dict[str, float]:
    """Scheduler, dispatch, cache and agent/executor numbers from ledger
    rows (:class:`~repro.serve.provenance.JobProvenance`); ``family_of``
    maps a ticket to its query family."""
    out: dict[str, float] = {}
    rows = [r for r in rows if r.finished_at and r.started_at and r.stages]
    queue_ms = [r.queue_delay_s * 1000.0 for r in rows]
    out["serve.queue_wait_ms.p50"] = percentile(queue_ms, 50)
    out["serve.queue_wait_ms.p90"] = percentile(queue_ms, 90)
    dispatch_ms = [
        max(0.0, r.run_duration_s - sum(s.duration_s for s in r.stages)) * 1000.0
        for r in rows
    ]
    out["serve.dispatch_ms.p50"] = percentile(dispatch_ms, 50)
    hits = lookups = 0
    for stage in AGENT_STAGES:
        records = [s for r in rows for s in r.stages if s.stage == stage]
        stage_hits = sum(1 for s in records if s.cache_hit)
        out[f"serve.cache.hit_rate.{stage}"] = (
            stage_hits / len(records) if records else 0.0)
        out[f"core.{stage}_ms"] = percentile(
            [s.duration_s * 1000.0 for s in records if not s.cache_hit], 50)
        hits += stage_hits
        lookups += len(records)
    out["serve.cache.hit_rate"] = hits / lookups if lookups else 0.0
    executor: dict[str, list[float]] = {family: [] for family in QUERY_FAMILIES}
    everything: list[float] = []
    for r in rows:
        for s in r.stages:
            if s.stage == "executor":
                everything.append(s.duration_s * 1000.0)
                family = family_of.get(r.job_id)
                if family in executor:
                    executor[family].append(s.duration_s * 1000.0)
    out["core.executor_ms.p50"] = percentile(everything, 50)
    for family, values in executor.items():
        out[f"core.executor_ms.p50.{family}"] = percentile(values, 50)
    return out


def backend_layers(backend_stats: dict) -> dict[str, float]:
    affinity = backend_stats.get("affinity") or {}
    dispatch = backend_stats.get("dispatch") or {}
    return {
        "serve.backends.affinity_hit_rate": float(affinity.get("hit_rate", 0.0)),
        "serve.backends.dispatch_mean_batch": float(dispatch.get("mean_batch", 0.0)),
        "serve.backends.shm_results": float(dispatch.get("shm_results", 0)),
        "serve.backends.respawns": float(affinity.get("respawns", 0)),
    }


def probe_layers(probes: Probes) -> dict[str, float]:
    """Tool-call, journal and live-epoch numbers from the wrappers."""
    out: dict[str, float] = {}
    for entry in TOOL_ENTRIES:
        out[f"tool.{entry}.ms"] = probes.tool_s.get(entry, 0.0) * 1000.0
        out[f"tool.{entry}.calls"] = float(probes.tool_calls.get(entry, 0))
    appends = probes.journal_append_s
    out["serve.journal.append_ms.p50"] = percentile([s * 1000.0 for s in appends], 50)
    out["serve.journal.appends"] = float(len(appends))
    for layer in LIVE_LAYERS:
        for phase in ("cold", "warm"):
            values = [e.get(layer, 0.0) * 1000.0 for e in probes.epochs
                      if e["phase"] == phase]
            out[f"live.{layer}_ms.p50.{phase}"] = percentile(values, 50)
            out[f"live.{layer}_ms.total.{phase}"] = sum(values)
    return out
