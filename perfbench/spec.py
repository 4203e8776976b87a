"""What the benchmark measures: workloads, metrics, and how they relate.

This module is the single source of ``BENCHMARK.json`` (``run.py
--write-spec`` regenerates it) and of the per-layer prediction table:
for each per-layer metric, the end-to-end metric it should move and on
which workload.  ``BENCHMARK.json`` allows no extra keys, so the
predictions live here and in ``perfbench/README.md``.
"""

from __future__ import annotations

import json

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 30

#: A served ``ask_stream`` request is "ok" when it succeeds and settles
#: within this many milliseconds of its scheduled send time.
ASK_LIMIT_MS = 10_000.0

#: The gated workloads: listed in BENCHMARK.json, each with a regression bound.
WORKLOADS = [
    {
        "name": "campaign",
        "why": (
            "closed batch of the 26-job scenario matrix per world, cold then "
            "resubmitted, on a process broker without journal: dispatch, IPC, "
            "affinity, stage cache"
        ),
    },
    {
        "name": "live_forensics",
        "why": (
            "24-epoch replays of 3 overlapping disasters with forensics armed "
            "and fsync journal, one cold then warm replays per timeline: "
            "alert-to-verdict path, live plane layers"
        ),
    },
]

#: Runnable with ``--workload`` but not gated: an open-loop stream of 30
#: requests per run, whose latency percentiles spread 34-40% across seeds
#: on a 2-core host, more than the largest bound the gate allows.
UNGATED_WORKLOADS = ["ask_stream"]

#: End-to-end metrics.  Every workload reports every one of them.
END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.15},
    {"name": "answer_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "answer_p90_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "cold_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "warm_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
]

#: The workload-specific name each generic end-to-end metric is printed
#: under (README.md says how each workload measures it).
METRIC_ALIASES = {
    "ask_stream": {
        "answer_p50_ms": "ask_p50_ms",
        "answer_p90_ms": "ask_p90_ms",
        "cold_per_s": "ask_capacity_per_s",
        "warm_per_s": "ask_rejoin_per_s",
    },
    "campaign": {
        "answer_p50_ms": "campaign_job_p50_ms",
        "answer_p90_ms": "campaign_job_p90_ms",
        "cold_per_s": "campaign_cold_jobs_per_s",
        "warm_per_s": "campaign_warm_jobs_per_s",
    },
    "live_forensics": {
        "answer_p50_ms": "verdict_p50_ms",
        "answer_p90_ms": "verdict_p90_ms",
        "cold_per_s": "live_cold_epochs_per_s",
        "warm_per_s": "live_warm_epochs_per_s",
    },
}

TOOL_ENTRIES = [
    "traceroute.run_campaign",
    "traceroute.latency_series",
    "traceroute.detect_latency_anomalies",
    "nautilus.map_ip_links_to_cables",
    "nautilus.get_cable_dependencies",
    "xaminer.process_event",
    "bgp.fetch_updates",
    "bgp.summarize_path_changes",
    "bgp.detect_routing_anomalies",
]

QUERY_FAMILIES = ["cable_impact", "disaster", "cascade", "forensic"]
AGENT_STAGES = ["querymind", "workflowscout", "solutionweaver"]
LIVE_LAYERS = ["step", "telemetry", "detectors", "standing", "forensics"]

ASK, CAMPAIGN, LIVE = "ask_stream", "campaign", "live_forensics"


def _layer(name, unit, better, moves):
    """One per-layer metric and its prediction: ``moves`` lists
    ``(end-to-end metric, workload)`` pairs it should move."""
    return {"name": name, "unit": unit, "better": better, "moves": moves}


def per_layer_table() -> list[dict]:
    rows = [
        # serve.scheduler
        _layer("serve.queue_wait_ms.p50", "ms", "lower",
               [("answer_p90_ms", ASK), ("cold_per_s", CAMPAIGN)]),
        _layer("serve.queue_wait_ms.p90", "ms", "lower",
               [("answer_p90_ms", ASK), ("cold_per_s", CAMPAIGN)]),
        # serve.backends
        _layer("serve.dispatch_ms.p50", "ms", "lower",
               [("cold_per_s", CAMPAIGN), ("warm_per_s", CAMPAIGN)]),
        _layer("serve.backends.affinity_hit_rate", "frac", "higher",
               [("warm_per_s", CAMPAIGN)]),
        _layer("serve.backends.dispatch_mean_batch", "count", "higher",
               [("warm_per_s", CAMPAIGN)]),
        _layer("serve.backends.shm_results", "count", "higher",
               [("warm_per_s", CAMPAIGN)]),
        _layer("serve.backends.respawns", "count", "lower",
               [("warm_per_s", CAMPAIGN)]),
        # serve.cache
        _layer("serve.cache.hit_rate", "frac", "higher", [("warm_per_s", CAMPAIGN)]),
    ]
    rows += [
        _layer(f"serve.cache.hit_rate.{stage}", "frac", "higher",
               [("warm_per_s", CAMPAIGN)])
        for stage in AGENT_STAGES
    ]
    rows += [
        # serve.journal (off on campaign: no change predicted there)
        _layer("serve.journal.append_ms.p50", "ms", "lower",
               [("answer_p50_ms", ASK), ("cold_per_s", LIVE)]),
        _layer("serve.journal.appends", "count", "lower",
               [("answer_p50_ms", ASK), ("cold_per_s", LIVE)]),
    ]
    # core.agents: p50 over cache misses
    rows += [
        _layer(f"core.{stage}_ms", "ms", "lower",
               [("answer_p50_ms", ASK), ("cold_per_s", CAMPAIGN)])
        for stage in AGENT_STAGES
    ]
    executor_moves = [("answer_p50_ms", ASK), ("answer_p90_ms", ASK),
                      ("cold_per_s", CAMPAIGN), ("warm_per_s", CAMPAIGN),
                      ("cold_per_s", LIVE), ("answer_p50_ms", LIVE)]
    rows.append(_layer("core.executor_ms.p50", "ms", "lower", executor_moves))
    rows += [
        _layer(f"core.executor_ms.p50.{family}", "ms", "lower", executor_moves)
        for family in QUERY_FAMILIES
    ]
    # core.catalog: in-process tool calls
    for entry in TOOL_ENTRIES:
        moves = [("answer_p90_ms", ASK), ("answer_p50_ms", LIVE)]
        rows.append(_layer(f"tool.{entry}.ms", "ms", "lower", moves))
        rows.append(_layer(f"tool.{entry}.calls", "count", "lower", moves))
    # live: per-epoch layers, p50 and run total, cold and warm
    for layer in LIVE_LAYERS:
        if layer in ("standing", "forensics"):
            moves = [("cold_per_s", LIVE), ("answer_p50_ms", LIVE)]
        else:
            moves = [("warm_per_s", LIVE)]
        for stat in ("p50", "total"):
            for phase in ("cold", "warm"):
                rows.append(_layer(f"live.{layer}_ms.{stat}.{phase}", "ms", "lower", moves))
    cold_live = [("cold_per_s", LIVE), ("answer_p50_ms", LIVE)]
    rows += [
        _layer("live.standing_computed", "count", "lower", cold_live),
        _layer("live.standing_from_cache", "count", "higher", cold_live),
        _layer("live.forensic_queries", "count", "lower", cold_live),
        _layer("live.epoch_shards_evicted", "count", "lower", cold_live),
        _layer("routing.repair_fraction", "frac", "lower", [("warm_per_s", LIVE)]),
        _layer("routing.cache_hits", "count", "higher", [("warm_per_s", LIVE)]),
        _layer("routing.cache_misses", "count", "lower", [("warm_per_s", LIVE)]),
        _layer("synth.world_build_ms", "ms", "lower",
               [("setup_s", ASK), ("setup_s", CAMPAIGN), ("setup_s", LIVE)]),
        _layer("obs.trace_overhead_frac", "frac", "lower", []),
    ]
    return rows


PER_LAYER = per_layer_table()
PER_LAYER_NAMES = [row["name"] for row in PER_LAYER]
END_TO_END_NAMES = [row["name"] for row in END_TO_END]
WORKLOAD_NAMES = [row["name"] for row in WORKLOADS]
ALL_WORKLOAD_NAMES = WORKLOAD_NAMES + UNGATED_WORKLOADS


def benchmark_document() -> dict:
    """The ``BENCHMARK.json`` content (its schema allows exactly these keys)."""
    return {
        "command": list(COMMAND),
        "paths": list(PATHS),
        "run_seconds": RUN_SECONDS,
        "workloads": [dict(w) for w in WORKLOADS],
        "end_to_end": [dict(m) for m in END_TO_END],
        "per_layer": [
            {"name": m["name"], "unit": m["unit"], "better": m["better"]}
            for m in PER_LAYER
        ],
    }


def render_document() -> str:
    return json.dumps(benchmark_document(), indent=2) + "\n"


def unit_of(name: str) -> str:
    for row in END_TO_END + PER_LAYER:
        if row["name"] == name:
            return row["unit"]
    raise KeyError(name)
