"""The three benchmark workloads.

Each runs inside its own child process (see ``run.py``) and drives the
system only through its public entry points: ``QueryBroker``,
``run_campaign``, ``run_live_replay`` and ``ArachNet``.  Every input —
worlds, questions, arrival schedule, timelines — is generated from the
run's seed before the program sees it.
"""

from __future__ import annotations

import os
import random
import shutil
import statistics
import tempfile
import threading
import time

from layers import Probes, backend_layers, empty_layers, ledger_layers, probe_layers
from measure import percentile, union_length
from spec import ASK_LIMIT_MS

from repro.core.pipeline import ArachNet
from repro.live import LiveConfig, overlapping_catalog_timeline, run_live_replay
from repro.obs import Tracer
from repro.serve import CampaignSpec, JobState, QueryBroker, ServeConfig, run_campaign
from repro.serve.campaign import CABLE_IMPACT_TEMPLATE, CASCADE_TEMPLATE, DISASTER_TEMPLATE
from repro.synth.scenarios import make_latency_incident
from repro.synth.world import WorldConfig, build_world

WORKERS = os.cpu_count() or 2
#: Each set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 5

# -- ask_stream ------------------------------------------------------------

#: The worlds every run asks about; the seed draws questions and schedule.
ASK_WORLD_SEEDS = (7, 8)
#: Open-loop arrival rate: about 40% of this mix's capacity (2.5-3
#: requests/s) on a 2-core host.
ASK_RATE_PER_S = 1.0
#: Requests per family in each block of ten sent.
FAMILY_WEIGHTS = {"cable_impact": 4, "disaster": 2, "cascade": 2, "forensic": 2}
REGIONS = ("Europe", "Asia", "Middle East", "Africa", "North America",
           "South America", "Oceania")
DISASTER_KINDS = ("earthquake", "hurricane")
FORENSIC_TEMPLATE = (
    "A sudden increase in latency was observed from European probes to "
    "Asian destinations starting {days} days ago. Determine if a submarine "
    "cable failure caused this, and if so, identify the specific cable."
)
FORENSIC_DAYS = {"two": 2, "three": 3, "four": 4}

# -- live_forensics --------------------------------------------------------

LIVE_WORLD_SEED = 7
#: One timeline per LIVE_TIMELINE_S seconds of the run (at least 2).
LIVE_TIMELINE_S = 10.0
LIVE_EPOCHS = 24
#: (first_epoch, stagger_epochs, duration_epochs) shapes for the three
#: overlapping disasters.  Each confirms all three incidents at the seed
#: commit with the same corridor escalation per case (3, 2 and 3 queries),
#: so the shape moves verdict timing without changing the work per case.
TIMELINE_SHAPES = ((4, 2, 8), (3, 2, 8), (5, 2, 8), (4, 3, 8), (4, 2, 10))


class Run:
    """One workload run: its seeded inputs, measurements and checks."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 scratch_dir: str):
        self.seconds = seconds
        self.rng = random.Random(f"{workload}:{seed}")
        self.scratch_dir = scratch_dir
        self.tracer = Tracer(label="bench") if trace else None
        self.probes = Probes(self.tracer) if trace else None
        self.attempted = 0
        self.failed = 0
        self.metrics: dict[str, float] = {}
        self.layers = empty_layers()
        self.setup_s: list[float] = []
        self.world_build_s: list[float] = []
        self.temp_dirs: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"CHECK FAILED: {what}", flush=True)

    def build_world(self, seed: int):
        started = time.perf_counter()
        world = build_world(WorldConfig(seed=seed))
        self.world_build_s.append(time.perf_counter() - started)
        return world

    def temp_dir(self, prefix: str) -> str:
        path = tempfile.mkdtemp(prefix=prefix, dir=self.scratch_dir)
        self.temp_dirs.append(path)
        return path

    def instrument(self):
        if self.probes is not None:
            self.probes.install()

    def finish(self) -> None:
        if self.probes is not None:
            self.probes.uninstall()
            self.layers.update(probe_layers(self.probes))
        if self.setup_s:
            self.metrics["setup_s"] = statistics.median(self.setup_s)
        if self.world_build_s:
            self.layers["synth.world_build_ms"] = (
                statistics.median(self.world_build_s) * 1000.0)


def timed_setups(run: Run, build, teardown):
    """Run ``build`` SETUP_REPEATS times, timing each; keep the last result
    and tear the others down."""
    result = None
    for attempt in range(SETUP_REPEATS):
        started = time.perf_counter()
        result = build()
        run.setup_s.append(time.perf_counter() - started)
        if attempt < SETUP_REPEATS - 1:
            teardown(result)
    return result


# -- ask_stream --------------------------------------------------------------


def ask_vocabulary(world) -> dict[str, list[tuple]]:
    """Every (query, incident) pair each family can ask of one world."""
    return {
        "cable_impact": [(CABLE_IMPACT_TEMPLATE.format(cable=c), None)
                         for c in world.cable_names()],
        "disaster": [(DISASTER_TEMPLATE.format(kind=k, probability=p / 100), None)
                     for k in DISASTER_KINDS for p in range(5, 100, 5)],
        "cascade": [(CASCADE_TEMPLATE.format(src=a, dst=b), None)
                    for a in REGIONS for b in REGIONS if a != b],
        "forensic": [(FORENSIC_TEMPLATE.format(days=word), (cable, days))
                     for cable in world.cable_names()
                     for word, days in FORENSIC_DAYS.items()],
    }


def ask_requests(run: Run, world_seeds: list[int], worlds: list) -> list[dict]:
    """The run's distinct requests in send order, each with its due offset."""
    count = max(len(FAMILY_WEIGHTS) * len(worlds), round(ASK_RATE_PER_S * run.seconds))
    total_weight = sum(FAMILY_WEIGHTS.values())
    per_family = {f: count * w // total_weight for f, w in FAMILY_WEIGHTS.items()}
    for family in list(FAMILY_WEIGHTS)[: count - sum(per_family.values())]:
        per_family[family] += 1
    vocab = [ask_vocabulary(world) for world in worlds]
    requests = []
    for family, n in per_family.items():
        pools = [run.rng.sample(v[family], len(v[family])) for v in vocab]
        for i in range(n):
            index = i % len(worlds)
            query, incident = pools[index].pop()
            key = f"w{world_seeds[index]}"
            if incident is not None:
                key += f"/incident/{incident[0]}/{incident[1]}d"
            requests.append({"family": family, "world": index, "query": query,
                             "incident": incident, "world_key": key})
    run.rng.shuffle(requests)
    # A Poisson process conditioned on its count: arrivals uniform over the
    # window, so every run sends the same number of requests.
    offsets = sorted(run.rng.uniform(0.0, run.seconds) for _ in requests)
    for request, offset in zip(requests, offsets):
        request["due"] = offset
    return requests


def ask_stream(run: Run) -> None:
    world_seeds = list(ASK_WORLD_SEEDS)
    plan_worlds = [build_world(WorldConfig(seed=s)) for s in world_seeds]
    requests = ask_requests(run, world_seeds, plan_worlds)

    def build():
        worlds = [run.build_world(s) for s in world_seeds]
        broker = QueryBroker(
            config=ServeConfig(workers=WORKERS, backend="thread", cache_enabled=True,
                               journal_dir=run.temp_dir("journal-"),
                               journal_fsync=True),
            tracer=run.tracer,
        )
        for seed, world in zip(world_seeds, worlds):
            broker.add_world(f"w{seed}", world)
        for request in requests:
            if request["incident"] is not None and request["world_key"] not in broker.world_keys():
                cable, days = request["incident"]
                world = worlds[request["world"]]
                broker.add_world(request["world_key"], world, incidents=[
                    make_latency_incident(world, cable, days_since_onset=days)])
        return broker.start()

    broker = timed_setups(run, build, lambda b: b.shutdown())
    try:
        # References: one in-process answer per (family, world), on world
        # objects of their own so they warm none of the broker's caches.
        references = {}
        for request in requests:
            slot = (request["family"], request["world"])
            if slot in references:
                continue
            world = plan_worlds[request["world"]]
            incidents = []
            if request["incident"] is not None:
                cable, days = request["incident"]
                incidents = [make_latency_incident(world, cable, days_since_onset=days)]
            system = ArachNet.for_world(world, incidents=incidents, curate=False)
            references[slot] = (request["query"], request["world_key"],
                                system.answer(request["query"]).artifact_digest())
        run.instrument()
        ask_timed_phase(run, broker, requests, references)
    finally:
        broker.shutdown()


def ask_timed_phase(run: Run, broker, requests: list[dict], references: dict) -> None:
    tickets: list[str | None] = [None] * len(requests)
    lags: list[float] = []
    start_wall = time.time()
    start_perf = time.perf_counter()

    def generate():
        for i, request in enumerate(requests):
            delay = request["due"] - (time.perf_counter() - start_perf)
            if delay > 0:
                time.sleep(delay)
            lags.append(time.perf_counter() - start_perf - request["due"])
            tickets[i] = broker.submit(request["query"], world_key=request["world_key"])

    generator = threading.Thread(target=generate, name="ask-generator")
    generator.start()
    generator.join()
    jobs = broker.wait_all(tickets, timeout=300)
    rows = {row.job_id: row for row in broker.ledger.jobs()}

    latencies_ms: list[float] = []
    busy: list[tuple[float, float]] = []
    digests: dict[tuple, str] = {}
    ok = 0
    for request, job in zip(requests, jobs):
        done = job.state is JobState.DONE and job.result.execution.succeeded
        run.check(done, f"{job.ticket} {job.state.value} {job.error[:120]}")
        row = rows[job.ticket]
        latency = (row.finished_at - (start_wall + request["due"])) * 1000.0
        latencies_ms.append(latency if done else float("inf"))
        busy.append((row.started_at, row.finished_at))
        ok += 1 if done and latency <= ASK_LIMIT_MS else 0
        if done:
            digests[(request["query"], request["world_key"])] = job.result.artifact_digest()
    # Each latency splits into generator lag, queue wait, agent stages plus
    # executor, and the dispatch remainder; show that the parts add up.
    residual_ms = max((
        abs(latency - 1000.0 * (lag + row.queue_delay_s + row.run_duration_s))
        for latency, lag, row in zip(latencies_ms, lags,
                                     (rows[job.ticket] for job in jobs))
        if latency != float("inf")), default=0.0)
    print(f"ask: latency = generator lag + queue wait + stages + dispatch "
          f"(largest residual {residual_ms:.3f} ms)")
    for (family, world), (query, key, digest) in sorted(references.items()):
        run.check(digests.get((query, key)) == digest,
                  f"{family} on world {world}: served digest differs from ArachNet.answer")
    busy_s = union_length(busy)
    done_count = sum(1 for v in latencies_ms if v != float("inf"))
    run.metrics["answer_p50_ms"] = percentile(latencies_ms, 50)
    run.metrics["answer_p90_ms"] = percentile(latencies_ms, 90)
    run.metrics["cold_per_s"] = done_count / busy_s if busy_s > 0 else 0.0
    print(f"ask: {len(requests)} requests sent, {done_count} done; "
          f"ask_p50_ms={run.metrics['answer_p50_ms']:.1f} "
          f"ask_p90_ms={run.metrics['answer_p90_ms']:.1f} (n={len(latencies_ms)})")
    print(f"ask: ask_ok_frac={ok / len(requests):.4f} (limit {ASK_LIMIT_MS:.0f} ms); "
          f"ask_generator_lag_ms p50={percentile(lags, 50) * 1000:.3f} "
          f"max={max(lags) * 1000:.3f}")
    if run.probes is not None:
        family_of = {job.ticket: r["family"] for r, job in zip(requests, jobs)}
        run.layers.update(ledger_layers(list(rows.values()), family_of))
        run.layers.update(backend_layers(broker.stats()["backend"]))

    # Warm: the same questions asked again re-join their journaled answers.
    # Each pass re-asks every question once; the rate is the median pass's.
    warm_s = max(1.0, 0.05 * run.seconds)
    rates: list[float] = []
    started = time.perf_counter()
    while not rates or time.perf_counter() - started < warm_s:
        pass_started = time.perf_counter()
        for request in requests:
            key = (request["query"], request["world_key"])
            ticket = broker.submit(request["query"], world_key=request["world_key"])
            job = broker.wait(ticket, timeout=60)
            if not rates:
                run.check(job.replayed and job.result.artifact_digest() == digests.get(key),
                          f"re-asked {key} did not re-join its journaled answer")
        rates.append(len(requests) / (time.perf_counter() - pass_started))
    run.metrics["warm_per_s"] = statistics.median(rates)
    print(f"ask: ask_capacity_per_s={run.metrics['cold_per_s']:.3f} "
          f"ask_rejoin_per_s={run.metrics['warm_per_s']:.1f} "
          f"({len(rates)} passes of {len(requests)} re-asks)")


# -- campaign ----------------------------------------------------------------

#: Worlds per run: one per CAMPAIGN_WORLD_S seconds of the run (at least 2).
CAMPAIGN_WORLD_S = 4.0


def campaign(run: Run) -> None:
    count = max(2, int(run.seconds // CAMPAIGN_WORLD_S))
    world_seeds = run.rng.sample(range(1, 10_000), count)

    def build():
        worlds = [run.build_world(s) for s in world_seeds]
        broker = QueryBroker(config=ServeConfig(
            workers=WORKERS, backend="process", cache_enabled=True),
            tracer=run.tracer)
        return worlds, broker.start()

    worlds, broker = timed_setups(run, build, lambda wb: wb[1].shutdown())
    try:
        # Thread-backend reference for the first world, on its own world
        # object, computed before the timed phase.
        ref_world = build_world(WorldConfig(seed=world_seeds[0]))
        with QueryBroker(ref_world, config=ServeConfig(
                workers=1, backend="thread", cache_enabled=False)) as reference_broker:
            report = run_campaign(reference_broker,
                                  CampaignSpec.for_world(ref_world, cascades=True),
                                  timeout=300)
            reference = campaign_digests(reference_broker, report)

        run.instrument()
        cold_rates: list[float] = []
        warm_rates: list[float] = []
        turnaround_ms: list[float] = []
        family_of: dict[str, str] = {}
        tickets: list[str] = []
        for index, (seed, world) in enumerate(zip(world_seeds, worlds)):
            key = f"w{seed}"
            broker.add_world(key, world)
            spec = CampaignSpec.for_world(world, cascades=True)
            cold = run_campaign(broker, spec, world_key=key, timeout=300)
            cold_digests = campaign_digests(broker, cold)
            turnaround_ms += [
                (row.finished_at - row.submitted_at) * 1000.0
                for row in (broker.ledger.get(t) for t in cold.tickets)
            ]
            warm = run_campaign(broker, spec, world_key=key, timeout=300)
            warm_digests = campaign_digests(broker, warm)
            for report, tag in ((cold, "cold"), (warm, "warm")):
                for outcome in report.outcomes:
                    run.check(outcome["state"] == "done",
                              f"{tag} {key} {outcome['tag']}: {outcome['state']} "
                              f"{outcome['error'][:120]}")
                    family_of[outcome["ticket"]] = {
                        "cable": "cable_impact", "disaster": "disaster",
                        "cascade": "cascade"}[outcome["tag"].split(":")[0]]
            run.check(warm_digests == cold_digests,
                      f"{key}: warm digests differ from cold digests")
            if index == 0:
                run.check(cold_digests == reference,
                          f"{key}: process-backend digests differ from thread reference")
            cold_rates.append(cold.jobs_per_sec)
            warm_rates.append(warm.jobs_per_sec)
            tickets += cold.tickets + warm.tickets
            broker.remove_world(key)
        # Throughputs are medians across worlds, so one slow pass does not
        # swing the run; turnaround pools every cold job of the run.
        run.metrics["answer_p50_ms"] = percentile(turnaround_ms, 50)
        run.metrics["answer_p90_ms"] = percentile(turnaround_ms, 90)
        run.metrics["cold_per_s"] = statistics.median(cold_rates)
        run.metrics["warm_per_s"] = statistics.median(warm_rates)
        if run.probes is not None:
            run.layers.update(ledger_layers(
                [broker.ledger.get(t) for t in tickets], family_of))
            run.layers.update(backend_layers(broker.stats()["backend"]))
        print(f"campaign: {len(worlds)} worlds x {len(spec.expand())} jobs, cold then warm; "
              f"campaign_cold_jobs_per_s={run.metrics['cold_per_s']:.2f} "
              f"campaign_warm_jobs_per_s={run.metrics['warm_per_s']:.2f}")
        print(f"campaign: cold job turnaround p50={run.metrics['answer_p50_ms']:.1f} ms "
              f"p90={run.metrics['answer_p90_ms']:.1f} ms (n={len(turnaround_ms)})")
    finally:
        broker.shutdown()


def campaign_digests(broker, report) -> dict[str, str]:
    digests = {}
    for outcome in report.outcomes:
        job = broker.job(outcome["ticket"])
        if job.result is not None:
            digests[outcome["tag"]] = job.result.artifact_digest()
    return digests


# -- live_forensics ----------------------------------------------------------


def live_forensics(run: Run) -> None:
    count = max(2, round(run.seconds / LIVE_TIMELINE_S))
    shapes = run.rng.sample(TIMELINE_SHAPES, count)
    config = LiveConfig(epochs=LIVE_EPOCHS, workers=WORKERS, forensics=True)
    warm_budget_s = max(1.0, 0.05 * run.seconds)
    verdicts_ms: list[float] = []
    cold_epochs = 0
    cold_s = 0.0
    warm_rates: list[float] = []
    cold_reports = []
    ledger_rows = []

    def build():
        world = run.build_world(LIVE_WORLD_SEED)
        broker = QueryBroker(world, config=ServeConfig(
            workers=WORKERS, backend="thread", cache_enabled=True,
            journal_dir=run.temp_dir("journal-"), journal_fsync=True),
            tracer=run.tracer)
        return world, broker.start()

    # The first timeline's set-up is timed SETUP_REPEATS times; each later
    # timeline times the one build of its fresh world and broker.
    world, broker = timed_setups(run, build, lambda wb: wb[1].shutdown())
    run.instrument()
    for index, (first, stagger, duration) in enumerate(shapes):
        if index > 0:
            started = time.perf_counter()
            world, broker = build()
            run.setup_s.append(time.perf_counter() - started)
        try:
            timeline = overlapping_catalog_timeline(
                world, count=3, first_epoch=first, stagger_epochs=stagger,
                duration_epochs=duration)
            if run.probes is not None:
                run.probes.live_phase = "cold"
            cold = run_live_replay(world=world, timeline_events=timeline,
                                   config=config, broker=broker)
            cold_reports.append(cold)
            ledger_rows += broker.ledger.jobs()
            cold_epochs += cold.epochs
            cold_s += cold.duration_s
            incidents = set(cold.incident_epochs)
            confirmed = {c["event_id"] for c in cold.forensic_cases
                         if c["verdict"] == "confirmed"}
            run.check(len(cold.forensic_cases) == len(incidents) and confirmed == incidents,
                      f"timeline {(first, stagger, duration)}: cases "
                      f"{[(c['event_id'], c['verdict']) for c in cold.forensic_cases]} "
                      f"for incidents {sorted(incidents)}")
            verdicts_ms += [c["verdict_latency_s"] * 1000.0 for c in cold.forensic_cases
                            if c["verdict_latency_s"] is not None]
            if run.probes is not None:
                run.probes.live_phase = "warm"
            started = time.perf_counter()
            while time.perf_counter() - started < warm_budget_s:
                warm = run_live_replay(world=world, timeline_events=timeline,
                                       config=config, broker=broker)
                run.check(warm.forensic_stats.get("queries_submitted", -1) == 0,
                          f"warm replay submitted "
                          f"{warm.forensic_stats.get('queries_submitted')} forensic queries")
                warm_rates.append(warm.epochs_per_sec)
        finally:
            broker.shutdown()
    run.metrics["answer_p50_ms"] = percentile(verdicts_ms, 50)
    run.metrics["answer_p90_ms"] = percentile(verdicts_ms, 90)
    run.metrics["cold_per_s"] = cold_epochs / cold_s
    run.metrics["warm_per_s"] = statistics.median(warm_rates)
    print(f"live: {len(shapes)} timelines; live_cold_epochs_per_s="
          f"{run.metrics['cold_per_s']:.3f} live_warm_epochs_per_s="
          f"{run.metrics['warm_per_s']:.1f} (median of {len(warm_rates)} warm replays)")
    print(f"live: verdict_p50_s={run.metrics['answer_p50_ms'] / 1000:.3f} "
          f"verdict_p90_s={run.metrics['answer_p90_ms'] / 1000:.3f} "
          f"(n={len(verdicts_ms)} cases)")
    if run.probes is not None:
        # Standing and triggered queries are all latency-forensics questions.
        run.layers.update(ledger_layers(
            ledger_rows, {row.job_id: "forensic" for row in ledger_rows}))
        run.layers.update(live_layers(cold_reports))


def live_layers(cold_reports) -> dict[str, float]:
    """Standing, forensic and routing counts summed over cold replays."""
    out = {
        "live.standing_computed": 0.0, "live.standing_from_cache": 0.0,
        "live.forensic_queries": 0.0, "live.epoch_shards_evicted": 0.0,
        "routing.cache_hits": 0.0, "routing.cache_misses": 0.0,
    }
    repaired = shared = 0
    for report in cold_reports:
        out["live.standing_computed"] += sum(e["standing_computed"] for e in report.epoch_log)
        out["live.standing_from_cache"] += sum(e["standing_from_cache"] for e in report.epoch_log)
        out["live.forensic_queries"] += report.forensic_stats.get("queries_submitted", 0)
        out["live.epoch_shards_evicted"] += report.standing_stats.get("shards_evicted", 0)
        routing = report.routing_stats
        out["routing.cache_hits"] += routing.get("hits", 0)
        out["routing.cache_misses"] += routing.get("misses", 0)
        repaired += routing.get("pairs_repaired", 0)
        shared += routing.get("pairs_shared", 0)
    out["routing.repair_fraction"] = repaired / (repaired + shared) if repaired + shared else 0.0
    return out


WORKLOADS = {"ask_stream": ask_stream, "campaign": campaign,
             "live_forensics": live_forensics}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scratch_dir: str) -> Run:
    run = Run(name, seed, seconds, trace, scratch_dir)
    try:
        WORKLOADS[name](run)
    finally:
        run.finish()
        for path in run.temp_dirs:
            shutil.rmtree(path, ignore_errors=True)
    return run
