"""Execution backends: thread/process parity, payload validation, stats."""

import functools
import json
import time

import pytest

from repro.core.llm.simulated import SimulatedHostedLLM
from repro.serve import (
    BackendError,
    CampaignJob,
    JobPayload,
    JobState,
    ProcessPoolBackend,
    QueryBroker,
    ServeConfig,
    ThreadPoolBackend,
    WorldShard,
    build_backend,
    run_campaign,
)
from repro.live.forensics import FORENSIC_PRIORITY
from repro.serve.backends import FAULT_PARAM, _process_execute, _worker_system
from repro.synth.scenarios import make_latency_incident
from repro.synth.world import WorldConfig, build_world


QUERY = "Identify the impact at a country level due to {} cable failure"


@pytest.fixture(scope="module")
def campaign_world():
    return build_world(WorldConfig())


def _campaign_jobs(world, count=3):
    names = world.cable_names()[:count]
    return [
        CampaignJob(
            query=f"Identify the impact at a country level due to {name} cable failure",
            tag=f"cable:{name}",
        )
        for name in names
    ]


def _run_backend_campaign(world, backend, jobs, cache_enabled=True):
    """One campaign through one backend; returns (report, digests, stats)."""
    broker = QueryBroker(
        world,
        config=ServeConfig(workers=2, backend=backend, cache_enabled=cache_enabled),
    ).start()
    try:
        report = run_campaign(broker, jobs)
        digests = [broker.result(t).artifact_digest() for t in report.tickets]
        payloads = [
            json.dumps(broker.result(t).to_dict()["execution"], sort_keys=True)
            for t in report.tickets
        ]
        # Stage provenance must reach the ledger through every backend
        # (streamed in-thread, replayed from the shipped result otherwise).
        ledger = broker.ledger.summary()
        assert ledger["per_stage"]["querymind"]["calls"] == len(jobs)
        stats = broker.stats()
    finally:
        broker.shutdown()
    return report, digests, payloads, stats


def test_build_backend_names():
    assert isinstance(build_backend("thread"), ThreadPoolBackend)
    assert isinstance(build_backend("process"), ProcessPoolBackend)
    with pytest.raises(BackendError):
        build_backend("carrier-pigeon")


def test_thread_process_parity_byte_identical(campaign_world):
    """The same campaign through both backends produces byte-identical
    artifacts — digests and serialized execution outputs match per job."""
    jobs = _campaign_jobs(campaign_world)
    t_report, t_digests, t_payloads, _ = _run_backend_campaign(
        campaign_world, "thread", jobs
    )
    p_report, p_digests, p_payloads, p_stats = _run_backend_campaign(
        campaign_world, "process", jobs
    )
    assert t_report.failed == 0 and p_report.failed == 0
    assert t_digests == p_digests
    assert t_payloads == p_payloads
    assert p_stats["backend"]["backend"] == "process"
    assert p_stats["backend"]["processes"] >= 1


def test_process_backend_with_incidents_and_hosted_llm(campaign_world):
    """Incidents and a picklable llm_factory ship across the process
    boundary and still match the thread backend byte for byte."""
    incident = make_latency_incident(campaign_world, "SeaMeWe-5")
    query = (
        "A sudden increase in latency was observed from European probes to "
        "Asian destinations starting three days ago. Determine if a submarine "
        "cable failure caused this, and if so, identify the specific cable."
    )
    digests = {}
    for backend in ("thread", "process"):
        broker = QueryBroker(
            campaign_world,
            incidents=[incident],
            config=ServeConfig(
                workers=2,
                backend=backend,
                llm_factory=functools.partial(SimulatedHostedLLM, latency_s=0.0),
            ),
        ).start()
        try:
            digests[backend] = broker.result(broker.submit(query)).artifact_digest()
        finally:
            broker.shutdown()
    assert digests["thread"] == digests["process"]


def test_process_backend_rejects_curation(campaign_world):
    broker = QueryBroker(
        config=ServeConfig(workers=1, backend="process", curate=True)
    )
    with pytest.raises(BackendError, match="curation"):
        broker.add_world("w", campaign_world)
    broker.shutdown()


def test_process_backend_rejects_unpicklable_llm_factory(campaign_world):
    broker = QueryBroker(
        config=ServeConfig(
            workers=1, backend="process",
            llm_factory=lambda: SimulatedHostedLLM(latency_s=0.0),
        )
    )
    with pytest.raises(BackendError, match="picklable"):
        broker.add_world("w", campaign_world)
    broker.shutdown()


def test_worker_system_verifies_world_fingerprint(campaign_world):
    """A payload whose fingerprint does not match the rebuilt world fails
    loudly instead of answering about a different Internet."""
    from repro.core.registry import default_registry

    registry = default_registry()
    payload = JobPayload(
        query="q", params=None,
        world_config=campaign_world.config,
        world_fingerprint="not-the-real-fingerprint",
        registry_names=tuple(registry.names()),
        registry_fingerprint=registry.fingerprint(),
    )
    with pytest.raises(BackendError, match="reproducible"):
        _worker_system(payload)


def test_process_execute_roundtrip_in_process(campaign_world):
    """The worker-side entry point is a pure function of its payload: it can
    run in this process and produce the same digest as a served job."""
    from repro.core.registry import default_registry

    registry = default_registry()
    query = "Identify the impact at a country level due to SeaMeWe-5 cable failure"
    payload = JobPayload(
        query=query, params=None,
        world_config=campaign_world.config,
        world_fingerprint=campaign_world.fingerprint(),
        registry_names=tuple(registry.names()),
        registry_fingerprint=registry.fingerprint(),
        cache_entries=64,
    )
    result, meta = _process_execute(payload)
    assert result.execution.succeeded
    assert meta["cache"]["misses"] > 0
    # Same payload again: the process-local system and artifact cache serve it.
    again, meta2 = _process_execute(payload)
    assert again.artifact_digest() == result.artifact_digest()
    assert meta2["cache"]["hits"] > 0


def test_process_backend_warm_cache_across_resubmission(campaign_world):
    """Resubmitting a campaign hits the process-local artifact caches.

    One worker so both rounds land on the same process — with several
    processes a resubmitted job may reach a sibling whose cache never saw
    it (caches are process-local by design).
    """
    jobs = _campaign_jobs(campaign_world, count=2)
    broker = QueryBroker(
        campaign_world, config=ServeConfig(workers=1, backend="process")
    ).start()
    try:
        first = run_campaign(broker, jobs)
        assert first.failed == 0
        second = run_campaign(broker, jobs)
        assert second.failed == 0
        merged = broker.stats()["backend"]["cache"]
        assert merged is not None and merged["hits"] > 0
    finally:
        broker.shutdown()


def test_backend_shutdown_is_idempotent(campaign_world):
    broker = QueryBroker(
        campaign_world, config=ServeConfig(workers=1, backend="process")
    ).start()
    broker.shutdown()
    broker.shutdown()  # second shutdown must be a no-op


def _sleep(seconds: float) -> dict:
    return {FAULT_PARAM: {"sleep_s": seconds}}


def test_job_deadline_counts_only_the_jobs_own_run(campaign_world):
    """Two 1.0 s jobs on one worker both beat a 1.5 s deadline: each
    deadline starts when that job reaches the worker, never when a job
    queued ahead of it did.  The 0.3 s job in front holds the claimer so
    the two slow jobs are queued together behind it."""
    query = QUERY.format(campaign_world.cable_names()[0])
    broker = QueryBroker(
        campaign_world,
        config=ServeConfig(workers=1, backend="process", max_retries=0,
                           job_timeout_s=1.5),
    ).start()
    try:
        tickets = [broker.submit(query, params=_sleep(s))
                   for s in (0.3, 1.0, 1.0)]
        finished = broker.wait_all(tickets, timeout=120)
        assert [job.state for job in finished] == [JobState.DONE] * 3, [
            (job.ticket, job.state.value, job.error) for job in finished
        ]
        assert broker.stats()["backend"]["deadline"]["kills"] == 0
    finally:
        broker.shutdown()


def test_deadline_ignores_time_stacked_behind_a_sibling(campaign_world):
    """Affinity can stack two jobs on one worker slot; the second one's
    deadline must not count the time it waited behind the first."""
    shard = WorldShard.build("w", campaign_world)
    backend = ProcessPoolBackend(num_workers=1, job_timeout_s=1.5)
    backend.prepare(shard)
    backend.start()
    try:
        query = QUERY.format(campaign_world.cable_names()[0])
        assert backend.run(shard, query, None).execution.succeeded  # warm
        futures = [backend._dispatch(shard, query, _sleep(1.0))
                   for _ in range(2)]
        assert all(f.result(timeout=120).execution.succeeded for f in futures)
        assert backend.stats()["deadline"]["kills"] == 0
    finally:
        backend.shutdown()


def test_high_priority_job_overtakes_queued_work(campaign_world):
    """A forensic-priority job submitted behind six queued priority-0 jobs
    on a one-worker process broker runs next, not after all of them: a
    claimer holds one job at a time, so the rest stay in the scheduler
    where priority still orders them."""
    query = QUERY.format(campaign_world.cable_names()[0])
    broker = QueryBroker(
        campaign_world, config=ServeConfig(workers=1, backend="process")
    )
    low = [broker.submit(query, params=_sleep(0.3)) for _ in range(6)]
    broker.start()
    try:
        deadline = time.time() + 60
        while broker.status(low[0]) is JobState.QUEUED:
            assert time.time() < deadline, "the first job was never claimed"
            time.sleep(0.01)
        high = broker.submit(query, priority=FORENSIC_PRIORITY)
        finished = broker.wait_all(low + [high], timeout=120)
        assert all(job.state is JobState.DONE for job in finished)
        high_done = broker.ledger.get(high).finished_at
        overtaken = [t for t in low
                     if broker.ledger.get(t).finished_at > high_done]
        assert len(overtaken) >= 3, overtaken
    finally:
        broker.shutdown()
