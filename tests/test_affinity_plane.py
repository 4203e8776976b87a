"""The affinity-aware process execution plane: sticky routing under
steal, crash retry, and epoch-shard retention."""

import pytest

from repro.live.clock import EpochState
from repro.live.standing import StandingQuery, StandingQueryManager
from repro.serve import (
    BrokerError,
    JobState,
    ProcessPoolBackend,
    QueryBroker,
    ServeConfig,
    WorldShard,
)
from repro.serve import backends
from repro.serve.backends import FAULT_PARAM
from repro.synth.world import WorldConfig, build_world

QUERY = "Identify the impact at a country level due to {} cable failure"


@pytest.fixture(scope="module")
def world():
    return build_world(WorldConfig())


# -- affinity routing --------------------------------------------------------


def test_affinity_resubmission_sticks_and_hits_warm_cache(world):
    """Identical resubmissions route back to the bound worker: the second
    round is 100% affinity hits and lands on warm process-local caches."""
    queries = [QUERY.format(name) for name in world.cable_names()[:4]]
    broker = QueryBroker(
        world, config=ServeConfig(workers=2, backend="process")
    ).start()
    try:
        for q in queries:
            broker.result(broker.submit(q), timeout=120)
        first = broker.stats()["backend"]["affinity"]
        assert first["misses"] == len(queries) and first["hits"] == 0
        for q in queries:
            broker.result(broker.submit(q), timeout=120)
        second = broker.stats()["backend"]["affinity"]
        assert second["hits"] - first["hits"] == len(queries)
        merged = broker.stats()["backend"]["cache"]
        assert merged is not None and merged["hits"] > 0
    finally:
        broker.shutdown()


def test_steal_rebinds_hot_key_to_idle_worker(world, monkeypatch):
    """A key bound to a backlogged worker is stolen by an idle one, and the
    binding (the future warm path) moves with it.  A threshold of 0 makes
    one busy job enough of a backlog."""
    monkeypatch.setattr(backends, "STEAL_THRESHOLD", 0)
    backend = ProcessPoolBackend(num_workers=2, cache_entries=64)
    shard = WorldShard.build("w", world)
    backend.prepare(shard)
    backend.start()
    try:
        query = QUERY.format(world.cable_names()[0])
        backend.run(shard, query, None)  # binds the key to slot 0
        key = backend._affinity_key(shard, query, None)
        bound_before = backend._affinity[key][0]
        # Occupy the bound slot with a deliberately slow job...
        slow = backend._dispatch(
            shard, QUERY.format(world.cable_names()[1]),
            {FAULT_PARAM: {"sleep_s": 1.5}},
        )
        # ...so redispatching the bound key finds it backlogged and steals.
        fast = backend._dispatch(shard, query, None)
        assert fast.result().execution.succeeded
        stats = backend.stats()["affinity"]
        assert stats["steals"] == 1
        bound_after = backend._affinity[key][0]
        assert bound_after != bound_before
        assert slow.result().execution.succeeded
        # The stolen binding is sticky: the next dispatch is a hit on the thief.
        assert backend.run(shard, query, None).execution.succeeded
        assert backend._affinity[key][0] == bound_after
        assert backend.stats()["affinity"]["hits"] >= 1
    finally:
        backend.shutdown()


# -- crash retry -------------------------------------------------------------


def test_worker_death_retries_once_on_excluded_slot(world):
    """A job whose worker dies is resubmitted once, excluding the failed
    affinity slot, and succeeds elsewhere with retries recorded."""
    broker = QueryBroker(
        world, config=ServeConfig(workers=2, backend="process")
    ).start()
    try:
        # Least-loaded assignment on an idle pool starts at slot 0.
        ticket = broker.submit(
            QUERY.format(world.cable_names()[0]),
            params={FAULT_PARAM: {"exit_on_worker": 0}},
        )
        job = broker.wait(ticket, timeout=120)
        assert job.state is JobState.DONE
        assert broker.ledger.get(ticket).retries == 1
        assert broker.stats()["backend"]["affinity"]["respawns"] >= 1
        assert broker.ledger.summary()["retried"] == 1
    finally:
        broker.shutdown()


def test_worker_death_fails_after_single_retry(world):
    """A job that kills every worker it reaches fails after exactly one
    retry instead of crash-looping the pool."""
    broker = QueryBroker(
        world, config=ServeConfig(workers=1, backend="process")
    ).start()
    try:
        ticket = broker.submit(
            QUERY.format(world.cable_names()[0]),
            params={FAULT_PARAM: "exit"},
        )
        job = broker.wait(ticket, timeout=120)
        assert job.state is JobState.FAILED
        assert "WorkerCrashed" in job.error
        assert broker.ledger.get(ticket).retries == 1
        # The pool healed: the respawned worker serves the next job.
        good = broker.submit(QUERY.format(world.cable_names()[1]))
        assert broker.wait(good, timeout=120).state is JobState.DONE
    finally:
        broker.shutdown()


# -- world removal & epoch-shard retention -----------------------------------


def test_remove_world_guards_and_forgets(world):
    broker = QueryBroker(
        world, config=ServeConfig(workers=1, backend="process")
    ).start()
    try:
        broker.add_world("spare", world)
        broker.result(
            broker.submit(QUERY.format(world.cable_names()[0]),
                          world_key="spare"),
            timeout=120,
        )
        assert "spare" in broker.world_keys()
        with pytest.raises(BrokerError, match="unknown world key"):
            broker.remove_world("never-registered")
        broker.remove_world("spare")
        assert "spare" not in broker.world_keys()
        assert "spare" not in broker.backend._templates
        assert all(owner != "spare"
                   for _, _, owner in broker.backend._affinity.values())
        with pytest.raises(BrokerError):
            broker.submit("q", world_key="spare")
    finally:
        broker.shutdown()


def test_remove_world_refuses_active_jobs(world):
    broker = QueryBroker(world, config=ServeConfig(workers=1))
    # Not started: the submission stays queued, i.e. active.
    ticket = broker.submit(QUERY.format(world.cable_names()[0]))
    with pytest.raises(BrokerError, match="active job"):
        broker.remove_world("default")
    assert broker.status(ticket) is JobState.QUEUED
    broker.shutdown()


def _epoch(index, fingerprint, failed_cables):
    return EpochState(
        index=index,
        window_start=index * 3600.0,
        window_end=(index + 1) * 3600.0,
        fingerprint=fingerprint,
        failed_link_ids=frozenset(),
        failed_cable_ids=tuple(failed_cables),
        active_event_ids=(),
        changed=True,
    )


def test_epoch_shard_population_is_lru_bounded(world):
    """A long timeline over many distinct configurations keeps at most
    ``max_epoch_shards`` evolved shards registered, evicting LRU-first."""
    cables = list(world.cables)[:3]
    # Cache off so a re-encountered fingerprint re-materializes its shard
    # instead of being served from the standing-query artifact cache.
    with QueryBroker(
        world, config=ServeConfig(workers=1, cache_enabled=False)
    ) as broker:
        manager = StandingQueryManager(broker, max_epoch_shards=2)
        manager.register(StandingQuery(name="watch", query="Identify the "
                         "impact at a country level due to SeaMeWe-5 cable failure"))
        for i, cable_id in enumerate(cables):
            manager.on_epoch(_epoch(i, f"fp-{cable_id}", (cable_id,)))
            collected = manager.collect(timeout=120)
            assert all(r.state == "done" for r in collected)
        stats = manager.stats()
        assert stats["epoch_shards"] == 2
        assert stats["shards_evicted"] == 1
        epoch_keys = [k for k in broker.world_keys() if "@" in k]
        assert len(epoch_keys) == 2
        # The evicted shard was the least recently used: the first config.
        assert f"default@fp-{cables[0]}" not in broker.world_keys()
        # A re-encountered configuration rebuilds transparently.
        manager.on_epoch(_epoch(9, f"fp-{cables[0]}", (cables[0],)))
        assert all(r.state == "done" for r in manager.collect(timeout=120))
        assert manager.stats()["shards_evicted"] == 2
