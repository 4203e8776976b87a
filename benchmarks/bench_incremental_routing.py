"""R1 — Incremental BGP re-convergence vs full SPF recomputation.

Three sections over the full disaster catalog replayed as a multi-event
epoch timeline (fires and heals, overlapping failed-link sets):

1. **Timeline evaluation** (headline) — every epoch the BGP feed consults
   the current failure state's route table (churn against the baseline,
   re-convergence deltas on change).  ``full`` pays a from-scratch SPF
   sweep per evaluation; ``incremental`` is the shipped hot path: the
   LRU-bounded route cache plus affected-frontier recompute on first
   sight of a state (only peers whose cached-ancestor routes crossed a
   newly severed adjacency re-run SPF; the rest share structurally).
2. **Cold convergence** — first-sight computation only, one evaluation per
   distinct failure set, no cache effects: how much the frontier diffing
   alone saves over a full sweep.
3. **Serve burst** — the serve-path pattern: repeated forensic queries
   (``generate_updates`` with the same incident) against a fresh collector
   per call (the old behaviour) vs the shared per-world collector whose
   incremental tables survive across queries.

Every incremental table is verified equal to its full-recompute reference
before any timing is trusted.  Standalone::

    PYTHONPATH=src python benchmarks/bench_incremental_routing.py

or as pytest::

    PYTHONPATH=src python -m pytest benchmarks/bench_incremental_routing.py -s
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import time

from repro.bgp.collector import BGPCollectorSim, CollectorConfig
from repro.live.clock import WorldTimeline, timeline_from_catalog
from repro.synth.scenarios import make_latency_incident
from repro.synth.world import WorldConfig, build_world

#: Acceptance thresholds this benchmark demonstrates.
MIN_TIMELINE_SPEEDUP = 3.0  # incremental+LRU vs full SPF, per-epoch evaluation
#: Cold first-sight convergence must never be meaningfully slower than a
#: full sweep.  It is rarely much faster on the default catalog either: the
#: severe events are *globally* disruptive, so nearly every vantage point's
#: tree crosses a severed adjacency and the frontier covers most peers —
#: the frontier pays off on localized failures, cache revisits and the
#: no-adjacency-died case, which the timeline section exercises.
MIN_COLD_SPEEDUP = 0.9
#: Shared incremental collector vs fresh per query.  Was 1.5 when a fresh
#: collector paid the legacy SPF for its tables; the int-indexed engine cut
#: that rebuild cost ~6x, so the gap sharing can win narrowed (speedup
#: compression) — the floor tracks what sharing still saves, not the old
#: engine's slowness.
MIN_SERVE_SPEEDUP = 1.3
#: Raw engine floor: the int-indexed batched SPF (converge_full) vs the
#: legacy per-AS dict walk (routes_under_full), cold, no cache effects.
MIN_ENGINE_SPEEDUP = 5.0
#: Interleaved timing rounds behind the cold, engine and serve-burst
#: speedups (each gated on its median per-round ratio, so a few passes
#: slowed or sped up by a noisy neighbour cannot fail it), and the passes
#: the timeline's incremental best-of takes.  A round costs well under a
#: second.
ROUNDS = 9

SECONDS_PER_DAY = 86_400.0


def timeline_failure_sets(world, epochs: int, overlap_epochs: int):
    """Per-epoch failed-link sets for the catalog timeline (multi-event:
    outage durations long enough that adjacent disasters overlap)."""
    events = timeline_from_catalog(world, duration_epochs=overlap_epochs)
    timeline = WorldTimeline(world, events)
    return [state.failed_link_ids for state in timeline.run(epochs)]


def _time_pass(fn, world, **config_kwargs) -> float:
    """One timed pass over a fresh collector (no cross-pass cache leakage).

    GC is collected before and paused during the pass (as ``timeit`` does):
    by the later sections the process holds every earlier section's live
    objects, and generational collections triggered mid-pass would tax
    allocation-heavy passes in proportion to *unrelated* heap population.
    """
    sim = BGPCollectorSim(world, CollectorConfig(**config_kwargs))
    gc.collect()
    gc.disable()
    try:
        started = time.perf_counter()
        fn(sim)
        return time.perf_counter() - started
    finally:
        gc.enable()


def _interleaved(passes: dict, world) -> list[dict[str, float]]:
    """Time every pass once per round for :data:`ROUNDS` rounds, rotating
    the order each round, so machine drift hits every side of a round's
    ratios alike."""
    names = list(passes)
    rounds = []
    for index in range(ROUNDS):
        shift = index % len(names)
        rounds.append({name: _time_pass(passes[name], world)
                       for name in names[shift:] + names[:shift]})
    return rounds


def _iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return quartiles[2] - quartiles[0]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--epochs", type=int, default=240,
                        help="timeline length; the catalog spans ~217 epochs")
    parser.add_argument("--overlap-epochs", type=int, default=36,
                        help="outage duration per event (bigger = more overlap)")
    parser.add_argument("--serve-queries", type=int, default=8,
                        help="repeated forensic queries in the serve section")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing passes; the best is reported")
    parser.add_argument("--no-assert", action="store_true",
                        help="report only; skip threshold assertions")
    parser.add_argument("--out", default="BENCH_incremental_routing.json",
                        help="write the result summary here ('' disables)")
    args = parser.parse_args(argv)

    world = build_world(WorldConfig(seed=7))
    failure_sets = timeline_failure_sets(world, args.epochs, args.overlap_epochs)
    distinct = list(dict.fromkeys(failure_sets))
    transitions = sum(
        1 for prev, fs in zip([None] + failure_sets[:-1], failure_sets)
        if fs != prev
    )
    print(f"\n=== incremental routing — {args.epochs} epochs, "
          f"{transitions} transitions, {len(distinct)} distinct "
          f"failure sets (sizes {sorted({len(d) for d in distinct})}) ===")

    # Correctness first: every incremental table must equal its reference.
    verifier = BGPCollectorSim(world)
    reference = BGPCollectorSim(world)
    for fs in distinct:
        full = reference.routes_under_full(fs)
        assert verifier.routes_under(fs) == full, (
            f"incremental table diverged for failure set of {len(fs)} links"
        )
        assert verifier.converge_full(fs) == full, (
            f"fast engine diverged for failure set of {len(fs)} links"
        )
    print(f"  verified: incremental == engine == full for all "
          f"{len(distinct)} sets")

    # 1. Timeline evaluation: one route-table consultation per epoch.
    t_full = min(
        _time_pass(lambda sim: [sim.routes_under_full(fs) for fs in failure_sets],
                   world)
        for _ in range(args.repeats)
    )
    # The incremental pass is cheap (tens of ms), so it gets ROUNDS tries:
    # noise only ever adds time, and the epochs/sec floor is about what the
    # hot path sustains, not about the slowest neighbour.
    t_inc = min(
        _time_pass(lambda sim: [sim.routes_under(fs) for fs in failure_sets],
                   world)
        for _ in range(max(args.repeats, ROUNDS))
    )
    timeline_speedup = t_full / t_inc
    epochs_per_sec = args.epochs / t_inc
    print(f"  timeline ({args.epochs} evaluations): full SPF "
          f"{t_full * 1000:7.1f} ms vs incremental+LRU {t_inc * 1000:7.1f} ms "
          f"-> {timeline_speedup:.1f}x, {epochs_per_sec:,.0f} epochs/s")

    # 2. Cold convergence: first sight of each distinct set, no cache wins.
    # The legacy per-AS dict SPF (routes_under_full) against the frontier
    # path (routes_under) and against the int-indexed batched SPF
    # (converge_full) — the per-failure-set price of a from-scratch
    # convergence.  Each speedup is the median of its per-round ratios.
    rounds = _interleaved({
        "legacy": lambda sim: [sim.routes_under_full(fs) for fs in distinct],
        "incremental": lambda sim: [sim.routes_under(fs) for fs in distinct],
        "engine": lambda sim: [sim.converge_full(fs) for fs in distinct],
    }, world)
    cold_ratios = [r["legacy"] / r["incremental"] for r in rounds]
    engine_ratios = [r["legacy"] / r["engine"] for r in rounds]
    cold_speedup = statistics.median(cold_ratios)
    engine_speedup = statistics.median(engine_ratios)
    full_convergence_ms = min(r["engine"] for r in rounds) * 1000 / len(distinct)
    print(f"  cold distinct sets, median of {len(rounds)} interleaved rounds: "
          f"incremental {cold_speedup:.1f}x (IQR {_iqr(cold_ratios):.2f}), "
          f"int-indexed engine {engine_speedup:.1f}x (IQR "
          f"{_iqr(engine_ratios):.2f}) vs legacy full SPF; "
          f"{full_convergence_ms:.2f} ms per full convergence")

    # 3. Serve burst: repeated forensic queries about the same incident.
    incident = make_latency_incident(world, "SeaMeWe-5")
    window = (0.0, 7 * SECONDS_PER_DAY)

    def fresh_per_query(_sim):
        for _ in range(args.serve_queries):
            BGPCollectorSim(world).generate_updates(*window, [incident])

    def shared_collector_pass(sim):
        for _ in range(args.serve_queries):
            sim.generate_updates(*window, [incident])

    serve_rounds = _interleaved({"fresh": fresh_per_query,
                                 "shared": shared_collector_pass}, world)
    serve_ratios = [r["fresh"] / r["shared"] for r in serve_rounds]
    serve_speedup = statistics.median(serve_ratios)
    print(f"  serve burst ({args.serve_queries} forensic queries): shared "
          f"collector {serve_speedup:.1f}x vs fresh per query, median of "
          f"{len(serve_rounds)} interleaved rounds (IQR "
          f"{_iqr(serve_ratios):.2f})")

    # Economics pass: replay the timeline once more with a delta stream
    # riding along (as the live BGP feed does), then read the counters.
    stats_sim = BGPCollectorSim(world)
    with stats_sim.delta_stream() as stream:
        previous = None
        for fs in failure_sets:
            stats_sim.routes_under(fs)
            if fs != previous:
                stream.advance(fs)
                previous = fs
        stream_stats = stream.stats()
    info = stats_sim.cache_info()
    pairs_touched = info["pairs_repaired"] + info["pairs_shared"]
    repair_fraction = (
        info["pairs_repaired"] / pairs_touched if pairs_touched else 0.0
    )
    print(f"  frontier economics: {info['peers_recomputed']} peer tables "
          f"recomputed, {info['peers_shared']} shared, "
          f"{info['shared_full_tables']} tables shared wholesale, "
          f"{info['hits']} cache hits / {info['misses']} misses, "
          f"{info['entries']}/{info['max_entries']} entries retained")
    print(f"  repair economics: {info['pairs_repaired']} route pairs "
          f"repaired vs {info['pairs_shared']} shared "
          f"({repair_fraction:.1%} repaired; frontier peak "
          f"{info['repair_frontier_peak']} pairs)")
    print(f"  delta stream: {stream_stats['deltas_emitted']} deltas, "
          f"{stream_stats['routes_emitted']} routes, "
          f"{stream_stats['bytes_emitted'] / 1024:.1f} KiB "
          f"(vs {len(verifier.routes_under(frozenset()))} rows per full table)")

    if args.out:
        summary = {
            "benchmark": "incremental_routing",
            "epochs": args.epochs,
            "transitions": transitions,
            "distinct_failure_sets": len(distinct),
            "full_ms": round(t_full * 1000, 2),
            "incremental_ms": round(t_inc * 1000, 2),
            "timeline_speedup": round(timeline_speedup, 2),
            "cold_speedup": round(cold_speedup, 2),
            "serve_speedup": round(serve_speedup, 2),
            "engine_speedup": round(engine_speedup, 2),
            "cold_speedup_rounds": [round(r, 3) for r in cold_ratios],
            "engine_speedup_rounds": [round(r, 3) for r in engine_ratios],
            "serve_speedup_rounds": [round(r, 3) for r in serve_ratios],
            "full_convergence_ms": round(full_convergence_ms, 3),
            "epochs_per_sec": round(epochs_per_sec, 1),
            "repair_fraction": round(repair_fraction, 4),
            "delta_stream": stream_stats,
            "route_cache": info,
        }
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=1)
        print(f"  wrote {args.out}")

    if not args.no_assert:
        assert timeline_speedup >= MIN_TIMELINE_SPEEDUP, (
            f"timeline speedup {timeline_speedup:.2f}x below {MIN_TIMELINE_SPEEDUP}x"
        )
        assert cold_speedup >= MIN_COLD_SPEEDUP, (
            f"cold speedup {cold_speedup:.2f}x below {MIN_COLD_SPEEDUP}x"
        )
        assert serve_speedup >= MIN_SERVE_SPEEDUP, (
            f"serve speedup {serve_speedup:.2f}x below {MIN_SERVE_SPEEDUP}x"
        )
        assert engine_speedup >= MIN_ENGINE_SPEEDUP, (
            f"median engine speedup {engine_speedup:.2f}x below "
            f"{MIN_ENGINE_SPEEDUP}x (rounds {engine_ratios})"
        )
        print(f"  thresholds met: >={MIN_TIMELINE_SPEEDUP}x timeline, "
              f">={MIN_COLD_SPEEDUP}x cold, >={MIN_SERVE_SPEEDUP}x serve, "
              f">={MIN_ENGINE_SPEEDUP}x engine")
    return 0


def test_incremental_routing_smoke(tmp_path):
    """Pytest entry point: thresholds must hold on the default timeline."""
    assert main([
        "--repeats", "2",
        "--out", str(tmp_path / "BENCH_incremental_routing.json"),
    ]) == 0


if __name__ == "__main__":
    raise SystemExit(main())
