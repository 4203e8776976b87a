"""Run benchmark workloads and print their metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --seconds 40                        # every workload once
    python3 perfbench/run.py --repeat 10 --sets 2 --seconds 40   # steadiness report
    python3 perfbench/run.py --write-spec                        # regenerate BENCHMARK.json

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.

Each workload runs in a child process of its own, in a new session, under
a wall-clock deadline.  This process is the children's subreaper: once a
child ends it waits for, and reaps, every process the child left behind,
kills any that outlive a grace period, and counts the run as failed when
it had to.  A traced run makes two children — untraced, then traced, each
with half the seconds — so ``obs.trace_overhead_frac`` compares them.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import multiprocessing
import os
import shutil
import signal
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spec  # noqa: E402
from measure import quartiles, relative_spread  # noqa: E402

#: Longest the children of one invocation may run in total before the
#: running one is killed, and how long a child's leftovers may take to exit
#: after it does; together they keep an invocation under 180 s.
DEADLINE_S = 160.0
GRACE_S = 10.0
RSS_SAMPLE_S = 0.05
RESULT_PREFIX = "PERFBENCH-RESULT "
SCRATCH = os.path.join(ROOT, ".perfbench_tmp")
TRACE_DIR = os.path.join(ROOT, ".perfbench_out")


# -- process tree ------------------------------------------------------------


def become_subreaper() -> None:
    """Orphaned descendants re-parent to this process, so it can reap them."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong,
                               ctypes.c_ulong, ctypes.c_ulong]
        libc.prctl.restype = ctypes.c_int
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def session_members(sid: int) -> dict[int, int]:
    """pid -> resident bytes of every live process in session ``sid``."""
    page = os.sysconf("SC_PAGE_SIZE")
    members = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat", "rb") as handle:
                fields = handle.read().rsplit(b")", 1)[1].split()
            if fields[0] == b"Z" or int(fields[3]) != sid:
                continue
            with open(f"/proc/{name}/statm", "rb") as handle:
                members[int(name)] = int(handle.read().split()[1]) * page
        except (OSError, IndexError, ValueError):
            continue
    return members


def reap_zombies() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


class RssSampler(threading.Thread):
    """Peak summed resident memory of a session, sampled until stopped."""

    def __init__(self, sid: int):
        super().__init__(name="rss-sampler")
        self.sid = sid
        self.peak = 0
        self._stop_event = threading.Event()

    def run(self) -> None:
        while not self._stop_event.is_set():
            self.peak = max(self.peak, sum(session_members(self.sid).values()))
            self._stop_event.wait(RSS_SAMPLE_S)

    def stop(self) -> int:
        self._stop_event.set()
        self.join()
        return self.peak


def run_child(workload: str, seed: int, seconds: float, trace: bool,
              timeout: float = DEADLINE_S) -> dict:
    """Run one workload in a child session; returns the child's result with
    ``ok``, ``leaked`` (pids killed after it ended) and ``peak_rss_mb``."""
    cmd = [sys.executable, os.path.abspath(__file__), "--child",
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "1" if trace else "0"]
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True,
                             cwd=ROOT, text=True)
    sampler = RssSampler(child.pid)
    sampler.start()
    lines: list[str] = []
    reader = threading.Thread(target=lambda: lines.extend(child.stdout), name="child-stdout")
    reader.start()
    timed_out = False
    try:
        child.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        timed_out = True
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
    finally:
        peak = sampler.stop()
    leaked = wait_for_session(child.pid)
    reader.join()
    # A killed child never removed its scratch directory.
    shutil.rmtree(os.path.join(SCRATCH, f"run-{child.pid}"), ignore_errors=True)
    result = None
    for line in lines:
        if line.startswith(RESULT_PREFIX):
            result = json.loads(line[len(RESULT_PREFIX):])
        else:
            print(line, end="", flush=True)
    if result is None or timed_out or child.returncode != 0:
        reason = (f"deadline of {timeout:.0f}s expired; process group killed"
                  if timed_out else f"exit code {child.returncode}, no result")
        print(f"{workload} child failed: {reason}; leftovers killed: {leaked}",
              file=sys.stderr, flush=True)
        return {"ok": False, "pid": child.pid}
    result.update(ok=True, leaked=leaked,
                  peak_rss_mb=peak / (1024.0 * 1024.0))
    return result


def wait_for_session(sid: int) -> list[int]:
    """Wait up to GRACE_S for every process left in session ``sid`` to
    exit, then kill the rest; returns the pids that had to be killed."""
    deadline = time.monotonic() + GRACE_S
    while time.monotonic() < deadline:
        reap_zombies()
        if not session_members(sid):
            return []
        time.sleep(0.05)
    leftovers = sorted(session_members(sid))
    for pid in leftovers:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    while session_members(sid):
        reap_zombies()
        time.sleep(0.05)
    reap_zombies()
    return leftovers


# -- one measured run ----------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict | None:
    """The benchmark's result object for one invocation, or ``None`` when a
    child produced no result (it crashed, or its deadline expired)."""
    os.makedirs(SCRATCH, exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    try:
        if not trace:
            child = run_child(workload, seed, seconds, trace=False)
            if not child["ok"]:
                return None
            metrics = dict(child["metrics"], peak_rss_mb=child["peak_rss_mb"])
            return finish_result([child], {name: metrics[name]
                                           for name in spec.END_TO_END_NAMES})
        half = max(1.0, seconds / 2.0)
        plain = run_child(workload, seed, half, trace=False)
        if not plain["ok"]:
            return None
        traced = run_child(workload, seed, half, trace=True,
                           timeout=max(1.0, deadline - time.monotonic()))
        if not traced["ok"]:
            return None
        metrics = dict(traced["layers"])
        metrics["obs.trace_overhead_frac"] = trace_overhead(
            plain["metrics"], traced["metrics"])
        return finish_result([plain, traced], {name: metrics[name]
                                               for name in spec.PER_LAYER_NAMES})
    finally:
        try:
            os.rmdir(SCRATCH)
        except OSError:
            pass


def trace_overhead(plain: dict, traced: dict) -> float:
    """Extra cost of the traced run: how much lower its cold rate is."""
    return plain["cold_per_s"] / traced["cold_per_s"] - 1.0


def finish_result(children: list[dict], metrics: dict) -> dict:
    """Fold the children's checks and teardown findings into the result."""
    attempted = failed = 0
    for child in children:
        problems = list(child["teardown"])
        if child["leaked"]:
            problems.append(f"processes outlived the workload: {child['leaked']}")
        for problem in problems:
            print(f"TEARDOWN FAILED: {problem}", flush=True)
        attempted += child["attempted"] + 1  # + the teardown check
        failed += child["failed"] + (1 if problems else 0)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": spec.unit_of(name)}
                    for name, value in metrics.items()},
    }


# -- child side ----------------------------------------------------------------


def child_main(args) -> int:
    sys.stdout.reconfigure(line_buffering=True)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from workloads import run_workload

    scratch = os.path.join(SCRATCH, f"run-{os.getpid()}")
    os.makedirs(scratch)
    run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), scratch)
    teardown = teardown_problems(scratch)
    if run.tracer is not None:
        write_trace(run, args)
    payload = {"attempted": run.attempted, "failed": run.failed,
               "metrics": run.metrics, "layers": run.layers, "teardown": teardown}
    print(RESULT_PREFIX + json.dumps(payload), flush=True)
    return 0


def teardown_problems(scratch: str) -> list[str]:
    """Leak checks once every broker is shut down: no child processes, no
    thread but the main one, no temporary directory left."""
    problems = []
    deadline = time.monotonic() + GRACE_S
    while time.monotonic() < deadline:
        if not multiprocessing.active_children() and threading.active_count() == 1:
            break
        time.sleep(0.05)
    if multiprocessing.active_children():
        problems.append(f"live child processes: {multiprocessing.active_children()}")
    if threading.active_count() != 1:
        problems.append(f"live threads: {[t.name for t in threading.enumerate()]}")
    if os.listdir(scratch):
        problems.append(f"temporary directories left: {os.listdir(scratch)}")
    shutil.rmtree(scratch)
    return problems


def write_trace(run, args) -> None:
    from measure import self_times

    from repro.obs import TraceSink

    records = run.tracer.records()
    os.makedirs(TRACE_DIR, exist_ok=True)
    path = TraceSink().write(records, os.path.join(
        TRACE_DIR, f"trace-{args.workload}-{args.seed}.json"))
    table = self_times(records)
    print(f"trace: {len(records)} spans -> {os.path.relpath(path, ROOT)}; "
          "top self time:", flush=True)
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"])[:12]:
        print(f"  {name:<40} n={row['count']:<6} self={row['self_s'] * 1000:10.1f} ms "
              f"total={row['total_s'] * 1000:10.1f} ms", flush=True)


# -- steadiness report -----------------------------------------------------------


def steadiness(args) -> int:
    """Run each workload ``--repeat`` times per set and print each metric's
    median, quartiles and spread; with two sets, whether their medians agree."""
    workloads = [args.workload] if args.workload else spec.WORKLOAD_NAMES
    bounds = {m["name"]: m["bound"] for m in spec.END_TO_END}
    better = {m["name"]: m["better"] for m in spec.END_TO_END}
    steady = True
    for workload in workloads:
        sets = []
        for set_index in range(args.sets):
            values: dict[str, list[float]] = {}
            for i in range(args.repeat):
                seed = args.seed + set_index * args.repeat + i
                result = measure(workload, seed, args.seconds, trace=False)
                print(json.dumps(result), flush=True)
                if result is None or not result["correct"]:
                    steady = False
                    continue
                for name, row in result["metrics"].items():
                    values.setdefault(name, []).append(row["value"])
            sets.append(values)
        print(f"\n== {workload}: {args.repeat} runs x {args.sets} set(s), "
              f"{args.seconds:g}s each ==")
        for name in spec.END_TO_END_NAMES:
            for set_index, values in enumerate(sets):
                q1, med, q3 = quartiles(values.get(name, [0.0]))
                spread = relative_spread(values.get(name, [0.0]))
                limit = bounds[name] / 3.0
                flag = "ok" if name == "setup_s" or spread < limit else "WIDE"
                steady &= flag == "ok"
                print(f"  {name:<16} set{set_index} median={med:12.4f} q1={q1:12.4f} "
                      f"q3={q3:12.4f} spread={spread:6.3f} (limit {limit:.3f}) {flag}")
            if len(sets) == 2:
                first = quartiles(sets[0].get(name, [0.0]))[1]
                second = quartiles(sets[1].get(name, [0.0]))[1]
                change = (second / first - 1.0) if first else 0.0
                worse = -change if better[name] == "higher" else change
                agree = worse <= bounds[name]
                steady &= agree
                print(f"  {name:<16} second/first median {change:+.3f} "
                      f"(bound {bounds[name]}) {'agree' if agree else 'DISAGREE'}")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


# -- entry -------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=spec.ALL_WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="steadiness report: runs per workload and set")
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json from perfbench/spec.py")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child_main(args)
    if args.write_spec:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w", encoding="utf-8") as handle:
            handle.write(spec.render_document())
        return 0
    become_subreaper()
    if args.repeat:
        return steadiness(args)
    status = 0
    for workload in [args.workload] if args.workload else spec.ALL_WORKLOAD_NAMES:
        result = measure(workload, args.seed, args.seconds, bool(args.trace))
        if result is None:
            return 2
        aliases = spec.METRIC_ALIASES[workload]
        for name, row in result["metrics"].items():
            alias = f" ({aliases[name]})" if name in aliases else ""
            print(f"{name}{alias} = {row['value']:.6g} {row['unit']}")
        print(json.dumps(result), flush=True)
        status = status or (0 if result["correct"] else 1)
    return status


if __name__ == "__main__":
    sys.exit(main())
