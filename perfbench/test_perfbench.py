"""The benchmark's own checks: its spec file, its output contract, and
that no process it starts outlives it — after a normal run and after a
deadline kill."""

from __future__ import annotations

import importlib.util
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_PY = os.path.join(HERE, "run.py")


def load_runner():
    module_spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
    module = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(module)
    return module


def test_benchmark_json_matches_spec():
    runner = load_runner()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        committed = handle.read()
    assert committed == runner.spec.render_document(), (
        "BENCHMARK.json is stale: run python3 perfbench/run.py --write-spec")
    document = json.loads(committed)
    assert set(document) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    names = [m["name"] for m in document["end_to_end"] + document["per_layer"]]
    assert len(names) == len(set(names))
    setup = [m for m in document["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in document["end_to_end"])
    assert all(m["bound"] <= 0.25 for m in document["end_to_end"])


def run_in_session(args, cwd=ROOT, timeout=170):
    """Run the benchmark command in a session of its own; returns the
    completed process and the pids of that session still alive after it."""
    runner = load_runner()
    proc = subprocess.Popen([sys.executable, *args], cwd=cwd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    out, err = proc.communicate(timeout=timeout)
    return proc.returncode, out, err, runner.session_members(proc.pid)


def test_short_run_prints_result_and_leaves_no_process():
    code, out, err, alive = run_in_session(
        [RUN_PY, "--workload", "campaign", "--seed", "3", "--seconds", "2", "--trace", "0"])
    assert code == 0, err[-2000:]
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    runner = load_runner()
    assert set(result["metrics"]) == set(runner.spec.END_TO_END_NAMES)
    assert all(row["value"] > 0 for row in result["metrics"].values())
    assert alive == {}, f"descendants outlived the benchmark: {alive}"


def test_deadline_kill_reaps_the_whole_process_group():
    runner = load_runner()
    os.makedirs(runner.SCRATCH, exist_ok=True)
    try:
        outcome = runner.run_child("campaign", 5, 30.0, trace=False, timeout=3.0)
        assert outcome["ok"] is False
        assert runner.session_members(outcome["pid"]) == {}
        assert not os.path.exists(os.path.join(runner.SCRATCH, f"run-{outcome['pid']}"))
    finally:
        os.rmdir(runner.SCRATCH)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, out, err, alive = run_in_session(
        ["perfbench/run.py", "--workload", "ask_stream", "--seed", "1",
         "--seconds", "1", "--trace", "0"], cwd=str(tmp_path), timeout=120)
    assert code != 0
    assert '"correct"' not in out
    assert alive == {}
