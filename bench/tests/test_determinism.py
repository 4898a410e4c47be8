"""Self-tests of the benchmark.

    python3 -m pytest bench/tests

The per-layer counts are what later changes cite as evidence, so they must
repeat exactly: every workload runs one traced iteration through the
benchmark command under three PYTHONHASHSEED values, and each count in
EXACT_COUNTS must agree across the three.  The workload seed is a
tuning seed; the held-out seed named in bench/README.md is never used here.
The metrics the command prints must be the ones BENCHMARK.json declares.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_lab()

import tracing  # noqa: E402

TUNING_SEED = 1
HASH_SEEDS = ("0", "1", "7")
EXACT_COUNTS = (
    "terms.deduce.calls", "terms.closure.builds", "terms.closure.size.p50",
    "terms.closure.size.max", "terms.learn.calls",
    "goals.correspondence.calls", "goals.secrecy.calls", "events.trace_scans",
    "attacks.audit.calls", "attacks.audit.entries", "attacks.script.calls",
    "network.gate.sends", "network.gate.refused", "roles.aborts",
    "scenarios.build_world.calls",
)


def bench_run(workload: str, trace: int, hash_seed: str = "0") -> dict:
    """Run the benchmark command for one iteration (two when traced) and
    return its metrics as {name: (value, unit)}."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(TUNING_SEED), "--seconds", "0.01", "--trace", str(trace)],
        capture_output=True, text=True, env=env, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    return {k: (m["value"], m["unit"]) for k, m in result["metrics"].items()}


def traced_run(workload: str, hash_seed: str) -> dict:
    metrics = bench_run(workload, 1, hash_seed)
    return {name: metrics[name][0] for name in EXACT_COUNTS}


@pytest.mark.parametrize("workload", ["matrix", "replay", "sessions"])
def test_counts_repeat_across_runs_and_hash_seeds(workload):
    runs = {h: traced_run(workload, h) for h in HASH_SEEDS}
    first = runs[HASH_SEEDS[0]]
    assert first["terms.deduce.calls"] > 0
    for h, counts in runs.items():
        assert counts == first, f"PYTHONHASHSEED={h} changed the counts"


def test_tail_keeps_ten_samples_above():
    samples = [float(i) for i in range(40)]
    value, pct = run.tail(samples)
    assert sum(1 for s in samples if s > value) == 10
    assert pct == 75.0
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_self_time_subtracts_direct_children():
    tracer = tracing.Tracer()
    tracer.spans = [
        ["iteration", 0.0, 10.0, -1, 1],
        ["attacks.script", 1.0, 5.0, 0, 1],
        ["terms.deduce", 2.0, 4.0, 1, 1],
        ["terms.closure", 2.5, 3.5, 2, 1],
    ]
    by_name = tracer.per_iteration()[1]
    assert by_name["iteration"] == [1, 6.0, 10.0]
    assert by_name["attacks.script"] == [1, 2.0, 4.0]
    assert by_name["terms.deduce"] == [1, 1.0, 2.0]
    assert by_name["terms.closure"] == [1, 1.0, 1.0]


def test_uninstall_restores_the_lab():
    from rsplab import goals, harness
    from rsplab.terms import Knowledge
    before = (Knowledge.deduce, goals.check_all, harness.build_world)
    tracer = tracing.Tracer()
    tracer.install(1)
    assert Knowledge.deduce is not before[0]
    tracer.uninstall()
    assert (Knowledge.deduce, goals.check_all, harness.build_world) == before


def test_printed_metrics_match_benchmark_json():
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

    def names_units(key):
        return {m["name"]: m["unit"] for m in declared[key]}

    def printed(metrics):
        return {name: unit for name, (_value, unit) in metrics.items()}

    assert printed(bench_run("sessions", 0)) == names_units("end_to_end")
    assert printed(bench_run("sessions", 1)) == names_units("per_layer")
