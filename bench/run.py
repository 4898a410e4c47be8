"""Benchmark of the rsp-lab verdict matrix and its layers.

    python3 bench/run.py --workload matrix|replay|sessions --seed N \
        --seconds S --trace 0|1

Runs one workload (see workloads.py) in a single-process, single-threaded
closed loop: one caller, the next iteration starts when the previous one has
finished.  Every iteration checks its own outputs.  The loop runs for
``--seconds`` of wall time, and at least one iteration.

``--trace 0`` reports the end-to-end metrics: median and tail time per
iteration, operations per second, set-up time and peak memory.  Times are
wall times scaled to a reference machine speed (see reference.py); the
table shows the raw wall times beside them.  ``--trace 1`` alternates
untraced and traced iterations and reports the per-layer split from the
traced ones (see tracing.py); its spans are written to ``bench/out/``.
Both print a readable table, then, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

The lab is imported from ``src/`` next to this directory and nowhere else.
The exit code is 0 when every check passed, 1 when an output was wrong, and
2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NoReturn

from reference import REFERENCE_WORK_S, reference_work

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_RUNS = 9
READY = "ready"


def fail(message: str) -> NoReturn:
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_lab() -> None:
    """Put the checkout's ``src/`` first on the path and make sure that is
    where ``rsplab`` comes from."""
    if not (SRC / "rsplab" / "__init__.py").is_file():
        fail(f"no rsp-lab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import rsplab
    if Path(rsplab.__file__).resolve().parent != SRC / "rsplab":
        fail(f"rsplab imported from {rsplab.__file__}, not {SRC}")


def measure_setup(workload: str, seed: int) -> list[tuple[float, float]]:
    """Time from starting a fresh interpreter until it has imported the lab
    and set the workload up, the state a run times from, in SETUP_RUNS fresh
    processes.  Returns (wall time, wall time over the mean reference_work()
    time around it) per process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "0", "--setup-only"]
    samples = []
    before = reference_work()
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line != READY or code != 0:
            fail(f"set-up run failed (exit {code})")
        after = reference_work()
        samples.append((elapsed, elapsed / ((before + after) / 2)))
        before = after
    return samples


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples above it, as
    (value, percentile); the maximum when there are ten samples or fewer."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def run_loop(wl, seconds: float, tracer=None):
    """Closed loop for `seconds`.  Without a tracer, reference_work() runs
    between iterations and each iteration's wall time is also returned
    divided by the mean of the reference times on either side of it.  With
    a tracer, even iterations run untraced and odd ones traced.  Returns
    (untraced, relative, traced, attempted, failed), the first three lists
    per iteration."""
    untraced, relative, traced = [], [], []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    before = reference_work() if tracer is None else 0.0
    i = 0
    while True:
        if tracer is not None and i % 2:
            tracer.install(i)
            try:
                start = time.perf_counter()
                with tracer.span("iteration"):
                    ops, bad = wl.iterate(tracer.span)
                traced.append(time.perf_counter() - start)
            finally:
                tracer.uninstall()
        else:
            start = time.perf_counter()
            ops, bad = wl.iterate()
            untraced.append(time.perf_counter() - start)
            if tracer is None:
                after = reference_work()
                relative.append(untraced[-1] / ((before + after) / 2))
                before = after
        attempted += ops
        failed += bad
        i += 1
        if time.perf_counter() >= deadline and (tracer is None or traced):
            return untraced, relative, traced, attempted, failed


def print_table(rows: list) -> None:
    for name, value, unit, note in rows:
        print(f"  {name:<30} {value:>14.6g} {unit:<6} {note}")


def main(argv=None) -> int:
    import_lab()
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if args.setup_only:
        workloads.WORKLOADS[args.workload](args.seed)
        print(READY, flush=True)
        return 0

    setup = [] if args.trace else measure_setup(args.workload, args.seed)
    wl = workloads.WORKLOADS[args.workload](args.seed)
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
    untraced, relative, traced, attempted, failed = run_loop(
        wl, args.seconds, tracer)
    p50 = statistics.median(untraced)

    print(f"bench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} "
          f"{wl.op_name}/iteration={wl.ops_per_iteration}")
    if tracer is None:
        # iteration times at the reference speed; wall times in the notes
        scaled = [r * REFERENCE_WORK_S for r in relative]
        tail_s, pct = tail(scaled)
        wall_tail, _ = tail(untraced)
        n = len(untraced)
        metrics = {
            "iter_s.p50": (statistics.median(scaled), "s",
                           f"median of n={n}; wall {p50:.4f} s"),
            "iter_s.tail": (tail_s, "s",
                            f"p{pct:.1f} of n={n}; wall {wall_tail:.4f} s"),
            "ops_per_s": (attempted / sum(scaled), "1/s",
                          f"{attempted} {wl.op_name}; wall "
                          f"{attempted / sum(untraced):.6g}/s"),
            "setup_s": (statistics.median(r for _, r in setup) * REFERENCE_WORK_S,
                        "s", f"median of n={len(setup)} fresh processes; wall "
                        f"{statistics.median(w for w, _ in setup):.4f} s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "MB", "peak resident set of this process"),
        }
        print_table([(k, v, u, note) for k, (v, u, note) in metrics.items()]
                    + [("failed_frac", failed / attempted, "frac",
                        f"{failed} of {attempted} {wl.op_name}")])
        reported = {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}
    else:
        layers = tracer.layer_metrics(p50)
        print_table([(k, layers[k], u, "") for k, u in
                     tracing.LAYER_METRICS + tracing.MATRIX_ONLY_METRICS
                     if k in layers])
        print(f"  per-layer values are medians over n={len(traced)} traced "
              f"iterations; {len(untraced)} untraced iterations interleaved")
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_spans(spans_path)
        print(f"  spans: {spans_path}")
        reported = {k: {"value": layers[k], "unit": u}
                    for k, u in tracing.LAYER_METRICS}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": reported}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
