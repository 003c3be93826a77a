"""Benchmark of the migratenet simulator: host time and simulated outcome.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The workload's four inputs are generated
from the seed; then the benchmark repeats one iteration, cycling through
the inputs, until S seconds have passed and every input has run (the first
twice, so repeats can be compared):

* set-up: import ``migratenet`` afresh from ``src/`` and load the workload's
  input (``Scenario.load``, or for churn_sockets ``Simulation.build``, the
  spawns and the socket handshakes);
* run: the simulated operations, up to the written report files (or the
  last socket byte received);
* checks, untimed: ``report.passed``, byte conservation, socket
  exactly-once delivery, and one digest of the simulated outputs for every
  repeat.

Each iteration starts with a fixed reference loop that gauges the host's
speed.  With ``--trace 0`` the benchmark prints the end-to-end metrics:
host times are medians over the iterations, scaled to a reference host
speed (see REFERENCE_S); simulated metrics pool the first run of every
input.  With ``--trace 1`` it alternates untraced and traced iterations and
prints the per-layer metrics of the traced ones (see ``spans.py``), the
spans of the first written to ``perfbench/out/``.
The last line of output is one JSON object; the exit code is 0 when every
check passed, 1 when one failed and 2 when the program cannot be run.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import heapq
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from pathlib import Path

import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
clock = time.perf_counter

# On a shared host the CPU speed can drift by tens of percent over minutes,
# alike for the simulator and for a fixed loop of plain Python run beside
# it.  Host times are therefore reported at a reference speed: each
# iteration's times are scaled by REFERENCE_S over the time of that loop run
# just before it, and the metric is the median of the scaled values.
# REFERENCE_S is about the loop's time on a 2-CPU x86 host with Python
# 3.11.7.  The raw medians are printed too.
REFERENCE_S = 0.13

# Inputs generated from one seed and cycled through by the iterations.  The
# simulated metrics pool all of them, which keeps their seed-to-seed spread
# small; the host-time metrics are medians over every iteration.
INPUTS = 4

# (metric, unit) in the order they are printed; the simulated metrics say
# "sim", every other time is host time
END_TO_END = [
    ("setup_s", "s"), ("run_s", "s"), ("sim_ops_per_s", "1/s"), ("peak_rss_mb", "MB"),
    ("sim_latency_p50_us", "us"), ("sim_latency_p99_us", "us"),
    ("relayed_bytes_ratio", "ratio"),
]


def import_program():
    """Import ``migratenet`` from ``src/`` afresh, dropping any earlier copy,
    so each set-up pays the import and a traced iteration wraps a clean
    package."""
    for name in [n for n in sys.modules if n.partition(".")[0] == "migratenet"]:
        del sys.modules[name]
    mn = importlib.import_module("migratenet")
    importlib.import_module("migratenet.bench")
    if Path(mn.__file__).resolve().parent != SRC / "migratenet":
        raise ImportError(f"migratenet imported from {mn.__file__}, not from {SRC}")
    return mn


def reference_loop() -> float:
    """Host seconds of a fixed, program-independent mix of the work the
    simulator does most: heap pushes and pops of tuples holding closures,
    dict updates and sorts.  It works in small batches so that it adds
    nothing to the peak memory of a run."""
    start = clock()
    rng = random.Random(7)
    counts: dict[int, int] = {}
    for batch in range(80):
        heap: list = []
        for i in range(1000):
            heapq.heappush(heap, (rng.random(), i, lambda: None))
            counts[i % 977] = counts.get(i % 977, 0) + batch
        while heap:
            heapq.heappop(heap)
        sorted((rng.random(), str(i)) for i in range(500))
    return clock() - start


def measure(inputs: list, seconds: float, trace: bool, outdir: Path) -> list[dict]:
    """Repeat set-up and run, cycling through `inputs`, until `seconds` have
    passed and every input has run, the first twice; with `trace`, every
    second iteration is traced.  Returns one record per iteration."""
    records: list[dict] = []
    deadline = clock() + seconds
    while len(records) <= len(inputs) or clock() < deadline:
        index = len(records) % len(inputs)
        workload = inputs[index]
        rec = spans.Recorder() if trace and len(records) % 2 else None
        gc.collect()
        reference_s = reference_loop()
        start = clock()
        mn = import_program()
        if rec is not None:
            spans.install(rec, mn)
        state = workload.setup(mn)
        ready = clock()
        region = (lambda: workload.run(mn, state))
        if rec is not None:
            region = rec.root(region)
        begin = clock()
        outputs, simulated = region()
        end = clock()
        checked = workload.check(mn, state, outputs)
        record = {"input": index, "traced": rec is not None, "reference_s": reference_s,
                  "setup_s": ready - start, "run_s": end - begin,
                  "simulate_s": simulated - begin,
                  "ops": checked.ops, "failed_ops": checked.failed_ops,
                  "failures": checked.failures, "sha256": checked.sha256}
        if len(records) < len(inputs):
            # the first run of each input supplies the simulated metrics
            record.update(latencies_us=checked.latencies_us,
                          relayed_bytes=checked.relayed_bytes,
                          payload_delivered=checked.payload_delivered)
        if rec is not None:
            record["layers"], record["notes"] = rec.metrics()
            if not any(r["traced"] for r in records):
                rec.write(outdir / "spans.csv.gz")
        records.append(record)
        del mn, rec, state, outputs, checked
    return records


def simulated_metrics(firsts: list[dict]) -> tuple[dict, str]:
    """Latency percentiles and relayed share pooled over every input, and a
    note on the samples behind the tail percentile."""
    latencies = [x for r in firsts for x in r["latencies_us"]]
    tail = spans.tail_percentile(len(latencies))
    payload = sum(r["payload_delivered"] for r in firsts)
    values = {"sim_latency_p50_us": spans.percentile(latencies, 50),
              "sim_latency_p99_us": spans.percentile(latencies, tail),
              "relayed_bytes_ratio": (sum(r["relayed_bytes"] for r in firsts) / payload
                                      if payload else 0.0)}
    return values, f"{len(latencies)} messages, p99 reported as p{tail}"


def report(args, inputs: list, records: list[dict]) -> tuple[bool, dict]:
    """Print the metrics as lines of ``name: value unit`` and return
    (correct, the result object)."""
    attempted = sum(r["ops"] for r in records)
    failures = [f for r in records for f in r["failures"]]
    for index in range(len(inputs)):
        failures += checks.repeat_failures([r["sha256"] for r in records if r["input"] == index])
    failed = sum(r["failed_ops"] for r in records) + len(failures)
    firsts = records[:len(inputs)]
    digest = hashlib.sha256("".join(r["sha256"] for r in firsts).encode()).hexdigest()
    print(f"migratenet benchmark: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"inputs={len(inputs)} iterations={len(records)} "
          f"python={platform.python_version()} cpus={os.cpu_count()}")
    for index, workload in enumerate(inputs):
        print(f"input {index}: {firsts[index]['ops']} operations ({workload.op_counts}), "
              f"sha256 {firsts[index]['sha256']}")
    print(f"report_sha256: {digest}")
    print(f"failed_ops_ratio: {failed / attempted!r} ratio ({failed} of {attempted})")
    untraced = [r for r in records if not r["traced"]]
    if args.trace:
        traced = [r for r in records if r["traced"]]
        # median_low: a count stays a count some traced iteration produced
        values = {name: statistics.median_low(r["layers"][name] for r in traced)
                  for name, _ in spans.PER_LAYER if name != "trace.overhead_ratio"}
        values["trace.overhead_ratio"] = (statistics.median(r["run_s"] for r in traced)
                                          / statistics.median(r["run_s"] for r in untraced)
                                          - 1.0)
        for note in traced[-1]["notes"]:
            print(f"percentile: {note}")
        table = spans.PER_LAYER
    else:
        def host_medians(scaled: bool) -> dict:
            def speed(r):
                return REFERENCE_S / r["reference_s"] if scaled else 1.0
            return {"setup_s": statistics.median(r["setup_s"] * speed(r) for r in untraced),
                    "run_s": statistics.median(r["run_s"] * speed(r) for r in untraced),
                    "sim_ops_per_s": statistics.median(r["ops"] / r["simulate_s"] / speed(r)
                                                       for r in untraced)}
        raw = host_medians(scaled=False)
        reference_s = statistics.median(r["reference_s"] for r in untraced)
        print(f"host speed: reference loop {reference_s!r} s (nominal {REFERENCE_S} s); "
              f"raw medians: setup_s {raw['setup_s']!r} s, run_s {raw['run_s']!r} s, "
              f"sim_ops_per_s {raw['sim_ops_per_s']!r} 1/s")
        values = host_medians(scaled=True)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        simulated, note = simulated_metrics(firsts)
        values.update(simulated)
        print(f"simulated latency: {note}")
        table = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in table}
    for name, unit in table:
        print(f"{name}: {values[name]!r} {unit}")
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    correct = failed == 0
    return correct, {"correct": correct, "attempted": attempted, "failed": failed,
                     "metrics": metrics}


def main(argv=None, params=None) -> int:
    """Run one workload; `params` replaces the workload's parameters (the
    self-test runs tiny versions this way)."""
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "migratenet" / "__init__.py").is_file():
        print(f"perfbench: no migratenet sources in {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import migratenet: {exc}", file=sys.stderr)
        return 2
    outdir = OUT / args.workload
    inputs = []
    for index in range(INPUTS):
        (outdir / f"input{index}").mkdir(parents=True, exist_ok=True)
        inputs.append(workloads.make(args.workload, args.seed * INPUTS + index,
                                     outdir / f"input{index}", params))
    records = measure(inputs, args.seconds, bool(args.trace), outdir)
    correct, result = report(args, inputs, records)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
