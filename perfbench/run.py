"""Benchmark of the succinct library; see README.md in this directory.

    python3 perfbench/run.py --workload louds-nav --seed 1 --seconds 10 --trace 0

Run from the root of a checkout: the library is imported from ./src.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import statistics
import subprocess
import sys

from time import perf_counter

import tracer as tracing
from speed import Speed
from workloads import WORKLOADS, Recorder

# An untraced run sets up at least SETUPS times and for at least
# SETUP_SECONDS in all; setup_s is the median.
SETUPS = 3
SETUP_SECONDS = 3.0
# The p99 latencies are medians over windows of at least P99_WINDOW
# consecutive operations of a kind (see windowed_p99).
P99_WINDOW = 250

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "read_p50_us": "us",
    "read_p99_us": "us",
    "write_p50_us": "us",
    "write_p99_us": "us",
    "bytes_per_bit": "B/bit",
}


def load_program(root: str):
    """Import succinct from root/src and nowhere else."""
    src = os.path.realpath(os.path.join(root, "src"))
    if not os.path.isfile(os.path.join(src, "succinct", "__init__.py")):
        raise SystemExit(f"perfbench: no library at {src}/succinct; run from a checkout root")
    sys.path.insert(0, src)
    succinct = importlib.import_module("succinct")
    for name in ("bitvec", "louds", "dynamic", "oracle", "verify", "cli"):
        importlib.import_module(f"succinct.{name}")
    if not os.path.realpath(succinct.__file__).startswith(src + os.sep):
        raise SystemExit(f"perfbench: succinct was imported from {succinct.__file__}, not {src}")
    return succinct


def environment(root: str, seed: int) -> dict:
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "succinct")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = "unknown"
    if os.path.isdir(os.path.join(root, ".git")):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30, check=False)
        commit = done.stdout.strip() or commit
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "seed": seed,
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, min(len(ordered) - 1, int(q * len(ordered) + 0.5) - 1))]


def windowed_p99(values: list[float]) -> float:
    """The median, over consecutive windows of P99_WINDOW to twice that
    many values, of each window's p99; one window when there are fewer.

    The tail of the same code moved within a run: on the 2-vCPU host the
    benchmark was written on, the p99 of successive 1000-operation
    stretches of one run ranged over a factor of two while their medians
    stayed within a tenth of each other, and the p99 of a whole run
    followed how long the slow stretches lasted.  Over ten runs, this
    median of windows spread a third to a half as much as the p99 of
    the whole run."""
    n = len(values)
    k = max(1, n // P99_WINDOW)
    return statistics.median(percentile(values[n * j // k : n * (j + 1) // k], 0.99)
                             for j in range(k))


def run_rounds(workload, state, rec: Recorder, seconds: float, speed: Speed) -> None:
    """Whole rounds until ``seconds`` have passed, at least one, with
    calibration ticks in between; every time recorded is rescaled to the
    reference speed by the ticks around it.  A workload whose round takes
    long may tick within it too, through ``rec.calibrate``."""
    rec.speed = speed
    rec.calibrate(force=True)
    start = perf_counter()
    while True:
        workload.round(state, rec)
        rec.calibrate()
        if perf_counter() - start >= seconds:
            break
    rec.calibrate(force=True)
    rec.speed = None


def ops_per_s(rec: Recorder) -> float:
    return rec.work_ops / rec.work_s if rec.work_s else 0.0


def untraced_pass(workload, seconds: float, setup_seconds: float = SETUP_SECONDS):
    rec, setup_speed, speed = Recorder(), Speed(), Speed()
    setups = []
    setup_speed.tick(force=True)
    while len(setups) < SETUPS or sum(setups) < setup_seconds:
        state = None
        gc.collect()
        state, elapsed = workload.build(rec)
        setups.append(elapsed * setup_speed.tick(force=True).wall)
        if len(setups) == 1:
            bytes_per_bit = workload.bytes_per_bit(state)
    gc.collect()
    run_rounds(workload, state, rec, seconds, speed)
    workload.finish(state, rec)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": ops_per_s(rec),
        "read_p50_us": percentile(rec.reads, 0.50) * 1e6,
        "read_p99_us": windowed_p99(rec.reads) * 1e6,
        "write_p50_us": percentile(rec.writes, 0.50) * 1e6,
        "write_p99_us": windowed_p99(rec.writes) * 1e6,
        "bytes_per_bit": bytes_per_bit,
    }
    print(f"speed: set-up factor {setup_speed.factor():.4f}, rounds factor {speed.factor():.4f} "
          f"wall, {speed.cpu_factor():.4f} CPU (times below are at the reference speed; "
          f"divide by the factor for raw)")
    print(f"samples: {len(setups)} set-ups, {len(rec.reads)} reads, {len(rec.writes)} writes, "
          f"{rec.rounds} rounds")
    return rec, {name: (value, END_TO_END_UNITS[name]) for name, value in metrics.items()}


def layer_metrics(setup_spans, op_spans, rec: Recorder, untraced: float, shape, absent) -> dict:
    """Per-layer figures from the spans of the traced set-up and the
    traced rounds; a layer a workload does not reach reads 0."""

    def durations(spans, name):
        return [d for n, d, _ in spans if n == name]

    def p50_us(name):
        return percentile(durations(op_spans, name), 0.50) * 1e6

    def total(spans, name):
        return float(sum(durations(spans, name)))

    def median_call(name):
        return percentile(durations(op_spans, name), 0.50)

    self_s, calls = {}, {}
    for name, _, own in op_spans:
        layer = name.split(".", 1)[0]
        self_s[layer] = self_s.get(layer, 0.0) + own
        calls[layer] = calls.get(layer, 0) + 1
    traced = ops_per_s(rec)
    shape = shape or {"leaves": 0, "bits": 0, "max_depth": 0, "black_height": 0}
    m = {
        "trace.ops_per_s": (traced, "ops/s"),
        "trace.untraced_ops_per_s": (untraced, "ops/s"),
        "trace.overhead": (untraced / traced if traced else 0.0, "x"),
        "trace.timed_s": (rec.timed_s, "s"),
        "trace.absent": (len(absent), "count"),
        "bitvec.calls_per_op": (calls.get("bitvec", 0) / rec.ops if rec.ops else 0.0, "calls/op"),
        "bitvec.rank.p50_us": (p50_us("bitvec.rank"), "us"),
        "bitvec.select.p50_us": (p50_us("bitvec.select"), "us"),
        "bitvec.self_s": (self_s.get("bitvec", 0.0), "s"),
        "bitvec.share": (self_s.get("bitvec", 0.0) / rec.timed_s if rec.timed_s else 0.0, "ratio"),
        "louds.parse_s": (total(setup_spans, "louds.parse"), "s"),
        "louds.encode_s": (total(setup_spans, "louds.encode"), "s"),
        "louds.children.p50_us": (p50_us("louds.children"), "us"),
        "louds.child.p50_us": (p50_us("louds.child"), "us"),
        "louds.parent.p50_us": (p50_us("louds.parent"), "us"),
        "louds.self_s": (self_s.get("louds", 0.0), "s"),
        "dynamic.from_bits_s": (total(setup_spans, "dynamic.from_bits"), "s"),
        "dynamic.parse_dump_s": (total(setup_spans, "dynamic.parse_dump"), "s"),
        "dynamic.dump_s": (median_call("dynamic.dump"), "s"),
    }
    for op in ("insert", "delete", "set", "clear", "rank", "select0", "select1", "access"):
        m[f"dynamic.{op}.p50_us"] = (p50_us(f"dynamic.{op}"), "us")
    m.update({
        "dynamic.self_s": (self_s.get("dynamic", 0.0), "s"),
        "dynamic.leaves": (shape["leaves"], "count"),
        "dynamic.mean_leaf_bits": (shape["bits"] / shape["leaves"] if shape["leaves"] else 0.0,
                                   "bits"),
        "dynamic.max_depth": (shape["max_depth"], "count"),
        "dynamic.black_height": (shape["black_height"], "count"),
        "verify.step.p50_us": (p50_us("verify.step"), "us"),
        "verify.self_s": (self_s.get("verify", 0.0), "s"),
        "verify.oracle.calls": (calls.get("oracle", 0) / rec.rounds if rec.rounds else 0.0,
                                "calls/round"),
        "verify.oracle_s": (self_s.get("oracle", 0.0), "s"),
        "cli.parse_script_s": (median_call("cli.parse_script"), "s"),
        "cli.self_s": (self_s.get("cli", 0.0), "s"),
    })
    return m


def traced_pass(workload, succinct, seconds: float) -> tuple[Recorder, dict]:
    """Half the time untraced, for the overhead baseline, then half
    traced from a fresh set-up."""
    plain = Recorder()
    state, _ = workload.build(plain)
    run_rounds(workload, state, plain, seconds / 2, Speed())
    workload.finish(state, plain)
    del state

    tracer, speed = tracing.Tracer(), Speed()
    rec = Recorder(tracer)
    tracing.install(tracer, succinct)
    try:
        state, _ = workload.build(rec)
        setup_spans = tracer.take()
        run_rounds(workload, state, rec, seconds / 2, speed)
        op_spans = tracer.take()
    finally:
        tracer.restore()
    shape = workload.finish(state, rec)
    for name in tracer.absent:
        print(f"absent: {name}")
    # spans carry raw times; the phase's median speed brings them to the
    # reference speed, as run_rounds did for the recorder's own times
    factor = speed.factor()
    setup_spans, op_spans = ([(name, d * factor, own * factor) for name, d, own in spans]
                             for spans in (setup_spans, op_spans))
    metrics = layer_metrics(setup_spans, op_spans, rec, ops_per_s(plain), shape, tracer.absent)
    metrics["trace.speed"] = (factor, "x")
    rec.attempted += plain.attempted
    rec.failed += plain.failed
    rec.correct = rec.correct and plain.correct
    return rec, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="succinct benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    succinct = load_program(root)
    print("env: " + json.dumps(environment(root, args.seed), sort_keys=True))
    workload = WORKLOADS[args.workload](succinct)
    workload.prepare(args.seed)
    # The inputs stay alive all run; freezing them keeps the collector
    # from scanning them again, so they do not weigh on the program's time.
    gc.collect()
    gc.freeze()
    try:
        if args.trace:
            rec, metrics = traced_pass(workload, succinct, args.seconds)
        else:
            rec, metrics = untraced_pass(workload, args.seconds)
    finally:
        workload.close()

    for name, (value, unit) in metrics.items():
        print(f"{args.workload:>9}  {name:<26} {value:>16.6f} {unit}")
    print(f"{args.workload:>9}  attempted {rec.attempted}, failed {rec.failed}, "
          f"correct {rec.correct}")
    print(json.dumps({
        "correct": rec.correct,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
