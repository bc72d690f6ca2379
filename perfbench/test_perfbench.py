"""Fast self-test of the benchmark, kept out of the library's test paths.

Runs every workload at a toy size, traced and untraced, and shows that
a deliberately wrong reference answer is counted as a failed operation.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import refs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from speed import Factors  # noqa: E402

succinct = run.load_program(ROOT)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)

# deep-tree ops per louds-nav round: one encoding and three queries
DEEP_OPS = 4


def toy(name: str, tmp_path):
    if name == "louds-nav":
        return workloads.LoudsNav(succinct, nodes=300, per_kind=2, small=16, pool=4, builds=2)
    if name == "dbv-api":
        return workloads.DbvApi(succinct, bits=3000, per_kind=2)
    return workloads.DbvCli(succinct, leaves=2, leaf_bits=2100, per_kind=3,
                            workdir=str(tmp_path / "work"))


def prepared(name: str, tmp_path, seed: int = 7):
    workload = toy(name, tmp_path)
    workload.prepare(seed)
    return workload


def expected_failed(name: str, rec) -> int:
    return rec.rounds * DEEP_OPS if name == "louds-nav" else 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_untraced_run_is_correct_and_reports_every_metric(name, tmp_path):
    workload = prepared(name, tmp_path)
    try:
        rec, metrics = run.untraced_pass(workload, 0.05, setup_seconds=0.0)
    finally:
        workload.close()
    assert rec.correct
    assert rec.attempted > 0
    assert rec.failed == expected_failed(name, rec)
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        value, unit = metrics[metric["name"]]
        assert unit == metric["unit"]
        assert value > 0, metric["name"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_reports_every_layer_metric(name, tmp_path):
    workload = prepared(name, tmp_path)
    try:
        rec, metrics = run.traced_pass(workload, succinct, 0.05)
    finally:
        workload.close()
    assert rec.correct
    assert rec.failed % DEEP_OPS == 0 and (rec.failed > 0) == (name == "louds-nav")
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        assert metrics[metric["name"]][1] == metric["unit"]
    assert metrics["trace.absent"][0] == 0
    assert metrics["trace.ops_per_s"][0] > 0
    # nothing stays wrapped after the traced pass
    assert "traced" not in succinct.louds.Louds.parent.__code__.co_name


def test_wrong_reference_answer_counts_as_failed_louds(tmp_path, monkeypatch):
    monkeypatch.setattr(refs.LoudsRef, "parent", lambda self, k: self.pos[self.parent_of[k]] + 1)
    workload = prepared("louds-nav", tmp_path)
    rec = workloads.Recorder()
    state, _ = workload.build(rec)
    workload.round(state, rec)
    assert not rec.correct
    # every parent query of the round, plus the deep tree's four ops
    assert rec.failed == workload.per_kind + DEEP_OPS


@pytest.mark.parametrize("name", ["dbv-api", "dbv-cli"])
def test_wrong_reference_answer_counts_as_failed_dynamic(name, tmp_path, monkeypatch):
    monkeypatch.setattr(refs.FlatBits, "rank1", lambda self, i: self.data.count(1, 0, i) + 1)
    workload = prepared(name, tmp_path)
    try:
        rec = workloads.Recorder()
        state, _ = workload.build(rec)
        workload.round(state, rec)
    finally:
        workload.close()
    assert not rec.correct
    assert rec.failed == workload.per_kind  # each rank answer of the round


def test_rescale_scales_latencies_by_cpu_and_rates_by_wall():
    rec = workloads.Recorder()
    rec.op(1.0, 2.0)
    rec.op(1.0, 4.0, write=True)
    rec.rescale(Factors(wall=0.5, cpu=0.25))
    rec.op(1.0, 2.0)
    rec.rescale(Factors(wall=2.0, cpu=2.0))
    assert rec.reads == [0.5, 4.0] and rec.writes == [1.0]
    assert rec.work_s == rec.timed_s == 3.0


def test_windowed_p99_ignores_a_slow_stretch():
    calm = [1.0] * 247 + [2.0] * 3
    values = calm * 3 + [9.0] * 250
    assert run.percentile(values, 0.99) == 9.0
    assert run.windowed_p99(values) == 2.0
    assert run.windowed_p99(calm[-100:]) == 2.0  # fewer than a window: one window


def test_dbv_cli_calibrates_between_steps(tmp_path):
    class EveryStep:
        ticks = 0

        def tick(self, force=False):
            self.ticks += 1
            return Factors(wall=1.0, cpu=1.0)

    workload = prepared("dbv-cli", tmp_path)
    try:
        rec = workloads.Recorder()
        state, _ = workload.build(rec)
        rec.speed = EveryStep()
        workload.round(state, rec)
    finally:
        workload.close()
    assert rec.correct
    assert rec.speed.ticks == 8 * workload.per_kind
    assert len(rec.reads) == len(rec.writes) == 4 * workload.per_kind
    assert rec.work_s > 0


def test_redblack_walk_finds_faults():
    leaf = ("leaf", 3000, 10, None)
    good = ("node", False, 3000, 10, leaf, leaf)
    assert refs.check_redblack(good, 2048, 8192)[1] is None
    assert "says num=2999" in refs.check_redblack(("node", False, 2999, 10, leaf, leaf), 2048, 8192)[1]
    assert "red root" in refs.check_redblack(("node", True, 3000, 10, leaf, leaf), 2048, 8192)[1]
    small = ("leaf", 100, 1, None)
    assert "window" in refs.check_redblack(("node", False, 100, 1, small, leaf), 2048, 8192)[1]
    uneven = ("node", False, 3000, 10, leaf, good)
    assert "black heights" in refs.check_redblack(uneven, 2048, 8192)[1]


def test_own_dump_text_reads_back_in_the_program():
    leaves = ["0110" * 600, "1" * 2400]
    text = refs.dump_text(leaves)
    assert succinct.dynamic.dflatten(succinct.dynamic.parse_dump(text)) == [
        int(c) for c in "".join(leaves)]
    assert refs.leaf_strings(refs.parse_dump_text(text)) == leaves


def test_fails_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(SPEC["command"] + ["--workload", "dbv-api", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
