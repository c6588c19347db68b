"""Smoke test of the benchmark itself, not of the library.

    python3 -m pytest perfbench/test_smoke.py

Each workload runs one cycle of its stream (one per pass when traced)
with one set-up probe, so the whole file takes about a minute.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import random
import shutil
import subprocess
import sys
import time
from array import array
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from exactqfa import analysis, exactnum, qstate  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def one_setup_probe(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPS", 1)


def _tiny_run(capsys, name: str, trace: int) -> "tuple[dict, dict]":
    assert run.main(["--workload", name, "--seed", "1", "--seconds", "0", "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.splitlines()
    return json.loads(lines[-2])["summary"], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_named_metric_is_reported(capsys, name, trace):
    summary, result = _tiny_run(capsys, name, trace)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    named = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in named)
    for m in named:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert summary["error_rate"] == 0


def test_workload_names_match_the_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)


def _swap_verdicts(original):
    def wrong(*args, **kwargs):
        dist = original(*args, **kwargs)
        return dataclasses.replace(dist, p_accept=dist.p_reject, p_reject=dist.p_accept)

    return wrong


def test_wrong_result_raises_error_rate(capsys, monkeypatch):
    monkeypatch.setattr(
        analysis, "run_exact_realtime", _swap_verdicts(analysis.run_exact_realtime)
    )
    summary, result = _tiny_run(capsys, "short-words", 0)
    # One cycle: three AW_PAL and TWINPAL items go wrong, the sweep does not.
    assert result["failed"] == 3 and result["attempted"] == 4
    assert not result["correct"]
    assert summary["error_rate"] == 0.75


def test_raising_item_counts_as_failed(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ArithmeticError("broken enclosure")

    monkeypatch.setattr(exactnum, "angle_probability", broken)
    summary, result = _tiny_run(capsys, "certified-rotation", 0)
    assert result["failed"] >= 1 and summary["error_rate"] > 0


def test_result_differing_from_reference_fails(capsys, monkeypatch):
    monkeypatch.setattr(workloads, "digest", lambda text: "not-a-digest")
    summary, result = _tiny_run(capsys, "short-words", 0)
    assert result["failed"] == 4 and summary["error_rate"] == 1


@pytest.mark.parametrize("name", ["short-words", "long-periodic", "certified-rotation"])
def test_exact_streams_stay_inside_the_recorded_domain(name):
    workload = workloads.WORKLOADS[name]
    reference = workloads.load_reference(name)
    for seed in (0, 1, 2, workloads.HELD_OUT_SEED):
        for kind, params in itertools.islice(workload.items(seed), 2000):
            assert workloads.item_key(kind, params) in reference


def test_sampling_reference_covers_the_recorded_seeds():
    workload = workloads.WORKLOADS["sampling"]
    reference = workloads.load_reference("sampling")
    for seed in (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED):
        for kind, params in itertools.islice(workload.items(seed), 200):
            assert workloads.item_key(kind, params) in reference


def test_same_seed_same_inputs():
    for workload in workloads.WORKLOADS.values():
        first = list(itertools.islice(workload.items(5), 50))
        assert first == list(itertools.islice(workload.items(5), 50))
        assert first != list(itertools.islice(workload.items(6), 50))


def test_sizes_without_instances_are_excluded():
    assert workloads._feasible(range(1, 4), palindrome=False) == [2, 3]
    with pytest.raises(IndexError):
        next(workloads._pal_pairs(random.Random(0), (1,)))
    words = itertools.islice(workloads._single_words(random.Random(0), range(1, 3)), 200)
    for i, w in enumerate(words):
        assert (w == w[::-1]) == (i % 2 == 0)


def test_tracer_restores_the_library():
    before = (exactnum.angle_probability, qstate.angle_probability, qstate.QMatrix.apply)
    with tracing.Tracer() as tracer:
        assert qstate.angle_probability is exactnum.angle_probability is not before[0]
        exactnum.angle_probability(exactnum.sqrt2_pi(3), 80)
    assert (exactnum.angle_probability, qstate.angle_probability, qstate.QMatrix.apply) == before
    metrics = tracer.metrics()
    assert metrics["exactnum.angle_probability.calls"] == 1
    assert metrics["exactnum.angle_probability.escalated_calls"] == 1


class _ClockThatSpendsEverything:
    """A clock whose speed samples seem to take all of the CPU time."""

    @property
    def spent_s(self) -> float:
        return time.process_time()


def test_tracer_leaves_out_the_speed_samples():
    with tracing.Tracer(_ClockThatSpendsEverything()) as tracer:
        exactnum.angle_probability(exactnum.sqrt2_pi(3), 80)
    metrics = tracer.metrics()
    assert metrics["exactnum.angle_probability.calls"] == 1
    assert abs(metrics["exactnum.angle_probability.self_s"]) < 1e-4


def test_latency_metrics_count_every_item():
    seconds = array("d", [0.001, 0.002, 0.1])
    metrics = run.latency_metrics(seconds)
    assert metrics["items_per_s"] == pytest.approx(3 / 0.103)
    assert metrics["item_ms_p50"] == pytest.approx(2.0)


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "short-words", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
