"""The exactqfa benchmark: one seeded workload, timed and checked.

Run from the root of a checkout:

    python3 perfbench/run.py --workload short-words --seed 1 --seconds 20 --trace 0

``--trace 0`` times the items with nothing wrapped and reports the
end-to-end metrics named in BENCHMARK.json. ``--trace 1`` reports the
per-layer metrics: it runs the items plain for half the time, then runs
the same items again with each layer's entry points wrapped, and gives
the tracing overhead as traced time over plain time. Every result is
checked in both modes.

Times are in benchmark seconds: the CPU seconds of a call, scaled by how
fast the machine ran a fixed speed kernel around it (see ``SpeedClock``).
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The line before it is a
summary: the error rate, the p90 latency where a run has at least 100
items, raw wall-clock figures, and process CPU time beside wall time.
"""

from __future__ import annotations

import argparse
import bisect
import itertools
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
from array import array
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

import speed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
# Fresh interpreters started per run to time set-up; the median is reported.
SETUP_REPS = 15
SETUP_TIMEOUT_S = 60
P90_MIN_ITEMS = 100
# While items run, a timer signal samples the speed kernel this often.
SPEED_EVERY_S = 0.1
# Samples this close to a call set its scale.
SPEED_WINDOW_S = 0.5


class SpeedClock:
    """Converts CPU time into benchmark time.

    The machine this runs on is shared. Other processes take the CPU
    away for tens of milliseconds, which CPU time leaves out; other load
    also slows the CPU itself by up to half for seconds at a time, which
    CPU time does not leave out. So while items run, a timer signal
    samples the speed kernel, also in the middle of a long call, and the
    CPU time the samples take is left out of the call. A call's CPU time
    is then scaled by speed.REF_S over the median kernel time sampled near
    it, so a change in the code moves the result and a change in the load
    mostly does not.
    """

    def __init__(self):
        self.times: "list[float]" = []
        self.kernel_s: "list[float]" = []
        # Total CPU time spent sampling, to subtract from timed calls.
        self.spent_s = 0.0
        self._sampling = False
        self.sample()

    def sample(self, *_signal) -> None:
        if self._sampling:
            return
        self._sampling = True
        begin = process_time()
        self.kernel_s.append(speed.sample())
        self.times.append(perf_counter())
        self.spent_s += process_time() - begin
        self._sampling = False

    def __enter__(self) -> "SpeedClock":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SPEED_EVERY_S, SPEED_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def scale(self, start: float, end: float) -> float:
        """The factor for a call that ran between these perf_counter times."""
        lo = bisect.bisect_left(self.times, start - SPEED_WINDOW_S)
        hi = bisect.bisect_right(self.times, end + SPEED_WINDOW_S)
        near = self.kernel_s[lo:hi] or self.kernel_s[max(0, lo - 1) : lo + 1]
        return speed.REF_S / statistics.median(near)


@dataclass
class Tally:
    """Counts and times of the items of one pass.

    A call's benchmark time needs the speed samples taken up to
    SPEED_WINDOW_S after it, so a call waits in ``pending`` until then.
    Settled times go into compact arrays, so that the memory of the
    process hardly grows with the number of items.
    """

    attempted: int = 0
    failed: int = 0
    # Benchmark seconds of each item that returned.
    seconds: array = field(default_factory=lambda: array("d"))
    wall: array = field(default_factory=lambda: array("d"))
    problems: "list[str]" = field(default_factory=list)
    pending: deque = field(default_factory=deque)

    def fail(self, key: str, why: str) -> None:
        self.failed += 1
        self.problems.append(f"{key}: {why}")

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems)

    def record(self, start: float, end: float, cpu: float, clock: SpeedClock) -> None:
        """A call that ran from ``start`` to ``end`` (perf_counter) and
        took ``cpu`` CPU seconds, the speed samples left out."""
        self.wall.append(end - start)
        self.pending.append((start, end, cpu))
        self.settle(clock, clock.times[-1] - SPEED_WINDOW_S)

    def settle(self, clock: SpeedClock, until: float = math.inf) -> None:
        while self.pending and self.pending[0][1] <= until:
            start, end, cpu = self.pending.popleft()
            self.seconds.append(cpu * clock.scale(start, end))

    def total_s(self) -> float:
        return sum(self.seconds)


def measure_setup(workload: str) -> "dict[str, float]":
    """Median benchmark time of a fresh interpreter that imports
    exactqfa.cli and builds the workload's machines, with the probe's own
    split. A probe's time is the CPU time of the child process less the
    CPU time of its speed samples, scaled by the kernel time sampled
    inside it, so each probe is scaled by the speed it ran at."""
    totals, imports, builds = [], [], []
    for _ in range(SETUP_REPS):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload],
            capture_output=True,
            text=True,
            timeout=SETUP_TIMEOUT_S,
            check=True,
        )
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        probe = json.loads(proc.stdout.splitlines()[-1])
        cpu = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
        scale = speed.SETUP_REF_S / probe["kernel_s"]
        totals.append(scale * (cpu - probe["spent_s"]))
        imports.append(scale * probe["import_s"])
        builds.append(scale * probe["build_s"])
    return {
        "setup_s": statistics.median(totals),
        "setup.import_s": statistics.median(imports),
        "setup.build_s": statistics.median(builds),
    }


def run_items(workload, machines, reference, items, tally, clock, deadline=None) -> int:
    """Run and check whole cycles of the stream until the deadline (at
    least one cycle) or the end of ``items``; returns how many ran. Only
    the library call is timed."""
    from workloads import digest, item_key

    cycle = len(workload.cycle)
    count = 0
    with clock:
        for kind_name, params in items:
            if deadline is not None and count and count % cycle == 0 and perf_counter() >= deadline:
                break
            count += 1
            kind = workload.kinds[kind_name]
            key = item_key(kind_name, params)
            tally.attempted += 1
            spent, start, cpu = clock.spent_s, perf_counter(), process_time()
            try:
                result = kind.run(machines, params)
            except Exception as exc:  # a failing item is counted, not fatal
                tally.fail(key, f"raised {exc!r}")
                continue
            cpu = process_time() - cpu - (clock.spent_s - spent)
            tally.record(start, perf_counter(), cpu, clock)
            try:
                problems = kind.check(params, result)
                # The text is made for every item, so that each seed does the
                # same work whether or not its items were recorded.
                got, expected = digest(kind.text(result)), reference.get(key)
                if expected is not None and got != expected:
                    problems.append("result differs from the reference")
            except Exception as exc:
                problems = [f"check raised {exc!r}"]
            if problems:
                tally.fail(key, "; ".join(problems))
    tally.settle(clock)
    return count


def latency_metrics(seconds: array) -> "dict[str, float]":
    """Throughput and median latency over every item that returned. A
    pass runs whole cycles of the stream, so every run has the same mix
    of item kinds."""
    if not seconds:
        return {"items_per_s": 0.0, "item_ms_p50": 0.0}
    return {
        "items_per_s": len(seconds) / sum(seconds),
        "item_ms_p50": 1e3 * statistics.median(seconds),
    }


def _scale_layer_times(values: "dict[str, float]", scale: float) -> None:
    for name in values:
        if name.endswith("_s") or ".us_per_" in name:
            values[name] *= scale


def measure(name: str, seed, seconds: float, trace: bool):
    """One benchmark run; returns (values by metric name, tally, summary)."""
    import workloads

    workload = workloads.WORKLOADS[name]
    machines = workload.build()
    reference = workloads.load_reference(name)
    clock = SpeedClock()
    values = measure_setup(name)
    tally = Tally()
    wall0, cpu0 = perf_counter(), process_time()
    if not trace:
        run_items(
            workload, machines, reference, workload.items(seed), tally, clock, wall0 + seconds
        )
        values.update(latency_metrics(tally.seconds))
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        timed = tally
    else:
        from tracing import Tracer

        plain, traced = Tally(), Tally()
        count = run_items(
            workload, machines, reference, workload.items(seed), plain, clock, wall0 + seconds / 2
        )
        samples_before = len(clock.kernel_s)
        with Tracer(clock) as tracer:
            run_items(
                workload, machines, reference, itertools.islice(workload.items(seed), count),
                traced, clock,
            )
        layers = tracer.metrics()
        _scale_layer_times(layers, speed.REF_S / statistics.median(clock.kernel_s[samples_before:]))
        values.update(layers)
        values["trace.overhead"] = traced.total_s() / plain.total_s()
        tally.add(plain)
        tally.add(traced)
        timed = traced
    wall, seconds = timed.wall, timed.seconds
    summary = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "items": len(wall),
        "error_rate": tally.failed / tally.attempted,
        "wall_items_per_s": len(wall) / sum(wall) if wall else 0.0,
        "wall_item_ms_median": 1e3 * statistics.median(wall) if wall else 0.0,
        "item_ms_p90": 1e3 * statistics.quantiles(seconds, n=10)[8]
        if len(seconds) >= P90_MIN_ITEMS
        else None,
        "speed": statistics.median(speed.REF_S / k for k in clock.kernel_s),
        "wall_s": perf_counter() - wall0,
        "cpu_s": process_time() - cpu0,
    }
    return values, tally, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "exactqfa" / "__init__.py").is_file():
        print(f"error: no exactqfa sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    values, tally, summary = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in tally.problems[:20]:
        print(f"FAIL {line}", file=sys.stderr)
    named = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in named}
    print(json.dumps({"summary": summary}))
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
