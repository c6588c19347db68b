"""Record the benchmark's reference results and its baseline.

    python3 perfbench/record.py reference
    python3 perfbench/record.py baseline --runs 10

``reference`` runs every input an exact workload can generate (and, for
the sampling workload, the first items of the default and the held-out
seed), checks each result, and writes a digest of its exact JSON text
to ``perfbench/reference/<workload>.json``.

``baseline`` runs the benchmark once per seed on each workload, plain
and traced, and writes the median, quartiles and spread of every metric,
with CPU time beside wall time and the machine it ran on, to
``perfbench/baseline.json``. It prints each end-to-end spread next to
the metric's bound.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

# Cycles of the sampling stream recorded per seed: about three times what
# one run gets through at the baseline's speed.
SAMPLED_CYCLES = 100
RUN_TIMEOUT_S = 180


def record_reference(name: str) -> int:
    workload = workloads.WORKLOADS[name]
    machines = workload.build()
    if workload.domain is not None:
        items = list(workload.domain())
    else:
        count = SAMPLED_CYCLES * len(workload.cycle)
        items = [
            item
            for seed in (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED)
            for item in itertools.islice(workload.items(seed), count)
        ]
    reference = {}
    for kind_name, params in items:
        kind = workload.kinds[kind_name]
        key = workloads.item_key(kind_name, params)
        result = kind.run(machines, params)
        problems = kind.check(params, result)
        if problems:
            raise SystemExit(f"{name} {key}: {'; '.join(problems)}")
        reference[key] = workloads.digest(kind.text(result))
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    path = workloads.REFERENCE_DIR / f"{name}.json"
    path.write_text(json.dumps(reference, sort_keys=True, indent=0) + "\n")
    print(f"{name}: {len(reference)} results -> {path.relative_to(ROOT)}")
    return 0


def _run_once(name: str, seed: int, seconds: int, trace: int):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, check=True)
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["summary"], json.loads(lines[-1])


def _stats(values: "list[float]") -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "samples": len(values),
        "values": values,
    }


def machine_info() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def record_baseline(names, runs: int, trace_runs: int, out: Path) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    seeds = list(range(1, runs + 1))
    doc = {"machine": machine_info(), "run_seconds": seconds, "seeds": seeds, "workloads": {}}
    worst = 0.0
    for name in names:
        plain, summaries, failed = {}, [], 0
        for seed in seeds:
            summary, result = _run_once(name, seed, seconds, 0)
            print(name, seed, {m: round(e["value"], 4) for m, e in result["metrics"].items()},
                  f"speed {summary['speed']:.3f}", flush=True)
            summaries.append(summary)
            failed += result["failed"]
            for metric, entry in result["metrics"].items():
                plain.setdefault(metric, []).append(entry["value"])
        traced = {}
        for seed in seeds[:trace_runs]:
            summary, result = _run_once(name, seed, seconds, 1)
            failed += result["failed"]
            for metric, entry in result["metrics"].items():
                traced.setdefault(metric, []).append(entry["value"])
        p90 = [s["item_ms_p90"] for s in summaries if s["item_ms_p90"] is not None]
        entry = {
            "failed": failed,
            "end_to_end": {m: _stats(v) for m, v in plain.items()},
            "wall_s": _stats([s["wall_s"] for s in summaries]),
            "cpu_s": _stats([s["cpu_s"] for s in summaries]),
            "items": _stats([s["items"] for s in summaries]),
            "speed": _stats([s["speed"] for s in summaries]),
            "wall_items_per_s": _stats([s["wall_items_per_s"] for s in summaries]),
            "item_ms_p90": _stats(p90) if len(p90) == len(summaries) else None,
            "per_layer": {m: statistics.median(v) for m, v in traced.items()},
            "per_layer_samples": len(seeds[:trace_runs]),
        }
        doc["workloads"][name] = entry
        for metric in spec["end_to_end"]:
            stats = entry["end_to_end"][metric["name"]]
            worst = max(worst, stats["spread"] / metric["bound"])
            print(
                f"{name:20} {metric['name']:12} median {stats['median']:12.5g}"
                f"  spread {stats['spread']:.4f}  bound {metric['bound']}"
            )
        print(f"{name:20} failed {failed}  cpu/wall {entry['cpu_s']['median'] / entry['wall_s']['median']:.4f}")
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"largest spread / bound: {worst:.3f}; wrote {out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    ref = sub.add_parser("reference")
    ref.add_argument("--workloads", nargs="+", default=list(workloads.WORKLOADS))
    base = sub.add_parser("baseline")
    base.add_argument("--workloads", nargs="+", default=list(workloads.WORKLOADS))
    base.add_argument("--runs", type=int, default=10)
    base.add_argument("--trace-runs", type=int, default=3)
    base.add_argument("--out", type=Path, default=BENCH_DIR / "baseline.json")
    args = parser.parse_args(argv)
    if args.command == "reference":
        return max(record_reference(name) for name in args.workloads)
    return record_baseline(args.workloads, args.runs, args.trace_runs, args.out)


if __name__ == "__main__":
    sys.exit(main())
