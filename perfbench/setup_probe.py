"""One fresh set-up of a workload, run in a new interpreter by run.py.

The caller takes the CPU time of the whole process, interpreter start
included. While this script imports ``exactqfa.cli`` and builds the
workload's machines, a timer signal samples ``speed.setup_kernel``
every SAMPLE_EVERY_S, so that the caller can scale this very process's
time. It prints one JSON line: the CPU time of the import and of the
build (samples left out), the median kernel time, and the CPU time the
samples took.

    python3 perfbench/setup_probe.py short-words
"""

import json
import signal
import sys
import time
from pathlib import Path

import speed

SAMPLE_EVERY_S = 0.03

kernel_s = []
spent = [0.0]
busy = [False]


def sample(*_signal) -> None:
    if busy[0]:
        return
    busy[0] = True
    begin = time.process_time()
    kernel_s.append(speed.sample(speed.setup_kernel))
    spent[0] += time.process_time() - begin
    busy[0] = False


sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sample()
# A real-time timer: with a CPU-time timer armed, this kernel's process
# clock only advances at scheduler ticks.
signal.signal(signal.SIGALRM, sample)
signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

spent_before = spent[0]
importing = time.process_time()
import exactqfa.cli  # noqa: E402,F401

imported = time.process_time()
import_s = imported - importing - (spent[0] - spent_before)

import workloads  # noqa: E402

spent_before = spent[0]
loaded = time.process_time()
workloads.WORKLOADS[sys.argv[1]].build()
build_s = time.process_time() - loaded - (spent[0] - spent_before)

signal.setitimer(signal.ITIMER_REAL, 0)
sample()
kernel_s.sort()
print(
    json.dumps(
        {
            "import_s": import_s,
            "build_s": build_s,
            "kernel_s": kernel_s[len(kernel_s) // 2],
            "spent_s": spent[0],
        }
    )
)
