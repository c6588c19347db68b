"""The speed kernels that benchmark times are scaled by.

``kernel`` scales the items and the spans; ``setup_kernel`` scales the
set-up probes. They are kept apart from run.py so that the set-up probe
can load them without the benchmark's other imports, which would add to
the set-up time it measures.
"""

from fractions import Fraction
from time import process_time

# Kernel times that define one benchmark second as one wall second.
REF_S = 0.001
SETUP_REF_S = 0.0016
# Each sample is the median of this many kernel runs.
REPS = 3


def kernel() -> int:
    """Fixed pure-Python work that uses no exactqfa code: Fraction
    arithmetic on growing powers of 5 and tuple-keyed dict updates, the
    operations the registers spend their time in."""
    seen = {}
    x = Fraction(3, 5)
    for i in range(120):
        x = x * Fraction(4, 5) + Fraction(i, 25)
        seen[(i % 7, x.numerator % 101)] = x
    return len(seen)


def setup_kernel() -> int:
    """Fixed work of the kind that imports and builds do: many small
    strings, tuples, lists and dict entries. A fresh process's set-up
    time follows this kernel's time in proportion; it follows
    ``kernel``'s by only about 0.7 of the change."""
    made = {}
    for i in range(3000):
        made[str(i)] = [i, (i, str(i))]
    return len(made)


def sample(work=kernel) -> float:
    """The median CPU time of REPS runs of a kernel."""
    runs = []
    for _ in range(REPS):
        start = process_time()
        work()
        runs.append(process_time() - start)
    return sorted(runs)[REPS // 2]
