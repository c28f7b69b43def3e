"""The machine's current speed, from fixed reference work.

On a shared machine the speed of a fixed computation drifts by a quarter
over seconds to minutes, which would swamp any change to trialcraft. The
benchmark therefore times reference work next to the work it measures and
rescales each measured time to the speed at which the reference work takes
its reference time: a time t measured while the reference work took c
seconds is reported as t * reference / c.

Work inside a warm process is referred to `seconds()`, a computation that
should take REFERENCE_SECONDS. Set-up in a fresh process is referred to the
import of numpy in a fresh process, which should take NUMPY_IMPORT_SECONDS:
a computation timed in a warm process tracked fresh-process import times
badly.
"""
from __future__ import annotations

import time

import numpy as np

REFERENCE_SECONDS = 0.010
NUMPY_IMPORT_SECONDS = 0.100
# run with `python3 -c`; prints the seconds numpy's import takes
NUMPY_IMPORT = ("import time; start = time.perf_counter(); import numpy; "
                "print(repr(time.perf_counter() - start))")
_MATRIX = np.random.default_rng(0).standard_normal((40, 40))


def seconds() -> float:
    """Wall time of the reference computation: a pure-Python float loop and
    small numpy products, the two kinds of work trialcraft does."""
    start = time.perf_counter()
    total = 0.0
    for i in range(120_000):
        total += i * 0.5
    for _ in range(600):
        total += float((_MATRIX @ _MATRIX[0]).sum())
    return time.perf_counter() - start


def to_reference(measured: float, observed: float, reference: float = REFERENCE_SECONDS) -> float:
    """`measured` seconds, rescaled from a machine on which reference work
    that takes `reference` seconds took `observed` seconds."""
    return measured * reference / observed
