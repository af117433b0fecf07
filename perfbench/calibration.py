"""Following the host's speed, so that timings do not drift with it.

On a shared host the speed of every kind of Python work drifts together,
by up to a third over tens of seconds.  A run times a fixed piece of
pure-Python symbolic work from the benchmark's own code (about 1 ms)
between the ops it measures, and multiplies each op's time by
``REF_S`` over the median task time around it: scaled times are those
of a host on which the task takes ``REF_S``.  The task does not use the
library, so a change to the library cannot move the yardstick.

Set-up times follow a different yardstick, since the task above did not
track how the cost of starting a process and importing modules drifts.
Each fresh start of the benchmark is paired with a start of an
interpreter that imports numpy, the library's one third-party
dependency, and nothing of the library's; the start's time is multiplied
by ``START_REF_S`` over the yardstick's.  Over sixteen sets of starts a
few minutes apart on a 2-vCPU virtual machine, the wall-clock median
spread by 0.21 (quartile distance over median), the scaled one by 0.05.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter

import inputs

REF_S = 1e-3
EVERY_S = 0.1  # at most this often between ops
WINDOW = 3  # samples on either side of a measurement
START_ARGV = ("-c", "import numpy")
START_REF_S = 0.15

_rng = random.Random(0)
_bases = [inputs.random_base(_rng, *inputs.ACCEPTANCE_SHAPE) for _ in range(16)]
_pairs = [
    (P, inputs.random_external_address(_rng, P))
    for P in map(inputs.Partition, _bases)
    for _ in range(4)
]


def task_seconds() -> float:
    """Time one run of the calibration task."""
    t0 = perf_counter()
    for P, t in _pairs:
        P.itinerary(t)
    return perf_counter() - t0


def scale(samples) -> float:
    """Factor that turns times measured beside ``samples`` into reference time."""
    return REF_S / statistics.median(samples)
