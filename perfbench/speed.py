"""The machine's current speed, from a fixed reference loop.

Other tenants of a shared machine slow a CPU down in phases that last from
under a second to many minutes, by a third and more.  The benchmark pins
itself and its children to one CPU and times this loop just before and
just after every timed step; scaling the step's time by the loop's
(``scale``) removes most of that drift, while a change to the code under
test moves the step's time but not the loop's.

The loop mixes what the timed steps do: interpreter-level arithmetic and
calls, small numpy operations, and JSON encoding and decoding.  It does
not use gramvol.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

#: Seconds the loop takes on the machine the benchmark was tuned on in one
#: of its fast phases; scaled timings are "at this speed".
NOMINAL_S = 0.015

_ROWS = np.linspace(-1.0, 1.0, 3 * 64).reshape(3, 64)
_DOC = [[float(x) for x in row] for row in _ROWS]


def pin_to_one_cpu() -> None:
    """Run this process, and the children it starts, on one CPU, so the
    loop times the CPU the timed steps run on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def reference_s() -> float:
    """Wall seconds of one pass of the reference loop."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(120_000):
        acc += i * i
    gram = _ROWS @ _ROWS.T
    for _ in range(600):
        np.linalg.det(gram + 1.0)
    for _ in range(16):
        json.loads(json.dumps(_DOC))
    return time.perf_counter() - t0


def scale(before_s: float, after_s: float) -> float:
    """Factor that turns a time taken between two loop timings into a time
    at the nominal speed (it multiplies a rate by its inverse)."""
    return NOMINAL_S / (0.5 * (before_s + after_s))
