"""A fixed reference computation, timed between operations.

The benchmark's host shares its CPUs with other tenants, and the speed it
gives one process drifts by about ±25% over minutes; a fixed pure-Python loop
drifts as much as a crashlearn operation does. Timing this reference work right
before and right after each operation and dividing the op time by it gives the
op's length in reference lengths (`ref`), which stays put when the whole
machine speeds up or slows down and moves when crashlearn does.

The work mixes the kinds crashlearn's ops do, so that it slows down with them:
a pure-Python arithmetic loop, small numpy vector and matrix updates, and
dict, str and JSON handling. It never changes with the program under test.
"""

from __future__ import annotations

import json
import time

import numpy

LOOP_STEPS = 300_000
ARRAY_STEPS = 3_000
TABLE_STEPS = 60_000


def reference_work() -> int:
    total = 0
    for i in range(LOOP_STEPS):
        total += i * i % 7
    vec = numpy.linspace(0.1, 1.0, 8)
    mat = numpy.full((4, 4), 0.25)
    for _ in range(ARRAY_STEPS):
        vec = numpy.log(numpy.exp(vec) + 1.0) - 0.5
        mat = mat @ mat / mat.sum(axis=1, keepdims=True)
    table = {}
    for i in range(TABLE_STEPS):
        table[(i % 97, i % 13)] = [i, str(i)]
    return total + len(json.dumps(list(table.values())))


def reference_seconds(at_least: float = 0.0) -> float:
    """Seconds the reference work takes now: the mean over as many rounds as
    fill `at_least` seconds, and at least one."""
    rounds = 0
    start = time.perf_counter()
    while True:
        reference_work()
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed >= at_least:
            return elapsed / rounds
