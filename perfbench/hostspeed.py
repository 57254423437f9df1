"""Host speed probe: a fixed piece of work that uses no boostlink code.

On a host shared with other tenants, outside load slows everything this
process runs by a common factor, up to about 1.8, in episodes that last from
a second to about a minute; the guest sees no steal time, so neither wall
time nor CPU time leaves it out.  Timed side by side with the ops, this
probe slowed by the same factor as ``pair``, ``negativity`` and ``purify``
ops (their ratios to it stayed within about 7% between a quiet and a slowed
host), so the benchmark divides the factor out: a run times the probe between
its ops with the same fastest-pass estimator as the ops, and reports
end-to-end times scaled to the host running at ``REFERENCE_S``.

The probe mixes interpreted work on small objects with small numpy calls,
as the ops do.  It must not change along with the program: a change to
``src/`` leaves it alone, so the scaling cannot absorb a real speed-up or
slow-down of the program.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy

# Probe time on the reference host (2 vCPUs of an Intel Xeon at 2.1 GHz,
# L2 2 MiB, Python 3.11.7, numpy 2.4.6 on one OpenBLAS thread) when quiet.
# Only the scale of the reported times depends on it, not their ratios.
REFERENCE_S = 4.15e-3

_POINTS = 2000
_SOLVES = 40
_VECTORS = 75
_MATRIX = numpy.cos(numpy.arange(256.0)).reshape(16, 16)
_MATRIX = _MATRIX + _MATRIX.T


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float):
        self.x = x
        self.y = y


def _work() -> float:
    acc = 0.0
    for i in range(_POINTS):  # interpreted float and object work
        point = _Point(math.cos(i * 1e-3), math.sin(i * 1e-3))
        fields = {"x": point.x, "y": point.y}
        acc += abs(complex(fields["x"], fields["y"])) * point.x
    for _ in range(_SOLVES):  # 16x16 eigensolves and products
        acc += float(numpy.linalg.eigvalsh(_MATRIX)[0]) + float((_MATRIX @ _MATRIX).trace())
    for i in range(_VECTORS):  # many calls on tiny arrays
        vector = numpy.array([math.cos(i), math.sin(i), 0.5])
        unit = vector / numpy.linalg.norm(vector)
        small = numpy.outer(unit, unit) + numpy.eye(3)
        acc += float(numpy.linalg.eigvalsh(small)[0])
        acc += float(numpy.kron(small[:2, :2], small[1:, 1:]).trace())
    return acc


def probe() -> float:
    """Seconds one run of the fixed work takes, timed on its second run:
    the first run after other code can pay once for state that code left
    behind (about 2 ms more for the interpreted part right after a
    ``purify`` op), which would make the probe depend on the program."""
    _work()
    start = time.perf_counter()
    acc = _work()
    elapsed = time.perf_counter() - start
    if not math.isfinite(acc):
        raise RuntimeError("host speed probe computed a non-finite value")
    return elapsed


def slowdown(slots: list[list[float]]) -> float:
    """How much slower than the reference the host ran: ``slots[i]`` holds
    the probe times at one position of every pass, so each slot's fastest
    pass is taken, as for an op, and the median over slots is compared with
    ``REFERENCE_S``."""
    return statistics.median(min(times) for times in slots) / REFERENCE_S
