"""Host-speed normalisation of measured times.

The benchmark runs on shared hosts whose speed drifts by a factor of up to
two over seconds to tens of seconds, while the same code runs unchanged.
Raw wall times then differ more between two runs of one program than a
real change to it would move them.  So the run interleaves a fixed piece
of the benchmark's own pure-Python work (`calibrate`) with the requests,
and scales each request's wall time by how fast the host ran that work
just before and just after it:

    normalised = wall * REF_S / mean(calibration before, calibration after)

`REF_S` is a fixed constant, so a normalised time reads as seconds on a
host that runs `calibrate` in `REF_S` seconds.  The calibration work does
not touch the program, so a faster or slower program moves normalised
times in the same proportion as wall times.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter
from typing import List, Sequence

# Seconds `calibrate` took on a 2-vCPU x86-64 cloud host in its fast phase.
REF_S = 0.004
# Seconds of requests between two calibrations.
EVERY_S = 0.25


def _work() -> int:
    """Fraction arithmetic, tuple and frozenset keys, dicts, sets and
    sorting: the kinds of work the program's exact geometry and homology
    are made of."""
    acc = Fraction(0)
    table = {}
    for i in range(1, 250):
        f = Fraction(i, 7) * Fraction(3, i + 1) - Fraction(1, 3)
        acc += f
        table[(i % 61, i % 13)] = f
    pts = sorted(((i * 7919) % 1009, (i * 104729) % 1013) for i in range(800))
    cells = {(x // 50, y // 50) for x, y in pts}
    columns: dict = {}
    for i in range(1200):
        columns.setdefault(frozenset((i % 97, i % 89, i % 83)), []).append(i)
    rows = sorted(columns, key=sorted)
    return len(table) + len(cells) + len(rows) + acc.denominator % 7


def calibrate() -> float:
    """Seconds the fixed calibration work takes now: the median of three
    passes, so that one pass cut short by the scheduler does not count."""
    passes = []
    for _ in range(3):
        start = perf_counter()
        _work()
        passes.append(perf_counter() - start)
    return sorted(passes)[1]


class Timeline:
    """Wall times of requests, with calibrations taken between them."""

    def __init__(self):
        self.calibrations: List[float] = [calibrate()]
        self.walls: List[float] = []
        self._segment: List[int] = []  # calibration taken just before each request
        self._since = perf_counter()

    def before_request(self) -> None:
        if perf_counter() - self._since >= EVERY_S:
            self.calibrations.append(calibrate())
            self._since = perf_counter()

    def record(self, wall: float) -> None:
        self.walls.append(wall)
        self._segment.append(len(self.calibrations) - 1)

    def finish(self) -> List[float]:
        """Close the last segment; the requests' normalised times."""
        self.calibrations.append(calibrate())
        return normalise(self.walls, self._segment, self.calibrations)


def normalise(walls: Sequence[float], segment: Sequence[int], calibrations: Sequence[float]) -> List[float]:
    """Scale each wall time by the calibrations that bracket it: request k
    ran between calibrations segment[k] and segment[k] + 1."""
    return [
        wall * REF_S * 2 / (calibrations[i] + calibrations[i + 1])
        for wall, i in zip(walls, segment)
    ]
