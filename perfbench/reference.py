"""How fast the host runs right now, from a fixed reference loop.

On a shared virtual machine the same call can run up to 1.9x slower
while other tenants are busy, in phases from about a second to a minute
and a half -- longer than one run, so repeating a call within a run
cannot remove them.  Process CPU time slows with them, so it does not
help either.

What does help is that such a phase slows all interpreted code alike.
So a run executes a fixed reference loop -- written here, independent of
the program -- before its first timed stretch and after each one, for
a share of the stretch's length.  The host's speed over a stretch is
the loop's nominal time per unit over its mean measured time per unit
in the samples on either side.  A time multiplied by that speed, or a
rate divided by it, reads as it would on the quiet host: the end-to-end
metrics are reported that way, and the measured values next to them.
A change to the program changes the timed calls but not the loop, so it
moves the metrics in full.
"""

from __future__ import annotations

import statistics
from typing import Callable, List

import numpy as np

#: Seconds one :func:`reference_unit` takes on a quiet host (the fastest
#: of many on the 2-vCPU Intel Xeon VM this benchmark was tuned on).
#: Only the unit of the normalized figures depends on it.
UNIT_S = 4.7e-4

#: Share of each timed stretch's length spent in the loop after it, and
#: the shortest sample, so that every sample averages over many units.
SHARE = 0.15
MIN_SAMPLE_S = 0.05


def reference_unit() -> int:
    """A fixed mix of the interpreted work the decoders do: integer
    arithmetic, tuple keys, dictionary and list traffic, and a few small
    numpy calls."""
    table = {}
    acc = 0
    for i in range(1500):
        key = ((i * 7919) % 1021, i & 7)
        acc = (acc + table.get(key, i) * 31) % 1000003
        table[key] = acc
    order = sorted(table.values())
    vector = np.asarray(order[:256], dtype=np.int64)
    return acc + int(np.bitwise_xor.reduce(vector % 97)) + int(vector.argmax())


class HostSpeed:
    """Samples the reference loop around timed stretches.

    Call :meth:`start` before the first stretch and :meth:`after` after
    each one; ``after`` returns the host's speed over that stretch: 1 on
    the quiet host, below 1 while other tenants slow it.  ``speeds``
    keeps every stretch's speed.
    """

    def __init__(self, clock: Callable[[], float]) -> None:
        self.clock = clock
        self.per_unit: List[float] = []
        self.speeds: List[float] = []

    def _sample(self, seconds: float) -> None:
        budget = max(MIN_SAMPLE_S, SHARE * seconds)
        units = 0
        start = self.clock()
        while units == 0 or self.clock() - start < budget:
            reference_unit()
            units += 1
        self.per_unit.append((self.clock() - start) / units)

    def start(self) -> None:
        self._sample(0.0)

    def after(self, seconds: float) -> float:
        self._sample(seconds)
        speed = UNIT_S / statistics.fmean(self.per_unit[-2:])
        self.speeds.append(speed)
        return speed

    def median(self) -> float:
        return statistics.median(self.speeds)
