"""A fixed reference workload that measures how fast the host runs now.

On a shared host the speed of the processor a run gets changes by up to
two times within seconds (a busy or idle neighbour on the same core), and
every job running at that moment changes with it. The benchmark runs a
short probe between jobs, outside the timed calls, and reports each job's
time at a reference speed: its wall time scaled by ``REFERENCE_MS`` over
the mean of the probe just before it and the probe just after it
(:meth:`Speed.factor`). A probe imports nothing from ``repro``, so no
change to the program moves it. It does the kind of work a ``verify``
does — tuple keys hashed into a dict larger than the processor's caches
and read back in scattered order, small slotted objects grouped by key and
sorted: in a fast phase of the host it sped up as much as the jobs did
(about 1.8 times), where a loop that fits in cache sped up less.
"""

import bisect
import gc
import statistics
import time
from typing import List, Tuple

#: Nominal time of one probe: a scaled time is in milliseconds of a host
#: on which the probe takes this long.
REFERENCE_MS = 45.0

#: A probe runs before a job once this much time has passed since the last.
PROBE_EVERY_S = 0.4

_KEYS = 20000


class _Node:
    __slots__ = ("value", "name", "key")

    def __init__(self, value: int, name: str, key: tuple):
        self.value = value
        self.name = name
        self.key = key


def _work() -> int:
    index = {}
    for i in range(_KEYS):
        index[(i * 7919 % _KEYS, "k", i % 13)] = i
    found = 0
    for i in range(_KEYS):
        found += index.get((i * 104729 % _KEYS, "k", i % 13), 0)
    nodes = [_Node(i, str(i), (i % 97, i % 89)) for i in range(_KEYS)]
    groups = {}
    for node in nodes:
        groups.setdefault(node.key, []).append(node.name)
    return found + len(sorted(groups.values(), key=len))


class Speed:
    """The probes of one run: ``(perf_counter when it ended, seconds)``."""

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []

    def probe(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter()
            _work()
            ended = time.perf_counter()
            self.samples.append((ended, ended - started))
        finally:
            if enabled:
                gc.enable()

    def maybe_probe(self) -> None:
        if not self.samples \
                or time.perf_counter() - self.samples[-1][0] >= PROBE_EVERY_S:
            self.probe()

    def factor(self, started: float, ended: float) -> float:
        """Scaled time over wall time for work done between ``started``
        and ``ended``: ``REFERENCE_MS`` over the mean of the last probe
        before it, the probes during it (set-up probes between builds) and
        the first probe after it."""
        ends = [at for at, _ in self.samples]
        first = max(0, bisect.bisect_right(ends, started) - 1)
        last = bisect.bisect_left(ends, ended)
        near = [seconds for _, seconds in self.samples[first:last + 1]]
        return REFERENCE_MS / 1000.0 / statistics.fmean(near)

    def probe_ms(self) -> List[float]:
        return [seconds * 1000.0 for _, seconds in self.samples]
