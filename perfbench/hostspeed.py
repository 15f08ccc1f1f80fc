"""Host-speed probe: a fixed reference kernel timed between and inside
operations.

The reference machine is a VM on a shared host whose speed drifts by up to
1.9x in phases of seconds to minutes, and process CPU time drifts with wall
time, so no clock inside the VM can subtract the drift.  The benchmark
therefore runs this fixed kernel before and after each stretch of measured
work, and every IN_OP_PROBE_S inside a long operation, and expresses the
work's wall time at a nominal host speed:

    normalized = wall * REFERENCE_PROBE_S / (mean of the probes around and in it)

The kernel is an interpreted loop of small-int arithmetic and dict
stores.  It uses no terna code, so no change to terna can change it.  Of
the kernels tried, it tracked the drift of each of the four workloads,
the sieves included, as well as any other or better: adding shifts and
ORs on half-megabyte integers, or using them alone, did not help.
"""

from __future__ import annotations

import gc
import signal
from contextlib import contextmanager
from time import perf_counter, process_time

# the probe's wall time on the reference machine in a typical phase, so
# that normalized times read close to the wall times seen there
REFERENCE_PROBE_S = 0.012
IN_OP_PROBE_S = 0.2
# an in-op probe is taken only when this process kept at least this share
# of a core busy since the last one
BUSY_SHARE = 0.8


def _kernel() -> int:
    d = {}
    s = 0
    for i in range(64_000):
        s += (i * i) % 7
        d[i & 1023] = s
    return s


def probe() -> float:
    """Wall seconds of one run of the reference kernel.  The collector is
    off meanwhile, so that garbage left by terna is not charged to it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        _kernel()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def factor(probes) -> float:
    """Multiplier from wall seconds to normalized seconds for work run
    between and during the given probes."""
    return REFERENCE_PROBE_S * len(probes) / sum(probes)


class InOpSampler:
    """Probes the host every IN_OP_PROBE_S while an operation runs, from a
    SIGALRM handler, so that a long operation is normalized by the host's
    speed during it rather than only at its ends.  The handler's own time
    is reported so that it can be taken out of the operation's time.
    A tick finds this process mostly idle while it waits for worker
    processes; it then skips the probe, which would compete with the
    workers for the cores and read slow."""

    def __init__(self):
        self.active = False
        self.probes: list[float] = []
        self.spent = 0.0
        self._since = (0.0, 0.0)  # wall and CPU clocks at the last tick

    def _handler(self, signum, frame):
        if not self.active:
            return
        wall, cpu = perf_counter(), process_time()
        if cpu - self._since[1] >= BUSY_SHARE * (wall - self._since[0]):
            self.probes.append(probe())
            self.spent += perf_counter() - wall
        self._since = (perf_counter(), process_time())

    def begin(self) -> None:
        self.probes, self.spent = [], 0.0
        self._since = (perf_counter(), process_time())
        self.active = True

    def end(self) -> tuple[list[float], float]:
        """Probes taken since begin(), and the seconds they took."""
        self.active = False
        return self.probes, self.spent

    @contextmanager
    def armed(self):
        old = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, IN_OP_PROBE_S, IN_OP_PROBE_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, old)
