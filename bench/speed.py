"""CPU speed probes, to scale a pass's times to one fixed reference speed.

On a shared host the CPU speed a process gets can change by 1.5x for
stretches of tens of seconds.  Seconds measured in one stretch then do not
compare with seconds measured in another.  A pass therefore runs a fixed
probe every INTERVAL_S of wall time.  The probe is the product kernel's
inner step (add two exponent tuples, update a dict).  On the 2-vCPU Xeon
VM the benchmark was built on, such a probe tracked the program's speed
far better than a plain integer loop: the slow stretches slowed memory
access more than arithmetic.  The
probe runs from a SIGALRM handler, so it samples the speed the program
gets even inside a long op, and with the garbage collector off, so that it
never runs a collection for the program.  A pass's speed is

    speed = REFERENCE_PROBE_S / median(p_i)

over its probes p_i; the median keeps a probe hit by an interrupt from
moving a short phase's speed.  A phase that took t seconds is reported as

    (t - time spent in probes) * speed ** SENSITIVITY

the time the same work takes at the reference speed (a probe of
REFERENCE_PROBE_S), where SENSITIVITY says how much the program's time
moves with the probe's.  It moves less than the probe: least-squares fits
of log wall time on log speed over the passes of two ten-seed baselines
gave 0.60 to 0.66 and 0.67 to 0.79 on the four workloads, and 0.68 sits
between them.  Scaling by the full ratio turned a fast level's passes
into high readings.  A set-up is too short for the timer; it is scaled
by the speed of the ops phase that follows it, or, for a set-up-only
pass, of the measured pass just before it.  The raw times are kept next
to the scaled ones.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from operator import add

PROBE_LOOPS = 800
REFERENCE_PROBE_S = 0.0008  # fixed: it defines the unit; changing it rescales every result
SENSITIVITY = 0.68  # fitted on the build VM; see above
INTERVAL_S = 0.05
START_PROBES = 5  # taken when the timer starts, before it has fired in a short phase


def probe() -> float:
    """Seconds one probe takes now."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    acc: dict = {}
    base = (1, 2, 3, 4, 5, 6)
    for i in range(PROBE_LOOPS):
        key = tuple(map(add, base, (i & 7, 0, 0, 0, 0, 1)))
        acc[key] = acc.get(key, 0) + i
    elapsed = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return elapsed


def speed(probes: list[float]) -> float:
    """The probes' speed as a multiple of the reference speed."""
    return REFERENCE_PROBE_S / statistics.median(probes) if probes else 1.0


class Sampler:
    """Probes on a wall-clock timer; ``take`` returns a phase's probes."""

    def __init__(self) -> None:
        self._probes: list[float] = []
        self._spent = 0.0
        self._old_handler = None

    def _run_probe(self, *_) -> None:
        t0 = time.perf_counter()
        self._probes.append(probe())
        self._spent += time.perf_counter() - t0

    def start(self) -> None:
        for _ in range(START_PROBES):
            self._run_probe()
        self._old_handler = signal.signal(signal.SIGALRM, self._run_probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler)

    def take(self) -> tuple[float, float]:
        """(speed, seconds spent probing) since the last take."""
        probes, self._probes = self._probes, []
        spent, self._spent = self._spent, 0.0
        return speed(probes), spent
