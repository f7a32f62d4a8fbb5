"""Host-speed probe: a fixed piece of work that does not use steinbounds.

On a shared host the same pass runs up to 1.7x slower while the neighbours
are busy, and the speed changes within seconds as well as over minutes.  CPU
time slows with it (the core itself is slower, the process is not
descheduled), so neither wall nor CPU time repeats from run to run.  The
worker therefore pauses its timed region every INTERVAL_S at an operation
boundary and times this probe; each stretch of work between two probes is
scaled by their mean.  A scaled time reads as seconds on a host where one
probe takes REFERENCE_S.

The probe mixes what the package spends its time on: Python bytecode with
float maths, scipy.integrate.quad over a Python callable, small numpy array
expressions, and unmarshalling code objects as an import does.  It must not
change between two commits that are compared, or the comparison is void.
"""

import marshal
import math
import statistics
import time

from scipy.integrate import quad  # bound before a tracer can wrap it

REFERENCE_S = 0.015  # probe time, in seconds, that the scaled times assume
REPS = 3  # one probe is the median of this many repetitions
INTERVAL_S = 0.25  # work between two probes inside a timed region

_CODE = None


def _once() -> None:
    import numpy as np

    acc = 0.0
    for i in range(1, 27000):
        acc += math.sqrt(i) * math.sin(i)
    for k in range(13):
        quad(lambda x, k=k: math.exp(-x * x) * math.cos(k * x), 0.0, 5.0)
    x = np.linspace(0.0, 1.0, 200)
    for k in range(330):
        acc += float(np.sum(np.exp(-x * k) * np.sin(x)))
    for _ in range(13):
        exec(marshal.loads(_CODE), {})


def probe_s() -> float:
    """Median wall time of REPS probe repetitions."""
    global _CODE
    if _CODE is None:  # first use: build the code object and warm up
        source = "\n".join(f"def f{i}(x):\n    return x * {i} + {i}" for i in range(300))
        _CODE = marshal.dumps(compile(source, "probe", "exec"))
        _once()
    times = []
    for _ in range(REPS):
        t = time.perf_counter()
        _once()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


class HostClock:
    """Times a region of work, probing host speed at its boundaries.

    ``start()`` probes and starts the clock; ``boundary()``, called between
    operations, probes once at least INTERVAL_S of work has passed since the
    last probe; ``stop()`` probes and returns (wall_s, scaled_s): the work's
    wall time without the probes, and the same scaled stretch by stretch.
    """

    def __init__(self):
        self.wall_s = 0.0
        self.scaled_s = 0.0
        self.probes = 0

    def start(self) -> None:
        self._probe = probe_s()
        self.probes += 1
        self._t = time.perf_counter()

    def _close(self, now: float) -> None:
        work = now - self._t
        probe = probe_s()
        self.probes += 1
        self.wall_s += work
        self.scaled_s += work * REFERENCE_S / ((self._probe + probe) / 2)
        self._probe = probe
        self._t = time.perf_counter()

    def boundary(self) -> None:
        now = time.perf_counter()
        if now - self._t >= INTERVAL_S:
            self._close(now)

    def stop(self) -> tuple[float, float]:
        self._close(time.perf_counter())
        return self.wall_s, self.scaled_s
