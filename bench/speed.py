"""Machine-speed probe for steady timings on a shared machine.

On a machine shared with other tenants the same Python code can run up
to about twice as slowly from one second to the next, so raw wall times
of identical runs spread far more than the changes worth detecting. The
probe samples that speed while the measured code runs: an interval timer
interrupts the process every ``INTERVAL_S`` and the signal handler times
one run of ``reference_work``, a fixed piece of pure-Python work in the
package's style that no change to the package can alter. The mean sample
of a window, divided by ``NOMINAL_S``, is the window's slowdown; the
window's wall time, less the probe's own time, divided by that slowdown,
is the time the code would have taken at the nominal speed.
"""

from __future__ import annotations

import gc
import signal
from time import perf_counter

INTERVAL_S = 0.02

# Mean duration of one reference_work() on a 2-vCPU Xeon VM in its quiet
# state; a fixed constant, so reference-speed times compare across runs.
NOMINAL_S = 0.0003

_WORDS = tuple(f"w{i}" for i in range(64))


def reference_work() -> int:
    """Tuples of strings, frozensets, a grouping dict and keyed sorts."""
    items = [(_WORDS[i % 64], _WORDS[(i * 7) % 64], bool(i & 1)) for i in range(400)]
    pairs = set()
    groups: dict = {}
    for item in items:
        pairs.add(frozenset(item[:2]))
        groups.setdefault(item[0], []).append(item)
    total = len(pairs)
    for key in sorted(groups, key=lambda w: (len(w), w)):
        group = sorted(groups[key], key=lambda t: (t[1], t[2]))
        total += len(group) + len({t[1] for t in group} | {key})
    return total


class SpeedProbe:
    """Samples ``reference_work`` durations from a SIGALRM interval timer."""

    def __init__(self):
        self.samples: list[float] = []

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self, _signum, _frame) -> None:
        # Collections would charge the program's heap size to the probe.
        enabled = gc.isenabled()
        gc.disable()
        start = perf_counter()
        reference_work()
        self.samples.append(perf_counter() - start)
        if enabled:
            gc.enable()

    def mark(self) -> int:
        return len(self.samples)

    def reference_time(self, wall_s: float, begin: int, end: int) -> dict:
        """Wall time of the window between two marks, without the probe's
        own samples, and that time at the nominal speed."""
        window = self.samples[begin:end]
        work_s = wall_s - sum(window)
        slowdown = (sum(window) / len(window)) / NOMINAL_S if window else 1.0
        return {"wall_s": work_s, "ref_s": work_s / slowdown, "slowdown": slowdown,
                "samples": len(window)}
