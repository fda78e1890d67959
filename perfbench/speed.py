"""Host speed probe.

The benchmark shares its host, whose speed for pure-Python code moves by
up to 2x within seconds for the same instructions (CPU time moves with
wall time, so this is not time stolen by the hypervisor).  Three fixed
snippets, each a fraction of a millisecond, sample that speed: integer and
dict work, building tuples and lists, and modular row operations on short
rows.  A timer signal runs the next one in turn every INTERVAL_S while a
pass runs.  Each sample's slowdown is its duration over the snippet's
reference duration, and the local slowdown is the mean over SMOOTH
samples around it.  A span of the pass is reported as the time it would
have taken at the reference speed: each stretch between two samples is
divided by the local slowdown, and the probe's own time is left out.  The
program under test never runs the snippets, so no change to it can move
the reference.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from itertools import accumulate
from time import perf_counter

INTERVAL_S = 0.025
SMOOTH = 9
MIN_SAMPLES = 45


def _ints() -> int:
    table: dict[int, int] = {}
    acc = 0
    for i in range(1600):
        k = (i * 7919) % 101
        table[k] = table.get(k, 0) + i
        acc += (i * i) % 97
    return acc


def _objects() -> int:
    rows = []
    for i in range(200):
        row = tuple((i * j) % 7 for j in range(8))
        rows.append([x * 3 % 5 for x in row])
    return len({tuple(r[:2]): r for r in rows})


def _rows() -> int:
    m = [[(i * 31 + j * 17) % 7 for j in range(12)] for i in range(12)]
    seen = {}
    for r in range(12):
        pivot = m[r][r] or 1
        for i in range(12):
            if i != r and m[i][r]:
                f = m[i][r] * pivot
                m[i] = [(x - f * y) % 7 for x, y in zip(m[i], m[r])]
        seen[tuple(m[r])] = r
    return len(seen)


# (snippet, its duration in seconds at the reference speed)
SNIPPETS = ((_ints, 350e-6), (_objects, 500e-6), (_rows, 250e-6))


def sample(k: int) -> tuple[float, float]:
    """Run snippet k mod 3; return (its duration, its slowdown)."""
    snippet, reference = SNIPPETS[k % len(SNIPPETS)]
    t0 = perf_counter()
    snippet()
    took = perf_counter() - t0
    return took, took / reference


def slowdown_now(count: int = 3 * len(SNIPPETS)) -> float:
    """Mean slowdown over a few samples taken right now (>1 is slower)."""
    return statistics.mean(sample(k)[1] for k in range(count))


class SpeedProbe:
    """Samples the host from SIGALRM while the ``with`` block runs.

    With ``concurrent=True`` the measured work runs in another process
    while this one waits, so probe time is not taken out of spans.
    """

    def __init__(self, concurrent: bool = False):
        self.concurrent = concurrent
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.slowdowns: list[float] = []
        self._local: list[float] = []

    def _on_alarm(self, signum, frame):
        t0 = perf_counter()
        took, slow = sample(len(self.starts))
        self.starts.append(t0)
        self.durations.append(took)
        self.slowdowns.append(slow)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        while len(self.starts) < MIN_SAMPLES:  # short blocks sample afterwards
            self._on_alarm(None, None)
        n, half = len(self.slowdowns), SMOOTH // 2
        prefix = [0.0, *accumulate(self.slowdowns)]
        self._local = [
            (prefix[min(n, j + half + 1)] - prefix[max(0, j - half)])
            / (min(n, j + half + 1) - max(0, j - half))
            for j in range(n)
        ]
        return False

    @property
    def slowdown(self) -> float:
        return statistics.mean(self.slowdowns)

    def scaled(self, a: float, b: float) -> float:
        """Seconds the span [a, b) would take at the reference speed."""
        starts, local = self.starts, self._local
        j = max(bisect.bisect_right(starts, a) - 1, 0)
        total, t = 0.0, a
        while t < b:
            end = min(b, starts[j + 1]) if j + 1 < len(starts) else b
            span = end - t
            if not self.concurrent and starts[j] < end:
                probe_end = starts[j] + self.durations[j]
                span -= max(0.0, min(end, probe_end) - max(t, starts[j]))
            total += span / local[j]
            t, j = end, min(j + 1, len(starts) - 1)
        return total
