"""A reference clock that cancels the drift of a shared machine's speed.

On a shared VM the same code runs 10 to 30 % slower or faster for tens of
seconds at a time, and CPU time drifts with wall time, so no run length
averages the drift away.  The sampler runs a fixed numpy reference rep (no
mapcert code) from a one-shot SIGALRM timer, re-armed after each rep, so
reps interleave with the workload every ``PERIOD_PER_REP`` rep lengths,
also inside long calls.  A rep runs between two bytecodes of the workload,
never inside a numpy call.

    sampler = Sampler("calls"); sampler.start(); ...; sampler.stop()
    net = sampler.net(start, end)            # call time without the reps in it
    scale = sampler.scale(start, end)        # nominal rep / local rep median

A call's latency at reference speed is ``net * scale``: the time the call
would take on a machine where one rep takes its nominal time.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

PERIOD_PER_REP = 5  # workload time between two reps, in nominal rep lengths
WINDOW_S = 1.0  # reps this close to a call set its local speed


class Reference:
    """The fixed reference reps; their inputs do not depend on the workload seed.

    Each rep resembles the numpy work of the workloads that use it, because
    code of another kind speeds up and slows down by other amounts:

    - ``calls``: small kron, SVD, eigh and matmul calls in a Python loop,
      and one 96x48 SVD, like the per-call overhead of the small workloads;
    - ``memory``: an 8 MiB array filled and summed, and one 288x48 SVD, like
      the growing stacks and large factors of analyze-large, whose speed
      follows memory bandwidth more than interpreter speed.
    """

    NOMINAL_S = {"calls": 0.002, "memory": 0.004}  # one rep on an unloaded 2-vCPU Xeon VM

    def __init__(self, kind: str):
        rng = np.random.default_rng(0)
        self.small = [rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4)) for _ in range(8)]
        self.herm = [a @ a.conj().T for a in self.small]
        self.medium = rng.standard_normal((96, 48)) + 1j * rng.standard_normal((96, 48))
        self.stack = rng.standard_normal((288, 48)) + 1j * rng.standard_normal((288, 48))
        self.rep = {"calls": self.calls, "memory": self.memory}[kind]
        self.nominal_s = self.NOMINAL_S[kind]

    def calls(self) -> float:
        acc = 0.0
        for i in range(16):
            a, b = self.small[i % 8], self.small[(i + 3) % 8]
            k = np.kron(a, b.conj())
            s = np.linalg.svd(k[:, :12], compute_uv=False)
            w = np.linalg.eigh(self.herm[i % 8])[0]
            acc += float(s[0]) + float(w[-1]) + abs((k @ k.conj().T).trace())
            acc += sum(x * x for x in range(20))
        return acc + float(np.linalg.svd(self.medium, compute_uv=False)[0])

    def memory(self) -> float:
        acc = float(np.ones(1 << 19, dtype=complex).real.sum())
        return acc + float(np.linalg.svd(self.stack, full_matrices=False)[1][0])


class Sampler:
    """Runs reference reps from a timer while the workload runs."""

    def __init__(self, kind: str):
        self.reference = Reference(kind)
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._cum = [0.0]  # _cum[i] = total duration of the first i reps
        self._previous = None
        self._period_s = PERIOD_PER_REP * self.reference.nominal_s

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.reference.rep()
        end = time.perf_counter()
        self.starts.append(start)
        self.ends.append(end)
        self._cum.append(self._cum[-1] + end - start)
        signal.setitimer(signal.ITIMER_REAL, self._period_s)

    def start(self):
        for _ in range(20):  # warm the rep's caches before it is timed
            self.reference.rep()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self._period_s)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def net(self, start: float, end: float) -> float:
        """Wall time from start to end minus the reps that ran inside it.

        A rep runs whole between two bytecodes, so it lies either inside
        [start, end] or outside it.
        """
        first = bisect.bisect_left(self.starts, start)
        last = bisect.bisect_right(self.ends, end)
        inside = self._cum[last] - self._cum[first] if last > first else 0.0
        return (end - start) - inside

    def scale(self, start: float, end: float) -> float:
        """Nominal rep time over the median rep within WINDOW_S of [start, end]."""
        first = bisect.bisect_left(self.starts, start - WINDOW_S)
        last = bisect.bisect_right(self.starts, end + WINDOW_S)
        return self.reference.nominal_s / statistics.median(self.ends[i] - self.starts[i] for i in range(first, last))

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]
