"""Machine-speed calibration, so timings from a drifting machine compare.

On a shared machine the speed of one core drifts by up to 2x over seconds
to minutes (frequency and neighbour contention), in pure Python and numpy
alike. Every timed section is therefore bracketed by calibration passes: a
fixed kernel of small numpy operations and interpreter work, shaped like
corm's per-step work but sharing no code with it. A timing is reported in
reference seconds:

    reference = measured * NOMINAL_S / (mean kernel time around it)

i.e. the time the section would have taken had the machine run the kernel
in NOMINAL_S (see Clock for workloads that also stream memory). The speed can change within a second, so besides the points
around each command, short ticks run every few hundredths of a second
between decode or replay steps; their time is left out of every timing. Raw times are reported
beside the reference ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_S = 0.008  # one 400-round kernel pass on a typical 2-CPU sandbox state
NOMINAL_MEM_S = 0.004  # one 5-round memory pass on the same machine
ROUNDS = 400
MEM_ROUNDS = 5
PASSES = 3  # per calibration point; the median rejects a one-off preemption
TICK_ROUNDS, TICK_MEM_ROUNDS = 100, 2  # one short pass per tick


def kernel(n: int) -> float:
    """Interpreter-bound work on cache-resident arrays, like a small-model step."""
    x = np.linspace(-1.0, 1.0, 64)
    keys = np.zeros((64, 16))
    acc = 0.0
    for _ in range(n):
        e = np.exp(x - x.max())
        p = e / e.sum()
        keys = np.vstack([keys[-63:], p[:16][None, :]])
        acc += float(keys @ p[16:32] @ np.ones(keys.shape[0]))
        acc += sum(j * j for j in range(40))
    return acc


class Clock:
    """Calibration points taken during one run, and factors derived from them.

    `mix` is the weight of the memory-streaming kernel (a matrix-vector
    product over 16 MB, beyond the caches) against the interpreter-bound one,
    combined geometrically: 0 for workloads whose arrays stay in cache, more
    for those that stream weights from memory on every step.
    """

    def __init__(self, mix: float = 0.0):
        self.mix = mix
        self.nominal = NOMINAL_S ** (1.0 - mix) * NOMINAL_MEM_S ** mix
        self._matrix = np.full((1024, 2048), 0.5) if mix else None
        self._vector = np.ones(2048)
        self.points: list[tuple[float, float, float]] = []  # (start, end, combined kernel seconds)

    def _memory(self, n: int) -> float:
        acc = 0.0
        for _ in range(n):
            acc += float((self._matrix @ self._vector)[0])
        return acc

    def calibrate(self, passes: int = PASSES, rounds: int = ROUNDS, mem_rounds: int = MEM_ROUNDS) -> None:
        start = time.perf_counter()
        times = []
        for _ in range(passes):
            s = time.perf_counter()
            kernel(rounds)
            t = (time.perf_counter() - s) * ROUNDS / rounds
            if self.mix:
                s = time.perf_counter()
                self._memory(mem_rounds)
                t_mem = (time.perf_counter() - s) * MEM_ROUNDS / mem_rounds
                t = t ** (1.0 - self.mix) * t_mem ** self.mix
            times.append(t)
        self.points.append((start, time.perf_counter(), statistics.median(times)))

    def tick(self) -> None:
        self.calibrate(passes=1, rounds=TICK_ROUNDS, mem_rounds=TICK_MEM_ROUNDS)

    def inside(self, t0: float, t1: float) -> float:
        """Seconds spent calibrating within [t0, t1], to leave out of a timing."""
        return sum(e - s for s, e, _ in self.points if s >= t0 and e <= t1)

    def factor(self, t0: float, t1: float) -> float:
        """Reference seconds per measured second over [t0, t1].

        Uses the last calibration before the interval, every one inside it
        and the first one after it.
        """
        before = [p for p in self.points if p[1] <= t0][-1:]
        within = [p for p in self.points if p[0] >= t0 and p[1] <= t1]
        after = [p for p in self.points if p[0] >= t1][:1]
        used = before + within + after
        if not used:
            raise ValueError("no calibration point near the timed interval")
        return self.nominal / statistics.fmean(p[2] for p in used)
